"""Verification records and their JSON/CSV serialization.

One record captures a single identity instance: the two evaluated sides,
their difference, the bound applied to it, named hypothesis flags, and the
resulting status, which `build_report` alone decides.

REPORT_FIELDS is the one column order, of the JSON objects and of the CSV
rows alike.  `build_report` takes theorem_id, p, e and q, and the instance
fields l, lam, char_index and sqrt_branch as optional keywords.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

REPORT_FIELDS = (
    "theorem_id",
    "p",
    "e",
    "q",
    "l",
    "lambda",
    "char_index",
    "sqrt_branch",
    "lhs_re",
    "lhs_im",
    "rhs_re",
    "rhs_im",
    "abs_diff",
    "tolerance",
    "hypotheses",
    "status",
)

RELATIVE_TOLERANCE = 1e-6


@dataclass(kw_only=True)
class VerificationReport:
    """One record: the columns of REPORT_FIELDS, in that order, but for
    the three renames of `to_dict`."""

    theorem_id: str
    p: int
    e: int
    q: int
    l: int | None = None
    lam: Fraction | None = None
    char_index: int | None = None
    sqrt_branch: str | None = None
    lhs: complex
    rhs: complex
    abs_diff: float
    tolerance: float
    hypotheses: dict[str, bool]
    status: str

    def to_dict(self) -> dict:
        """`lam` is the column "lambda", each side splits into its `_re` and
        `_im` columns, and the hypotheses are copied."""
        row = dict(vars(self), hypotheses=dict(self.hypotheses))
        row["lambda"] = None if self.lam is None else str(self.lam)
        for side in ("lhs", "rhs"):
            row[side + "_re"], row[side + "_im"] = row[side].real, row[side].imag
        return {k: row[k] for k in REPORT_FIELDS}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def build_report(
    *,
    lhs: complex = 0j,
    rhs: complex = 0j,
    hypotheses: dict[str, bool],
    d: int | None = None,
    **instance,
) -> VerificationReport:
    """Assemble a record and decide its status, the one place of that rule.

    A record whose hypotheses are not all met is a "skip", never a "fail".
    Otherwise it is a "pass" when |lhs - rhs| is within the bound
    RELATIVE_TOLERANCE * max(1, |lhs|, |rhs|), one fixed bound for every
    identity, and, where the denominator d of both sides is given (both
    are rationals with denominator d), round(d * lhs) == round(d * rhs) on
    the real parts; else a "fail".  `instance` holds theorem_id, p, e, q
    and the optional instance fields l, lam, char_index and sqrt_branch,
    and goes to VerificationReport as it is."""
    lhs = complex(lhs)
    rhs = complex(rhs)
    diff = abs(lhs - rhs)
    tol_eff = RELATIVE_TOLERANCE * max(1.0, abs(lhs), abs(rhs))
    if not all(hypotheses.values()):
        status = "skip"
    elif diff <= tol_eff and (d is None or round(d * lhs.real) == round(d * rhs.real)):
        status = "pass"
    else:
        status = "fail"
    return VerificationReport(
        lhs=lhs, rhs=rhs, abs_diff=diff, tolerance=tol_eff, hypotheses=hypotheses, status=status, **instance
    )


def report_sort_key(r: VerificationReport):
    """Field-major: the order in which a sweep streams its records."""
    return (
        r.q,
        r.theorem_id,
        r.l if r.l is not None else 0,
        r.lam if r.lam is not None else Fraction(0),
        r.char_index if r.char_index is not None else -1,
        r.sqrt_branch or "",
    )


def flatten_hypotheses(hyps: dict[str, bool]) -> str:
    return ";".join(f"{k}={'true' if v else 'false'}" for k, v in hyps.items())


def csv_header() -> str:
    return ",".join(REPORT_FIELDS)


def report_to_csv_row(r: VerificationReport) -> str:
    d = r.to_dict()
    d["hypotheses"] = flatten_hypotheses(r.hypotheses)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="")
    writer.writerow(
        ["" if d[k] is None else (repr(d[k]) if isinstance(d[k], float) else d[k]) for k in REPORT_FIELDS]
    )
    return buf.getvalue()
