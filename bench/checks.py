"""Output checks of the verify workloads, against `oracle` only.

Each check function returns a list of problems; an empty list means the
output is correct.  Problem lists are cut to a few entries per kind so a
broken build reports briefly.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from fractions import Fraction

import oracle
from workloads import VerifySpec

REPORT_FIELDS = (
    "theorem_id", "p", "e", "q", "l", "lambda", "char_index", "sqrt_branch",
    "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_diff", "tolerance",
    "hypotheses", "status",
)
FLOAT_FIELDS = ("lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_diff", "tolerance")
OPTIONAL_INT_FIELDS = ("l", "char_index")
DEFAULT_TOLERANCE = 1e-6
# Records whose left side is a_q times a known factor: id -> factor(p, e, q).
AQ_LEFT_SIDES = {
    "trace_2f1": lambda p, e, q: -1.0,
    "trace_2f1_cubic": lambda p, e, q: -1.0,
    "lambda_third": lambda p, e, q: -1.0,
    "lcm_third_trace": lambda p, e, q: -1.0,
    "c3_point_count": lambda p, e, q: 1.0,
    "mccarthy_gauss": lambda p, e, q: -float(oracle.quadratic_char_of_prime_element(p, e, -2)),
    "mccarthy_binomial": lambda p, e, q: -float(oracle.quadratic_char_of_prime_element(p, e, -2)) / q,
}
MAX_PER_KIND = 3
# Below this p the prime-field counts come from the naive double loop.
NAIVE_BELOW = 100


class Problems:
    def __init__(self):
        self.items: list[str] = []
        self._kinds: dict[str, int] = defaultdict(int)

    def add(self, kind: str, detail: str) -> None:
        self._kinds[kind] += 1
        if self._kinds[kind] <= MAX_PER_KIND:
            self.items.append(f"{kind}: {detail}")

    def summary(self) -> list[str]:
        extra = [f"{k}: {n} in all" for k, n in self._kinds.items() if n > MAX_PER_KIND]
        return self.items + extra


class CountOracle:
    """a_q and sum W_i^2 per (p, e, l, lambda), computed once each."""

    def __init__(self):
        self._fields: dict[tuple[int, int], oracle.SmallField] = {}
        self._aq: dict[tuple, int] = {}
        self._w2: dict[tuple, int] = {}

    def field(self, p: int, e: int) -> oracle.SmallField:
        if (p, e) not in self._fields:
            self._fields[(p, e)] = oracle.SmallField(p, e)
        return self._fields[(p, e)]

    def affine(self, p: int, e: int, l: int, lam: Fraction) -> int:
        if e == 1 and p < NAIVE_BELOW:
            return oracle.naive_affine_count(p, l, lam)
        return self.field(p, e).affine_count(l, lam)

    def a_q(self, p: int, e: int, l: int, lam: Fraction) -> int:
        key = (p, e, l, lam)
        if key not in self._aq:
            q = p**e
            self._aq[key] = q + 1 - self.affine(p, e, l, lam) - oracle.points_at_infinity(q, l)
        return self._aq[key]

    def w_square_sum(self, p: int, e: int, l: int, lam: Fraction) -> int:
        key = (p, e, l, lam)
        if key not in self._w2:
            self._w2[key] = self.field(p, e).w_square_sum(l, lam)
        return self._w2[key]


# ----------------------------------------------------------------------
# verify workloads


def _schema_problem(rec) -> str | None:
    if not isinstance(rec, dict) or tuple(rec) != REPORT_FIELDS:
        return "fields differ from the README schema"
    if not isinstance(rec["theorem_id"], str):
        return "theorem_id is not a string"
    for k in ("p", "e", "q"):
        if type(rec[k]) is not int:
            return f"{k} is not an integer"
    if rec["q"] != rec["p"] ** rec["e"]:
        return "q is not p**e"
    for k in OPTIONAL_INT_FIELDS:
        if rec[k] is not None and type(rec[k]) is not int:
            return f"{k} is neither null nor an integer"
    if rec["lambda"] is not None:
        try:
            Fraction(rec["lambda"])
        except (TypeError, ValueError, ZeroDivisionError):
            return "lambda is not a rational string"
    if rec["sqrt_branch"] not in (None, "first", "second"):
        return "unknown sqrt_branch"
    for k in FLOAT_FIELDS:
        if type(rec[k]) not in (int, float) or not math.isfinite(rec[k]):
            return f"{k} is not a finite number"
    hyps = rec["hypotheses"]
    if not isinstance(hyps, dict) or not all(type(v) is bool for v in hyps.values()):
        return "hypotheses is not a map of booleans"
    if rec["status"] not in ("pass", "fail", "skip"):
        return "unknown status"
    return None


def _status_problem(rec) -> str | None:
    lhs = complex(rec["lhs_re"], rec["lhs_im"])
    rhs = complex(rec["rhs_re"], rec["rhs_im"])
    if rec["abs_diff"] != abs(lhs - rhs):
        return "abs_diff is not |lhs - rhs|"
    if rec["tolerance"] != DEFAULT_TOLERANCE * max(1.0, abs(lhs), abs(rhs)):
        return "tolerance is not 1e-6 * max(1, |lhs|, |rhs|)"
    if not all(rec["hypotheses"].values()):
        derived = "skip"
    else:
        derived = "pass" if rec["abs_diff"] <= rec["tolerance"] else "fail"
    if rec["status"] != derived:
        return f"status {rec['status']} but the record says {derived}"
    return None


def _where(rec) -> str:
    return (
        f"{rec['theorem_id']} q={rec['q']} l={rec['l']} lambda={rec['lambda']} "
        f"char={rec['char_index']} branch={rec['sqrt_branch']}"
    )


def check_verify_output(
    spec: VerifySpec, text: str, exit_code: int, counts: CountOracle
) -> list[str]:
    """Check one `hgfq verify` stdout; returns the problems found."""
    problems = Problems()
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            problems.add("unparsable line", f"line {lineno}")
            continue
        bad = _schema_problem(rec)
        if bad:
            problems.add("schema", f"line {lineno}: {bad}")
            continue
        records.append(rec)
    expected = spec.expected_records()
    if len(records) != expected or expected == 0:
        problems.add("record count", f"{len(records)} records, the grid asks for {expected}")

    any_fail = False
    for rec in records:
        bad = _status_problem(rec)
        if bad:
            problems.add("status", f"{_where(rec)}: {bad}")
        any_fail |= rec["status"] == "fail"
        if rec["status"] != "skip":
            _check_good_instance(rec, counts, problems)
    want_code = 1 if any_fail else 0
    if exit_code != want_code:
        problems.add("exit status", f"{exit_code}, expected {want_code}")
    return problems.summary()


def _check_good_instance(rec, counts: CountOracle, problems: Problems) -> None:
    tid, p, e, q, l = rec["theorem_id"], rec["p"], rec["e"], rec["q"], rec["l"]
    lam = Fraction(rec["lambda"]) if rec["lambda"] is not None else None
    lhs, rhs = rec["lhs_re"], rec["rhs_re"]
    if tid == "aq_square_3f2":
        aq = counts.a_q(p, e, l, lam)
        if lhs != aq * aq:
            problems.add("a_q", f"{_where(rec)}: left side {lhs}, oracle a_q^2 = {aq * aq}")
        if l == 5:
            # The expansion equals sum W_i^2 + 4(q-1) - 2 a_q, which is a_q^2
            # only where the cross terms happen to agree.
            value = counts.w_square_sum(p, e, l, lam) + 4 * (q - 1) - 2 * aq
            want = "fail" if aq * aq != value else "pass"
            if abs(rhs - value) > DEFAULT_TOLERANCE * max(1.0, abs(value)):
                problems.add("l=5 right side", f"{_where(rec)}: {rhs}, oracle {value}")
            if rec["status"] != want:
                problems.add("l=5 status", f"{_where(rec)}: {rec['status']}, expected {want}")
            return
    elif tid == "ono_3f2":
        aq = counts.a_q(p, e, 2, lam)
        sign = oracle.quadratic_char_of_prime_element(p, e, -oracle.reduce_rational(p, lam))
        scaled = lhs * q * q
        if abs(scaled - round(scaled)) > 1e-6:
            problems.add("ono integrality", f"{_where(rec)}: q^2 lhs = {scaled!r}")
        want = sign * (aq * aq - q)
        if abs(rhs * q * q - want) > DEFAULT_TOLERANCE * max(1.0, abs(want)):
            problems.add("a_q", f"{_where(rec)}: right side {rhs}, oracle gives {want}/q^2")
    elif tid in AQ_LEFT_SIDES:
        aq = counts.a_q(p, e, l, lam)
        want = AQ_LEFT_SIDES[tid](p, e, q) * aq
        if abs(lhs - want) > 1e-9 * max(1.0, abs(want)):
            problems.add("a_q", f"{_where(rec)}: left side {lhs}, oracle gives {want}")
    if rec["status"] != "pass":
        problems.add("good instance", f"{_where(rec)}: {rec['status']}")


def ono_residual_max(text: str) -> float:
    """Largest distance of q^2 * lhs_re from an integer over the non-skip
    ono_3f2 records, the ones whose integrality the checks assert."""
    worst = 0.0
    for line in text.splitlines():
        if '"ono_3f2"' not in line:
            continue
        rec = json.loads(line)
        if rec["status"] == "skip":
            continue
        scaled = rec["lhs_re"] * rec["q"] ** 2
        worst = max(worst, abs(scaled - round(scaled)))
    return worst

