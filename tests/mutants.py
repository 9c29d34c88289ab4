"""Mutants that the tests must kill, kept as a table, and the runner that applies them.

Each row of MUTANTS is one small fault put into a file under `src/`: the
exact old text, which must occur in that file exactly once, the new text
that replaces it, and the tests that are expected to fail once it is in:
tier-1 tests under `tests/`, or cap-tier tests under `cap/`.
`tests/test_mutants.py` checks in tier-1 that every old text still occurs
once and that every named test still exists.

    python tests/mutants.py

applies the mutants one at a time, each to a fresh temporary copy of `src`,
`tests`, `cap`, `bench` (without its `results/`) and `pyproject.toml`, and
runs only its named tests there with `pytest -x`.  `bench` is copied because
two tier-1 tests start `bench/tracer.py`.  It never edits the checkout and
starts one pytest process at a time.  It exits 1 when any mutant survives
(its tests all pass) or its tests cannot run (pytest exits with anything
but 1), and 0 when every mutant is killed.  A change that adds an oracle
adds its mutants here (mutation analysis: DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer, 1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # The t = b fill of a binomial row with its sign flipped.
    Mutant(
        "src/hgfq/field.py",
        "row = np.full(m, -1.0 / self.q, dtype=complex)",
        "row = np.full(m, 1.0 / self.q, dtype=complex)",
        ("tests/test_charsums.py::test_binom_rows_match_scalar_binomials",),
    ),
    # A binomial row that reads only k = -t from binom_c.  At k = -b it is then
    # G[t-b] H[0] H[t-b], -1/q up to rounding, so only an exact check sees it.
    Mutant(
        "src/hgfq/field.py",
        "for k in {-t % m, -b % m}:",
        "for k in {-t % m}:",
        ("tests/test_charsums.py::test_binom_rows_match_bincount_oracle",),
    ),
    # The denominator check dropped from the status rule.
    Mutant(
        "src/hgfq/report.py",
        "elif diff <= tol_eff and (d is None or round(d * lhs.real) == round(d * rhs.real)):",
        "elif diff <= tol_eff:",
        ("tests/test_report.py::test_denominator_gate",),
    ),
    # The even-l tail of the squared-trace right side with its sign flipped.
    Mutant(
        "src/hgfq/verifier.py",
        "rhs += (l - 2) * m - (l - 2) * aq - 2 * q * tail",
        "rhs += (l - 2) * m - (l - 2) * aq + 2 * q * tail",
        ("tests/test_curves.py::test_aq_square_3f2_at_every_lambda",),
    ),
    # x + 1 for x - 1 in the prime-field curve values.
    Mutant(
        "src/hgfq/curves.py",
        "v *= x - 1",
        "v *= x + 1",
        ("tests/test_curves.py::test_curve_values_match_the_field_ops_oracle_on_prime_fields",),
    ),
    # Three points at infinity only at l = 3, not at every l divisible by 3.
    Mutant(
        "src/hgfq/curves.py",
        "return 3 if l % 3 == 0 and field.q % 3 == 1 else 1",
        "return 3 if l == 3 and field.q % 3 == 1 else 1",
        ("tests/test_curves.py::test_points_at_infinity_rule",),
    ),
    # Three points at infinity keyed on p, not on q: wrong on F_{p^2} with p = 2 (mod 3).
    Mutant(
        "src/hgfq/curves.py",
        "field.q % 3 == 1 else 1",
        "field.p % 3 == 1 else 1",
        ("tests/test_curves.py::test_points_at_infinity_rule",),
    ),
    # phi(lambda) for phi(-lambda) on the right side of Ono's 3F2 identity.
    Mutant(
        "src/hgfq/verifier.py",
        "return lhs, _phi(f, -lam) * (aq * aq - q) / q**2",
        "return lhs, _phi(f, lam) * (aq * aq - q) / q**2",
        ("tests/test_acceptance.py::test_criterion_02_quadratic_3f2_identity",),
    ),
    # The points at infinity - 1 dropped from every -a_q closed form.
    Mutant(
        "src/hgfq/verifier.py",
        "return rhs + extra if extra else rhs",
        "return rhs",
        ("tests/test_acceptance.py::test_criterion_04_trace_2f1",),
    ),
    # The phi(lambda)/q term of chi4_square's right side with its sign flipped.
    Mutant(
        "src/hgfq/verifier.py",
        "return lhs, sign * inner * inner - sign / q",
        "return lhs, sign * inner * inner + sign / q",
        ("tests/test_curves.py::test_chi4_square_at_every_lambda",),
    ),
    # The Jacobi ratio of the sqrt_2f1 part taken from the other branch's formula.
    Mutant(
        "src/hgfq/verifier.py",
        "return lhs, q * j_phi / j_root * series_value(f, [r + h, r], [-2 * s], one_plus)",
        "return lhs, q * j_root / j_phi * series_value(f, [r + h, r], [-2 * s], one_plus)",
        ("tests/test_curves.py::test_charsum_parts_at_every_lambda",),
    ),
    # from_rational's denominator not inverted: n * d for n / d.
    Mutant(
        "src/hgfq/field.py",
        "pow(fr.denominator, -1, self.p)",
        "pow(fr.denominator, 1, self.p)",
        ("tests/test_field.py::test_from_rational_reduces_in_the_prime_subfield",),
    ),
    # A grid bound of exactly the cap refused.  Tier-1 checks only the refusals
    # around it, so only the cap tier's sweeps at --q-cap 100000 see it.
    Mutant(
        "src/hgfq/verifier.py",
        "if not 3 <= self.q_cap <= DEFAULT_Q_CAP:",
        "if not 3 <= self.q_cap < DEFAULT_Q_CAP:",
        ("cap/test_cap.py::test_verify_at_the_cap",),
    ),
    # Every binomial row of a series held at once, not one at a time.
    Mutant(
        "src/hgfq/hgf.py",
        "for t, b in zip(tops, [0, *bottoms]):\n        product *= field.binom_row(t, b)",
        "for row in [field.binom_row(t, b) for t, b in zip(tops, [0, *bottoms])]:\n        product *= row",
        ("tests/test_hgf.py::test_series_working_set_does_not_grow_with_rows",),
    ),
    # Evans's first binomial (A chi^2 | chi) read as (A chi | chi).
    Mutant(
        "src/hgfq/hgf.py",
        "field.binom_c(a.index + 2 * k, k)",
        "field.binom_c(a.index + k, k)",
        ("tests/test_hgf.py::test_evans_f_matches_naive_oracle",),
    ),
    # The digit array kept alive through the list builds of `Field._build_tables`:
    # about 3.7 MB more at 3^10, over that field's 8 MB cap-tier bound.
    Mutant(
        "src/hgfq/field.py",
        "del digits",
        "pass  # the digit array kept alive",
        ("cap/test_cap.py::test_field_tables_at_the_cap",),
    ),
    # Not a row: `del exp` dropped from `Field._build_tables`.  It keeps about
    # 0.5 MB more at 3^10, inside the noise of any bound a cap test could hold.
    # Not a row: the first `% p` of the prime-field `curve_values` dropped.  The
    # product (x^2 + lambda)(x - 1) stays below p^3 < 2^63 for p below about
    # 2.1e6, so the mutant is equivalent on every field under the cap.
)


def run(mutant: Mutant) -> int:
    """Apply `mutant` to a temporary copy of the tree and return the exit status of its tests."""
    with tempfile.TemporaryDirectory(prefix="hgfq-mutant-") as tmp:
        junk = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "results")
        for name in ("src", "tests", "cap", "bench"):
            shutil.copytree(ROOT / name, Path(tmp, name), ignore=junk)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = Path(tmp, mutant.file)
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.file}: old text occurs {text.count(mutant.old)} times: {mutant.old!r}")
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(tmp, "src")), str(Path(tmp, "tests"))]))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        return subprocess.run(argv, cwd=tmp, env=env, capture_output=True).returncode


def main() -> int:
    survivors = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        code = run(mutant)
        # pytest exits 1 when a test failed; 0 is a survivor, anything else a broken run
        verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR (pytest exit {code})"
        survivors += code != 1
        print(f"{verdict:>8}  {time.perf_counter() - t0:5.1f} s  {mutant.file}: {mutant.new!r}", flush=True)
    elapsed = time.perf_counter() - start
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed in {elapsed:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
