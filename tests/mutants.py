"""Mutants that the tests must kill, kept as a table, and the runner that applies them.

Each row of MUTANTS is one small fault put into a file under `src/`: the
exact old text, which must occur in that file exactly once, the new text
that replaces it, and the tests that are expected to fail once it is in.
`tests/test_mutants.py` checks in tier-1 that every old text still occurs
once and that every named test still exists.

    python tests/mutants.py

applies the mutants one at a time, each to a fresh temporary copy of `src`,
`tests` and `pyproject.toml`, and runs only its named tests there with
`pytest -x`.  It never edits the checkout and starts one pytest process at
a time.  It exits 1 when any mutant survives (its tests all pass) or its
tests cannot run (pytest exits with anything but 1), and 0 when every
mutant is killed.  A change that adds an oracle adds its mutants here
(mutation analysis: DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer, 1978).
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
)


def run(mutant: Mutant) -> int:
    """Apply `mutant` to a temporary copy of the tree and return the exit status of its tests."""
    with tempfile.TemporaryDirectory(prefix="hgfq-mutant-") as tmp:
        junk = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
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
