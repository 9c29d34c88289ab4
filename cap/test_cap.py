"""The cap tier: the paper's identities, the CLI's record counts and its
memory bounds at fields up to the cap q = 100000, too slow for tier-1,
which does not collect this directory.  From the repository root:

    python -m pytest -q cap --durations=0

The refusals of fields and grids above the cap are tier-1 tests in
`tests/test_cli.py`, and are not repeated here.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import oracle_helpers as oh
from hgfq import DEFAULT_Q_CAP, CurveSpec, character_sum_count, good_reduction, make_field

ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def test_weil_relation_at_the_cap():
    """The traces a_p, ..., a_{p^g} of a genus-g curve fix its L-polynomial
    and so predict a_{p^e} for every e (`oh.weil_predict`), an oracle that
    shares no code with the count: every field up to the cap of p = 3, 5, 7
    and 11, for each l in 2, ..., 6 prime to p."""
    checked, mismatches = 0, []
    for p in (3, 5, 7, 11):
        fields = [make_field(p, e) for e in range(1, DEFAULT_Q_CAP.bit_length()) if p**e <= DEFAULT_Q_CAP]
        for l in (l for l in (2, 3, 4, 5, 6) if l % p):
            for lam in (Fraction(1), Fraction(-1, 2)):
                if good_reduction(fields[0], l, lam):
                    traces = [character_sum_count(f, CurveSpec(l, lam)).a_q for f in fields]
                    for e, want in oh.weil_predict(traces[: oh.genus(l)], p, oh.genus(l), len(traces)).items():
                        checked += 1
                        if traces[e - 1] != want:
                            mismatches.append((l, lam, p, e, traces[e - 1], want))
    assert checked == 120 and not mismatches


def _aq_square(f, l):
    """The squared-trace expansion in the form acceptance criterion 3 asserts:
    its right side is a_q^2 at l = 2 and sum W_i^2 + (l-1)(q-1) - (l-3) a_q
    at l = 5, with a_q = -sum W_i; and the oracle's a_q^2 is that a_q
    squared.  Both checks are stacked into one pair of sides."""
    lams, aq_square, rhs = oh.aq_square_every_lambda(f, l)
    w = [oh.curve_char_sums_all_lambda(f, i * f.m // l)[lams] for i in range(1, l)]
    a_q = -np.rint(sum(w).real)
    want = aq_square if l == 2 else np.rint(sum(x * x for x in w).real) + (l - 1) * f.m - (l - 3) * a_q
    return lams, np.concatenate([rhs, aq_square]), np.concatenate([want, a_q * a_q])


# (id, q, sides, comparison, lambdas): `sides(field)` gives (lambdas, lhs, rhs)
# at every lambda with lambda (lambda + 1) != 0.  The integer-valued sides are
# compared rounded; chi4_square and charsum_* by a gap of 1e-9 of
# max(1, |lhs|, |rhs|).  trace_2f1 runs at l = 5 and 11, the l below 50 prime
# to 3 that divide 99990 with an even quotient; 99960 = 2^3 3 5 7^2 17, so
# F_99961 has characters of orders 2, 3, 4 and 5, each run on the parts its
# premises admit.
EVERY_LAMBDA = [("ono_3f2", 99991, oh.ono_3f2_every_lambda, "rounded", 99989)]
EVERY_LAMBDA += [(f"aq_square_3f2-l{l}", 99991, partial(_aq_square, l=l), "rounded", 99989) for l in (2, 5)]
EVERY_LAMBDA += [
    (f"trace_2f1-l{l}-{b}", 99991, partial(oh.trace_2f1_every_lambda, l=l, sqrt_branch=b), "rounded", 99989)
    for l in (5, 11)
    for b in ("first", "second")
]
EVERY_LAMBDA += [("chi4_square", 99961, oh.chi4_square_every_lambda, "scaled 1e-9", 99959)]
EVERY_LAMBDA += [
    (f"charsum_{part}-order{o}-{b}", 99961,
     partial(oh.charsum_every_lambda, s=99960 // o, part=part, sqrt_branch=b), "scaled 1e-9", 99959)
    for o, part, b in [
        (2, "square_3f2", "first"), (5, "square_3f2", "first"),
        (2, "sqrt_2f1", "first"), (2, "sqrt_2f1", "second"),
        (4, "sqrt_2f1", "first"), (4, "sqrt_2f1", "second"),
        (5, "sqrt_2f1", "first"), (5, "sqrt_2f1", "second"),
        (3, "order3_2f1", "first"),
    ]
]


@pytest.mark.parametrize("tid, q, sides, comparison, count", EVERY_LAMBDA, ids=[r[0] for r in EVERY_LAMBDA])
def test_every_lambda_at_the_cap(tid, q, sides, comparison, count):
    lams, lhs, rhs = sides(make_field(q))
    if comparison == "rounded":
        bad = np.rint(np.real(lhs)) != np.rint(np.real(rhs))
    else:
        bad = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs))) > 1e-9
    assert (len(lams), int(np.count_nonzero(bad))) == (count, 0), tid


@pytest.mark.parametrize(
    "argv, records, summary",
    [
        (("--primes", "99991:99991"), 157, "# pass=73 fail=5 skip=79"),
        (("--primes", "99900:100000"), 1136, "# pass=561 fail=20 skip=555"),
    ],
    ids=["one-field", "near-the-cap"],
)
def test_verify_at_the_cap(argv, records, summary):
    """The whole catalog on the prime fields of the range, whose point counts
    are one int64 numpy kernel.  Records fail there by design, so the sweep
    exits 1.  No hash is pinned: floats can differ across numpy builds."""
    proc = subprocess.run(
        [sys.executable, "-m", "hgfq", "verify", *argv, "--q-cap", "100000"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout.count("\n"), proc.stderr) == (1, records, summary + "\n")


# A child's ru_maxrss starts from its parent's RSS high-water mark at exec,
# and pytest's is far above hgfq's, so hgfq is spawned from a bare interpreter.
_PEAK = """
import json, os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "hgfq", *sys.argv[1:]], stdout=subprocess.PIPE)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, out.decode()]))
"""


def peak_mb(*argv):
    """(peak RSS in MB, parsed stdout) of `hgfq *argv`, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK, *argv], env=ENV, capture_output=True, text=True, timeout=120, check=True
    )
    code, peak, out = json.loads(proc.stdout)
    assert code == 0, argv
    return peak, json.loads(out)


def test_series_peak_memory_and_integrality_at_the_cap():
    """A series builds its binomial rows one at a time from the field's
    Gauss-sum table, so at q = 99991 it peaks within 24 MB of a child that
    only builds the field.  q^2 3F2(phi, phi, phi; eps, eps | 5) is an
    integer, so the series reports an exact value."""
    series, value = peak_mb("hgf", "--p", "99991", "--top", "phi,phi,phi", "--bottom", "eps,eps", "--x", "5")
    field, _ = peak_mb("fieldinfo", "--p", "99991")
    assert series - field <= 24 and value["exact"] is not None, (series, field, value)


PINNED = {(3, 10): ("x^10 + 2*x^8 + 1", 34), (313, 2): ("x^2 + 3*x + 1", 321), (99991, 1): ("x", 6)}
# MB above the F_9 child.  3^10 peaks about 6.1 MB above it, and 9.8 MB when
# `Field._build_tables` keeps its digit array alive through the list builds,
# so its bound of 8 sees that; 313^2 and 99991 peak 8.6-8.9 MB above it.
BOUND_MB = {(3, 10): 8, (313, 2): 16, (99991, 1): 16}


@pytest.mark.parametrize("p, e", PINNED)
def test_field_tables_at_the_cap(p, e):
    """A field at the cap peaks within `BOUND_MB` of the F_9 child and keeps
    its modulus and generator."""
    base, _ = peak_mb("fieldinfo", "--p", "3", "--e", "2")
    peak, info = peak_mb("fieldinfo", "--p", str(p), "--e", str(e))
    assert peak - base <= BOUND_MB[p, e], (peak, base, info)
    assert (info["modulus"], info["generator"]) == PINNED[p, e], info
