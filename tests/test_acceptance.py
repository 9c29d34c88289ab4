"""Acceptance gate: ten end-to-end criteria over prime-power sweeps.

Each test prints a single "PASS criterion N: ..." or "FAIL criterion N: ..."
line on the live terminal.  Two criteria cover statements that are false as
printed, and assert what the mathematics gives instead:

- Criterion 3: the squared-trace double sum holds for l = 2 and must pass
  there.  For l in {5, 7} its right side evaluates to
  sum W_i^2 + (l-1)(q-1) - (l-3) a_q, with W_i the character sums of the
  curve, and for l = 10 to sum W_i^2 + 8(q-1) - 8 a_q - 2 sum_(j even) W_j:
  the terms after sum W_i^2 stand where a_q^2 has the cross terms
  W_i W_j (i != j), and never equal them.  The test computes the W_i by
  direct enumeration and asserts that the verifier's right side equals that
  value and that it reports fail exactly where a_q^2 differs from it.
- Criterion 9: the trivial-bottom F* reduction at C = eps reads
  F*(eps, eps; x) = 2F1(phi, eps; eps | x) + (q-1)/q eps(x), not the printed
  -(q-2) 2F1(phi, eps; eps | x); the test checks the true branch at every x.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from hgfq import (
    Character,
    CurveSpec,
    brute_force_count,
    character_sum_count,
    good_reduction,
    is_prime,
    make_field,
    series_value,
    verify_2f1_specials,
    verify_2f1_trace,
    verify_3f2_at_4,
    verify_corollary_c3,
    verify_corollary_chi4,
    verify_corollary_lcm,
    verify_lambda_third,
    verify_main_square,
    verify_mccarthy,
    verify_ono,
)
from hgfq.cli import main as cli_main
from hgfq.report import RELATIVE_TOLERANCE

import naive_oracles as naive
import oracle_helpers as oracle
from oracle_helpers import evans_F_star, g_sum_c, gauss_sum, hgf_2f1, jacobi_sum

LAMBDAS = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-1, 2), Fraction(3, 2))

_FIELDS = {}


def field(p, e=1):
    key = (p, e)
    if key not in _FIELDS:
        _FIELDS[key] = make_field(p, e)
    return _FIELDS[key]


def odd_prime_powers(limit, min_q=5):
    """All odd prime powers q = p**e with min_q <= q <= limit, sorted by q."""
    out = []
    for p in range(3, limit + 1):
        if not is_prime(p):
            continue
        q, e = p, 1
        while q <= limit:
            if q >= min_q:
                out.append((p, e, q))
            q, e = q * p, e + 1
    return sorted(out, key=lambda t: t[2])


def _verdict(capsys, n, label, problems, covered=None, floor=None):
    if floor is not None and covered < floor:
        problems.append(f"only {covered} instances exercised, expected >= {floor}")
    line = f"{'FAIL' if problems else 'PASS'} criterion {n}: {label}"
    with capsys.disabled():
        print(line, flush=True)
    detail = " | ".join(problems[:8])
    if len(problems) > 8:
        detail += f" | ... {len(problems)} problems total"
    assert not problems, f"{line} :: {detail}"


def test_criterion_01_count_oracle_agreement(capsys):
    start = time.perf_counter()
    problems = []
    covered = 0
    for p in range(5, 201):
        if not is_prime(p):
            continue
        f = field(p)
        for l in (2, 3, 5):
            if (p - 1) % l:
                continue
            for lam in LAMBDAS:
                curve = CurveSpec(l, lam)
                if not good_reduction(f, l, lam):
                    continue
                covered += 1
                b = brute_force_count(f, curve).a_q
                c = character_sum_count(f, curve).a_q
                if b != c:
                    problems.append(f"q={p} l={l} lambda={lam}: brute {b} != charsum {c}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30:
        problems.append(f"runtime {elapsed:.1f}s exceeds the 30s budget")
    _verdict(capsys, 1, "enumeration and character-sum point counts agree exactly",
             problems, covered, 300)


def test_criterion_02_quadratic_3f2_identity(capsys):
    problems = []
    passes = 0
    grid = [(p, 1) for p in range(3, 101) if is_prime(p) and p % 2]
    grid += [(3, 2), (5, 2), (7, 2)]
    for p, e in grid:
        f = field(p, e)
        for lam in LAMBDAS:
            r = verify_ono(f, lam)
            if r.status == "fail":
                problems.append(f"q={r.q} lambda={lam}: |diff|={r.abs_diff:.3g}")
            elif r.status == "pass":
                passes += 1
    _verdict(capsys, 2, "3F2((1+lambda)/lambda) matches the squared quadratic trace",
             problems, passes, 110)


def _curve_char_sums(f, l, lam):
    """W_i = sum over x of S^i((x-1)(x^2+lambda)) for i = 1..l-1, by direct
    enumeration: the naive oracle on prime fields, field arithmetic otherwise."""
    if f.e == 1:
        return [
            naive.curve_char_sum(f.p, l, i, lam.numerator, lam.denominator)
            for i in range(1, l)
        ]
    le = f.from_rational(lam)
    values = [f.mul(f.sub(x, 1), f.add(f.mul(x, x), le)) for x in range(f.q)]
    return [sum(f.char_value(i * f.m // l, v) for v in values) for i in range(1, l)]


def _exact_int(z, what, problems):
    n = round(z.real)
    if abs(z - n) > 1e-6:
        problems.append(f"{what} = {z:.6g} is not an integer")
    return n


def test_criterion_03_squared_trace_double_sum(capsys):
    # l = 2: the expansion is the classical single-series identity and must pass.
    problems = []
    passes = 0
    for p, e, q in odd_prime_powers(150):
        if (q - 1) % 2:
            continue
        f = field(p, e)
        for lam in LAMBDAS:
            r = verify_main_square(f, 2, lam)
            if r.status == "fail":
                problems.append(
                    f"l=2 q={q} lambda={lam}: a_q^2={r.lhs.real:.0f} rhs={r.rhs.real:.6g}"
                )
            elif r.status == "pass":
                passes += 1
    if passes < 150:
        problems.append(f"only {passes} l=2 instances passed, expected >= 150")
    # l in {5, 7}: the right side is sum W_i^2 + (l-1)(q-1) - (l-3) a_q, and
    # at l = 10 it is sum W_i^2 + 8(q-1) - 8 a_q - 2 sum_(j even) W_j (see
    # verify_main_square), which misses a_q^2 on every instance of this grid
    # (first q = 11, l = 5, lambda = 1: a_q^2 = 25, rhs = 15; at l = 10,
    # a_q^2 = 100, rhs = 20); the verifier must report fail exactly where
    # the two differ.
    covered = 0
    counterexamples = []
    for l in (5, 7, 10):
        for p, e, q in odd_prime_powers(150):
            if (q - 1) % l:
                continue
            f = field(p, e)
            for lam in LAMBDAS:
                r = verify_main_square(f, l, lam)
                if r.status == "skip":
                    continue
                covered += 1
                where = f"l={l} q={q} lambda={lam}"
                w = _curve_char_sums(f, l, lam)
                aq = -_exact_int(sum(w), f"{where}: sum W_i", problems)
                squares = _exact_int(sum(x * x for x in w), f"{where}: sum W_i^2", problems)
                if l % 2:
                    expected = squares + (l - 1) * (q - 1) - (l - 3) * aq
                else:
                    even = _exact_int(sum(w[1::2]), f"{where}: sum W_(2i)", problems)
                    expected = squares + (l - 2) * (q - 1) - (l - 2) * aq - 2 * even
                if r.lhs != aq * aq:
                    problems.append(f"{where}: lhs {r.lhs.real:.6g} != a_q^2 = {aq * aq}")
                if abs(r.rhs - expected) > r.tolerance:
                    problems.append(f"{where}: rhs {r.rhs.real:.6g} != the W_i form {expected}")
                if (r.status == "fail") != (aq * aq != expected):
                    problems.append(
                        f"{where}: status {r.status} with a_q^2={aq * aq} rhs={expected}"
                    )
                if r.status == "fail":
                    counterexamples.append(
                        f"{where}: a_q^2={aq * aq} rhs={expected} sum W_i^2={squares}"
                    )
    print(f"l in (5, 7, 10): {len(counterexamples)} of {covered} instances fail as stated")
    for line in counterexamples:
        print(f"  {line}")
    # l in {3, 4, 6}: one summand always has order 3 or 4, so every instance
    # is a skip.  The per-summand flags are added only once the first premise
    # stage (lambda, congruence, l) holds; then the flag below
    # is the one that rules the instance out.
    ruled_out_by = {3: "summand_1_order_not_3", 4: "summand_1_order_not_4",
                    6: "summand_2_order_not_3"}
    stages = {"summand flags": 0, "first stage only": 0}
    for l, flag in ruled_out_by.items():
        for p, e, q in odd_prime_powers(150):
            if (q - 1) % l:
                continue
            for lam in LAMBDAS:
                r = verify_main_square(field(p, e), l, lam)
                where = f"l={l} q={q} lambda={lam}"
                if r.status != "skip":
                    problems.append(f"{where}: status {r.status}, expected skip")
                if any(k.startswith("summand_") for k in r.hypotheses):
                    stages["summand flags"] += 1
                    if r.hypotheses.get(flag) is not False:
                        problems.append(f"{where}: {flag} is not False")
                else:
                    stages["first stage only"] += 1
    print(f"l in (3, 4, 6): all skips, {stages}")
    if stages != {"summand flags": 279, "first stage only": 11}:
        problems.append(f"l in (3, 4, 6) premise stages {stages}, expected 279 and 11")
    _verdict(capsys, 3, "a_q^2 expansion passes for l = 2 and evaluates to "
             "sum W_i^2 + (l-1)(q-1) - (l-3) a_q for l in (5, 7) and "
             "sum W_i^2 + 8(q-1) - 8 a_q - 2 sum_(j even) W_j for l = 10",
             problems, covered, 100)


def test_criterion_04_trace_2f1(capsys):
    problems = []
    passes = 0
    for l in (2, 4):
        for p, e, q in odd_prime_powers(150):
            if (q - 1) % l or ((q - 1) // l) % 2:
                continue
            f = field(p, e)
            for lam in LAMBDAS:
                rs = [verify_2f1_trace(f, l, lam, br) for br in ("first", "second")]
                if all(r.status == "skip" for r in rs):
                    continue
                if any(r.status == "pass" for r in rs):
                    passes += 1
                else:
                    problems.append(
                        f"l={l} q={q} lambda={lam}: no square-root branch matches, "
                        f"diffs {[round(r.abs_diff, 6) for r in rs]}"
                    )
    cubic = 0
    for p, e, q in odd_prime_powers(150):
        if (q - 1) % 3:
            continue
        f = field(p, e)
        for lam in LAMBDAS:
            r = verify_2f1_trace(f, 3, lam)
            if r.status == "fail":
                problems.append(f"l=3 q={q} lambda={lam}: |diff|={r.abs_diff:.3g}")
            elif r.status == "pass":
                cubic += 1
    if cubic < 60:
        problems.append(f"only {cubic} cubic instances passed, expected >= 60")
    _verdict(capsys, 4, "-a_q as a 2F1(1+lambda) sum (square-root and cubic forms)",
             problems, passes, 100)


def test_criterion_05_lambda_one_third(capsys):
    problems = []
    branches = {"cubic": 0, "q_1_mod_3": 0, "q_2_mod_3": 0}
    for l in (2, 3, 4, 5):
        for p, e, q in odd_prime_powers(150):
            if (q - 1) % l:
                continue
            r = verify_lambda_third(field(p, e), l)
            if r.status == "fail":
                problems.append(f"l={l} q={q}: |diff|={r.abs_diff:.3g}")
            elif r.status == "pass":
                if l == 3:
                    branches["cubic"] += 1
                elif q % 3 == 1:
                    branches["q_1_mod_3"] += 1
                else:
                    branches["q_2_mod_3"] += 1
                    if r.lhs != 0 or r.rhs != 0:
                        problems.append(
                            f"l={l} q={q}: trace should vanish exactly, "
                            f"got lhs={r.lhs} rhs={r.rhs}"
                        )
    for name, count in branches.items():
        if not count:
            problems.append(f"branch {name} never exercised")
    _verdict(capsys, 5, "lambda = 1/3 closed forms on all three branches",
             problems, sum(branches.values()), 70)


def test_criterion_06_one_third_quadratic_closed_forms(capsys):
    problems = []
    passes = 0
    seen = set()
    for p, e, q in odd_prime_powers(200):
        if q % 3 != 1:
            continue
        for r in verify_mccarthy(field(p, e)):
            if r.status == "fail":
                problems.append(f"{r.theorem_id} q={q}: |diff|={r.abs_diff:.3g}")
            elif r.status == "pass":
                passes += 1
                seen.add(q)
    for q in (25, 49):
        if q not in seen:
            problems.append(f"extension field q={q} missing from the grid")
    _verdict(capsys, 6, "both closed forms of the quadratic trace at lambda = 1/3",
             problems, passes, 40)


def test_criterion_07_argument_4_and_special_values(capsys):
    problems = []
    passes = 0
    mod3 = {1: 0, 2: 0}
    for p, e in ((5, 1), (7, 1), (11, 1), (13, 1), (5, 2)):
        f = field(p, e)
        mod3[f.q % 3] += 1
        for s in range(f.m):
            chi = Character(f, s)
            if chi.order not in (1, 3, 4):
                r = verify_3f2_at_4(chi)
                if r.status == "fail":
                    problems.append(f"3f2(4) q={f.q} s={s}: |diff|={r.abs_diff:.3g}")
                elif r.status == "pass":
                    passes += 1
            if s % 2 == 0 and chi.order not in (1, 3):
                for part in ("i", "ii", "iii", "iv"):
                    rs = [
                        verify_2f1_specials(chi, part, br)
                        for br in ("first", "second")
                    ]
                    if any(r.status == "pass" for r in rs):
                        passes += 1
                    else:
                        problems.append(
                            f"special {part} q={f.q} s={s}: no branch matches, "
                            f"diffs {[round(r.abs_diff, 6) for r in rs]}"
                        )
    if not (mod3[1] and mod3[2]):
        problems.append(f"q mod 3 branch coverage incomplete: {mod3}")
    _verdict(capsys, 7, "3F2 at argument 4 and the four 2F1 special values",
             problems, passes, 80)


def test_criterion_08_corollaries(capsys):
    problems = []
    passes = 0
    for p in range(7, 201):
        if not is_prime(p) or p % 3 != 1:
            continue
        for r in verify_corollary_c3(field(p)):
            if r.status == "fail":
                problems.append(f"{r.theorem_id} p={p}: |diff|={r.abs_diff:.3g}")
            elif r.status == "pass":
                passes += 1
    for p, e, q in odd_prime_powers(150):
        if q % 4 != 1:
            continue
        for lam in LAMBDAS:
            r = verify_corollary_chi4(field(p, e), lam)
            if r.status == "fail":
                problems.append(f"chi4 q={q} lambda={lam}: |diff|={r.abs_diff:.3g}")
            elif r.status == "pass":
                passes += 1
    lcm_qs = {2: set(), 3: set(), 5: set()}
    for l in (2, 3, 5):
        d = 3 * l if l != 3 else 3
        for p, e, q in odd_prime_powers(150):
            if (q - 1) % d:
                continue
            r = verify_corollary_lcm(field(p, e), l)
            if r.status == "fail":
                problems.append(f"lcm l={l} q={q}: |diff|={r.abs_diff:.3g}")
            elif r.status == "pass":
                passes += 1
                lcm_qs[l].add(q)
    if lcm_qs[5] != {31, 61, 121}:
        problems.append(f"l=5 lcm grid expected {{31, 61, 121}}, got {sorted(lcm_qs[5])}")
    _verdict(capsys, 8, "quadratic-form, order-4 and lcm-congruence corollaries",
             problems, passes, 150)


def _check_imported_identities(f, problems):
    q, m, h = f.q, f.m, f.m // 2
    tol = 1e-6

    def close(lhs, rhs):
        return abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs))

    # orthogonality, both directions
    for k in range(m):
        total = sum(f.char_value(k, x) for x in range(1, q))
        want = m if k == 0 else 0
        if not close(total, want):
            problems.append(f"q={q}: character {k} sums to {total:.3g} over units")
    for x in range(1, q):
        total = sum(f.char_value(k, x) for k in range(m))
        want = m if x == 1 else 0
        if not close(total, want):
            problems.append(f"q={q}: unit {x} sums to {total:.3g} over characters")

    # Gauss and Jacobi moduli, and the quotient relation between them
    gvals = [gauss_sum(Character(f, k)).to_complex() for k in range(m)]
    if not close(gvals[0], -1):
        problems.append(f"q={q}: G(eps) = {gvals[0]:.3g}, expected -1")
    for k in range(1, m):
        if not close(abs(gvals[k]) ** 2, q):
            problems.append(f"q={q}: |G(chi_{k})|^2 = {abs(gvals[k]) ** 2:.3g}")
    for a in range(1, m):
        for b in range(1, m):
            jab = jacobi_sum(Character(f, a), Character(f, b)).to_complex()
            if (a + b) % m == 0:
                continue
            if not close(abs(jab) ** 2, q):
                problems.append(f"q={q}: |J({a},{b})|^2 = {abs(jab) ** 2:.3g}")
            if not close(jab, gvals[a] * gvals[b] / gvals[(a + b) % m]):
                problems.append(f"q={q}: J({a},{b}) != G G / G")

    # binomial theorem: A(1+x) = delta(x) + q/(q-1) sum (A|chi) chi(x)
    for a in range(m):
        for x in range(q):
            lhs = f.char_value(a, f.add(1, x))
            rhs = (1.0 if x == 0 else 0.0) + q / m * sum(
                f.binom_c(a, k) * f.char_value(k, x) for k in range(m)
            )
            if not close(lhs, rhs):
                problems.append(f"q={q}: binomial theorem off at a={a} x={x}")

    # F*(eps, C; x) reduction to 2F1(phi, eps; C | x).  For C != eps the two
    # are equal.  For C = eps the printed branch -(q-2) 2F1(phi, eps; eps | x)
    # is false off {0, 1}; the definitions give, for x != 0,
    #     (chi|chi) = -1/q + delta(chi) (q-1)/q,
    #     sum over chi of (chi^2|chi) chi(y) = (q-1)/q (1 + phi(1-4y)),
    # hence F*(eps, eps; x) = (q-2-phi(1-x))/q and
    # 2F1(phi, eps; eps | x) = -(1+phi(1-x))/q, so the true branch is
    #     F*(eps, eps; x) = 2F1(phi, eps; eps | x) + (q-1)/q eps(x),
    # both sides vanishing at x = 0.
    eps = Character(f, 0)
    phi = Character(f, h)
    for c in range(m):
        cc = Character(f, c)
        for x in range(q):
            lhs = evans_F_star(eps, cc, x)
            rhs = hgf_2f1(phi, eps, cc, x)
            if c == 0:
                rhs += (q - 1) / q * (x != 0)
            if not close(lhs, rhs):
                problems.append(
                    f"q={q}: F*(eps, C) reduction off at c={c} x={x}: "
                    f"lhs={lhs.real:.6g} rhs={rhs.real:.6g}"
                )
    # the C = eps branch again on prime fields, both sides from the naive
    # definitions; eps and phi do not depend on the choice of generator
    if f.e == 1:
        for x in range(q):
            lhs = naive.evans_F_star(q, 0, 0, x)
            rhs = naive.series(q, [h, 0], [0], x) + (q - 1) / q * (x != 0)
            if not close(lhs, rhs) or not close(lhs, evans_F_star(eps, eps, x)):
                problems.append(
                    f"q={q}: naive F*(eps, eps) branch off at x={x}: "
                    f"lhs={lhs.real:.6g} rhs={rhs.real:.6g}"
                )

    # the two 2F1 argument transformations, both sides at every x at once,
    # under the records' bound RELATIVE_TOLERANCE * max(1, |lhs|, |rhs|)
    triples = [(a, b, c) for a in range(m) for b in range(m) for c in range(m)]
    series = {t: oracle.series_every_x(f, t[:2], t[2:]) for t in triples}
    for a, b, c in triples:
        for variant, (lhs, rhs) in oracle.greene_transform_sides(f, series, a, b, c).items():
            gap = np.abs(lhs - rhs)
            bound = RELATIVE_TOLERANCE * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            for x in np.flatnonzero(gap > bound):
                problems.append(
                    f"q={q}: transform {variant} off at ({a},{b},{c},{x}), |diff|={gap[x]:.3g}"
                )

    # F*(A, C; x/(x-1)) as a quadratic-argument sum, A != C, x outside {0, 1}
    for a in range(m):
        for c in range(m):
            if a == c:
                continue
            A, C = Character(f, a), Character(f, c)
            for x in range(2, q):
                arg = f.div(x, f.sub(x, 1))
                lhs = evans_F_star(A, C, arg)
                rhs = (
                    f.char_value(a, f.from_rational(2))
                    * f.char_value(a - c, f.sub(1, x))
                    / q
                    * g_sum_c(Character(f, a - 2 * c), Character(f, c - a), f.sub(1, x))
                )
                if not close(lhs, rhs):
                    problems.append(f"q={q}: F* quadratic-sum form off at ({a},{c},{x})")

    # 3F2(A, Abar C^2, C phi; C^2, C | x) closed form, x outside {0, 1}:
    # the series side vanishes at x = 0 by convention, so 0 is excluded
    # alongside the stated x != 1
    for a in range(m):
        for c in range(m):
            A, C = Character(f, a), Character(f, c)
            if c == h or a == 0 or a == c or a == 2 * c % m:
                continue
            jratio = f.jacobi_c(2 * c - a, a - c) / (q * q * f.jacobi_c(a, c - a))
            for x in range(2, q):
                lhs = series_value(f, [a, 2 * c - a, c + h], [2 * c, c], x)
                one_minus = f.sub(1, x)
                g = g_sum_c(Character(f, a - 2 * c), Character(f, c - a), one_minus)
                rhs = (
                    -f.char_value(-c, x) * (-1.0 if f.dlog(one_minus) % 2 else 1.0) / q
                    + (-1.0 if c % 2 else 1.0)
                    * f.char_value(a - c, f.from_rational(4))
                    * f.char_value(a - 2 * c, one_minus)
                    * jratio
                    * g
                    * g
                )
                if not close(lhs, rhs):
                    problems.append(f"q={q}: 3F2 closed form off at ({a},{c},{x})")

    # F*(R^2, C; x) against a single 2F1, R^2 outside {eps, C, C^2}
    for r_ix in range(m):
        s = 2 * r_ix % m
        for c in range(m):
            if s == 0 or s == c or s == 2 * c % m:
                continue
            coeff = (
                f.char_value(r_ix, f.from_rational(4))
                * f.jacobi_c(h, c - s)
                / f.jacobi_c(c - r_ix, h - r_ix)
            )
            R2, C = Character(f, s), Character(f, c)
            for x in range(q):
                lhs = evans_F_star(R2, C, x)
                rhs = coeff * series_value(f, [r_ix + h, r_ix], [c], x)
                if not close(lhs, rhs):
                    problems.append(f"q={q}: F* square form off at ({r_ix},{c},{x})")


def test_criterion_09_imported_identity_suite(capsys):
    start = time.perf_counter()
    problems = []
    for p, e in ((5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
        before = len(problems)
        _check_imported_identities(field(p, e), problems)
        print(f"q={p ** e}: {len(problems) - before} problems")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.1f}s exceeds the 2 min budget")
    _verdict(capsys, 9, "imported character-sum and series identities, exhaustively",
             problems)


def test_criterion_10_sweep_determinism(capsys):
    problems = []
    outputs = {}
    for fmt in ("json", "csv"):
        runs = []
        for _ in range(2):
            code = cli_main(["verify", "--format", fmt])
            runs.append((code, capsys.readouterr().out))
        outputs[fmt] = runs
        if runs[0] != runs[1]:
            problems.append(f"two default {fmt} sweeps differ")
    if len(outputs["json"][0][1].splitlines()) != len(outputs["csv"][0][1].splitlines()) - 1:
        problems.append("json and csv sweeps cover different record counts")
    _verdict(capsys, 10, "repeated default sweeps are byte-identical", problems)
