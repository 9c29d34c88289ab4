"""Point counting on y^l = (x-1)(x^2+lambda): the character-sum count and
its oracles, counts at every lambda at once, reduction checks, and the
quadratic-form representation used by the l=3 corollary."""

from collections import Counter
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from hgfq import (
    BadReductionError,
    CongruenceError,
    CurveSpec,
    NotPrimeError,
    brute_force_count,
    character_sum_count,
    cornacchia_3,
    good_reduction,
    is_prime,
    make_field,
    reduce_lambda,
    character_of_order,
    verify_2f1_trace,
    verify_charsum_lemmas,
    verify_corollary_chi4,
    verify_main_square,
    weierstrass_count_l3,
)
from hgfq.curves import curve_char_sum, curve_histogram, curve_values, points_at_infinity

import naive_oracles as naive
import oracle_helpers as oracle
from oracle_helpers import genus, hasse_weil_bound

LAMBDAS = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-1, 2), Fraction(3, 2))


def test_curve_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(1, Fraction(1))
    with pytest.raises(ValueError):
        CurveSpec(2, Fraction(0))
    with pytest.raises(ValueError):
        CurveSpec(2, Fraction(-1))
    c = CurveSpec(3, Fraction(2, 4))
    assert c.lam == Fraction(1, 2)


def test_good_reduction_table():
    f3, f5, f7 = make_field(3), make_field(5), make_field(7)
    assert good_reduction(f5, 2, Fraction(1))
    assert not good_reduction(f5, 5, Fraction(1))  # p | l
    assert not good_reduction(f5, 2, Fraction(3, 2))  # 5 | lam+1
    assert not good_reduction(f3, 2, Fraction(1, 3))  # 3 | denominator
    assert not good_reduction(f7, 2, Fraction(-8, 7))
    assert good_reduction(f7, 2, Fraction(1, 3))
    for f in (f3, f5, f7):
        assert not good_reduction(f, 2, Fraction(0))  # a = 0
        assert not good_reduction(f, 2, Fraction(-1))  # a + b = 0


def test_good_reduction_is_the_valuation_rule():
    # The definition: p does not divide l, and lambda (lambda + 1) has
    # p-adic valuation 0, counted here in its numerator and denominator.
    def valuation(p, r):
        v, n, d = 0, abs(r.numerator), r.denominator
        while n % p == 0:
            n, v = n // p, v + 1
        while d % p == 0:
            d, v = d // p, v - 1
        return v

    lams = {Fraction(n, d) for n in range(-12, 13) for d in range(1, 13)} - {0, -1}
    divides = set()
    for p in range(3, 61, 2):
        if not is_prime(p):
            # a composite p has no field, so it never reaches good_reduction
            with pytest.raises(NotPrimeError):
                make_field(p)
            continue
        f = make_field(p)
        for l in (*range(2, 8), p, 2 * p):
            for lam in lams:
                want = l % p != 0 and valuation(p, lam * (lam + 1)) == 0
                assert good_reduction(f, l, lam) == want, (p, l, lam)
                a, b = lam.numerator, lam.denominator
                named = (("l", l), ("a", a), ("b", b), ("a+b", a + b))
                divides.update(name for name, n in named if n % p == 0)
    assert divides == {"l", "a", "b", "a+b"}


def test_reduce_lambda():
    f = make_field(7)
    assert reduce_lambda(f, CurveSpec(2, Fraction(1, 3))) == f.div(1, 3)
    with pytest.raises(BadReductionError):
        reduce_lambda(make_field(3), CurveSpec(2, Fraction(1, 3)))


def _assert_curve_values_match_oracle(f, lam):
    values = curve_values(f, lam)
    assert values.dtype == np.int64 and values.shape == (f.q,), (f, lam)
    assert values.tolist() == oracle.curve_values_by_field_ops(f, lam), (f, lam)


def test_curve_values_match_the_field_ops_oracle_on_prime_fields():
    # brute_force_count reads curve_values as well, so the two counts agreeing
    # does not check it; the field-ops loop does, at three lambdas on every
    # odd prime up to 2000 and at every lambda up to p = 61
    primes = [p for p in range(3, 2001, 2) if is_prime(p)]
    for p in primes:
        f = make_field(p)
        for lam in range(p) if p <= 61 else (1, (p + 1) // 2, p - 2):
            _assert_curve_values_match_oracle(f, lam)
    assert len(primes) == 302


@pytest.mark.parametrize("p, e", [(99991, 1), (313, 2), (3, 10), (5, 7), (11, 4)])
def test_curve_values_match_the_field_ops_oracle_at_the_cap(p, e):
    # src runs the oracle's own loop when e > 1, so one lambda off F_p does
    # there; at q = 99991 the int64 products pass 2**31, near p**2
    f = make_field(p, e)
    for lam in (1, f.q // 2, f.q - 2) if e == 1 else (f.q - 2,):
        _assert_curve_values_match_oracle(f, lam)


@pytest.mark.parametrize("p, e", [(99991, 1), (313, 2), (3, 10)])
def test_curve_histogram_matches_a_python_bincount_at_the_cap(p, e):
    # lambda = q - 2, and lambda = -g**2, where x**2 + lambda has the roots
    # +-g besides x = 1, so z = 3
    f = make_field(p, e)
    for lam in (f.q - 2, f.sub(0, f.mul(f.generator, f.generator))):
        values = oracle.curve_values_by_field_ops(f, lam)
        counts = Counter(f._dlog[v] for v in values if v)
        hist, z = curve_histogram(f, lam)
        assert hist.tolist() == [counts[t] for t in range(f.m)], lam
        assert z == values.count(0), lam
    assert z == 3


def test_counts_match_naive_oracle():
    for p in (5, 7, 11, 13):
        f = make_field(p)
        for l in (2, 3, 5):
            if (p - 1) % l:
                continue
            for lam in LAMBDAS:
                curve = CurveSpec(l, lam)
                if not good_reduction(f, l, lam):
                    continue
                want = naive.count_affine(p, l, lam.numerator, lam.denominator)
                assert brute_force_count(f, curve).affine == want
                assert character_sum_count(f, curve).affine == want


def test_brute_and_charsum_agree_on_extension_fields():
    for p, e in ((3, 2), (5, 2), (7, 2)):
        f = make_field(p, e)
        for l in (2, 4):
            if f.m % l:
                continue
            for lam in (Fraction(1), Fraction(2)):
                curve = CurveSpec(l, lam)
                if not good_reduction(f, l, lam):
                    continue
                b = brute_force_count(f, curve)
                s = character_sum_count(f, curve)
                assert (b.affine, b.projective, b.a_q) == (
                    s.affine,
                    s.projective,
                    s.a_q,
                )


def test_projective_closure_and_trace():
    f = make_field(13)
    pc = brute_force_count(f, CurveSpec(2, Fraction(1)))
    assert pc.projective == pc.affine + 1
    assert pc.a_q == 1 + f.q - pc.projective
    pc3 = brute_force_count(f, CurveSpec(3, Fraction(1)))
    assert pc3.projective == pc3.affine + 3


# (p, e) -> the points at infinity for l = 2, ..., 9: three when 3 | l and
# q = 1 mod 3, one otherwise; q alone decides, not p
INFINITY_TABLE = {
    (3, 1): (1, 1, 1, 1, 1, 1, 1, 1),
    (3, 2): (1, 1, 1, 1, 1, 1, 1, 1),
    (5, 1): (1, 1, 1, 1, 1, 1, 1, 1),
    (5, 2): (1, 3, 1, 1, 3, 1, 1, 3),
    (5, 3): (1, 1, 1, 1, 1, 1, 1, 1),
    (7, 1): (1, 3, 1, 1, 3, 1, 1, 3),
    (11, 2): (1, 3, 1, 1, 3, 1, 1, 3),
    (13, 1): (1, 3, 1, 1, 3, 1, 1, 3),
}


def test_points_at_infinity_rule():
    for (p, e), want in INFINITY_TABLE.items():
        f = make_field(p, e)
        assert tuple(points_at_infinity(f, l) for l in range(2, 10)) == want, (p, e)
    assert points_at_infinity(make_field(5, 2), 3) == 3  # q = 25, p = 2 mod 3
    assert points_at_infinity(make_field(5, 3), 3) == 1  # q = 125
    assert points_at_infinity(make_field(13), 6) == 3
    assert points_at_infinity(make_field(5), 6) == 1


def test_l3_counts_match_the_weierstrass_model_when_p_is_2_mod_3():
    # a_q does not depend on the model: for p = 2 mod 3 there are three
    # points at infinity at even e (q = 1 mod 3) and one at odd e
    cases = 0
    for p, e in ((5, 1), (5, 2), (5, 3), (5, 4), (11, 1), (11, 2), (17, 1), (17, 2), (23, 2)):
        f = make_field(p, e)
        for lam in LAMBDAS + (Fraction(-3), Fraction(1, 4)):
            curve = CurveSpec(3, lam)
            if not good_reduction(f, 3, lam):
                continue
            assert character_sum_count(f, curve).a_q == weierstrass_count_l3(f, curve).a_q, (
                f.q, lam)
            cases += 1
    assert cases == 55


def test_charsum_count_for_every_l():
    # l need not divide q - 1: the count reads the histogram at the multiples
    # of g = gcd(l, q - 1), and for g = 1 the affine count is q
    kinds = set()
    for p, e in ((5, 1), (7, 1), (11, 1), (13, 1), (19, 1), (3, 2), (5, 2), (3, 3), (7, 2)):
        f = make_field(p, e)
        for l in range(2, 11):
            g = gcd(l, f.m)
            for lam in LAMBDAS:
                curve = CurveSpec(l, lam)
                if not good_reduction(f, l, lam):
                    continue
                assert character_sum_count(f, curve) == brute_force_count(f, curve), (p, e, l, lam)
                kinds.add((e > 1, "coprime" if g == 1 else "partial" if g < l else "divides"))
    assert kinds == {(ext, k) for ext in (False, True) for k in ("coprime", "partial", "divides")}


def test_counts_obey_the_weil_relation_across_degrees():
    # The traces over F_p, ..., F_{p^g} fix the L-polynomial, and so every
    # trace over F_{p^e}: an oracle that shares no code with the count.
    # l = 6 has genus 4 and bad reduction at 3, so its predictions are at
    # q = 5^5 and 5^6; the even degree has three points at infinity, and a
    # count with one there fails.  The primes stop at 53.
    q_max = 5**6
    checked = set()
    for l in (2, 3, 4, 5, 6):
        g = genus(l)
        for p in range(3, 54, 2):
            if not is_prime(p) or p ** (g + 1) > q_max:
                continue
            fields = [make_field(p, e) for e in range(1, q_max.bit_length()) if p**e <= q_max]
            for lam in LAMBDAS + (Fraction(-3),):
                curve = CurveSpec(l, lam)
                if not good_reduction(fields[0], l, lam):
                    continue
                traces = [character_sum_count(f, curve).a_q for f in fields]
                predicted = oracle.weil_predict(traces[:g], p, g, len(traces))
                assert predicted == dict(enumerate(traces[g:], g + 1)), (l, p, lam)
                checked.add((l, p))
    assert {l for l, p in checked} == {2, 3, 4, 5, 6}
    assert (5, 3) in checked and (4, 7) in checked and (2, 53) in checked
    assert (3, 5) in checked and (6, 5) in checked


def test_curve_char_sum_matches_per_x_sums():
    # W(chi_s) from the histogram against an independent sum on prime fields
    for p in (5, 7, 11, 13):
        f = make_field(p)
        for lam in LAMBDAS:
            if not good_reduction(f, 2, lam):
                continue
            le = f.from_rational(lam)
            for s in range(f.m):
                want = naive.curve_char_sum(p, f.m, s, lam.numerator, lam.denominator)
                assert abs(curve_char_sum(f, s, le) - want) < 1e-9, (p, lam, s)
    # and against scalar char_value sums on extension fields, every s, with
    # lambdas where x**2 + lambda has roots (z = 3) and where it has none
    zeros = set()
    for p, e in ((3, 2), (5, 2), (3, 3)):
        f = make_field(p, e)
        for lam in LAMBDAS:
            if not good_reduction(f, 2, lam):
                continue
            le = f.from_rational(lam)
            values = oracle.curve_values_by_field_ops(f, le)
            hist, z = curve_histogram(f, le)
            assert z == values.count(0) and hist.sum() == f.q - z
            zeros.add(z)
            for s in range(f.m):
                want = sum(f.char_value(s, v) for v in values)
                assert abs(curve_char_sum(f, s, le) - want) < 1e-9, (p, e, lam, s)
    assert zeros == {1, 3}


def test_weierstrass_model_agrees():
    for p in (7, 13, 19, 31):
        f = make_field(p)
        for lam in LAMBDAS:
            curve = CurveSpec(3, lam)
            if not good_reduction(f, 3, lam):
                continue
            assert weierstrass_count_l3(f, curve).a_q == brute_force_count(f, curve).a_q
    with pytest.raises(ValueError):
        weierstrass_count_l3(make_field(7), CurveSpec(2, Fraction(1)))


def test_correlation_counts_match_the_histogram_at_every_lambda():
    # every admissible lambda of each field, rational or not, by its encoding
    cases = 0
    fields = ((5, 1), (7, 1), (13, 1), (31, 1), (101, 1), (211, 1), (1009, 1))
    fields += ((3, 2), (5, 2), (7, 2), (3, 3), (3, 4), (11, 2))
    for p, e in fields:
        f = make_field(p, e)
        histograms = {lam: curve_histogram(f, lam) for lam in range(1, f.q) if f.add(lam, 1)}
        for l in range(2, 7):
            if l % p == 0:
                continue
            counts = oracle.affine_counts_all_lambda(f, l)
            g = gcd(l, f.m)
            for lam, (hist, zeros) in histograms.items():
                want = zeros + g * int(hist[::g].sum())  # the rule character_sum_count reads
                if lam < p:
                    assert character_sum_count(f, CurveSpec(l, Fraction(lam))).affine == want
                assert counts[lam] == want, (f.q, l, lam)
                cases += 1
    assert cases == 8067


@pytest.mark.parametrize("p, e", [(13, 1), (5, 2), (3, 3)])
def test_ono_3f2_at_every_lambda(p, e):
    # q^2 3F2(phi, phi, phi; eps, eps | (1+lambda)/lambda) = phi(-lambda)(a_q^2 - q)
    f = make_field(p, e)
    lams, lhs, rhs = oracle.ono_3f2_every_lambda(f)
    assert len(lams) == f.q - 2
    assert (np.rint(lhs.real) == rhs).all()
    assert np.abs(lhs - rhs).max() < 1e-9
    for lam in range(1, p - 1):  # the rational lambdas, against the sweep's count
        i = int(np.flatnonzero(lams == lam)[0])
        a_q = character_sum_count(f, CurveSpec(2, Fraction(lam))).a_q
        phi = -1 if f.dlog(f.sub(0, lam)) % 2 else 1
        assert rhs[i] == phi * (a_q * a_q - f.q)


@pytest.mark.parametrize("l", [2, 5, 10])
@pytest.mark.parametrize("p, e", [(11, 1), (31, 1), (41, 1), (3, 4), (11, 2)])
def test_aq_square_3f2_at_every_lambda(p, e, l):
    # criterion 3's form at every admissible lambda: the right side of the
    # squared-trace expansion is a_q^2 at l = 2, at l = 5 it is
    # sum W_i^2 + 4(q-1) - 2 a_q, with a_q = -sum W_i, and at l = 10, where
    # 2q times the even-l tail is 2 sum W_j over even j (the square-root
    # lemma at S^-2i), it is sum W_i^2 + 8(q-1) - 8 a_q - 2 sum_(j even) W_j,
    # which misses a_q^2 at every lambda of these fields; each side rounded
    f = make_field(p, e)
    lams, aq_square, rhs = oracle.aq_square_every_lambda(f, l)
    assert len(lams) == f.q - 2
    w = [oracle.curve_char_sums_all_lambda(f, i * f.m // l)[lams] for i in range(1, l)]
    a_q = -np.rint(sum(w).real).astype(np.int64)
    assert (aq_square == a_q * a_q).all()
    squares = np.rint(sum(x * x for x in w).real).astype(np.int64)
    if l == 2:
        want = aq_square
    elif l == 5:
        want = squares + 4 * f.m - 2 * a_q
    else:
        even = np.rint(sum(w[j - 1] for j in range(2, l, 2)).real).astype(np.int64)
        want = squares + 8 * f.m - 8 * a_q - 2 * even
        assert (aq_square != want).all()
    assert (np.rint(rhs.real) == want).all()
    assert np.abs(rhs - want).max() < 1e-9
    compared = 0
    for lam in LAMBDAS:  # the rational lambdas, against the sweep's record
        record = verify_main_square(f, l, lam)
        if record.status == "skip":
            continue
        i = int(np.flatnonzero(lams == f.from_rational(lam))[0])
        assert record.lhs == aq_square[i], (f.q, l, lam)
        assert abs(record.rhs - rhs[i]) < 1e-9, (f.q, l, lam)
        compared += 1
    assert compared >= 2


@pytest.mark.parametrize("p, e", [(13, 1), (5, 2), (31, 1), (7, 2), (11, 2)])
def test_trace_cubic_at_every_lambda(p, e):
    # W_u + W_2u = q sum_i 2F1(phi, eps; chi_3^i | 1+lambda), each side rounded
    f = make_field(p, e)
    lams, lhs, rhs = oracle.trace_cubic_every_lambda(f)
    assert len(lams) == f.q - 2
    assert (np.rint(lhs.real) == np.rint(rhs.real)).all()
    assert np.abs(lhs - rhs).max() < 1e-9
    compared = 0
    for lam in LAMBDAS:  # the rational lambdas, against the sweep's record
        record = verify_2f1_trace(f, 3, lam)
        if record.status == "skip":
            continue
        i = int(np.flatnonzero(lams == f.from_rational(lam))[0])
        # -a_q is the sum of the W plus the 3 - 1 points at infinity
        assert record.lhs == np.rint(lhs[i].real) + 2, (f.q, lam)
        assert abs(record.rhs - (rhs[i] + 2)) < 1e-9, (f.q, lam)
        compared += 1
    assert compared >= 2


# Every field q <= 150 and l in {2, 4, 5, 7, 8} with l | q-1 and (q-1)/l
# even: the trace_2f1 instances of the sweep's exponents.
TRACE_2F1_GRID = [
    (p, e, l)
    for p in range(3, 151)
    if is_prime(p)
    for e in range(1, 5)
    if p**e <= 150
    for l in (2, 4, 5, 7, 8)
    if (p**e - 1) % (2 * l) == 0
]


@pytest.mark.parametrize("p, e, l", TRACE_2F1_GRID)
def test_trace_2f1_at_every_lambda(p, e, l):
    # -a_q = q sum_i J(phi, S_i) / J(S_i^-2 R_i^-1, phi R_i^-1)
    # 2F1(R_i phi, R_i; S_i^-2 | 1+lambda) in both square-root branches,
    # each side rounded
    f = make_field(p, e)
    for branch in ("first", "second"):
        lams, lhs, rhs = oracle.trace_2f1_every_lambda(f, l, branch)
        assert len(lams) == f.q - 2
        assert (np.rint(lhs.real) == np.rint(rhs.real)).all(), (f.q, l, branch)
        assert np.abs(lhs - rhs).max() < 1e-9, (f.q, l, branch)
        compared = 0
        for lam in LAMBDAS:  # the rational lambdas, against the sweep's record
            record = verify_2f1_trace(f, l, lam, branch)
            if record.status == "skip":
                continue
            i = int(np.flatnonzero(lams == f.from_rational(lam))[0])
            assert record.lhs == np.rint(lhs[i].real), (f.q, l, lam, branch)
            assert abs(record.rhs - rhs[i]) < 1e-9, (f.q, l, lam, branch)
            compared += 1
        assert compared >= 2, (f.q, l, branch)


# Every field q = p^e <= 150 with e <= 3, and its characters of the sweep's
# orders 2, 3, 4 and 5 that divide q - 1.
EVERY_LAMBDA_FIELDS = [(p, e) for p in range(3, 151) if is_prime(p) for e in (1, 2, 3) if p**e <= 150]
LAMBDA_FLAGS = ("lambda_admissible", "good_reduction")


def _assert_agree_at_every_lambda(f, lams, lhs, rhs, record_at):
    """Both sides agree within 1e-9 of their scale at every admissible lambda,
    and equal the record of `record_at(lambda)` at the rational LAMBDAS."""
    assert len(lams) == f.q - 2
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    assert (np.abs(lhs - rhs) <= 1e-9 * scale).all()
    compared = 0
    for lam in LAMBDAS:
        record = record_at(lam)
        if record.status == "skip":
            continue
        i = int(np.flatnonzero(lams == f.from_rational(lam))[0])
        assert abs(record.lhs - lhs[i]) <= 1e-9 * scale[i], lam
        assert abs(record.rhs - rhs[i]) <= 1e-9 * scale[i], lam
        compared += 1
    assert compared >= 2


@pytest.mark.parametrize("p, e", EVERY_LAMBDA_FIELDS)
def test_chi4_square_at_every_lambda(p, e):
    # 3F2(phi, phi, phi; eps, eps | (1+lambda)/lambda)
    # = phi(lambda) 2F1(chi_4bar, chi_4; eps | 1+lambda)^2 - phi(lambda)/q
    f = make_field(p, e)
    if f.m % 4:
        with pytest.raises(ValueError):
            oracle.chi4_square_every_lambda(f)
        return
    lams, lhs, rhs = oracle.chi4_square_every_lambda(f)
    _assert_agree_at_every_lambda(f, lams, lhs, rhs, lambda lam: verify_corollary_chi4(f, lam))


@pytest.mark.parametrize("p, e", EVERY_LAMBDA_FIELDS)
def test_charsum_parts_at_every_lambda(p, e):
    # square_3f2, sqrt_2f1 in both branches and order3_2f1, wherever the
    # verifier's character flags hold; the oracle refuses the rest
    f = make_field(p, e)
    instances = [("square_3f2", "first"), ("sqrt_2f1", "first"), ("sqrt_2f1", "second")]
    instances.append(("order3_2f1", "first"))
    for chi in [character_of_order(f, l) for l in (2, 3, 4, 5) if f.m % l == 0]:
        for part, branch in instances:
            def record_at(lam):
                return verify_charsum_lemmas(chi, lam, part, branch)

            flags = record_at(Fraction(1)).hypotheses
            if not all(v for k, v in flags.items() if k not in LAMBDA_FLAGS):
                with pytest.raises(ValueError):
                    oracle.charsum_every_lambda(f, chi.index, part, branch)
                continue
            lams, lhs, rhs = oracle.charsum_every_lambda(f, chi.index, part, branch)
            _assert_agree_at_every_lambda(f, lams, lhs, rhs, record_at)


def test_genus_and_hasse_weil():
    assert genus(2) == 1
    assert genus(3) == 1
    assert genus(4) == 3
    assert genus(5) == 4
    assert genus(6) == 4
    assert genus(7) == 6
    for p in (5, 7, 11, 13, 17):
        f = make_field(p)
        for l in (2, 3):
            if (p - 1) % l:
                continue
            for lam in LAMBDAS:
                curve = CurveSpec(l, lam)
                if not good_reduction(f, l, lam):
                    continue
                aq = brute_force_count(f, curve).a_q
                assert abs(aq) <= hasse_weil_bound(l, f.q)
    # q = 11^4 = 1 mod 3 gives l = 6 three points at infinity; with one,
    # a_q would be 970, above the bound 968
    f = make_field(11, 4)
    aq = character_sum_count(f, CurveSpec(6, Fraction(1, 3))).a_q
    assert aq == 968 and abs(aq) <= hasse_weil_bound(6, f.q)


def test_cornacchia_values():
    assert cornacchia_3(7) == (2, 1)
    assert cornacchia_3(13) == (1, 2)
    assert cornacchia_3(31) == (2, 3)
    for p in (19, 37, 43, 61, 67, 73, 79, 97, 103):
        x, y = cornacchia_3(p)
        assert x >= 0 and y >= 0
        assert x * x + 3 * y * y == p
    with pytest.raises(CongruenceError):
        cornacchia_3(11)
