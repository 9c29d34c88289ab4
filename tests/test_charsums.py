"""Jacobi, Gauss, binomial and quadratic-argument sums, with the exact
integer-count representation cross-checked against naive loops."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hgfq import (
    Character,
    make_field,
)
from hgfq.hgf import evans_row

import naive_oracles as naive
import oracle_helpers as oracle
from oracle_helpers import CyclotomicSum, evans_F_star, g_sum, g_sum_c, gauss_sum, jacobi_sum

SMALL_FIELDS = [(5, 1), (7, 1), (11, 1), (13, 1), (101, 1), (3, 2), (5, 2), (7, 2), (3, 3), (3, 5)]


def w_sum(f, s, lam_enc):
    total = 0j
    for x in range(f.q):
        total += f.char_value(s, f.mul(f.sub(x, 1), f.add(f.mul(x, x), lam_enc)))
    return total


def test_cyclotomic_sum_counts_are_exact_integers():
    f = make_field(13)
    for a in range(f.m):
        for b in range(f.m):
            cs = jacobi_sum(Character(f, a), Character(f, b))
            assert isinstance(cs, CyclotomicSum)
            assert cs.counts.dtype == np.int64
            assert int(cs.counts.sum()) == f.q - 2
            assert (cs.counts > 0).all() and (np.diff(cs.exponents) > 0).all()


def test_jacobi_matches_naive_loops():
    for p in (5, 7, 11, 13):
        f = make_field(p)
        for a in range(f.m):
            for b in range(f.m):
                got = jacobi_sum(Character(f, a), Character(f, b)).to_complex()
                want = naive.jacobi(p, a, b)
                assert got == pytest.approx(want, abs=1e-9)


def test_jacobi_special_values():
    f = make_field(11)
    m = f.m
    assert jacobi_sum(Character(f, 0), Character(f, 0)).to_complex() == pytest.approx(
        f.q - 2
    )
    for a in range(1, m):
        # J(A, Abar) = -A(-1)
        got = jacobi_sum(Character(f, a), Character(f, -a)).to_complex()
        assert got == pytest.approx(-((-1.0) ** a))
        # J(A, eps) = -1
        got = jacobi_sum(Character(f, a), Character(f, 0)).to_complex()
        assert got == pytest.approx(-1.0)


def test_jacobi_magnitude():
    for p, e in ((13, 1), (3, 2)):
        f = make_field(p, e)
        m = f.m
        for a in range(1, m):
            for b in range(1, m):
                if (a + b) % m == 0:
                    continue
                j = f.jacobi_c(a, b)
                assert abs(j) ** 2 == pytest.approx(f.q, rel=1e-9)


def test_gauss_sum_order_and_magnitude():
    for p, e in ((13, 1), (3, 2)):
        f = make_field(p, e)
        for k in range(f.m):
            cs = gauss_sum(Character(f, k))
            assert cs.order == f.m * f.p
            g = cs.to_complex()
            if k == 0:
                assert g == pytest.approx(-1.0)
            else:
                assert abs(g) ** 2 == pytest.approx(f.q, rel=1e-9)


def test_gauss_sum_is_sparse():
    # At most q-1 distinct exponents are held, never a vector of length p*(q-1).
    f = make_field(4001)
    chi = Character(f, 7)
    tracemalloc.start()
    try:
        cs = gauss_sum(chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert int(cs.counts.sum()) == f.q - 1
    assert abs(cs.to_complex()) ** 2 == pytest.approx(f.q, rel=1e-9)


def test_jacobi_gauss_factorization():
    for p, e in ((11, 1), (3, 2)):
        f = make_field(p, e)
        m = f.m
        for a in range(1, m):
            for b in range(1, m):
                if (a + b) % m == 0:
                    continue
                # gauss_c and jacobi_c both read the Gauss table, so the right
                # side comes from the exact root-of-unity counts instead.
                lhs = f.jacobi_c(a, b)
                ga, gb, gab = (gauss_sum(Character(f, k)).to_complex() for k in (a, b, a + b))
                assert lhs == pytest.approx(ga * gb / gab, abs=1e-8)


def test_binomial_against_naive():
    for p in (5, 7, 13):
        f = make_field(p)
        for a in range(f.m):
            for b in range(f.m):
                assert f.binom_c(a, b) == pytest.approx(
                    naive.binom(p, a, b), abs=1e-9
                )


@pytest.mark.parametrize("p, e", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4)])
def test_gauss_table_matches_exact_gauss_sums(p, e):
    f = make_field(p, e)
    m, q = f.m, f.q
    g, h = f.gauss_sums
    for k in range(m):
        want = gauss_sum(Character(f, k)).to_complex()
        assert g[k] == pytest.approx(want, abs=1e-12 * q)
        assert f.gauss_c(k) == g[k] and f.gauss_c(k - m) == g[k]
        assert h[k] == pytest.approx((-1) ** k * g[-k % m] / q, abs=1e-15)
        if k:
            assert g[k] * h[k] == pytest.approx(1.0, abs=1e-12)
    assert g[0] == -1.0 and f.gauss_sums is f.gauss_sums


@pytest.mark.parametrize("p, e", [(7, 1), (3, 2), (13, 1), (5, 2)])
def test_jacobi_c_matches_exact_jacobi_sums(p, e):
    f = make_field(p, e)
    m = f.m
    seen = set()
    for a in range(m):
        for b in range(m):
            # The three closed forms are exact: q - 2, -1 and -A(-1).
            if a == 0 and b == 0:
                case, exact = "both trivial", f.q - 2
            elif a == 0 or b == 0:
                case, exact = "one trivial", -1
            elif (a + b) % m == 0:
                case, exact = "product trivial", -((-1) ** a)
            else:
                case, exact = "gauss quotient", None
            seen.add(case)
            want = jacobi_sum(Character(f, a), Character(f, b)).to_complex()
            assert f.jacobi_c(a, b) == pytest.approx(want, abs=1e-9), (a, b, case)
            if exact is not None:
                assert f.jacobi_c(a, b) == exact, (a, b, case)
            assert f.jacobi_c(a + m, b - 2 * m) == f.jacobi_c(a, b)
    assert seen == {"both trivial", "one trivial", "product trivial", "gauss quotient"}


def test_table_reads_make_no_pass_over_the_field(monkeypatch):
    # Once the Gauss table is built, rows and scalar sums use no bincount and no FFT.
    f = make_field(1009)
    f.gauss_sums

    def refuse(*args, **kwargs):
        raise AssertionError("O(q) kernel called after the Gauss table was built")

    monkeypatch.setattr(np, "bincount", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(f, "jacobi_counts", refuse)
    for t, b in ((3, 1), (5, 5), (0, 7)):
        f.binom_row(t, b)
    evans_row(f, 0)
    f.jacobi_c(3, 7)
    f.jacobi_c(0, 0)
    f.binom_c(3, 7)
    f.gauss_c(11)


def _closed_form_entries(f, rows, tops, bottoms, s):
    """Where A = chi_{t+sk}, B = chi_{-(b+k)} or AB is trivial, the entry of the
    row k -> (chi_{t+sk} | chi_{b+k}) is chi_{b+k}(-1)/q times the closed form of
    J(A, B), exactly."""
    m = f.m
    for row, t, b in zip(rows, tops, bottoms):
        for k in range(m):
            a, c = (t + s * k) % m, (-b - k) % m
            if a and c and (a + c) % m:
                continue
            j = f.q - 2 if a == c == 0 else -1 if a == 0 or c == 0 else -((-1) ** a)
            assert row[k] == (-1) ** c * j / f.q, (t, b, s, k)


@pytest.mark.parametrize("p, e", [(13, 1), (3, 4), (31, 2), (1009, 1), (3, 5)])
def test_binom_rows_match_bincount_oracle(p, e):
    # Rows read off the Gauss table against the bincount/inverse-FFT builder,
    # with t = b (every k special), t = 0 and b = 0 among the cases.  The
    # Evans-Greene row k -> (chi_{a+2k} | chi_k) is the oracle's step-2 row.
    f = make_field(p, e)
    m = f.m
    rng = np.random.default_rng(p * e)
    tops = [*rng.integers(-m, 2 * m, 8).tolist(), 0, 0, 5, 5 + m, m // 2, 0]
    bottoms = [*rng.integers(-m, 2 * m, 8).tolist(), 3, 0, 5, 5, 0, m // 2]
    got = np.array([f.binom_row(t, b) for t, b in zip(tops, bottoms)])
    want = np.array([oracle.binom_row(f, t, b, 1) for t, b in zip(tops, bottoms)])
    assert np.abs(got - want).max() < 1e-12
    _closed_form_entries(f, got, tops, bottoms, 1)
    got = np.array([evans_row(f, a) for a in tops])
    want = np.array([oracle.binom_row(f, a, 0, 2) for a in tops])
    assert np.abs(got - want).max() < 1e-12
    _closed_form_entries(f, got, tops, [0] * len(tops), 2)


def test_binom_rows_match_scalar_binomials():
    # Row (t, b) is k -> (chi_{t+k} | chi_{b+k}) for every t and b, and the
    # Evans-Greene row of a is k -> (chi_{a+2k} | chi_k) for every a.
    for p, e in ((13, 1), (3, 2), (5, 2)):
        f = make_field(p, e)
        m = f.m
        table = np.array([[f.binom_c(a, b) for b in range(m)] for a in range(m)])
        t, b = (v.ravel()[:, None] for v in np.meshgrid(range(m), range(m), indexing="ij"))
        k = np.arange(m)
        got = np.array([f.binom_row(*row) for row in zip(t.ravel(), b.ravel())])
        assert np.abs(got - table[(t + k) % m, (b + k) % m]).max() < 1e-12
        got = np.array([evans_row(f, a) for a in range(m)])
        assert np.abs(got - table[(np.arange(m)[:, None] + 2 * k) % m, k]).max() < 1e-12


def test_binomial_reduction_at_trivial_bottom():
    # (A | eps) = (A | A) = -1/q except at A = eps where it is (q-2)/q
    for p, e in ((13, 1), (5, 2)):
        f = make_field(p, e)
        for a in range(f.m):
            want = (f.q - 2) / f.q if a == 0 else -1 / f.q
            assert f.binom_c(a, 0) == want
            assert f.binom_c(a, a) == want


def test_binomial_theorem_expansion():
    # A(1+x) = delta(x) + q/(q-1) * sum_chi (A | chi) chi(x)
    for p, e in ((7, 1), (3, 2)):
        f = make_field(p, e)
        m, q = f.m, f.q
        for a in range(m):
            for x in range(q):
                lhs = f.char_value(a, f.add(1, x))
                tail = sum(f.binom_c(a, k) * f.char_value(k, x) for k in range(m))
                rhs = (1.0 if x == 0 else 0.0) + q / (q - 1) * tail
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_g_sum_matches_definition():
    f = make_field(11)
    m = f.m
    for a in (0, 2, 5):
        for b in (0, 3, 7):
            for x in (1, 4, 9):
                got = g_sum_c(Character(f, a), Character(f, b), x)
                want = 0j
                for t in range(f.q):
                    want += f.char_value(a, f.sub(1, t)) * f.char_value(
                        b, f.sub(1, f.mul(x, f.mul(t, t)))
                    )
                assert got == pytest.approx(want, abs=1e-9)
    cs = g_sum(Character(f, 2), Character(f, 3), 4)
    assert cs.order == m
    for x in (-1, f.q):
        with pytest.raises(ValueError):
            g_sum(Character(f, 2), Character(f, 3), x)
        with pytest.raises(ValueError):
            g_sum_c(Character(f, 2), Character(f, 3), x)


def test_g_sum_counts_match_definition_on_extension_fields():
    # exact counts against the scalar loop, x = 0 included
    for p, e in ((3, 2), (5, 2), (3, 3)):
        f = make_field(p, e)
        m = f.m
        for a in (0, 1, m // 2, m - 3):
            for b in (0, 2, m // 2 + 1):
                for x in range(f.q):
                    want = np.zeros(m, dtype=np.int64)
                    for t in range(f.q):
                        u, v = f.sub(1, t), f.sub(1, f.mul(x, f.mul(t, t)))
                        if u and v:
                            want[(a * f.dlog(u) + b * f.dlog(v)) % m] += 1
                    cs = g_sum(Character(f, a), Character(f, b), x)
                    assert cs == CyclotomicSum.from_counts(m, want), (p, e, a, b, x)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_jacobi_times_gauss_is_gauss_product(data):
    # J(A, B) G(AB) = G(A) G(B) whenever AB is nontrivial
    f = make_field(*data.draw(st.sampled_from(SMALL_FIELDS)))
    a, b = data.draw(st.integers(0, f.m - 1)), data.draw(st.integers(0, f.m - 1))
    assume((a + b) % f.m != 0)
    j = jacobi_sum(Character(f, a), Character(f, b)).to_complex()
    ga, gb, gab = (gauss_sum(Character(f, k)).to_complex() for k in (a, b, a + b))
    assert j * gab == pytest.approx(ga * gb, abs=1e-9 * f.q)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_gauss_sum_magnitude_on_random_characters(data):
    f = make_field(*data.draw(st.sampled_from(SMALL_FIELDS)))
    k = data.draw(st.integers(1, f.m - 1))
    assert abs(gauss_sum(Character(f, k)).to_complex()) ** 2 == pytest.approx(f.q, rel=1e-9)


def test_curve_sum_scales_to_g():
    # sum_x S((x-1)(x^2+lam)) = S(-lam) * g(S, S; -1/lam)
    for p, e in ((7, 1), (13, 1), (3, 2)):
        f = make_field(p, e)
        for s in range(f.m):
            for lam in (Fraction(1), Fraction(2), Fraction(-1, 2)):
                le = f.from_rational(lam)
                if le == 0 or f.add(le, 1) == 0:
                    continue
                lhs = w_sum(f, s, le)
                chi = Character(f, s)
                rhs = f.char_value(s, f.sub(0, le)) * g_sum_c(
                    chi, chi, f.div(f.sub(0, 1), le)
                )
                assert lhs == pytest.approx(rhs, abs=1e-8)


def test_curve_sum_equals_f_star_for_square_characters():
    # for S = R^2 nontrivial: sum_x S((x-1)(x^2+lam))
    #   = q * S^3(2) * F*(S^-3, S^-2; 1+lam)
    for p, e in ((7, 1), (13, 1), (5, 2)):
        f = make_field(p, e)
        m = f.m
        for s in range(2, m, 2):
            for lam in (Fraction(1), Fraction(2)):
                le = f.from_rational(lam)
                if le == 0 or f.add(le, 1) == 0:
                    continue
                lhs = w_sum(f, s, le)
                rhs = (
                    f.q
                    * f.char_value(3 * s, f.from_rational(2))
                    * evans_F_star(
                        Character(f, -3 * s), Character(f, -2 * s), f.add(1, le)
                    )
                )
                assert lhs == pytest.approx(rhs, abs=1e-8)


def test_cyclotomic_sum_equality_and_complex_cache():
    f = make_field(7)
    a = jacobi_sum(Character(f, 1), Character(f, 2))
    b = jacobi_sum(Character(f, 1), Character(f, 2))
    assert a == b
    assert a.to_complex() == b.to_complex()
