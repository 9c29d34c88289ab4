import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgfq import (
    Character,
    CurveSpec,
    FieldMismatchError,
    character_sum_count,
    evans_F,
    good_reduction,
    make_field,
    series_value,
)
from hgfq.hgf import evans_row
from hgfq.report import RELATIVE_TOLERANCE

import naive_oracles as naive
import oracle_helpers as oracle
from oracle_helpers import evans_F_star, hgf_2f1


def test_series_matches_naive_oracle_exhaustively():
    for p in (5, 7):
        f = make_field(p)
        m = f.m
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    for x in range(p):
                        got = series_value(f, [a, b], [c], x)
                        want = 0j if x == 0 else naive.series(p, [a, b], [c], x)
                        assert got == pytest.approx(want, abs=1e-9)


def test_3f2_samples_match_oracle():
    f = make_field(11)
    for args in ((1, 2, 3, 4, 5), (0, 5, 5, 0, 2), (7, 7, 7, 0, 0)):
        a, b, c, d, e = args
        for x in (1, 2, 7):
            got = series_value(f, [a, b, c], [d, e], x)
            want = naive.series(11, [a, b, c], [d, e], x)
            assert got == pytest.approx(want, abs=1e-9)


def test_series_is_zero_at_zero_argument():
    f = make_field(13)
    assert series_value(f, [6, 6, 6], [0, 0], 0) == 0j


def test_series_arity_check():
    f = make_field(5)
    with pytest.raises(ValueError):
        series_value(f, [1], [1], 2)
    with pytest.raises(ValueError):
        series_value(f, [1, 2, 3], [1], 2)


def test_known_rational_value():
    # 3F2(phi, phi, phi; eps, eps | 2) over F_5 equals -1/25
    f = make_field(5)
    h = f.m // 2
    got = series_value(f, [h, h, h], [0, 0], 2)
    assert got.real == pytest.approx(-1 / 25, abs=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_negative_and_oversized_indices_are_normalized():
    f = make_field(13)
    m = f.m
    for x in (2, 5):
        assert series_value(f, [-3, 5], [4], x) == pytest.approx(
            series_value(f, [m - 3, 5 + m], [4 - m], x), abs=1e-12
        )


def test_hgf_2f1_agrees_with_series_value():
    f = make_field(7)
    a, b, c = Character(f, 1), Character(f, 2), Character(f, 3)
    for x in range(f.q):
        assert hgf_2f1(a, b, c, x) == series_value(f, [1, 2], [3], x)


def test_series_spec_validation():
    f = make_field(7)
    a, b, c = Character(f, 1), Character(f, 2), Character(f, 3)
    with pytest.raises(ValueError):
        series_value(f, [1], [3], 2)
    # element encodings must lie in [0, q)
    for x in (-1, f.q):
        with pytest.raises(ValueError):
            series_value(f, [3, 3], [0], x)
        with pytest.raises(ValueError):
            hgf_2f1(a, b, c, x)
        with pytest.raises(ValueError):
            evans_F(a, b, x)
        with pytest.raises(ValueError):
            evans_F_star(a, b, x)
    # characters passed together must share a field
    g = make_field(5)
    with pytest.raises(FieldMismatchError):
        hgf_2f1(a, Character(g, 1), c, 4)
    with pytest.raises(FieldMismatchError):
        hgf_2f1(a, b, Character(g, 1), 4)
    with pytest.raises(FieldMismatchError):
        evans_F(a, Character(g, 1), 4)


def test_evans_f_star_shift():
    # F* - F = AB(-1) Abar(x/4) / q pointwise
    f = make_field(13)
    for a in (0, 3, 6):
        for b in (0, 2):
            A, B = Character(f, a), Character(f, b)
            for x in range(1, f.q):
                shift = evans_F_star(A, B, x) - evans_F(A, B, x)
                sign = -1.0 if (a + b) % 2 else 1.0
                want = sign * f.char_value(-a, f.div(x, f.from_rational(4))) / f.q
                assert shift == pytest.approx(want, abs=1e-12)
    A, B = Character(f, 3), Character(f, 2)
    assert evans_F_star(A, B, 0) == evans_F(A, B, 0)


@pytest.mark.parametrize("p, e", [(13, 1), (3, 2), (11, 1)])
def test_series_every_x_matches_series_value(p, e):
    f = make_field(p, e)
    m, h = f.m, f.m // 2
    for tops, bottoms in (([1, 2], [3]), ([h, h, h], [0, 0]), ([-3, 5], [4]), ([0, 0], [0])):
        values = oracle.series_every_x(f, tops, bottoms)
        for x in range(f.q):
            assert values[x] == pytest.approx(series_value(f, tops, bottoms, x), abs=1e-12)


def test_greene_transforms_pass_on_a_grid():
    f = make_field(3, 2)
    m = f.m
    series = {
        (a, b, c): oracle.series_every_x(f, [a, b], [c])
        for a in range(m)
        for b in range(m)
        for c in range(m)
    }
    for a in range(m):
        for b in (0, 3):
            for c in (1, 4):
                for variant, (lhs, rhs) in oracle.greene_transform_sides(f, series, a, b, c).items():
                    bound = RELATIVE_TOLERANCE * np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))
                    assert (abs(lhs - rhs) <= bound).all(), (a, b, c, variant)


@pytest.mark.parametrize("p, e", [(1009, 1), (3, 5), (7, 3)])
def test_series_rows_match_loop_oracle(p, e):
    f = make_field(p, e)
    m = f.m
    h = m // 2
    series = (([h, h], [0]), ([3, m - 5], [7]), ([h, h, h], [0, 0]), ([1, 2, 3], [4, 5]))
    for x in (1, 2, f.q - 1):
        for tops, bottoms in series:
            got = series_value(f, tops, bottoms, x)
            assert got == pytest.approx(oracle.series_loop(f, tops, bottoms, x), abs=1e-9)
        for a, b in ((h, 0), (2, m - 3)):
            got = evans_F(Character(f, a), Character(f, b), x)
            assert got == pytest.approx(oracle.evans_F_loop(f, a, b, x), abs=1e-9)


def _one_product_series(f, rows, x):
    """The series as one `prod(axis=0)` over the stack of all of its rows."""
    product = np.array(rows).prod(axis=0)
    k = np.arange(f.m, dtype=np.int64) * f.dlog(x) % f.m
    return complex(product @ f.zeta.take(k)) * f.q / f.m


@pytest.mark.parametrize("p, e", [(13, 1), (3, 4), (1009, 1), (3, 5)])
def test_row_batches_do_not_change_series_bits(p, e):
    # A series multiplies its rows one at a time into a running product that
    # starts at 1, as prod(axis=0) does, so the floats are the same bits.
    f = make_field(p, e)
    m = f.m
    h = m // 2
    for x in (1, 2, f.q - 1):
        for tops, bottoms in (([h, h], [0]), ([3, m - 5], [7]), ([h, h, h], [0, 0]), ([1, 2, 3], [4, 5])):
            rows = [f.binom_row(t, b) for t, b in zip(tops, [0, *bottoms])]
            assert series_value(f, tops, bottoms, x) == _one_product_series(f, rows, x)
        x4 = f.div(x, f.from_rational(4))
        for a, b in ((h, 0), (2, m - 3)):
            want = _one_product_series(f, [evans_row(f, a), f.binom_row(a, b)], x4)
            assert evans_F(Character(f, a), Character(f, b), x) == want
        want = _one_product_series(f, [f.binom_row(1, 0), f.binom_row(h, 3)], x)
        assert hgf_2f1(Character(f, 1), Character(f, h), Character(f, 3), x) == want


def test_series_working_set_does_not_grow_with_rows():
    # Rows are built one at a time into one running product.
    f = make_field(9001)
    m = f.m
    h = m // 2
    series_value(f, [h, h, h], [0, 0], 5)  # builds the field's zeta and dlog tables
    for n in (3, 8):
        tops = [h] + [3 * i + 1 for i in range(n - 1)]
        bottoms = [0] + [5 * i for i in range(n - 2)]
        tracemalloc.start()
        try:
            series_value(f, tops, bottoms, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * m, (n, peak / (16 * m))


def test_ono_3f2_is_integral_at_the_field_size_cap(monkeypatch):
    # q^2 3F2(phi, phi, phi; eps, eps | (1+lambda)/lambda) is an integer; at
    # q = 99991 the Gauss-table rows keep it far inside the rounding half-width
    # and agree with the series built from the bincount/inverse-FFT rows.
    f = make_field(99991)
    q2 = f.q * f.q
    h = f.m // 2
    lams = (Fraction(1, 4), Fraction(2), Fraction(-3, 4))
    xs = [f.from_rational((1 + lam) / lam) for lam in lams]
    got = [series_value(f, [h, h, h], [0, 0], x) * q2 for x in xs]
    monkeypatch.setattr(f, "binom_row", lambda t, b: oracle.binom_row(f, t, b, 1))
    want = [series_value(f, [h, h, h], [0, 0], x) * q2 for x in xs]
    for g, w in zip(got, want):
        assert abs(g.real - round(g.real)) <= 1e-6 and abs(g.imag) <= 1e-6, g
        assert abs(g - w) <= 1e-9, (g, w)


def test_ono_3f2_follows_the_prime_field_trace_across_degrees():
    # q^2 3F2(phi, phi, phi; eps, eps | (1+lambda)/lambda) = phi(-lambda) (a_q^2 - q)
    # on y^2 = (x-1)(x^2+lambda).  That curve has genus 1, so a_q over F_{p^e}
    # is predicted from the count over F_p alone: each series over an
    # extension field is checked against a prime-field count.
    q_max = 3000
    cases = 0
    for p in (3, 5, 7, 11, 13):
        e_max = max(e for e in range(1, q_max.bit_length()) if p**e <= q_max)
        fp = make_field(p)
        for lam in map(Fraction, (1, 2, "1/3", "-1/2", "3/2", -3)):
            curve = CurveSpec(2, lam)
            if not good_reduction(fp, 2, lam):
                continue
            a_p = character_sum_count(fp, curve).a_q
            for e, aq in {1: a_p, **oracle.weil_predict([a_p], p, 1, e_max)}.items():
                f = make_field(p, e)
                q, h = f.q, f.m // 2
                le = f.from_rational(lam)
                lhs = q * q * series_value(f, [h, h, h], [0, 0], f.div(f.add(1, le), le))
                phi = (-1) ** f.dlog(f.sub(0, le))
                assert abs(lhs - phi * (aq * aq - q)) <= 1e-6, (p, e, lam, lhs, aq)
                cases += 1
    assert cases == 94


SMALL_FIELDS = [(5, 1), (7, 1), (11, 1), (13, 1), (29, 1), (3, 2), (5, 2), (7, 2), (3, 3)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_series_fft_equals_loop_on_random_characters(data):
    p, e = data.draw(st.sampled_from(SMALL_FIELDS))
    f = make_field(p, e)
    n = data.draw(st.integers(0, 2))
    index = st.integers(-2 * f.m, 2 * f.m)
    tops = data.draw(st.lists(index, min_size=n + 1, max_size=n + 1))
    bottoms = data.draw(st.lists(index, min_size=n, max_size=n))
    x = data.draw(st.integers(0, f.q - 1))
    got = series_value(f, tops, bottoms, x)
    assert got == pytest.approx(oracle.series_loop(f, tops, bottoms, x), abs=1e-9)
    a, b = data.draw(index), data.draw(index)
    got = evans_F(Character(f, a), Character(f, b), x)
    assert got == pytest.approx(oracle.evans_F_loop(f, a, b, x), abs=1e-9)
