import numpy as np
import pytest

from hgfq import (
    Character,
    OrderNotDividingError,
    character_of_order,
    make_field,
    parse_character,
)

from oracle_helpers import delta_char, sqrt_character


def test_index_normalization_and_equality():
    f = make_field(13)
    assert Character(f, 14) == Character(f, 2)
    assert Character(f, -1) == Character(f, f.m - 1)
    assert Character(f, 3) != Character(f, 4)


def test_zero_maps_to_zero_for_every_character():
    f = make_field(3, 2)
    for k in range(f.m):
        assert f.char_value(Character(f, k).index, 0) == 0j
    # encodings outside [0, q) are rejected, not wrapped around
    for x in (-1, f.q):
        with pytest.raises(ValueError):
            f.char_value(Character(f, 1).index, x)


def test_trivial_and_quadratic():
    f = make_field(11)
    eps = character_of_order(f, 1)
    phi = character_of_order(f, 2)
    assert eps.index == 0
    assert phi.index == f.m // 2 and phi.order == 2
    assert Character(f, phi.index + phi.index) == eps
    # phi agrees with the squares
    squares = {f.mul(x, x) for x in range(1, f.q)}
    for x in range(1, f.q):
        want = 1.0 if x in squares else -1.0
        assert f.char_value(phi.index, x).real == pytest.approx(want)
        assert f.char_value(phi.index, x).imag == 0.0


def test_character_at_minus_one_is_exact_sign():
    f = make_field(13)
    minus_one = f.sub(0, 1)
    for k in range(f.m):
        got = f.char_value(Character(f, k).index, minus_one)
        want = -1.0 if k % 2 else 1.0
        assert got == complex(want)


def test_order_and_powers():
    f = make_field(13)
    chi = Character(f, 4)  # order 3 since m = 12
    assert chi.order == 3
    assert (chi**3).index == 0
    assert chi**-1 == Character(f, -4)
    assert Character(f, chi.index + (chi**-1).index).index == 0


def test_character_of_order():
    f = make_field(13)
    for n in (1, 2, 3, 4, 6, 12):
        chi = character_of_order(f, n)
        assert chi.order == n
        assert chi.index == f.m // n % f.m
    with pytest.raises(OrderNotDividingError):
        character_of_order(f, 5)


def test_sqrt_character_branches():
    f = make_field(13)
    h = f.m // 2
    for k in range(0, f.m, 2):
        pair = sqrt_character(Character(f, k))
        assert pair is not None
        lo, hi = pair
        assert lo.index == k // 2 and hi.index == (k // 2 + h) % f.m
        assert Character(f, lo.index + lo.index).index == k
        assert Character(f, hi.index + hi.index).index == k
    assert sqrt_character(Character(f, 3)) is None


def test_delta_char():
    f = make_field(7)
    assert delta_char(character_of_order(f, 1)) == 1
    assert delta_char(Character(f, 2)) == 0


def test_parse_character():
    f = make_field(13)
    assert parse_character(f, "eps").index == 0
    assert parse_character(f, "phi").index == 6
    assert parse_character(f, "chi:5").index == 5
    assert parse_character(f, "chi:-1").index == 11
    assert parse_character(f, "ord4").index == 3
    assert parse_character(f, "ord4^3").index == 9
    assert parse_character(f, "phi^2").index == 0
    with pytest.raises(ValueError):
        parse_character(f, "bogus")
    with pytest.raises(OrderNotDividingError):
        parse_character(f, "ord5")


def test_orthogonality_exact_by_exponent_counts():
    # sum over x of chi_k(x) vanishes exactly for k != 0: the exponents
    # k*dlog(x) mod m cover each multiple of gcd(k, m) the same number
    # of times, so the roots of unity cancel by symmetry.
    import math

    for p, e in ((13, 1), (3, 2), (7, 2)):
        f = make_field(p, e)
        m = f.m
        for k in range(m):
            g = math.gcd(k, m)
            counts = np.bincount(
                [(k * f.dlog(x)) % m for x in range(1, f.q)], minlength=m
            )
            for t in range(m):
                assert counts[t] == (g if t % g == 0 else 0)

