"""Field construction, encoding arithmetic, and the exp, dlog and trace tables."""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgfq import (
    Character,
    Field,
    FieldTooLargeError,
    LogOfZeroError,
    NotPrimeError,
    OddPrimeRequiredError,
    is_prime,
    make_field,
)
import hgfq.field
from hgfq.field import fits_cap, prime_factors

from naive_oracles import primitive_root
from oracle_helpers import _poly_mul_mod, gauss_sum, scalar_field_tables, trace_frobenius


def test_is_prime_small():
    def reference(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(-3, 200_000):
        assert is_prime(n) == reference(n), n
    assert is_prime(7919)
    assert not is_prime(7917)


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # the least strong pseudoprimes to the first 1, 2, ..., 12 prime bases
    pseudoprimes = (
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051, 318665857834031151167461,
    )
    for n in pseudoprimes:
        assert not is_prime(n), n
    for n in (2**61 - 1, 2**89 - 1, 10**30 + 57):
        assert is_prime(n), n


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]


def test_constructor_rejects_bad_input():
    with pytest.raises(NotPrimeError):
        make_field(4)
    with pytest.raises(NotPrimeError):
        make_field(9)
    with pytest.raises(OddPrimeRequiredError):
        make_field(2)
    with pytest.raises(ValueError):
        make_field(5, 0)
    with pytest.raises(FieldTooLargeError):
        make_field(317, 2)  # q = 100489


def test_fits_cap_is_exact_at_the_bit_length():
    # e >= q_cap.bit_length() refuses without p^e; just below it p^e decides
    assert fits_cap(3, 10, 59049) and not fits_cap(3, 10, 59048)
    assert fits_cap(2, 16, 65536) and not fits_cap(2, 17, 131071) and fits_cap(2, 17, 131072)
    assert not fits_cap(3, 10**100, 100_000)


def test_cap_is_checked_before_work_that_grows_with_p_or_e(monkeypatch):
    def is_prime_below_the_cap(n):
        assert n <= 100_000, f"primality test of {n}, above the cap"
        return is_prime(n)

    monkeypatch.setattr(hgfq.field, "is_prime", is_prime_below_the_cap)
    for p, e in ((3, 11), (3, 10_000), (3, 100_000_000), (100_003, 1), (10**18 + 3, 1)):
        start = time.perf_counter()
        with pytest.raises(FieldTooLargeError, match=rf"^q = {p}\^{e} exceeds the cap 100000$"):
            make_field(p, e)
        assert time.perf_counter() - start < 1, (p, e)
    # p < 2 is no prime, and refused as such before p^e is formed
    for p in (1, 0, -3):
        with pytest.raises(NotPrimeError):
            make_field(p, 100_000_000)


def test_prime_field_generator_is_smallest_primitive_root():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 97):
        assert make_field(p).generator == primitive_root(p)


def test_pinned_extension_field_f9():
    f = make_field(3, 2)
    assert f.q == 9
    assert f.modulus_str() == "x^2 + 1"
    assert f.generator == 4


def test_modulus_is_irreducible_quadratic():
    # a reducible quadratic over F_p would have a root in F_p
    for p in (3, 5, 7, 11):
        f = make_field(p, 2)
        c0, c1, c2 = list(f._tail) + [1]
        assert c2 == 1
        for x in range(p):
            assert (c0 + c1 * x + x * x) % p != 0


def test_field_axioms_on_samples():
    f = make_field(5, 2)
    els = list(range(f.q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.sub(0, a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els[:9]:
        for b in els[:9]:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els[:9]:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_field_axioms_on_random_elements(data):
    fields = [(5, 1), (13, 1), (101, 1), (3, 2), (7, 2), (3, 3), (5, 3), (3, 5)]
    f = make_field(*data.draw(st.sampled_from(fields)))
    a, b, c = (data.draw(st.integers(0, f.q - 1)) for _ in range(3))
    assert f.add(a, b) == f.add(b, a) and f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, 0) == a and f.mul(a, 1) == a and f.add(a, f.sub(0, a)) == 0
    assert f.sub(a, b) == f.add(a, f.sub(0, b))
    if a:
        assert f.mul(a, f.inv(a)) == 1 and f.div(f.mul(a, b), a) == b


def test_exp_dlog_roundtrip():
    f = make_field(3, 2)
    seen = set()
    for x in range(1, f.q):
        k = f.dlog(x)
        assert f.pow(f.generator, k) == x
        seen.add(k)
    assert seen == set(range(f.m))
    with pytest.raises(LogOfZeroError):
        f.dlog(0)


def test_generator_has_full_order():
    f = make_field(7, 2)
    assert f.pow(f.generator, f.m) == 1
    for d in prime_factors(f.m):
        assert f.pow(f.generator, f.m // d) != 1


def test_trace_properties():
    f = make_field(5, 2)
    for x in range(f.q):
        t = f.trace(x)
        assert 0 <= t < f.p
        # Frobenius invariance
        assert f.trace(f.pow(x, f.p)) == t
    for x in range(f.q):
        for y in range(0, f.q, 7):
            assert f.trace(f.add(x, y)) == (f.trace(x) + f.trace(y)) % f.p
    # trace is onto and balanced: q/p preimages per value
    counts = [0] * f.p
    for x in range(f.q):
        counts[f.trace(x)] += 1
    assert counts == [f.q // f.p] * f.p


@pytest.mark.parametrize("p, e", [(3, 5), (5, 3), (7, 2), (101, 1)])
def test_linear_tables_match_scalar_oracles(p, e):
    # the trace and Z[t] = dlog(1 - g^t) tables are built digit-wise, not per element
    f = make_field(p, e)
    assert [f.trace(x) for x in range(f.q)] == trace_frobenius(f)
    z = f.log_one_minus
    assert z[0] == -1 and f.log_one_minus is z
    assert list(vars(f)) == ["log_one_minus"]  # the tables built up front stay in slots
    assert z[1:].tolist() == [f.dlog(f.sub(1, f.pow(f.generator, t))) for t in range(1, f.m)]


def _assert_tables_match_scalar_oracle(f):
    exp, dlog, trace = scalar_field_tables(f)
    assert f._exp == exp and f._dlog == dlog, f
    assert f._dlog_array.dtype == np.int64 and f._dlog_array.tolist() == dlog, f
    traces = [f.trace(x) for x in range(f.q)]
    assert traces == trace, f
    # the trace is kept along the powers: Tr(g^t) at t
    assert f._trace_pow.dtype == np.int64 and f._trace_pow.tolist() == [trace[x] for x in exp], f
    for table in (f._exp, f._dlog, traces):
        assert all(type(v) is int for v in table), f


def test_tables_match_scalar_oracle_up_to_2000():
    fields = [(p, e) for p in range(3, 2000, 2) if is_prime(p) for e in range(1, 11) if p**e <= 2000]
    assert len(fields) == 323  # 302 odd primes and 21 higher powers
    for p, e in fields:
        _assert_tables_match_scalar_oracle(make_field(p, e))


def test_moduli_and_generators_up_to_2000_are_pinned():
    # sha256 of the lines "q modulus generator", in increasing q, as built
    # when the modulus search had an e = 1 branch and the generator search
    # started at 2 for every e
    odd_primes = [p for p in range(3, 2000, 2) if is_prime(p)]
    fields = sorted((p**e, p, e) for p in odd_primes for e in range(1, 11) if p**e <= 2000)
    lines = []
    for q, p, e in fields:
        f = make_field(p, e)
        lines.append(f"{q} {f.modulus_str()} {f.generator}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 323
    assert digest == "f08473d0aa1fd2f07b5069d55f8ff4ef9ce154447b558799e5e6d056309b308a"


def test_extension_generator_is_the_smallest_primitive_encoding():
    # the search starts at p, past F_p, and still finds the smallest n of order q - 1
    fields = [(p, e) for p in range(3, 45, 2) if is_prime(p) for e in range(2, 11) if p**e <= 2000]
    assert len(fields) == 21
    for p, e in fields:
        f = make_field(p, e)
        checks = [f.m // r for r in prime_factors(f.m)]
        primitive = (n for n in range(1, f.q) if all(f.pow(n, c) != 1 for c in checks))
        assert f.generator == next(primitive), (p, e)


@pytest.mark.parametrize("p, e", [(99991, 1), (313, 2), (3, 10), (5, 7), (11, 4)])
def test_tables_match_scalar_oracle_at_the_cap(p, e):
    _assert_tables_match_scalar_oracle(make_field(p, e))


@pytest.mark.parametrize("p, e, g", [(7, 1, 2), (13, 1, 12), (3, 2, 2), (5, 2, 6)])
def test_non_primitive_generator_fails_the_order_check(monkeypatch, p, e, g):
    # g has order below q - 1: 2 and -1 mod 7 and 13, -1 and 1 + x in F_9 and F_25
    monkeypatch.setattr(Field, "_find_generator", lambda self: g)
    with pytest.raises(RuntimeError, match="generator order check failed"):
        make_field(p, e)


@pytest.mark.parametrize("p, e", [(9001, 1), (313, 2), (3, 10)])
def test_gauss_table_is_read_off_the_oracle_trace(p, e):
    # G and H equal, bit for bit, the table built from the oracle's trace in encoding order
    f = make_field(p, e)
    exp, dlog, trace = scalar_field_tables(f)
    g = np.fft.ifft(np.exp(2j * np.pi / p * np.array(trace, dtype=float).take(exp)))
    g *= f.m
    g[0] = -1.0
    h = np.roll(g[::-1], 1)
    h[1::2] *= -1.0
    h /= f.q
    got_g, got_h = f.gauss_sums
    assert got_g.tobytes() == g.tobytes() and got_h.tobytes() == h.tobytes()
    # the exact sums count zeta_{(q-1)p}^(p k dlog x + (q-1) Tr x) over x != 0
    lx, tr = np.array(dlog[1:]), np.array(trace[1:])
    for k in (1, 2, f.m // 2, f.m - 1):
        t = (p * (k * lx % f.m) + f.m * tr) % (f.m * p)
        exponents, counts = np.unique(t, return_counts=True)
        got = gauss_sum(Character(f, k))
        assert got.exponents.tolist() == exponents.tolist()
        assert got.counts.tolist() == counts.tolist()


def test_from_int_and_from_rational():
    f = make_field(7)
    assert f.from_rational(10) == 3
    assert f.from_rational(-1) == 6
    assert f.from_rational(Fraction(1, 3)) == f.div(1, 3)
    assert f.from_rational(5) == 5
    with pytest.raises(ZeroDivisionError):
        f.from_rational(Fraction(1, 7))
    g = make_field(3, 2)
    assert g.from_rational(Fraction(-1, 2)) == g.div(g.sub(0, 1), g.from_rational(2))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_from_rational_is_a_ring_homomorphism(data):
    # On the rationals with denominator prime to p, from_rational is the ring
    # map Z_(p) -> F_p inside F_q, so a rational expression in lambda may be
    # reduced once instead of being rebuilt from field operations.
    fields = [(5, 1), (13, 1), (3, 2), (5, 2), (3, 3), (5, 3)]
    f = make_field(*data.draw(st.sampled_from(fields)))

    def p_integral():
        den = data.draw(st.integers(1, 10**6).filter(lambda d: d % f.p))
        return Fraction(data.draw(st.integers(-(10**6), 10**6)), den)

    r, s = p_integral(), p_integral()
    fr, fs = f.from_rational(r), f.from_rational(s)
    assert f.from_rational(r + s) == f.add(fr, fs)
    assert f.from_rational(r - s) == f.sub(fr, fs)
    assert f.from_rational(r * s) == f.mul(fr, fs)
    assert f.from_rational(-r) == f.sub(0, fr)
    assert f.from_rational(r**3) == f.pow(fr, 3)
    if fr:
        assert f.from_rational(1 / r) == f.inv(fr)


def test_element_encoding_base_p_digits():
    f = make_field(3, 2)
    assert f.add(2, 3) == 5  # 2 + x encodes as 2 + 1*3
    assert f.mul(3, 3) == f.sub(0, 1) == 2  # x^2 = -1 modulo x^2 + 1
    assert f.check(0) == 0 and f.check(8) == 8
    for x in (-1, 9):
        with pytest.raises(ValueError):
            f.check(x)


@pytest.mark.parametrize("p, e", [(7, 1), (3, 2)])
def test_table_reads_reject_encodings_outside_the_field(p, e):
    # a negative encoding must not wrap around to the value at q - 1
    f = make_field(p, e)
    for x in (-1, f.q):
        for read in (f.dlog, lambda x: f.char_value(1, x), f.trace):
            with pytest.raises(ValueError):
                read(x)
    assert f.char_value(1, 0) == 0 and f.trace(0) == 0
    with pytest.raises(LogOfZeroError):
        f.dlog(0)


def test_fields_compare_by_parameters():
    assert make_field(5) == make_field(5)
    assert make_field(5) != make_field(5, 2)
    assert hash(make_field(7, 2)) == hash(make_field(7, 2))


def test_extension_multiplication_against_polynomials():
    # F_9 with modulus x^2 + 1: (1 + x)(1 + 2x) = 1 + 3x + 2x^2 = 1 - 2 = -1 = 2
    f = make_field(3, 2)
    assert f.modulus_str() == "x^2 + 1"
    a = 1 + 1 * 3  # 1 + x
    b = 1 + 2 * 3  # 1 + 2x
    assert f.mul(a, b) == 2


@pytest.mark.parametrize("p, e", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (3, 5)])
def test_extension_arithmetic_against_polynomials_on_every_pair(p, e):
    # add, sub and mul on every pair and inv on every nonzero element, against
    # digit-wise addition mod p and digit-list products modulo x^e + tail
    f = make_field(p, e)
    places = p ** np.arange(e)
    digits = np.arange(f.q)[:, None] // places % p
    pairs = [(a, b) for a in range(f.q) for b in range(f.q)]
    add = (digits[:, None] + digits[None, :]) % p @ places
    sub = (digits[:, None] - digits[None, :]) % p @ places
    assert [f.add(a, b) for a, b in pairs] == add.ravel().tolist()
    assert [f.sub(a, b) for a, b in pairs] == sub.ravel().tolist()
    rows = digits.tolist()
    mul = [_poly_mul_mod(rows[a], rows[b], f._tail, p) for a, b in pairs]
    assert [f.mul(a, b) for a, b in pairs] == (np.array(mul) @ places).tolist()
    one = [1] + [0] * (e - 1)
    assert all(_poly_mul_mod(rows[a], rows[f.inv(a)], f._tail, p) == one for a in range(1, f.q))
