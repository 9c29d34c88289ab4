"""Arithmetic in finite fields of odd characteristic.

An element of F_q with q = p**e is encoded as an integer in [0, q): the
base-p digits of the encoding, least significant first, are the
coefficients of a polynomial residue modulo a fixed monic irreducible of
degree e.  The modulus is the first irreducible polynomial in
lexicographic coefficient order, the generator is the smallest encoding
with multiplicative order q - 1, and a full discrete-log table is built up
front, so element encodings, character indices, and every downstream sum
are reproducible across runs.  q is at most DEFAULT_Q_CAP = 100000, the one
cap, checked before any table is built, so that it bounds every table.

The powers of the generator g are built in numpy by block doubling, as
base-p digit vectors for every e: g^w, ..., g^(2w-1) are the first w powers
times the e x e matrix of multiplication by g^w.  The exp and dlog tables
are kept as Python int lists, which the scalar arithmetic indexes; the dlog
table also as the int64 array it is built as (-1 at 0), which the point
counts and Z[t] below index; and the trace along the powers, Tr(g^t), as an
int64 array, which `gauss_sums` reads.  The scalar loop they replace is the
oracle in the tests.

Encodings are the only element type.  `Field.check` raises `ValueError`
for an encoding outside [0, q); the public functions that take an element
call it once, and so do the table reads `dlog` and `char_value`.
The arithmetic methods (`add`, `mul`, `pow`, ...) assume a valid encoding
and do not check.

Every complex character sum is read off one table per field, the q-1
Gauss sums G[k] = G(chi_k), built by one inverse FFT on first use of the
attribute `Field.gauss_sums`.  A Jacobi sum is G[a] G[b] / G[a+b], a
binomial coefficient is a Jacobi sum up to a sign and 1/q, and one binomial
row k -> (chi_{t+k} | chi_{b+k}) is a product of rolled copies of G and of
H[k] = 1/G[k] (`Field.binom_row(t, b)`).  Where a character in the quotient is
trivial, the closed forms under chi(0) = 0 are in `Field.binom_c` alone,
through `Field.jacobi_c`: a row reads its entries at k = -t and k = -b from
`binom_c`, and is -1/q everywhere else when t = b.  The exact root-of-unity
counts of `Field.jacobi_counts` read Z[t] = dlog(1 - g^t), the attribute
`Field.log_one_minus`, built on first use, for the tests' exact oracles
(`tests/oracle_helpers.py`).  `jacobi_counts`, `div`, `inv` and `pow` stay
here only because `bench/tracer.py` binds them, and `log_one_minus` because
`jacobi_counts` reads it; `tests/test_fence.py` checks that no command
reaches any of them.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from .errors import (
    FieldTooLargeError,
    LogOfZeroError,
    NotPrimeError,
    OddPrimeRequiredError,
)

DEFAULT_Q_CAP = 100_000
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the 13 prime bases 2 to 41, in time polynomial in the digits of n.

    No composite below 3317044064679887385961981 (about 3.3e24) is a strong
    probable prime to all 13 bases (Sorenson and Webster, Math. Comp. 2017),
    so below that bound the test is exact.  Above that bound it is a strong
    probable-prime test; only the grid scan of `verifier.row_blocks`, which
    looks for an odd prime in a range above the cap, asks numbers that large.
    """
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:  # b^(d 2^i) never reached -1: b witnesses that n is composite
            return False
    return True


def fits_cap(p: int, e: int, q_cap: int) -> bool:
    """Whether q = p^e is at most q_cap, for p >= 2.

    p^e >= 2^e, so an e of at least q_cap.bit_length() is refused without
    forming p^e, which could run to millions of digits.
    """
    return e < q_cap.bit_length() and p**e <= q_cap


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n in increasing order."""
    out: list[int] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_mul_mod(a: list[int], b: list[int], tail: tuple[int, ...], p: int) -> list[int]:
    # Residues are digit lists of length e; the modulus is x^e + tail.
    e = len(tail)
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, [*tail, 1], p)


def _poly_pow_mod(base: list[int], n: int, tail: tuple[int, ...], p: int) -> list[int]:
    result = [0] * len(tail)
    result[0] = 1
    acc = list(base)
    while n:
        if n & 1:
            result = _poly_mul_mod(result, acc, tail, p)
        acc = _poly_mul_mod(acc, acc, tail, p)
        n >>= 1
    return result


def _poly_rem(poly: list[int], div: list[int], p: int) -> list[int]:
    # div must be monic; its zero coefficients are skipped, as sparse moduli have many.
    rem = list(poly)
    dd = len(div) - 1
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            rem[k] = 0
            for j in range(dd):
                if div[j]:
                    rem[k - dd + j] = (rem[k - dd + j] - c * div[j]) % p
    return rem[:dd]


def _is_irreducible(tail: tuple[int, ...], p: int) -> bool:
    # A zero constant term means x divides f, a proper factor only for e > 1;
    # any other proper factor of a degree-e polynomial has degree <= e // 2.
    e = len(tail)
    if tail[0] == 0:
        return e == 1
    poly = list(tail) + [1]
    for d in range(1, e // 2 + 1):
        for div_tail in itertools.product(range(p), repeat=d):
            div = list(div_tail) + [1]
            if not any(_poly_rem(poly, div, p)):
                return False
    return True


class Field:
    """Fully tabulated F_q for odd q = p**e up to the cap DEFAULT_Q_CAP."""

    # Slots hold what is built up front: on CPython 3.11 cached_property's read
    # of __dict__ slows later reads from it ~70%, and add and mul read per call.
    __slots__ = (
        "p", "e", "q", "m", "_tail", "generator", "_exp", "_dlog", "_dlog_array", "_trace_pow", "__dict__"
    )

    def __init__(self, p: int, e: int = 1):
        if e < 1:
            raise ValueError("extension degree must be at least 1")
        # The cap first, so that an oversized p is refused as too large.
        if p >= 2 and not fits_cap(p, e, DEFAULT_Q_CAP):
            raise FieldTooLargeError(f"q = {p}^{e} exceeds the cap {DEFAULT_Q_CAP}")
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if p == 2:
            raise OddPrimeRequiredError("fields of characteristic 2 are not supported")
        self.p = p
        self.e = e
        self.q = p**e
        self.m = self.q - 1
        self._tail = self._find_modulus_tail()
        self.generator = self._find_generator()
        self._build_tables()

    def _find_modulus_tail(self) -> tuple[int, ...]:
        # In lexicographic order.  The constant term runs over a lazy range:
        # product() copies each range up front, O(p) work a prime field skips.
        p, e = self.p, self.e
        heads = (itertools.product((c,), *[range(p)] * (e - 1)) for c in range(p))
        return next(t for t in itertools.chain.from_iterable(heads) if _is_irreducible(t, p))

    def modulus_str(self) -> str:
        parts = []
        for d in range(self.e, -1, -1):
            c = 1 if d == self.e else self._tail[d]
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                x = "x" if d == 1 else f"x^{d}"
                parts.append(x if c == 1 else f"{c}*{x}")
        return " + ".join(parts)

    def _digits(self, n: int) -> list[int]:
        out = []
        for _ in range(self.e):
            n, r = divmod(n, self.p)
            out.append(r)
        return out

    def _find_generator(self) -> int:
        # For e > 1 the encodings below p are F_p, whose orders divide p - 1 < q - 1.
        one = [1] + [0] * (self.e - 1)
        checks = [self.m // r for r in prime_factors(self.m)]
        for n in range(self.p if self.e > 1 else 2, self.q):
            digs = self._digits(n)
            if all(_poly_pow_mod(digs, c, self._tail, self.p) != one for c in checks):
                return n
        raise RuntimeError("no generator found")  # unreachable

    def _build_tables(self) -> None:
        """exp, dlog and Tr(g^t), from the (q-1, e) base-p digits of the powers of g.

        With the first w powers known, the next w are the same block times
        the e x e matrix over F_p whose row j holds the digits of x^j g^w
        (for e = 1, g^w).  Entries and digits are below p, so a product stays
        below e p^2.  dlog is one scatter of the exponents into encoding
        order; a generator of order below q - 1 leaves more than the one
        entry at 0 unset, and is kept both as that int64 array, which the
        vectorized reads index, and as a list for the scalar arithmetic.  The
        oracle is `oracle_helpers.scalar_field_tables`.
        """
        p, e, m = self.p, self.e, self.m
        digits = np.zeros((m, e), dtype=np.int64)
        digits[0, 0] = 1
        basis = np.eye(e, dtype=np.int64).tolist()
        w, gw = 1, self._digits(self.generator)
        while w < m:
            n = min(w, m - w)
            times = np.array([_poly_mul_mod(x, gw, self._tail, p) for x in basis])
            np.matmul(digits[:n], times, out=digits[w : w + n])
            digits[w : w + n] %= p
            w, gw = w + n, _poly_mul_mod(gw, gw, self._tail, p)
        places = p ** np.arange(e, dtype=np.int64)
        exp = digits @ places
        dlog = np.full(self.q, -1, dtype=np.int64)
        dlog[exp] = np.arange(m, dtype=np.int64)
        if np.count_nonzero(dlog == -1) != 1:
            raise RuntimeError("generator order check failed")
        # The trace is F_p-linear: Tr(g^t) = sum over j of digit_j(g^t) Tr(x^j),
        # and Tr(x^j) sums the digits of the Frobenius images x^(j p^i).
        frob = [[dlog[b] * pow(p, i, m) % m for i in range(e)] for b in places.tolist()]
        basis_tr = digits[frob].sum(axis=1) % p
        # The trace lands in the prime subfield: a single digit.
        if basis_tr[:, 1:].any():
            raise RuntimeError("trace left the prime subfield")
        self._trace_pow = digits @ basis_tr[:, 0] % p
        # Free each array before the next list is made, to keep the peak down.
        del digits
        self._exp = exp.tolist()
        del exp
        self._dlog_array = dlog
        self._dlog = dlog.tolist()

    # ------------------------------------------------------------------
    # integer-encoding arithmetic

    def add(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.e):
            out += ((a % p) + (b % p)) % p * shift
            a //= p
            b //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.e):
            out += ((a % p) - (b % p)) % p * shift
            a //= p
            b //= p
            shift *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._dlog[a] + self._dlog[b]) % self.m]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in the field")
        return self._exp[(-self._dlog[a]) % self.m]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n > 0:
                return 0
            if n == 0:
                return 1
            raise ZeroDivisionError("negative power of zero in the field")
        return self._exp[(self._dlog[a] * n) % self.m]

    def dlog(self, x: int) -> int:
        if x == 0:
            raise LogOfZeroError("the discrete logarithm of zero is undefined")
        return self._dlog[self.check(x)]

    def check(self, x: int) -> int:
        """x itself, once it is known to be an element encoding in [0, q)."""
        if not 0 <= x < self.q:
            raise ValueError(f"element encoding {x} outside [0, {self.q})")
        return x

    def from_rational(self, r: Fraction | int) -> int:
        """r in the prime subfield, whose elements are encoded by their residues for every e."""
        fr = Fraction(r)
        if fr.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator of {fr} vanishes mod {self.p}")
        return fr.numerator * pow(fr.denominator, -1, self.p) % self.p

    # ------------------------------------------------------------------
    # the Gauss-sum table: complex character sums and whole binomial rows

    @functools.cached_property
    def zeta(self) -> np.ndarray:
        """(q-1)-th roots of unity, zeta[k] = exp(2*pi*i*k/(q-1)), built on first use.

        The four cardinal roots are stored exactly so that character values
        on the real axis (and at -1 in particular) come out as exact signs.
        """
        z = np.exp(2j * np.pi * np.arange(self.m) / self.m)
        z[0] = 1.0
        z[self.m // 2] = -1.0
        if self.m % 4 == 0:
            z[self.m // 4] = 1j
            z[3 * self.m // 4] = -1j
        return z

    @functools.cached_property
    def log_one_minus(self) -> np.ndarray:
        """Z[t] = dlog(1 - g^t) along the powers, built on first use; Z[0] = -1 for dlog 0."""
        exp = np.empty(self.m, dtype=np.int64)
        exp[self._dlog_array[1:]] = np.arange(1, self.q, dtype=np.int64)
        places = self.p ** np.arange(self.e, dtype=np.int64)
        digits = exp[:, None] // places % self.p
        digits[:, 0] -= 1  # 1 - g^t, digit by digit
        return self._dlog_array[(-digits % self.p) @ places]

    def jacobi_counts(self, a: int, b: int) -> np.ndarray:
        """Exact exponent counts of J(chi_a, chi_b) over (q-1)-th roots, one O(q) pass.

        The exact path of the tests' oracle `jacobi_sum`
        (`tests/oracle_helpers.py`); `jacobi_c` reads the Gauss table instead.
        """
        m = self.m
        t = np.arange(1, m, dtype=np.int64) * (a % m)  # x = g^t runs over F_q minus {0, 1}
        t += self.log_one_minus[1:] * (b % m)
        t %= m
        return np.bincount(t, minlength=m)

    @functools.cached_property
    def gauss_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """The Gauss sums G[k] = G(chi_k) of every character, and H[k] = (-1)^k G[-k] / q.

        G is one inverse DFT of the additive character along the generator's
        powers, G[k] = sum over t of zeta^(k t) psi(g^t) with psi(x) =
        exp(2 pi i Tr(x) / p); G[0] = -1 is stored exactly.  Since G(chi)
        G(chi bar) = chi(-1) q for nontrivial chi, H[k] = 1 / G[k] for
        k != 0.  Both are built on first use and kept with the field: two
        complex (q-1)-vectors, 3.2 MB at q = 99991.
        """
        psi = np.exp(2j * np.pi / self.p * self._trace_pow)
        g = np.fft.ifft(psi)
        g *= self.m
        g[0] = -1.0
        h = np.roll(g[::-1], 1)  # h[k] = g[-k]
        h[1::2] *= -1.0
        h /= self.q
        return g, h

    def jacobi_c(self, a: int, b: int) -> complex:
        """Complex value of J(chi_a, chi_b) = G[a] G[b] / G[a + b], two reads of the Gauss table.

        Where a character is trivial it is the closed form under chi(0) = 0:
        q - 2 when both are, -1 when one is, and -chi_a(-1) when a + b is.
        """
        m = self.m
        a, b = a % m, b % m
        if a == 0 or b == 0:
            return complex(self.q - 2 if a == b else -1)
        if (a + b) % m == 0:
            return complex(1 if a % 2 else -1)
        g = self.gauss_sums[0]
        return complex(g[a] * g[b] / g[(a + b) % m])

    def binom_c(self, a: int, b: int) -> complex:
        """Complex binomial (chi_a | chi_b) = chi_b(-1)/q * J(chi_a, inverse of chi_b)."""
        sign = -1.0 if b % 2 else 1.0
        return sign * self.jacobi_c(a, -b) / self.q

    def binom_row(self, t: int, b: int) -> np.ndarray:
        """The row k -> (chi_{t+k} | chi_{b+k}), a complex (q-1)-vector.

        Its entry at k is (-1)^(b+k)/q * J(chi_{t+k}, chi_{-(b+k)}), which is
        G[t+k] H[b+k] H[t-b] wherever none of the three characters is
        trivial: a rolled copy of G times a rolled copy of H times the scalar
        H[t-b] = 1/G[t-b].  No bincount and no FFT.  Where one is trivial the
        entry is the closed form, and the closed forms live in `binom_c`
        alone: the entries at k = -t and k = -b are read from it, and when
        t = b, where chi_{t-b} is trivial at every k, every other entry is
        -1/q.
        """
        m = self.m
        g, h = self.gauss_sums
        t, b = int(t) % m, int(b) % m
        if t == b:
            row = np.full(m, -1.0 / self.q, dtype=complex)
        else:
            row = np.concatenate((g[t:], g[:t]))  # G rolled by t
            row[: m - b] *= h[b:]  # times H rolled by b, in place
            row[m - b :] *= h[:b]
            row *= h[t - b]
        for k in {-t % m, -b % m}:
            row[k] = self.binom_c(t + k, b + k).real
        return row

    def gauss_c(self, k: int) -> complex:
        """Complex Gauss sum of chi_k, a read of the Gauss table."""
        return complex(self.gauss_sums[0][k % self.m])

    def char_value(self, k: int, x: int) -> complex:
        """chi_k(x) as a complex number, with chi_k(0) = 0."""
        if self.check(x) == 0:
            return 0j
        return complex(self.zeta[(k * self._dlog[x]) % self.m])

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.e))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, e={self.e})"


make_field = Field  # the name bench/worker.py, the tests and README.md call
