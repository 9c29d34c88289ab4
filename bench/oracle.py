"""Reference computations for the benchmark's output checks.

Nothing here imports the package under test.  Prime fields are plain
integers mod p; the degree-2 fields are modelled as F_p[s]/(s^2 - n) with
n the least quadratic non-residue.  That model (and every generator picked
here) differs from the package's, so only quantities that do not depend on
the model are compared: point counts, a_q, sums over all characters of a
given order such as sum_i W_i^2, and quadratic characters of elements of F_p.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, isqrt

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def reduce_rational(p: int, lam: Fraction) -> int:
    return lam.numerator * pow(lam.denominator, -1, p) % p


def legendre(p: int, c: int) -> int:
    """The quadratic character of c mod p as -1, 0 or 1 (Euler's criterion)."""
    c %= p
    if c == 0:
        return 0
    return 1 if pow(c, (p - 1) // 2, p) == 1 else -1


def quadratic_char_of_prime_element(p: int, e: int, c: int) -> int:
    """phi(c) in F_{p^e} for c in the prime field: every element of F_p is a
    square in an even-degree extension, and squareness is unchanged in an
    odd-degree one."""
    if c % p == 0:
        return 0
    return 1 if e % 2 == 0 else legendre(p, c)


def points_at_infinity(q: int, l: int) -> int:
    """Rational points at infinity of the smooth model of y^l = cubic.

    Above x = oo lie gcd(l, 3) places, one for each cube root of unity
    zeta (y^(l/3) / x tends to zeta when 3 | l); they are all rational
    exactly when the cube roots of unity lie in F_q."""
    return 3 if l % 3 == 0 and q % 3 == 1 else 1


# ----------------------------------------------------------------------
# naive counting on prime fields


def naive_affine_count(p: int, l: int, lam: Fraction) -> int:
    """Affine points on y^l = (x-1)(x^2+lambda) over F_p by a double loop."""
    lam_p = reduce_rational(p, lam)
    powers: dict[int, int] = {}
    for y in range(p):
        v = pow(y, l, p)
        powers[v] = powers.get(v, 0) + 1
    return sum(powers.get((x - 1) * (x * x + lam_p) % p, 0) for x in range(p))


# ----------------------------------------------------------------------
# vectorised F_p and F_{p^2}


class SmallField:
    """F_p (e = 1) or F_p[s]/(s^2 - n) (e = 2); an element array is a pair
    (a, b) of int64 arrays standing for a + b*s."""

    def __init__(self, p: int, e: int):
        if e not in (1, 2) or not is_prime(p) or p == 2:
            raise ValueError("odd prime fields and their quadratic extensions only")
        self.p, self.e, self.q = p, e, p**e
        self.n = next(c for c in range(2, p) if legendre(p, c) == -1) if e == 2 else 0

    def elements(self):
        idx = np.arange(self.q, dtype=np.int64)
        return idx % self.p, idx // self.p

    def const(self, c: int, like):
        a = np.full_like(like[0], c % self.p)
        return a, np.zeros_like(like[1])

    def add(self, x, y):
        return (x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p

    def sub(self, x, y):
        return (x[0] - y[0]) % self.p, (x[1] - y[1]) % self.p

    def mul(self, x, y):
        p = self.p
        a = (x[0] * y[0] % p + self.n * (x[1] * y[1] % p)) % p
        b = (x[0] * y[1] % p + x[1] * y[0] % p) % p
        return a, b

    def pow(self, x, k: int):
        result = self.const(1, x)
        base = x
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def curve_values(self, lam: Fraction):
        """(x-1)(x^2+lambda) at every element x."""
        x = self.elements()
        lam_p = self.const(reduce_rational(self.p, lam), x)
        return self.mul(self.sub(x, self.const(1, x)), self.add(self.mul(x, x), lam_p))

    def _element_of_order(self, l: int):
        """Some element of exact order l, as a length-1 element array."""
        k = (self.q - 1) // l
        primes = [r for r in range(2, l + 1) if l % r == 0 and is_prime(r)]
        for c in range(1, self.q):
            z = (np.array([c % self.p]), np.array([c // self.p]))
            w = self.pow(z, k)
            if all(not _is_one(self.pow(w, l // r)) for r in primes):
                return w
        raise ValueError("no element of the requested order")

    def power_classes(self, values, l: int) -> tuple[int, np.ndarray]:
        """For d = gcd(l, q-1): the number of zero values, and how many
        nonzero values v have v^((q-1)/d) equal to w^j, for j < d and w a
        fixed element of order d."""
        d = gcd(l, self.q - 1)
        zero = (values[0] == 0) & (values[1] == 0)
        t = self.pow(values, (self.q - 1) // d)
        counts = np.zeros(d, dtype=np.int64)
        w = self._element_of_order(d) if d > 1 else None
        cur = (np.array([1]), np.array([0]))
        for j in range(d):
            hit = (t[0] == cur[0][0]) & (t[1] == cur[1][0]) & ~zero
            counts[j] = int(hit.sum())
            if w is not None:
                cur = self.mul(cur, w)
        return int(zero.sum()), counts

    def affine_count(self, l: int, lam: Fraction) -> int:
        """Points on y^l = (x-1)(x^2+lambda): each nonzero value that is a
        d-th power has d roots, each zero value one."""
        zeros, counts = self.power_classes(self.curve_values(lam), l)
        return zeros + gcd(l, self.q - 1) * int(counts[0])

    def w_square_sum(self, l: int, lam: Fraction) -> int:
        """sum over i = 1..l-1 of W_i^2, W_i = sum_x S^i((x-1)(x^2+lambda))
        for S a character of order l; needs l | q-1."""
        if (self.q - 1) % l:
            raise ValueError("no character of that order")
        _, counts = self.power_classes(self.curve_values(lam), l)
        total = 0j
        for i in range(1, l):
            w = sum(int(c) * cmath.exp(2j * cmath.pi * i * j / l) for j, c in enumerate(counts))
            total += w * w
        if abs(total.imag) > 1e-6 or abs(total.real - round(total.real)) > 1e-6:
            raise ArithmeticError("sum of W_i^2 is not an integer")
        return round(total.real)


def _is_one(x) -> bool:
    return bool(x[0][0] == 1 and x[1][0] == 0)
