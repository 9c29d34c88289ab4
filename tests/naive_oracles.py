"""Naive prime-field oracles that share no code with the package.

Dict tables, double loops and cmath over F_p only: characters on this
module's own primitive root, Jacobi sums and binomials, the (n+1)F_n
series, Evans's F and F*, a curve character sum and the affine point count
of y**l = (x-1)(x**2+lambda).  Nothing here imports hgfq, so these names
may match package names without shadowing them; the oracles that take a
package `Field` are in `oracle_helpers`.
"""

import cmath
from functools import lru_cache


@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    for g in range(2, p):
        x, seen = 1, set()
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"no generator for {p}")


@lru_cache(maxsize=None)
def log_table(p: int):
    g = primitive_root(p)
    table = {}
    x = 1
    for k in range(p - 1):
        table[x] = k
        x = x * g % p
    return table


def chi(p: int, k: int, x: int) -> complex:
    if x % p == 0:
        return 0j
    return cmath.exp(2j * cmath.pi * k * log_table(p)[x % p] / (p - 1))


def jacobi(p: int, a: int, b: int) -> complex:
    return sum(chi(p, a, x) * chi(p, b, 1 - x) for x in range(p))


def binom(p: int, a: int, b: int) -> complex:
    m = p - 1
    return chi(p, b, -1) * jacobi(p, a, (m - b) % m) / p


def series(p: int, tops, bottoms, x: int) -> complex:
    m = p - 1
    total = 0j
    for k in range(m):
        term = binom(p, (tops[0] + k) % m, k % m)
        for t, b in zip(tops[1:], bottoms):
            term *= binom(p, (t + k) % m, (b + k) % m)
        total += term * chi(p, k, x)
    return p / (p - 1) * total


def evans_F(p: int, a: int, b: int, x: int) -> complex:
    """p/(p-1) times the sum over k of (A chi_k^2 | chi_k)(A chi_k | B chi_k) chi_k(x/4)."""
    m = p - 1
    y = x * pow(4, -1, p) % p
    total = 0j
    for k in range(m):
        term = binom(p, (a + 2 * k) % m, k) * binom(p, (a + k) % m, (b + k) % m)
        total += term * chi(p, k, y)
    return p / m * total


def evans_F_star(p: int, a: int, b: int, x: int) -> complex:
    """F(A, B; x) plus A B(-1) Abar(x/4) / p; both terms vanish at x = 0."""
    y = x * pow(4, -1, p) % p
    return evans_F(p, a, b, x) + chi(p, a + b, -1) * chi(p, -a, y) / p


def curve_char_sum(p: int, l: int, i: int, num: int, den: int) -> complex:
    """W_i = sum over x of S**i((x-1)(x**2+lambda)), S a character of order l.

    S is built on this module's own generator, so a single W_i may differ
    from the package's by a permutation of i; every symmetric function of
    W_1, ..., W_{l-1} (their sum, the sum of their squares) does not.
    """
    lam = num * pow(den, -1, p) % p
    k = i * (p - 1) // l
    return sum(chi(p, k, (x - 1) * (x * x + lam)) for x in range(p))


def count_affine(p: int, l: int, num: int, den: int) -> int:
    """Points on y**l = (x-1)(x**2+lambda) over F_p by raw double loop."""
    lam = num * pow(den, -1, p) % p
    pts = 0
    for x in range(p):
        rhs = (x - 1) * (x * x + lam) % p
        for y in range(p):
            if pow(y, l, p) == rhs:
                pts += 1
    return pts
