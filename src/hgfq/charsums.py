"""Gauss sums, Jacobi sums and the quadratic-argument g-sum, computed
exact-first.

Single character sums are held as sparse integer counts of roots of unity
(order q-1 for multiplicative sums, lcm(q-1, p) for Gauss sums) and
converted to complex doubles only at comparison boundaries.  These exact
sums are independent of the field's complex Gauss-sum table, which
`Field.binom_c` and the series read, and serve as its oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import Character, same_field


@dataclass(frozen=True)
class CyclotomicSum:
    """Exact sum of counts[i] * zeta_order**exponents[i] over distinct increasing exponents."""

    order: int
    exponents: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_counts(cls, order: int, dense: np.ndarray) -> "CyclotomicSum":
        """The sum with dense[t] copies of zeta_order**t."""
        exponents = np.flatnonzero(dense)
        return cls(order, exponents, dense[exponents].astype(np.int64))

    def to_complex(self) -> complex:
        phases = np.exp(2j * np.pi * self.exponents / self.order)
        return complex(self.counts @ phases)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CyclotomicSum)
            and self.order == other.order
            and np.array_equal(self.exponents, other.exponents)
            and np.array_equal(self.counts, other.counts)
        )


def jacobi_sum(a: Character, b: Character) -> CyclotomicSum:
    """J(A, B) = sum over x of A(x) B(1-x), as exact root-of-unity counts."""
    field = same_field(a, b)
    return CyclotomicSum.from_counts(field.m, field.jacobi_counts(a.index, b.index))


def gauss_sum(chi: Character) -> CyclotomicSum:
    """G(chi) = sum over x of chi(x) zeta_p**trace(x), with x = g^t for t in [0, q-1).

    Exponents are composed over roots of unity of order (q-1)*p, which is
    lcm(q-1, p) since p never divides q-1.
    """
    field = chi.field
    m, p = field.m, field.p
    order = m * p
    t = np.arange(m, dtype=np.int64) * (chi.index % m) % m
    t = (p * t + m * field._trace_pow) % order
    exponents, counts = np.unique(t, return_counts=True)
    return CyclotomicSum(order, exponents, counts.astype(np.int64))


def g_sum(a: Character, b: Character, x: int) -> CyclotomicSum:
    """g(A, B; x) = sum over t of A(1-t) B(1-x*t^2).

    t = 0 gives 1 and t = 1 gives 0; every other t is g^s for s in [1, q-1),
    read off the field's table Z[s] = dlog(1 - g^s), also at s = dlog(x t^2).
    """
    field = same_field(a, b)
    field.check(x)
    m = field.m
    z = field.log_one_minus
    exps = a.index % m * z[1:]
    if x != 0:
        k = (field.dlog(x) + 2 * np.arange(1, m, dtype=np.int64)) % m  # dlog(x t^2)
        exps = (exps + b.index % m * z[k])[k != 0]  # k = 0: 1 - x t^2 is 0
    counts = np.bincount(exps % m, minlength=m)
    counts[0] += 1  # t = 0
    return CyclotomicSum.from_counts(m, counts)


def g_sum_c(a: Character, b: Character, x: int) -> complex:
    return g_sum(a, b, x).to_complex()
