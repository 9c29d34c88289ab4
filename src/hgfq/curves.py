"""Point counts on the superelliptic family y**l = (x-1)(x**2 + lambda).

Every curve character sum comes from one integer histogram per (field,
lambda): `curve_histogram` buckets the nonzero values of the curve
polynomial by discrete log and counts its roots, one numpy kernel: a
gather of the field's int64 dlog array and a `bincount`.
`character_sum_count` reads the exact affine count off it for any l, and
`curve_char_sum` the sum W(S) of a character over the curve polynomial;
these are what the verification sweep and `hgfq count` use.  The values
themselves come from `curve_values`, an int64 array.
`brute_force_count` (enumeration of affine pairs) and, for l = 3,
`weierstrass_count_l3` (the short Weierstrass model) are oracles for the
tests.  `good_reduction` decides from the residues of l and of lambda =
a/b modulo the field's characteristic, which is prime because the field
exists; `reduce_lambda` is lambda in the field under it, and the one
refusal of bad reduction, for every count.  `points_at_infinity` is the
one rule for the projective completion, the nonsingular model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .errors import BadReductionError, CongruenceError, NoRepresentationError
from .field import Field


@dataclass(frozen=True)
class CurveSpec:
    l: int
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.l < 2:
            raise ValueError("the exponent l must be at least 2")
        if self.lam in (0, -1):
            raise ValueError("lambda must avoid 0 and -1")


@dataclass(frozen=True)
class PointCount:
    affine: int
    projective: int
    a_q: int


def good_reduction(field: Field, l: int, lam: Fraction) -> bool:
    """Whether the characteristic p divides neither l nor the numerator or
    denominator of lambda (lambda + 1).  With lambda = a/b in lowest terms,
    that quotient is a (a + b) / b**2, also in lowest terms, so for the prime
    p it is a unit exactly when p divides none of a, b and a + b.  So it is
    False at lambda = 0 (a = 0) and at lambda = -1 (a + b = 0) for every p."""
    a, b = lam.numerator, lam.denominator
    return l * a * b * (a + b) % field.p != 0


def reduce_lambda(field: Field, curve: CurveSpec) -> int:
    """lambda as a field element, available exactly under good reduction."""
    if not good_reduction(field, curve.l, curve.lam):
        raise BadReductionError(
            f"curve (l={curve.l}, lambda={curve.lam}) has bad reduction at p={field.p}"
        )
    return field.from_rational(curve.lam)


def curve_values(field: Field, lam: int) -> np.ndarray:
    """(x-1)(x**2 + lambda) for every x in the field, by encoding: an int64 q-vector.

    On a prime field the encodings are the residues, so this is int64
    arithmetic mod p over the whole field at once.  Every intermediate is
    below p**2 in absolute value (x**2 + lambda <= p (p-1)), so it is exact
    while p < 3.03e9, where x**2 < 2**63; the cap is far below.  On F_{p^e}
    with e > 1 it is a loop of field ops, packed into int64.
    `oracle_helpers.curve_values_by_field_ops` is the field-ops loop for
    every e, the oracle the tests compare this with."""
    if field.e == 1:
        p = field.p
        x = np.arange(p, dtype=np.int64)
        v = (x * x + lam) % p
        v *= x - 1
        v %= p
        return v
    return np.fromiter(
        (field.mul(field.sub(x, 1), field.add(field.mul(x, x), lam)) for x in range(field.q)),
        dtype=np.int64,
        count=field.q,
    )


def points_at_infinity(field: Field, l: int) -> int:
    """The rational points at infinity of the nonsingular projective model.

    Near infinity the curve looks like y**l = x**3, which has gcd(l, 3)
    places there, one for each cube root of unity when 3 | l; they are all
    rational exactly when F_q holds those roots, that is when q = 1 mod 3
    (Galbraith-Paulus-Smart, "Arithmetic on superelliptic curves", 2002).
    So 3 when 3 | l and q = 1 mod 3, and 1 otherwise."""
    return 3 if l % 3 == 0 and field.q % 3 == 1 else 1


def _projective(field: Field, l: int, affine: int) -> PointCount:
    projective = affine + points_at_infinity(field, l)
    return PointCount(affine, projective, 1 + field.q - projective)


def brute_force_count(field: Field, curve: CurveSpec) -> PointCount:
    lam = reduce_lambda(field, curve)
    power_counts = Counter(field.pow(y, curve.l) for y in range(field.q))
    affine = sum(power_counts[f] for f in curve_values(field, lam).tolist())
    return _projective(field, curve.l, affine)


def curve_histogram(field: Field, lam: int) -> tuple[np.ndarray, int]:
    """(H, z) for f(x) = (x-1)(x**2 + lambda): H[t] counts the x with f(x) != 0
    and dlog f(x) = t, and z counts the roots of f."""
    values = curve_values(field, lam)
    logs = field._dlog_array[values[values != 0]]
    return np.bincount(logs, minlength=field.m), field.q - len(logs)


def curve_char_sum(field: Field, s: int, lam: int) -> complex:
    """W(chi_s) = sum over x of chi_s((x-1)(x**2 + lambda)), read off the histogram."""
    hist, _ = curve_histogram(field, lam)
    return complex(hist @ field.zeta[s * np.arange(field.m) % field.m])


def character_sum_count(field: Field, curve: CurveSpec) -> PointCount:
    """Exact affine count from the dlog histogram of the curve polynomial.

    With g = gcd(l, q-1), y -> y**l and y -> y**g have the same image and
    fibre sizes on the cyclic group F_q^*, so f = y**l has g solutions when
    dlog f = 0 mod g, none for other f != 0, and one for f = 0: the count
    is z + g * (sum of H[t] over t = 0 mod g), the character sum of order g.
    """
    lam = reduce_lambda(field, curve)
    hist, zeros = curve_histogram(field, lam)
    g = gcd(curve.l, field.m)
    return _projective(field, curve.l, zeros + g * int(hist[::g].sum()))


def weierstrass_count_l3(field: Field, curve: CurveSpec) -> PointCount:
    """Point count of the l = 3 member through its Weierstrass model
    y**2 = x**3 - lambda/(1+lambda)**4."""
    if curve.l != 3:
        raise ValueError("the Weierstrass model applies to l = 3 only")
    if field.p == 3:
        raise BadReductionError("the Weierstrass model needs p different from 2 and 3")
    reduce_lambda(field, curve)  # the one bad-reduction refusal
    c = field.from_rational(-curve.lam / (1 + curve.lam) ** 4)
    square_counts = Counter(field.mul(y, y) for y in range(field.q))
    affine = 0
    for x in range(field.q):
        affine += square_counts[field.add(field.pow(x, 3), c)]
    return PointCount(affine, affine + 1, field.q - affine)


def cornacchia_3(p: int) -> tuple[int, int]:
    """The nonnegative solution of x**2 + 3*y**2 = p for p = 1 mod 3."""
    if p % 3 != 1:
        raise CongruenceError(f"p = {p} is not 1 mod 3")
    for x in range(isqrt(p) + 1):
        rem = p - x * x
        if rem % 3:
            continue
        y = isqrt(rem // 3)
        if 3 * y * y == rem:
            return x, y
    raise NoRepresentationError(f"no representation x^2 + 3y^2 = {p}")
