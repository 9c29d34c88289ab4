"""Gaussian hypergeometric series and the Evans-Greene F sum.

The (n+1)F_n series is the normalized character-indexed sum

    q/(q-1) * sum over chi of (A0 chi | chi)(A1 chi | B1 chi)...(An chi | Bn chi) chi(x),

evaluated as one product of whole binomial rows: each row k -> (A chi_k | B chi_k)
is read off the field's table of Gauss sums as a product of rolled copies of G
and 1/G (`Field.binom_row`), with no FFT per row.  Rows are built one at a time
and multiplied into one running product that starts at 1, so a series holds
about 3.5 complex (q-1)-vectors besides the field's tables, whatever its number
of rows.  At q = 99991 a 3F2 call peaks about 13 MB above the field's own
tables, the 3.2 MB Gauss table included (README.md).  The variant F(A, B; x)
sums (A chi^2 | chi)(A chi | B chi) chi(x/4) instead.  The wrappers that
only the tests call, `hgf_2f1` on characters and F* = F + A B(-1) Abar(x/4) / q,
are in `tests/oracle_helpers.py`.
"""

from __future__ import annotations

import numpy as np

from .characters import Character, same_field
from .field import Field


def series_value(field: Field, tops: list[int], bottoms: list[int], x: int) -> complex:
    """Evaluate the series from raw character indices and an element encoding."""
    if len(tops) != len(bottoms) + 1:
        raise ValueError("a series needs exactly one more top index")
    if field.check(x) == 0:
        return 0j
    return _row_series(field, [(t, b, 1) for t, b in zip(tops, [0, *bottoms])], x)


def _row_series(field: Field, rows: list[tuple[int, int, int]], x: int) -> complex:
    """q/(q-1) * sum over k of chi_k(x) times the product at k of `field.binom_row(*row)`."""
    m = field.m
    product = np.ones(m, dtype=complex)
    for row in rows:
        product *= field.binom_row(*row)
    k = np.arange(m, dtype=np.int64)
    k *= field.dlog(x)
    k %= m
    return complex(product @ field.zeta.take(k)) * field.q / m


def evans_F(a: Character, b: Character, x: int) -> complex:
    field = same_field(a, b)
    x4 = field.div(field.check(x), field.from_rational(4))
    if x4 == 0:
        return 0j
    return _row_series(field, [(a.index, 0, 2), (a.index, b.index, 1)], x4)
