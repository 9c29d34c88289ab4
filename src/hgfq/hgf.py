"""Gaussian hypergeometric series and the Evans-Greene F sum.

The (n+1)F_n series is the normalized character-indexed sum

    q/(q-1) * sum over chi of (A0 chi | chi)(A1 chi | B1 chi)...(An chi | Bn chi) chi(x),

evaluated as one product of whole binomial rows: each row k -> (A chi_k | B chi_k)
is `Field.binom_row(t, b)`, the row k -> (chi_{t+k} | chi_{b+k}), read off the
field's table of Gauss sums as a product of rolled copies of G and 1/G, with no
FFT per row.  Where a character is trivial the entries are closed forms, which
live in `Field.binom_c` alone.  Rows are built one at a time and multiplied
into one running product that starts at 1, so a series holds about 3.5 complex
(q-1)-vectors besides the field's tables, whatever its number of rows.  At
q = 99991 a 3F2 call peaks about 13 MB above the field's own tables, the
3.2 MB Gauss table included (README.md).  The variant F(A, B; x) sums
(A chi^2 | chi)(A chi | B chi) chi(x/4) instead; its first row is `evans_row`.
The wrappers that only the tests call, `hgf_2f1` on characters and
F* = F + A B(-1) Abar(x/4) / q, are in `tests/oracle_helpers.py`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .characters import Character, same_field
from .field import Field


def series_value(field: Field, tops: list[int], bottoms: list[int], x: int) -> complex:
    """Evaluate the series from raw character indices and an element encoding."""
    if len(tops) != len(bottoms) + 1:
        raise ValueError("a series needs exactly one more top index")
    if field.check(x) == 0:
        return 0j
    return _row_series(field, (field.binom_row(t, b) for t, b in zip(tops, [0, *bottoms])), x)


def _row_series(field: Field, rows: Iterable[np.ndarray], x: int) -> complex:
    """q/(q-1) * sum over k of chi_k(x) times the product at k of the rows, taken as they come."""
    m = field.m
    product = np.ones(m, dtype=complex)
    for row in rows:
        product *= row
    k = np.arange(m, dtype=np.int64)
    k *= field.dlog(x)
    k %= m
    return complex(product @ field.zeta.take(k)) * field.q / m


def evans_row(field: Field, a: int) -> np.ndarray:
    """The row k -> (chi_{a+2k} | chi_k) of F(A, B; x), a complex (q-1)-vector.

    Where no character is trivial its entry is G[a+2k] H[k] H[a+k], as in
    `Field.binom_row`: one gather of G along the step 2, times H, times a
    rolled copy of H.  The at most four entries where chi_{a+2k}, chi_k or
    chi_{a+k} is trivial are read from `field.binom_c`.
    """
    m = field.m
    g, h = field.gauss_sums
    a = int(a) % m
    index = np.arange(a, a + 2 * m, 2, dtype=np.int64)
    index %= m
    row = g.take(index)
    row *= h
    row[: m - a] *= h[a:]  # times H rolled by a, in place
    row[m - a :] *= h[:a]
    for k in {0, -a % m, *np.flatnonzero(index == 0).tolist()}:
        row[k] = field.binom_c(a + 2 * k, k).real
    return row


def evans_F(a: Character, b: Character, x: int) -> complex:
    field = same_field(a, b)
    x4 = field.div(field.check(x), field.from_rational(4))
    if x4 == 0:
        return 0j
    return _row_series(field, (evans_row(field, a.index), field.binom_row(a.index, b.index)), x4)
