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
3.2 MB Gauss table included (README.md).  The variant

    F(A, B; x) = q/(q-1) * sum over chi of (A chi^2 | chi)(A chi | B chi) chi(x/4)

(Greene 1987) is `evans_F`, a loop over k of scalar `Field.binom_c` products,
as written.  Only the tests call it; it stays here because `bench/tracer.py`
spans it here, and `tests/test_fence.py` checks that no command reaches it.
The tests check it against `naive_oracles.evans_F`.  The wrappers that only
the tests call, `hgf_2f1` on characters and F* = F + A B(-1) Abar(x/4) / q,
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
    m = field.m
    product = np.ones(m, dtype=complex)
    for t, b in zip(tops, [0, *bottoms]):
        product *= field.binom_row(t, b)
    k = np.arange(m, dtype=np.int64)
    k *= field.dlog(x)
    k %= m
    return complex(product @ field.zeta.take(k)) * field.q / m


def evans_F(a: Character, b: Character, x: int) -> complex:
    field = same_field(a, b)
    x4 = field.div(field.check(x), field.from_rational(4))
    if x4 == 0:
        return 0j
    m = field.m
    d = field.dlog(x4)
    total = 0j
    for k in range(m):
        term = field.binom_c(a.index + 2 * k, k) * field.binom_c(a.index + k, b.index + k)
        total += term * field.zeta[(k * d) % m]
    return total * field.q / m
