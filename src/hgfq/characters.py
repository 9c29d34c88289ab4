"""Multiplicative characters of F_q, indexed by exponent against the generator.

The character chi_k sends generator**t to zeta**(k*t) with zeta the fixed
primitive (q-1)-th root of unity exp(2*pi*i/(q-1)), and chi_k(0) = 0 for
every k, the trivial character included.  A character is its index alone:
`Field.char_value(k, x)` reads chi_k(x) off the field's table of (q-1)-th
roots of unity, and eps and phi are `character_of_order(field, 1)` and
`(field, 2)`.  Exact sums of character values, as root-of-unity counts,
are the tests' oracle `CyclotomicSum` (`tests/oracle_helpers.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import FieldMismatchError, OrderNotDividingError
from .field import Field


@dataclass(frozen=True)
class Character:
    """The multiplicative character chi_index on a fixed field."""

    field: Field
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", self.index % self.field.m)

    @property
    def order(self) -> int:
        return self.field.m // gcd(self.index, self.field.m)

    def __pow__(self, n: int) -> "Character":
        return Character(self.field, (self.index * n) % self.field.m)

    def __repr__(self) -> str:
        return f"Character(index={self.index}, q={self.field.q})"


def same_field(*chars: Character) -> Field:
    """The one field that every character lives on."""
    field = chars[0].field
    if any(c.field != field for c in chars[1:]):
        raise FieldMismatchError("characters live on different fields")
    return field


def character_of_order(field: Field, n: int) -> Character:
    """The canonical character of exact order n, index (q-1)/n."""
    if n < 1 or field.m % n != 0:
        raise OrderNotDividingError(f"no character of order {n} when q = {field.q}")
    return Character(field, field.m // n)


def parse_character(field: Field, text: str) -> Character:
    """Parse "eps", "phi", "chi:<k>" or "ord<l>", optionally raised by "^j"."""
    spec = text.strip()
    power = 1
    if "^" in spec:
        spec, _, ptext = spec.partition("^")
        power = int(ptext)
    spec = spec.strip()
    if spec == "eps":
        base = character_of_order(field, 1)
    elif spec == "phi":
        base = character_of_order(field, 2)
    elif spec.startswith("chi:"):
        base = Character(field, int(spec[4:]))
    elif spec.startswith("ord"):
        base = character_of_order(field, int(spec[3:]))
    else:
        raise ValueError(f"unrecognized character spec {text!r}")
    return base**power
