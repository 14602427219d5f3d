"""Exact rational conversion.

All decision procedures in this package take and return exact rationals:
``fractions.Fraction`` at the public surface, and integer numerators over one
common denominator inside (a ``PatternVector``, an ``ExactPoint`` and the
polytope kernels).  Floats are rejected at the boundary rather than silently
converted, because a float carries a binary approximation of what the caller
meant.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .errors import RationalityError
from .limits import excerpt, natural


def as_fraction(value) -> Fraction:
    """Convert int / Fraction / 'p/q' string to Fraction; reject floats.

    A string, once stripped, is an optional sign, digits and an optional
    '/digits'; any other form is refused before any arithmetic is done.
    """
    if type(value) is Fraction:
        return value  # immutable, so it is its own exact copy
    if isinstance(value, float):
        raise RationalityError(
            f"refusing float {value!r}; pass int, Fraction or a 'p/q' string"
        )
    try:
        if isinstance(value, str):
            # No exponent, decimal point or underscore reaches int(), so the
            # work of reading a string is bounded by its length.
            p, slash, q = value.strip().partition("/")
            numerator = natural(p[1:] if p[:1] in ("+", "-") else p)
            return Fraction(-numerator if p[:1] == "-" else numerator, natural(q) if slash else 1)
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise RationalityError(
            f"not an exact rational: {excerpt(repr(value))}; pass int, Fraction or a string "
            f"of an optional sign, digits and an optional non-zero /digits"
        ) from exc


def integer_numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(n, d) with values[i] = n[i] / d and d the lcm of the reduced
    denominators; no prime divides d and every n[i], so equal lists give equal pairs."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*{q for _, q in ratios})
    return [p * (d // q) for p, q in ratios], d


class ExactPoint(Record, Sequence):
    """A point as integer ``numerators`` over one positive ``denominator``,
    read as a sequence of ``Fraction``s built only when they are read.  The
    polytope takes the numerators as they are, unchecked."""

    __slots__ = ("numerators", "denominator")

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, index: int) -> Fraction:
        return Fraction(self.numerators[index], self.denominator)

    def __iter__(self):
        # Numerators repeat, so each distinct Fraction is built once.
        d = self.denominator
        fractions = {n: Fraction(n, d) for n in set(self.numerators)}
        return map(fractions.__getitem__, self.numerators)
