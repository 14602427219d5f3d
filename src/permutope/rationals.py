"""Exact rational conversion and formatting helpers.

All decision procedures in this package take and return exact rationals:
``fractions.Fraction`` at the public surface, and integer numerators over one
common denominator inside (a ``PatternVector`` and the polytope kernels).
Floats are rejected at the boundary rather than silently converted, because a
float carries a binary approximation of what the caller meant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import RationalityError


def as_fraction(value) -> Fraction:
    """Convert int / Fraction / 'p/q' string to Fraction; reject floats."""
    if type(value) is Fraction:
        return value  # immutable, so it is its own exact copy
    if isinstance(value, float):
        raise RationalityError(
            f"refusing float {value!r}; pass int, Fraction or a 'p/q' string"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise RationalityError(f"not an exact rational: {value!r}") from exc


def integer_numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(n, d) with values[i] = n[i] / d and d the lcm of the reduced
    denominators; no prime divides d and every n[i], so equal lists give equal pairs."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*{q for _, q in ratios})
    return [p * (d // q) for p, q in ratios], d


def float_str(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering for display only (never used in decisions)."""
    return f"{float(value):.{digits}g}"
