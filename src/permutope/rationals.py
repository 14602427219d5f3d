"""Exact rational conversion and formatting helpers.

All decision procedures in this package run on ``fractions.Fraction``; floats
are rejected at the boundary rather than silently converted, because a float
carries a binary approximation of what the caller meant.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RationalityError


def as_fraction(value) -> Fraction:
    """Convert int / Fraction / 'p/q' string to Fraction; reject floats."""
    if isinstance(value, float):
        raise RationalityError(
            f"refusing float {value!r}; pass int, Fraction or a 'p/q' string"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise RationalityError(f"not an exact rational: {value!r}") from exc


def float_str(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering for display only (never used in decisions)."""
    return f"{float(value):.{digits}g}"
