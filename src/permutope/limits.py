"""Size guards; :func:`natural`, the package's one reader of integers from text;
and :func:`excerpt`, which bounds what an error message quotes.

All expensive enumerations are capped.  Each guard reads its cap with
:func:`cap` at the moment it checks: the ``PERMUTOPE_CAP`` environment
variable (``name=value`` pairs, comma separated -- see the README) overrides
the defaults below, for library callers and the CLI alike.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .errors import CapacityError

# The caps ``PERMUTOPE_CAP`` can set, by key, with their defaults.
DEFAULTS = {
    # Maximum number of simple cycles emitted by one enumeration.
    "cycles": 10**6,
    # Classical occurrence counting for pattern sizes >= 4 visits the
    # C(n-1, k-1) subsets of k-1 positions that have a later point, in
    # C-level passes; permutations longer than this are rejected there.
    "enum": 30,
    # Largest overlap graph built (7! = 5040 edges).
    "overlap": 7,
    # Full-subgraph (face) enumeration is exponential in the edge count.
    "faces": 12,
    # Size |A| * |B| of a substitution product in the mixing construction.
    "mix": 10**7,
    # Points in one realizing permutation built by a realization plan.
    "realize": 10**7,
}

# Pattern vectors carry k! entries; no PERMUTOPE_CAP key overrides this.
VECTOR_K_CAP = 8


def caps() -> Mapping[str, int]:
    """Every cap: its ``PERMUTOPE_CAP`` entry, else its default.  A malformed
    variable raises ValueError."""
    return _parse(os.environ.get("PERMUTOPE_CAP", ""))


def cap(name: str) -> int:
    """The size guard ``name``: its ``PERMUTOPE_CAP`` entry, else its default."""
    return caps()[name]


def natural(text: str) -> int:
    """The integer ``text`` spells in ASCII digits alone: a sign, space, ``_``,
    another script's digit (all read by ``int()``) or too many digits is refused."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
    raise ValueError(f"invalid literal for int(): {shown}; use ASCII digits only")


def excerpt(value, limit: int = 40) -> str:
    """``str(value)`` cut after ``limit`` characters, for an error message
    that must not grow with the input it quotes.  An int past the
    interpreter's digit limit for ``str`` is quoted by its size, and any
    other value that holds one by its type."""
    try:
        text = str(value)
    except ValueError:
        if isinstance(value, int):
            return f"a {'negative ' if value < 0 else ''}{_decimal_digits(value)}-digit integer"
        return f"a {type(value).__name__} too long to print"
    return text if len(text) <= limit else text[:limit] + "..."


def _decimal_digits(n: int) -> int:
    """The number of decimal digits of |n|, without ``str``."""
    n = abs(n)
    # A lower bound on floor(log10 n), from n >= 2 ** (bit_length - 1).
    digits = max(0, int((n.bit_length() - 1) * math.log10(2)) - 1)
    while n >= 10 ** (digits + 1):
        digits += 1
    return digits + 1


def check_overlap_k(k: int) -> None:
    """Refuse a pattern size k outside 2..the ``overlap`` cap: no overlap
    graph of that size is built.  Callers check before they allocate
    anything of size k! (the CLI, before a uniform ``--vector``)."""
    limit = cap("overlap")
    if k < 2 or k > limit:
        raise CapacityError(
            f"overlap graphs are built for 2 <= k <= the overlap cap {limit} "
            f"(PERMUTOPE_CAP key 'overlap'), got {k}"
        )


@lru_cache(maxsize=16)
def _parse(spec: str) -> Mapping[str, int]:
    table = dict(DEFAULTS)
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"PERMUTOPE_CAP entry {part!r} is not name=value")
        if key not in DEFAULTS:
            raise ValueError(
                f"PERMUTOPE_CAP has no cap {key!r}; the caps are {', '.join(DEFAULTS)}"
            )
        try:  # the digits of a negative value too, so that its refusal can say so
            table[key] = natural(value.strip().removeprefix("-"))
        except ValueError as exc:
            raise ValueError(f"PERMUTOPE_CAP cap {key!r}: {exc}") from None
        if value.strip()[:1] == "-":
            raise ValueError(f"PERMUTOPE_CAP cap {key!r} is negative: {value.strip()}")
    return MappingProxyType(table)
