"""Size guards; :func:`natural`, the package's one reader of integers from text;
and :func:`excerpt`, which bounds what an error message quotes.

All expensive enumerations are capped.  Each guard reads its cap with
:func:`cap` at the moment it checks: the ``PERMUTOPE_CAP`` environment
variable (``name=value`` pairs, comma separated -- see the README) overrides
the defaults below, for library callers and the CLI alike.  Every refusal is
a :func:`refusal`, raised by :func:`check` or, in a loop that compares an
int it read once, by the loop itself.
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
    # Largest pattern size k of any table of k! entries: pattern vectors,
    # count lists and overlap graphs (8! = 40,320 edges).
    "overlap": 8,
    # Full-subgraph (face) enumeration is exponential in the edge count.
    "faces": 12,
    # Size |A| * |B| of a substitution product in the mixing construction.
    "mix": 10**7,
    # Points in one realizing permutation built by a realization plan.
    "realize": 10**7,
}

# The largest ``overlap`` cap PERMUTOPE_CAP may set: the ids of the k!
# patterns of size k fit in 64 bits up to k = 20 (20! < 2**63 < 21!).
OVERLAP_MOST = 20


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


def refusal(key: str, limit: int, what: str) -> CapacityError:
    """The refusal at the cap ``key``, whose value is ``limit``: ``what``,
    then the cap and the ``PERMUTOPE_CAP`` key that overrides it."""
    return CapacityError(f"{what} the {key} cap {limit} (PERMUTOPE_CAP key '{key}')")


def check(key: str, size: int, what: str) -> None:
    """Raise the :func:`refusal` of ``size`` if it is over the cap ``key``,
    read now."""
    limit = cap(key)
    if size > limit:
        raise refusal(key, limit, what)


def check_k(k: int) -> None:
    """Refuse a pattern size k over the ``overlap`` cap, the largest k of any
    table of k! entries: a pattern vector, a count list or an overlap graph.
    Callers check their own lower bound, and check before they allocate
    anything of size k! (the CLI, before a uniform ``--vector``)."""
    check("overlap", k, f"tables of k! entries are refused at k={k}, over")


def check_overlap_k(k: int) -> None:
    """Refuse a pattern size k with no overlap graph: below 2, or over the
    ``overlap`` cap (:func:`check_k`)."""
    if k < 2:
        raise CapacityError(f"overlap graphs are built for k >= 2, got {k}")
    check_k(k)


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
        if key == "overlap" and table[key] > OVERLAP_MOST:
            raise ValueError(
                f"PERMUTOPE_CAP cap 'overlap' is {excerpt(value.strip())}, over {OVERLAP_MOST}: "
                f"the ids of k! patterns fit in 64 bits only up to k = {OVERLAP_MOST}"
            )
    return MappingProxyType(table)
