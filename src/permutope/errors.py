"""Exception hierarchy shared by all permutope modules.

Every domain failure raises a subclass of :class:`PermutopeError`, so callers
(and the CLI) can distinguish "your input is outside the mathematics" from
genuine bugs.  Out-of-range indices use the builtin ``IndexError``.
"""


class PermutopeError(Exception):
    """Base class for all domain errors raised by this package."""


class DistinctnessError(PermutopeError):
    """Standardization input contains tied values."""


class SizeError(PermutopeError):
    """A pattern is larger than the permutation it is counted in."""


class EmptyError(PermutopeError):
    """An operation that needs at least one element received none."""


class ArityError(PermutopeError):
    """Substitution received a block list whose length differs from the skeleton size."""


class RationalityError(PermutopeError):
    """A vector entry is not an exact rational (e.g. a float slipped in)."""


class CapacityError(PermutopeError):
    """A configurable size guard was exceeded."""


class EmptyPolytopeError(PermutopeError):
    """The graph has no cycle, so its cycle polytope is empty."""


class NotInPolytopeError(PermutopeError):
    """A vector failed the polytope membership test where membership was required."""


class NotFullError(PermutopeError):
    """An edge subset does not form a full subgraph (some edge lies on no cycle)."""
