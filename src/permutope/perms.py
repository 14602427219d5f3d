"""Permutations in one-line notation, pattern extraction and occurrence counts.

A permutation of size ``n`` is a word over ``{1..n}`` in which every value
appears exactly once.  Pattern positions and index sets are 1-based, matching
the usual combinatorial convention: ``pattern_at(p, (2, 4, 7))`` looks at the
second, fourth and seventh entry of ``p``.

Each counting kernel returns one exact integer count per pattern of size k,
in lexicographic order; ``occ``, ``cocc`` and ``proportion_vector`` all read
that list, and a ``PatternVector`` keeps it as numerators over one
denominator.  What each kernel costs, for a permutation of size n and
patterns of size k:

- consecutive: O(n k) work in C with no Python step per window.  Lane-wise
  subtraction on the word packed into big integers, one lane per position,
  gives every window's id (its Lehmer code) in O(k) operations per pass;
- classical (in :mod:`permutope._heads`, loaded on the first classical
  count): sizes up to 3 at any length, from sums taken per chunk of 512
  positions by one sweep whose per-entry steps run mostly inside C ``map``
  calls, in two halves at once (one in a forked child) on a long word and a
  free second CPU.  Sizes 4 and up from the C(n-1, k-1) subsets of k-1
  positions that have a later point, never the C(n, k) subsets, with n
  bounded by the ``enum`` cap.

A permutation built by a sum builder may carry its period: a P < n that
divides n with word[i + P] = word[i] + P at every i.  ``substitute`` records
P_skeleton * |A| when every block is the same object A over a skeleton with a
period, and ``Permutation.identity`` records 1, so ``repeat_sum``,
``direct_sum(a, a, ...)`` and a ``mix`` over a monotone sum carry one.  Such a
word is the direct sum of n/P copies of its first P entries, and both kernels
read only its first copies: classical k = 2, 3 sweeps one copy and adds closed
forms for the occurrences across copies, and consecutive takes the window ids
of the first ceil((P + k - 1)/P) copies.  A word typed in or built otherwise
carries none and is swept whole.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import limits
from ._record import Record
from .errors import ArityError, DistinctnessError, EmptyError, SizeError
from .limits import excerpt
from .rationals import ExactPoint, as_fraction, integer_numerators


@total_ordering
class Permutation(Record, hidden=("_period",), uncompared=("_period",)):
    """A permutation of ``{1..n}`` stored as its one-line word.  Immutable;
    equal, hashed and ordered by the word.

    ``_period`` is a P < n that divides n with word[i + P] = word[i] + P at
    every i, as the sum builders record it, or None.  Nothing compares, shows
    or pickles it.  Its slot is left unset when it is None, which spares the
    write on every permutation that has none, so it is read as
    ``getattr(perm, "_period", None)``.  (A ``__getattr__`` would slow every
    read of ``word``.)"""

    __slots__ = ("word", "_period")

    def __init__(self, word: Iterable[int]) -> None:
        word = tuple(word)
        if not word:
            raise ValueError("permutations are non-empty")
        if {*map(type, word)} != {int} or sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation word: {excerpt(word)}")
        _set_word(self, word)

    @classmethod
    def _trusted(cls, word: tuple[int, ...], period: int | None = None) -> "Permutation":
        """Wrap a word that is already a non-empty tuple of the ints
        ``1..len(word)``, each once, with its period or None, skipping the
        checks."""
        perm = object.__new__(cls)
        _set_word(perm, word)
        if period is not None:
            _set_period(perm, period)
        return perm

    def __reduce__(self):
        return type(self), (self.word,)

    def __lt__(self, other: "Permutation") -> bool:
        return self.word < other.word if other.__class__ is self.__class__ else NotImplemented

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[int]:
        return iter(self.word)

    def __str__(self) -> str:
        # Digit strings stay unambiguous only up to size 9.
        return ("" if len(self.word) <= 9 else ",").join(map(str, self.word))

    def __repr__(self) -> str:
        return f"Permutation({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse the text format produced by ``str``: digits up to size 9,
        comma-separated integers beyond."""
        text = text.strip()
        if not text:
            raise ValueError("empty permutation text")
        parts = [part.strip() for part in text.split(",")] if "," in text else text
        try:
            word = tuple(map(limits.natural, parts))
        except ValueError:
            raise ValueError(f"not a permutation word: {excerpt(repr(text))}") from None
        return cls(word)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise ValueError("permutations are non-empty")
        return cls._trusted(tuple(range(1, n + 1)), 1 if n > 1 else None)


# Set through the slots themselves, past Record's refusing __setattr__.
_set_word, _set_period = Permutation._setters


@lru_cache(maxsize=None)
def all_patterns(k: int) -> tuple[Permutation, ...]:
    """All permutations of size ``k`` in lexicographic order of their words."""
    if k < 1:
        raise ValueError("pattern size must be >= 1")
    return tuple(map(Permutation._trusted, itertools.permutations(range(1, k + 1))))


def _pattern_strings(k: int) -> Iterator[str]:
    """The ``str`` of every size-k pattern, in lexicographic order, spelled
    from the digit strings without building the patterns."""
    return map(("" if k <= 9 else ",").join, itertools.permutations(map(str, range(1, k + 1))))


@lru_cache(maxsize=None)
def _pattern_names(k: int) -> dict[str, int]:
    """Each size-k pattern's ``str`` and its lexicographic index, in order."""
    return dict(zip(_pattern_strings(k), itertools.count()))


def _invert(order: Sequence[int]) -> tuple[int, ...]:
    """The pattern word whose argsort is ``order``: position ``order[r]``
    holds rank r + 1."""
    ranks = [0] * len(order)
    for rank, idx in enumerate(order, start=1):
        ranks[idx] = rank
    return tuple(ranks)


def _std_word(values: Sequence) -> tuple[int, ...]:
    return _invert(sorted(range(len(values)), key=values.__getitem__))


def standardize(values: Sequence) -> Permutation:
    """The unique permutation whose entries are in the same relative order as
    ``values``.  Values may be any mutually comparable numbers; ties are an
    error, not broken."""
    values = list(values)
    if not values:
        raise EmptyError("cannot standardize an empty sequence")
    if len(set(values)) != len(values):
        raise DistinctnessError(f"values are not distinct: {values!r}")
    return Permutation._trusted(_std_word(values))


def pattern_at(sigma: Permutation, indices: Iterable[int]) -> Permutation:
    """The pattern induced by ``sigma`` on a set of 1-based positions."""
    idx = sorted(indices)
    if not idx:
        raise EmptyError("index set is empty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"index set has repeats: {idx!r}")
    if idx[0] < 1 or idx[-1] > len(sigma):
        raise IndexError(f"index set {idx!r} out of range for size {len(sigma)}")
    return Permutation._trusted(_std_word([sigma.word[i - 1] for i in idx]))


@lru_cache(maxsize=None)
def _pattern_ends(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For every size-k pattern, in order, the id of the pattern its first k-1
    entries form and its last entry, by arithmetic on ids: no pattern is built.

    Pattern f(k-1)! + t is f + 1 before pattern t with its values above f
    raised by one.  If t ends in L, it therefore ends in L + [L > f], and its
    first k-1 entries start with f + [L > f] and go on in the order of t's
    first k-2: their pattern has id (f - [L <= f])(k-2)! plus the id of the
    pattern of t's first k-2 entries.
    """
    if k == 1:  # the empty pattern before the pattern 1 has id 0
        return (0,), (1,)
    heads, lasts = _pattern_ends(k - 1)
    block = math.factorial(k - 2)
    starts, ends = [], []
    for f in range(k):
        starts += [(f - (last <= f)) * block + head for head, last in zip(heads, lasts)]
        ends += [last + (last > f) for last in lasts]
    return tuple(starts), tuple(ends)


_LANES = 1 << 13  # windows per pass of the window kernel, which bounds its memory


def _window_ids(word: Sequence[int], k: int) -> Sequence[int]:
    """Pattern ids (lexicographic indices among the size-k patterns) of the
    width-k windows of ``word``, left to right, for 1 <= k <= len(word).

    Each id is a Lehmer code: the sum over d of d! times how many of the d
    values after window entry k-1-d are smaller.  Per pass of _LANES windows,
    the word is packed into one big integer, one lane per position with a
    flag bit above every value, so no lane borrows from the next; subtracting
    the word shifted by d lanes keeps the flag where the value d places on is
    smaller.  That is O(k) whole-integer operations, no Python step per window.
    """
    from array import array

    n = len(word)
    flag = n.bit_length()
    need = max(flag + 1, (math.factorial(k) - 1).bit_length())
    code = next(c for c in "HIQ" if array(c).itemsize * 8 >= need)
    size = array(code).itemsize
    span = min(n, _LANES + k - 1)
    top = int.from_bytes(array(code, [1 << flag]).tobytes() * span, sys.byteorder)
    ids = array(code)
    for start in range(0, n - k + 1, _LANES):
        packed = int.from_bytes(array(code, word[start : start + span]).tobytes(), sys.byteorder)
        raised = packed | top
        smaller = lehmer = 0
        for d in range(1, k):
            smaller += ((raised - (packed >> 8 * size * d)) & top) >> flag
            lehmer += math.factorial(d) * (smaller >> 8 * size * (k - 1 - d))
        lanes = lehmer.to_bytes(size * span, sys.byteorder)
        ids.frombytes(lanes[: size * min(_LANES, n - k + 1 - start)])
    return ids


def _cocc_counts(sigma: Permutation, k: int) -> list[int]:
    word, p = sigma.word, getattr(sigma, "_period", None)
    if p is None:
        parts = [(1, _window_ids(word, k))]
    else:
        # Windows s and s + p have one pattern, so the n - k + 1 windows are q
        # runs of the first p, then the first r; those need ceil((p + k - 1)/p)
        # copies.
        q, r = divmod(len(word) - k + 1, p)
        ids = _window_ids(word[: min(len(word), -(-(p + k - 1) // p) * p)], k)
        parts = [(q, ids[:p]), (1, ids[:r])]
    counts = [0] * math.factorial(k)
    for times, ids in parts:
        for eid, count in Counter(ids).items():
            counts[eid] += times * count
    return counts


def _counts(k: int, sigma: Permutation, kind: str) -> tuple[list[int], int]:
    """The ``kind`` counts of every size-k pattern in ``sigma``, in pattern
    order, and their denominator (C(n, k) classical, n consecutive).  The
    sizes are checked before any counting."""
    _check_vector_k(k)
    n = len(sigma)
    if k > n:
        raise SizeError(f"pattern size {k} exceeds permutation size {n}")
    if kind == "classical":
        if k > 3:
            limits.check(
                "enum",
                n,
                f"classical counting of size-{k} patterns enumerates subsets; "
                f"permutation size {n} exceeds",
            )
        from ._heads import classical_counts

        return classical_counts(sigma.word, k, getattr(sigma, "_period", None)), math.comb(n, k)
    return _cocc_counts(sigma, k), n


def occ(pattern: Permutation, sigma: Permutation) -> int:
    """Number of classical occurrences of ``pattern`` in ``sigma``."""
    k = len(pattern)
    return _counts(k, sigma, "classical")[0][_pattern_names(k)[str(pattern)]]


def cocc(pattern: Permutation, sigma: Permutation) -> int:
    """Number of consecutive occurrences (contiguous windows) of ``pattern``."""
    k = len(pattern)
    return _counts(k, sigma, "consecutive")[0][_pattern_names(k)[str(pattern)]]


def occ_proportion(pattern: Permutation, sigma: Permutation) -> Fraction:
    """occ(pattern, sigma) / C(n, k) as an exact rational."""
    return Fraction(occ(pattern, sigma), math.comb(len(sigma), len(pattern)))


def cocc_proportion(pattern: Permutation, sigma: Permutation) -> Fraction:
    """cocc(pattern, sigma) divided by n, the convention used throughout this
    package."""
    return Fraction(cocc(pattern, sigma), len(sigma))


def _check_vector_k(k: int) -> None:
    if k < 1:
        raise ValueError("pattern size must be >= 1")
    limits.check_k(k)


def _unit_fraction(name: str, value) -> Fraction:
    """``value`` as an exact rational in [0, 1], the entry for the pattern
    spelled ``name``."""
    fraction = as_fraction(value)
    if fraction.numerator < 0 or fraction.numerator > fraction.denominator:
        raise ValueError(f"entry for {name} not in [0, 1]: {excerpt(value)}")
    return fraction


_MISSING = object()  # the slot of a pattern with no entry


def _checked_numerators(k: int, slots: Sequence, extra: set) -> tuple[list[int], int]:
    """(n, d) of one entry per size-k pattern, given in pattern order.  The
    errors, first to last: k past the cap or below 1, the first missing or
    bad entry, any key in ``extra``."""
    _check_vector_k(k)
    values = []
    parsed: dict[str, Fraction] = {}  # entry strings repeat; each is read once
    for name, value in zip(_pattern_strings(k), slots):
        if value is _MISSING:
            raise ValueError(f"missing entry for pattern {name}")
        if type(value) is str:
            if value not in parsed:
                parsed[value] = _unit_fraction(name, value)
            values.append(parsed[value])
        else:
            values.append(_unit_fraction(name, value))
    if extra:
        raise ValueError(f"entries outside S_{k}: {excerpt(sorted(map(str, extra)))}")
    return integer_numerators(values)


class PatternVector(Record):
    """An exact rational in [0, 1] for every pattern of size k: the common
    container for proportion vectors and for points of the feasible region.

    Stored as ``numerators``, one integer per pattern in lexicographic order
    (overlap-graph edge id order), over one positive ``denominator``, reduced
    so that equal vectors have equal storage.  ``Fraction``s are built only
    when entries are read.
    """

    # Compared in this order: the two ints before the long tuple.
    __slots__ = ("k", "denominator", "numerators")

    def __init__(self, k: int, entries: Mapping[Permutation, object]) -> None:
        _check_vector_k(k)
        domain = all_patterns(k)
        slots = [entries[perm] if perm in entries else _MISSING for perm in domain]
        extra = set(entries) - set(domain) if len(entries) != len(domain) else set()
        numerators, denominator = _checked_numerators(k, slots, extra)
        _set_k(self, k)
        _set_numerators(self, tuple(numerators))
        _set_denominator(self, denominator)

    @classmethod
    def _trusted(cls, k: int, numerators: Sequence[int], denominator: int) -> "PatternVector":
        """Wrap one integer in [0, denominator] per pattern of size
        ``k`` within the ``overlap`` cap, in pattern order, skipping the checks;
        the common factor is divided out."""
        g = math.gcd(denominator, *numerators)
        vector = object.__new__(cls)
        _set_k(vector, k)
        _set_numerators(vector, tuple(n // g for n in numerators) if g > 1 else tuple(numerators))
        _set_denominator(vector, denominator // g)
        return vector

    def __reduce__(self):
        return type(self)._trusted, (self.k, self.numerators, self.denominator)

    def __getitem__(self, pattern: Permutation) -> Fraction:
        return Fraction(self.numerators[_pattern_names(self.k)[str(pattern)]], self.denominator)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}: {v}" for p, v in self.items())
        return f"PatternVector(k={self.k}, {{{inner}}})"

    def items(self) -> list[tuple[Permutation, Fraction]]:
        return list(zip(all_patterns(self.k), self.values_by_pattern()))

    def values_by_pattern(self) -> list[Fraction]:
        """Entries in lexicographic pattern order."""
        return list(ExactPoint(self.numerators, self.denominator))

    def linf_distance(self, other: "PatternVector") -> Fraction:
        if other.k != self.k:
            raise ValueError("pattern vectors of different sizes")
        d, e = self.denominator, other.denominator
        gap = max(abs(a * e - b * d) for a, b in zip(self.numerators, other.numerators))
        return Fraction(gap, d * e)

    @classmethod
    def uniform(cls, k: int) -> "PatternVector":
        _check_vector_k(k)
        size = math.factorial(k)
        return cls._trusted(k, (1,) * size, size)

    @classmethod
    def from_values(cls, k: int, values: Sequence) -> "PatternVector":
        """Build from entries listed in lexicographic pattern order."""
        _check_vector_k(k)
        size = math.factorial(k)
        if len(values) != size:
            raise ValueError(f"expected {size} entries, got {len(values)}")
        return cls._trusted(
            k, *integer_numerators(list(map(_unit_fraction, _pattern_strings(k), values)))
        )

    def to_json_dict(self) -> dict:
        d = self.denominator
        # Numerators repeat, so each distinct entry string is built once.
        text = {n: str(Fraction(n, d)) for n in set(self.numerators)}
        return {
            "k": self.k,
            "entries": dict(zip(_pattern_names(self.k), map(text.__getitem__, self.numerators))),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PatternVector":
        if not (
            isinstance(data, Mapping) and "k" in data and isinstance(data.get("entries"), Mapping)
        ):
            raise ValueError("a pattern vector is an object with a 'k' and an 'entries' object")
        raw = data["k"]
        try:  # int() would truncate a float, read a bool as 0 or 1 and "1_0" as 10
            k = raw if type(raw) is int else limits.natural(raw) if isinstance(raw, str) else None
        except ValueError:
            k = None
        if k is None:
            raise ValueError(f"pattern vector 'k' is not an integer: {excerpt(repr(raw))}")
        # For k outside 1..cap no k! names are built: every key is parsed into
        # ``extra``, so a key error still comes before the cap or size error.
        names = _pattern_names(k) if 1 <= k <= limits.cap("overlap") else {}
        slots, extra = [_MISSING] * len(names), set()
        for word, value in data["entries"].items():
            index = names.get(word)
            if index is None:  # another spelling ("1,2"), a malformed word, or outside S_k
                perm = Permutation.parse(word)
                index = names.get(str(perm))
                if index is None:
                    extra.add(perm)
                    continue
            slots[index] = value
        return cls._trusted(k, *_checked_numerators(k, slots, extra))


_set_k, _set_denominator, _set_numerators = PatternVector._setters


def proportion_vector(k: int, sigma: Permutation, kind: str) -> PatternVector:
    """The full vector of pattern proportions of ``sigma`` at size ``k``.

    ``kind`` is ``"classical"`` (entries sum to 1) or ``"consecutive"``
    (entries sum to (n-k+1)/n).
    """
    if kind not in ("classical", "consecutive"):
        raise ValueError(f"kind must be 'classical' or 'consecutive', got {kind!r}")
    return PatternVector._trusted(k, *_counts(k, sigma, kind))


def direct_sum(*perms: Permutation) -> Permutation:
    """Diagonal concatenation of any number of blocks: each block sits after
    and above the ones before it, so ``direct_sum(a, b, c)`` equals
    ``direct_sum(direct_sum(a, b), c)``."""
    if not perms:
        raise EmptyError("a direct sum needs at least one block")
    return substitute(Permutation.identity(len(perms)), perms)


def repeat_sum(copies: int, sigma: Permutation) -> Permutation:
    """Direct sum of ``copies`` copies of ``sigma``; from 2 copies on it
    carries the period |sigma|."""
    return direct_sum(*[sigma] * copies)


def substitute(skeleton: Permutation, blocks: Sequence[Permutation]) -> Permutation:
    """Inflate each point of ``skeleton`` by the corresponding block.

    Block ``i`` occupies a contiguous column range in input order; the value
    ranges of the blocks are stacked in the order given by the skeleton.
    When every block is the same object A and the skeleton carries a period
    p, the result carries the period p|A|: block i + p sits p|A| above block
    i.
    """
    d = len(skeleton)
    if len(blocks) != d:
        raise ArityError(f"skeleton of size {d} needs {d} blocks, got {len(blocks)}")
    p = getattr(skeleton, "_period", None)
    same = p is not None and all(map(operator.is_, blocks, itertools.repeat(blocks[0])))
    # Values below block i: total size of blocks placed at lower skeleton values.
    value_offset = [0] * d
    running = 0
    for i in sorted(range(d), key=skeleton.word.__getitem__):
        value_offset[i] = running
        running += len(blocks[i])
    return Permutation._trusted(
        tuple(v + offset for block, offset in zip(blocks, value_offset) for v in block.word),
        p * len(blocks[0]) if same else None,
    )


def mix(
    generator_consecutive: Callable[[int], Permutation],
    generator_classical: Callable[[int], Permutation],
    m: int,
) -> Permutation:
    """Substitute copies of the consecutive-side permutation into the
    classical-side permutation.

    The result inherits the consecutive statistics of A = generator_consecutive(m)
    up to |pattern|/|A| and the classical statistics of B = generator_classical(m)
    up to C(|pattern|, 2)/|B|, both exactly in rational arithmetic.  When B
    carries a period, as a ``monotone_sum_generator`` sum of 2 copies or more
    does, so does the result, and both its vectors are counted from its
    first copies.
    """
    inner = generator_consecutive(m)
    outer = generator_classical(m)
    size = len(inner) * len(outer)
    limits.check("mix", size, f"mixed permutation would have size {size}, over")
    return substitute(outer, [inner] * len(outer))
