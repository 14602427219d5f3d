"""Permutations in one-line notation, pattern extraction and occurrence counts.

A permutation of size ``n`` is a word over ``{1..n}`` in which every value
appears exactly once.  Pattern positions and index sets are 1-based, matching
the usual combinatorial convention: ``pattern_at(p, (2, 4, 7))`` looks at the
second, fourth and seventh entry of ``p``.

Occurrence counts are exact integers and proportions are exact
``fractions.Fraction`` values.  What each counting kernel costs, for a
permutation of size n and patterns of size k:

- consecutive: one window scan, O(n k).  Sliding the window is a walk on the
  overlap graph: the next window's pattern is fixed by the current window's
  last k-1 entries (a vertex) and the rank of the one new value, so each step
  is one bisection into the sorted last k-1 values and one lookup in a cached
  step table of k! rows;
- classical, k <= 3: one chunked sweep for the earlier-and-smaller counts.
  For each chunk of 512 positions, C ``map`` calls count the smaller entries
  of earlier chunks from per-block prefix sums (blocks of 128 values) and one
  ``bytearray.count`` within a block; entries of the same chunk are counted
  by bisection into a sorted list of at most 512 values.  That is
  O(n^2 / 2^16 + n * 512) work done in C, but only a few Python-level steps
  per entry: about half the time of a pure-Python Fenwick pass at n = 10^5
  (CPython 3.11, 2-vCPU Xeon).  k = 2 is the sum of these counts; for k = 3
  the other three side counts follow from identities;
- classical, k >= 4: one pass over the C(n, k) subsets, each keyed by its
  argsort, then at most k! keys turned into pattern words.  Guarded by a
  length cap.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, and_, mul, rshift, sub
from typing import Iterable, Iterator, Mapping, Sequence

from . import limits
from .errors import (
    ArityError,
    CapacityError,
    DistinctnessError,
    EmptyError,
    SizeError,
)
from .rationals import as_fraction


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of ``{1..n}`` stored as its one-line word."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if not word:
            raise ValueError("permutations are non-empty")
        if {*map(type, word)} != {int} or sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation word: {word!r}")

    @classmethod
    def _trusted(cls, word: tuple[int, ...]) -> "Permutation":
        """Wrap a word that is already a non-empty tuple of the ints
        ``1..len(word)``, each once, skipping the checks."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "word", word)
        return perm

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[int]:
        return iter(self.word)

    def __str__(self) -> str:
        # Digit strings stay unambiguous only up to size 9.
        if len(self.word) <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)

    def __repr__(self) -> str:
        return f"Permutation({str(self)!r})"

    @property
    def size(self) -> int:
        return len(self.word)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse the text format produced by ``str``: digits up to size 9,
        comma-separated integers beyond."""
        text = text.strip()
        if not text:
            raise ValueError("empty permutation text")
        if "," in text:
            word = tuple(int(part) for part in text.split(","))
        else:
            if not text.isdigit():
                raise ValueError(f"not a permutation word: {text!r}")
            word = tuple(int(ch) for ch in text)
        return cls(word)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise ValueError("permutations are non-empty")
        return cls._trusted(tuple(range(1, n + 1)))


@lru_cache(maxsize=None)
def all_patterns(k: int) -> tuple[Permutation, ...]:
    """All permutations of size ``k`` in lexicographic order of their words."""
    if k < 1:
        raise ValueError("pattern size must be >= 1")
    return tuple(map(Permutation._trusted, itertools.permutations(range(1, k + 1))))


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


def is_interval(indices: Sequence[int]) -> bool:
    """True when a sorted index set is contiguous."""
    return bool(indices) and indices[-1] - indices[0] == len(indices) - 1


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


def window_pattern(sigma: Permutation, start: int, k: int) -> Permutation:
    """Pattern of the width-``k`` window beginning at 1-based position ``start``."""
    if start < 1 or start + k - 1 > len(sigma):
        raise IndexError(f"window [{start}, {start + k - 1}] out of range")
    return Permutation(_std_word(sigma.word[start - 1 : start - 1 + k]))


# The classical k <= 3 kernel takes positions in chunks of _CHUNK and
# groups values into blocks of 2**_BLOCK_BITS.
_CHUNK = 512
_BLOCK_BITS = 7


def _smaller_before(word: Sequence[int]) -> list[int]:
    """For every position j of a permutation word of 1..n: how many earlier
    entries are smaller.

    Positions go in chunks.  For the entries of earlier chunks, ``seen`` marks
    their values and ``block_seen`` counts them per value block; one prefix
    sum over the blocks per chunk, plus one count of the marks between the
    block start and v, gives each entry's count, all inside C ``map`` calls.
    Entries of the same chunk are counted by bisection into the sorted list
    of the chunk's earlier values.
    """
    n = len(word)
    seen = bytearray(n + 1)
    block_seen = [0] * ((n >> _BLOCK_BITS) + 1)
    count = seen.count
    ones = itertools.repeat(1)
    shifts = itertools.repeat(_BLOCK_BITS)
    masks = itertools.repeat(-1 << _BLOCK_BITS)
    smaller: list[int] = []
    for start in range(0, n, _CHUNK):
        chunk = word[start : start + _CHUNK]
        below_block = list(itertools.accumulate(block_seen, initial=0)).__getitem__
        across = list(
            map(
                add,
                map(below_block, map(rshift, chunk, shifts)),
                map(count, ones, map(and_, chunk, masks), chunk),
            )
        )
        inside: list[int] = []
        insert = inside.insert
        within: list[int] = []
        append = within.append
        for v in chunk:
            r = bisect_left(inside, v)
            insert(r, v)
            append(r)
            seen[v] = 1
            block_seen[v >> _BLOCK_BITS] += 1
        smaller += map(add, across, within)
    return smaller


def _occ_counts_small(sigma: Permutation, k: int) -> dict[tuple[int, ...], int]:
    """Exact classical counts for all patterns of size k <= 3, any length."""
    word = sigma.word
    n = len(word)
    if k == 1:
        return {(1,): n}
    a = _smaller_before(word)
    if k == 2:
        rising = sum(a)
        return {(1, 2): rising, (2, 1): math.comb(n, 2) - rising}
    # The value v at position j has j entries before it and v - 1 entries
    # below it, so the larger-before (b), smaller-after (d) and larger-after
    # (c) counts follow from a.
    b = list(map(sub, range(n), a))
    d = [v - 1 - x for v, x in zip(word, a)]
    c = [n - 1 - j - x for j, x in enumerate(d)]

    # Size 3: count by the position of the middle element, then split the
    # remaining patterns by where the extreme value sits.
    def pairs(x: list[int]) -> int:
        """Sum of C(x_j, 2)."""
        return (sum(map(mul, x, x)) - sum(x)) // 2

    occ123 = sum(map(mul, a, c))
    occ321 = sum(map(mul, b, d))
    occ213 = pairs(a) - occ123
    occ132 = pairs(c) - occ123
    occ312 = pairs(d) - occ321
    occ231 = pairs(b) - occ321
    return {
        (1, 2, 3): occ123,
        (1, 3, 2): occ132,
        (2, 1, 3): occ213,
        (2, 3, 1): occ231,
        (3, 1, 2): occ312,
        (3, 2, 1): occ321,
    }


def _occ_counts_enumerated(sigma: Permutation, k: int) -> dict[tuple[int, ...], int]:
    n, cap = len(sigma), limits.cap("enum")
    if n > cap:
        raise CapacityError(
            f"classical counting of size-{k} patterns enumerates subsets; "
            f"permutation size {n} exceeds the enum cap {cap} "
            f"(PERMUTOPE_CAP key 'enum')"
        )
    positions = range(k)
    orders = Counter(
        tuple(sorted(positions, key=comb.__getitem__))
        for comb in itertools.combinations(sigma.word, k)
    )
    return {_invert(order): count for order, count in orders.items()}


def occ(pattern: Permutation, sigma: Permutation) -> int:
    """Number of classical occurrences of ``pattern`` in ``sigma``."""
    k, n = len(pattern), len(sigma)
    if k > n:
        raise SizeError(f"pattern size {k} exceeds permutation size {n}")
    if k <= 3:
        return _occ_counts_small(sigma, k).get(pattern.word, 0)
    return _occ_counts_enumerated(sigma, k).get(pattern.word, 0)


def cocc(pattern: Permutation, sigma: Permutation) -> int:
    """Number of consecutive occurrences (contiguous windows) of ``pattern``."""
    k, n = len(pattern), len(sigma)
    if k > n:
        raise SizeError(f"pattern size {k} exceeds permutation size {n}")
    word = sigma.word
    target = pattern.word
    return sum(1 for i in range(n - k + 1) if _std_word(word[i : i + k]) == target)


@lru_cache(maxsize=None)
def _step_table(k: int) -> tuple[tuple, tuple[int, ...], dict[tuple[int, ...], int]]:
    """The overlap graph of size ``k`` as a transition table, for k >= 2.

    Heads are the patterns of size k-1, numbered in lexicographic order.
    ``step[u][r]`` is ``(e, w)``: e is the id of the size-k pattern whose
    first k-1 entries form head u and whose last entry has 0-based rank r,
    and w is the head formed by its last k-1 entries.  ``lead[u]`` is the
    0-based rank of head u's first entry, and ``head_id`` maps a head word
    to its id.
    """
    head_id = {p.word: i for i, p in enumerate(all_patterns(k - 1))}
    step = [[None] * k for _ in head_id]
    for eid, p in enumerate(all_patterns(k)):
        w = p.word
        step[head_id[_std_word(w[:-1])]][w[-1] - 1] = (eid, head_id[_std_word(w[1:])])
    lead = tuple(w[0] - 1 for w in head_id)
    return tuple(map(tuple, step)), lead, head_id


def _window_ids(word: Sequence[int], k: int) -> list[int]:
    """Pattern ids (lexicographic indices among the size-k patterns) of the
    width-k windows of ``word``, left to right; needs 2 <= k <= len(word).

    This is the walk of ``word`` on the overlap graph.  ``window`` holds the
    last k-1 values in sorted order: the new value's rank in it and the
    current head select the step, and the value leaving on the left sits at
    the head's lead rank.
    """
    step, lead, head_id = _step_table(k)
    window = sorted(word[: k - 1])
    u = head_id[_std_word(word[: k - 1])]
    ids: list[int] = []
    append = ids.append
    for v in word[k - 1 :]:
        eid, nxt = step[u][bisect_left(window, v)]
        append(eid)
        del window[lead[u]]
        insort(window, v)
        u = nxt
    return ids


def _cocc_counts(sigma: Permutation, k: int) -> dict[tuple[int, ...], int]:
    if k == 1:
        return {(1,): len(sigma)}
    patterns = all_patterns(k)
    return {
        patterns[eid].word: count for eid, count in Counter(_window_ids(sigma.word, k)).items()
    }


def occ_proportion(pattern: Permutation, sigma: Permutation) -> Fraction:
    """occ(pattern, sigma) / C(n, k) as an exact rational."""
    return Fraction(occ(pattern, sigma), math.comb(len(sigma), len(pattern)))


def cocc_proportion(pattern: Permutation, sigma: Permutation) -> Fraction:
    """cocc(pattern, sigma) divided by n, the convention used throughout this
    package."""
    return Fraction(cocc(pattern, sigma), len(sigma))


def _check_vector_k(k: int) -> None:
    if k > limits.VECTOR_K_CAP:
        raise CapacityError(
            f"pattern vectors carry k! entries; k={k} exceeds the vector cap "
            f"{limits.VECTOR_K_CAP}, which no PERMUTOPE_CAP key overrides"
        )


_MISSING = object()


class PatternVector:
    """A map assigning an exact rational in [0, 1] to every pattern of size k.

    This is the common container for proportion vectors of a permutation and
    for candidate points of the feasible region.
    """

    __slots__ = ("k", "_entries")

    def __init__(self, k: int, entries: Mapping[Permutation, object]) -> None:
        _check_vector_k(k)
        domain = all_patterns(k)
        converted: dict[Permutation, Fraction] = {}
        for perm in domain:
            value = entries.get(perm, _MISSING)
            if value is _MISSING:
                raise ValueError(f"missing entry for pattern {perm}")
            value = as_fraction(value)
            if value.numerator < 0 or value.numerator > value.denominator:
                raise ValueError(f"entry for {perm} not in [0, 1]: {value}")
            converted[perm] = value
        if len(entries) != len(domain):
            extra = set(entries) - set(domain)
            raise ValueError(f"entries outside S_{k}: {sorted(map(str, extra))}")
        self.k = k
        self._entries = converted

    @classmethod
    def _exact(cls, k: int, entries: dict[Permutation, Fraction]) -> "PatternVector":
        """Wrap entries that are already one ``Fraction`` in [0, 1] per
        pattern of size ``k <= limits.VECTOR_K_CAP``, skipping the checks."""
        vector = object.__new__(cls)
        vector.k = k
        vector._entries = entries
        return vector

    def __getitem__(self, pattern: Permutation) -> Fraction:
        return self._entries[pattern]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PatternVector)
            and self.k == other.k
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}: {v}" for p, v in self.items())
        return f"PatternVector(k={self.k}, {{{inner}}})"

    def items(self) -> list[tuple[Permutation, Fraction]]:
        return [(p, self._entries[p]) for p in all_patterns(self.k)]

    def values_by_pattern(self) -> list[Fraction]:
        """Entries in lexicographic pattern order."""
        return [self._entries[p] for p in all_patterns(self.k)]

    def total(self) -> Fraction:
        return sum(self._entries.values(), Fraction(0))

    def linf_distance(self, other: "PatternVector") -> Fraction:
        if other.k != self.k:
            raise ValueError("pattern vectors of different sizes")
        return max(abs(self._entries[p] - other._entries[p]) for p in all_patterns(self.k))

    @classmethod
    def uniform(cls, k: int) -> "PatternVector":
        w = Fraction(1, math.factorial(k))
        return cls(k, {p: w for p in all_patterns(k)})

    @classmethod
    def point_mass(cls, pattern: Permutation) -> "PatternVector":
        k = len(pattern)
        return cls(k, {p: Fraction(1 if p == pattern else 0) for p in all_patterns(k)})

    @classmethod
    def from_values(cls, k: int, values: Sequence) -> "PatternVector":
        """Build from entries listed in lexicographic pattern order."""
        domain = all_patterns(k)
        if len(values) != len(domain):
            raise ValueError(f"expected {len(domain)} entries, got {len(values)}")
        return cls(k, dict(zip(domain, values)))

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "entries": {str(p): str(v) for p, v in self.items()},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PatternVector":
        if not (
            isinstance(data, Mapping) and "k" in data and isinstance(data.get("entries"), Mapping)
        ):
            raise ValueError("a pattern vector is an object with a 'k' and an 'entries' object")
        raw = data["k"]
        try:  # int() would truncate a float and read a bool as 0 or 1
            k = None if isinstance(raw, (bool, float)) else int(raw)
        except (TypeError, ValueError):
            k = None
        if k is None:
            raise ValueError(f"pattern vector 'k' is not an integer: {raw!r}")
        entries = {Permutation.parse(word): value for word, value in data["entries"].items()}
        return cls(k, entries)


def proportion_vector(k: int, sigma: Permutation, kind: str) -> PatternVector:
    """The full vector of pattern proportions of ``sigma`` at size ``k``.

    ``kind`` is ``"classical"`` (entries sum to 1) or ``"consecutive"``
    (entries sum to (n-k+1)/n).
    """
    if kind not in ("classical", "consecutive"):
        raise ValueError(f"kind must be 'classical' or 'consecutive', got {kind!r}")
    if k < 1:
        raise ValueError("pattern size must be >= 1")
    _check_vector_k(k)
    n = len(sigma)
    if k > n:
        raise SizeError(f"pattern size {k} exceeds permutation size {n}")
    if kind == "classical":
        if k <= 3:
            counts = _occ_counts_small(sigma, k)
        else:
            counts = _occ_counts_enumerated(sigma, k)
        den = math.comb(n, k)
    else:
        counts = _cocc_counts(sigma, k)
        den = n
    entries = {p: Fraction(counts.get(p.word, 0), den) for p in all_patterns(k)}
    return PatternVector._exact(k, entries)


def direct_sum(*perms: Permutation) -> Permutation:
    """Diagonal concatenation of any number of blocks: each block sits after
    and above the ones before it, so ``direct_sum(a, b, c)`` equals
    ``direct_sum(direct_sum(a, b), c)``."""
    if not perms:
        raise EmptyError("a direct sum needs at least one block")
    return substitute(Permutation.identity(len(perms)), perms)


def repeat_sum(copies: int, sigma: Permutation) -> Permutation:
    """Direct sum of ``copies`` copies of ``sigma``."""
    return direct_sum(*[sigma] * copies)


def substitute(skeleton: Permutation, blocks: Sequence[Permutation]) -> Permutation:
    """Inflate each point of ``skeleton`` by the corresponding block.

    Block ``i`` occupies a contiguous column range in input order; the value
    ranges of the blocks are stacked in the order given by the skeleton.
    """
    d = len(skeleton)
    if len(blocks) != d:
        raise ArityError(f"skeleton of size {d} needs {d} blocks, got {len(blocks)}")
    # Values below block i: total size of blocks placed at lower skeleton values.
    value_offset = [0] * d
    running = 0
    for i in sorted(range(d), key=skeleton.word.__getitem__):
        value_offset[i] = running
        running += len(blocks[i])
    return Permutation._trusted(
        tuple(v + offset for block, offset in zip(blocks, value_offset) for v in block.word)
    )
