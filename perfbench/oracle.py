"""Independent recounts and certificate checks used to verify the program's answers.

Nothing here calls into ``permutope``: patterns are ranked with ``sorted`` and
``list.index`` rather than an argsort, classical side counts come from a merge
sort rather than a Fenwick tree, and size-3 counts are split by a different set
of identities than the program uses.  The checks take plain words, edge lists
and ``(start, arrival)`` pairs so that a wrong answer cannot hide behind shared
code.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Sequence


def rank_word(values: Sequence[int]) -> tuple[int, ...]:
    ordered = sorted(values)
    return tuple(ordered.index(v) + 1 for v in values)


def window_counts(word: Sequence[int], k: int) -> Counter:
    """Consecutive occurrences of every size-k pattern in ``word``."""
    return Counter(rank_word(word[i : i + k]) for i in range(len(word) - k + 1))


def _smaller_before(word: Sequence[int]) -> list[int]:
    """For each position, how many earlier entries are smaller (merge sort)."""
    n = len(word)
    result = [0] * n
    order = list(range(n))
    width = 1
    while width < n:
        merged: list[int] = []
        for lo in range(0, n, 2 * width):
            left = order[lo : lo + width]
            right = order[lo + width : lo + 2 * width]
            i = 0
            for j in right:
                while i < len(left) and word[left[i]] < word[j]:
                    merged.append(left[i])
                    i += 1
                result[j] += i
                merged.append(j)
            merged.extend(left[i:])
        order = merged
        width *= 2
    return result


def classical_counts(word: Sequence[int], k: int) -> Counter:
    """Classical occurrences of every size-k pattern.  Sizes 2 and 3 run in
    O(n log n); larger sizes enumerate subsets and suit short words only."""
    n = len(word)
    if k >= 4:
        return Counter(rank_word([word[i] for i in c]) for c in itertools.combinations(range(n), k))
    a = _smaller_before(word)
    b = [j - a[j] for j in range(n)]
    c = [(n - word[j]) - b[j] for j in range(n)]
    d = [(word[j] - 1) - a[j] for j in range(n)]
    if k == 2:
        inversions = sum(b)
        return Counter({(1, 2): math.comb(n, 2) - inversions, (2, 1): inversions})
    c123 = sum(x * y for x, y in zip(a, c))
    c321 = sum(x * y for x, y in zip(b, d))
    low_middle = sum(x * y for x, y in zip(b, c))  # 213 + 312
    high_middle = sum(x * y for x, y in zip(a, d))  # 132 + 231
    c132 = sum(x * (x - 1) // 2 for x in c) - c123  # first entry is the minimum
    c312 = sum(x * (x - 1) // 2 for x in d) - c321  # first entry is the maximum
    return Counter(
        {
            (1, 2, 3): c123,
            (1, 3, 2): c132,
            (2, 1, 3): low_middle - c312,
            (2, 3, 1): high_middle - c132,
            (3, 1, 2): c312,
            (3, 2, 1): c321,
        }
    )


def all_words(k: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(1, k + 1)))


def proportion_problem(
    entries: dict[tuple[int, ...], Fraction], word: Sequence[int], k: int, kind: str, recount: bool
) -> str | None:
    """Check a proportion vector given as ``{pattern word: Fraction}``.

    Always checked: the domain is exactly S_k, every entry has the right
    denominator and the numerators add up to the number of windows or
    subsets.  With ``recount`` the numerators are compared with an
    independent count.
    """
    n = len(word)
    if set(entries) != set(all_words(k)):
        return "domain is not S_k"
    den = math.comb(n, k) if kind == "classical" else n
    total = math.comb(n, k) if kind == "classical" else n - k + 1
    numerators = {}
    for pattern, value in entries.items():
        scaled = value * den
        if scaled.denominator != 1 or scaled < 0:
            return f"entry {pattern} = {value} is not a count over {den}"
        numerators[pattern] = int(scaled)
    if sum(numerators.values()) != total:
        return f"counts add up to {sum(numerators.values())}, expected {total}"
    if recount:
        expected = classical_counts(word, k) if kind == "classical" else window_counts(word, k)
        for pattern, count in numerators.items():
            if expected.get(pattern, 0) != count:
                return f"count of {pattern} is {count}, recount gives {expected.get(pattern, 0)}"
    return None


def cycle_problem(edges: Sequence[int], ends: Sequence[tuple[int, int]]) -> str | None:
    """Whether an edge-id sequence is a simple cycle; ``ends[e]`` is (start, arrival)."""
    if not edges:
        return "empty cycle"
    starts = [ends[e][0] for e in edges]
    for prev, nxt in zip(edges, edges[1:] + edges[:1]):
        if ends[prev][1] != ends[nxt][0]:
            return f"edges {prev} and {nxt} do not chain"
    if len(set(starts)) != len(starts) or len(set(edges)) != len(edges):
        return "cycle repeats a vertex or an edge"
    return None


def decomposition_problem(
    target: Sequence[Fraction],
    pieces: Sequence[tuple[Fraction, Sequence[int]]],
    ends: Sequence[tuple[int, int]],
) -> str | None:
    """A convex decomposition must use positive weights summing to 1 on simple
    cycles, and sum_i w_i * (cycle vector)_i must equal the target exactly."""
    if not pieces:
        return "empty decomposition"
    total = Fraction(0)
    point = [Fraction(0)] * len(target)
    for weight, edges in pieces:
        if weight <= 0:
            return f"non-positive weight {weight}"
        problem = cycle_problem(list(edges), ends)
        if problem:
            return problem
        total += weight
        share = weight / len(edges)
        for e in edges:
            point[e] += share
    if total != 1:
        return f"weights sum to {total}"
    if point != list(target):
        return "weighted cycle vectors do not add up to the target"
    return None


def walk_split_problem(
    walk: Sequence[int],
    cycles: Sequence[Sequence[int]],
    tail: Sequence[int],
    ends: Sequence[tuple[int, int]],
) -> str | None:
    """The cycles plus the tail must give back the walk's edge multiset."""
    for cycle in cycles:
        problem = cycle_problem(list(cycle), ends)
        if problem:
            return problem
    pieces = Counter(tail)
    for cycle in cycles:
        pieces.update(cycle)
    if pieces != Counter(walk):
        return "cycles plus tail differ from the walk's edge multiset"
    tail_vertices = [ends[e][0] for e in tail] + [ends[e][1] for e in tail[-1:]]
    if len(set(tail_vertices)) != len(tail_vertices):
        return "tail repeats a vertex"
    return None


def face_dimension(edges: set[int], ends: Sequence[tuple[int, int]], n_vertices: int) -> int:
    """|E| - |V| + (#components, isolated vertices included) - 1 of an edge subset."""
    parent = list(range(n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for e in edges:
        ra, rb = find(ends[e][0]), find(ends[e][1])
        if ra != rb:
            parent[ra] = rb
    components = len({find(v) for v in range(n_vertices)})
    return len(edges) - n_vertices + components - 1
