"""The overlap graph of size k and the walk correspondence for permutations.

Vertices are the patterns of size k-1; every pattern p of size k contributes
one edge from the pattern of its first k-1 entries to the pattern of its last
k-1 entries.  Sliding a width-k window along a permutation then traces a walk
in this graph, and conversely every walk is realized by some permutation via
a greedy point-insertion construction.  Each inserted point lands directly
above a point already placed, or below all of them, so the construction keeps
the value order as a linked list of points and reads the word off it once at
the end.

Vertex ids and edge ids follow the lexicographic order of the one-line words,
so edge id i always denotes the i-th pattern of size k.  The graph is built
from these ids by arithmetic, with no pattern built and no edge checked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from . import limits
from .errors import SizeError
from .graphs import Multigraph, Walk, eulerian_circuit
from .perms import (
    Permutation,
    _insertion_offsets,
    _pattern_ends,
    _pattern_strings,
    _window_ids,
    all_patterns,
)


class OverlapGraph:
    """The overlap graph for patterns of size ``k``.

    (k-1)! vertices, k! edges, strongly connected, every vertex has in- and
    out-degree k.  Edge labels are the size-k pattern words and are unique,
    so the label doubles as the edge identity.

    Edge e starts where ``perms._pattern_ends(k)`` says and arrives at
    e mod (k-1)!, so vertex w's in-edges are range(w, k!, (k-1)!) and a stable
    sort of the ids by start gives the out-edges.  Labels and vertex names
    are spelled by ``perms._pattern_strings``.
    """

    __slots__ = ("k", "graph")

    def __init__(self, k: int) -> None:
        starts = _pattern_ends(k)[0]
        size = len(starts)
        block = size // k
        arrivals = tuple(range(block)) * k
        edges = tuple(zip(starts, arrivals, _pattern_strings(k)))
        # Every vertex starts exactly k edges: cut the sorted ids into rows of k.
        by_start = iter(sorted(range(size), key=starts.__getitem__))
        out = tuple(zip(*[by_start] * k))
        inc = tuple(tuple(range(w, size, block)) for w in range(block))
        self.k = k
        self.graph = Multigraph._trusted(
            tuple(_pattern_strings(k - 1)), edges, starts, arrivals, out, inc
        )

    def __repr__(self) -> str:
        return f"OverlapGraph(k={self.k})"

    def edge_permutation(self, eid: int) -> Permutation:
        return all_patterns(self.k)[eid]

    def walk_of(self, sigma: Permutation) -> Walk:
        """The walk traced by the width-k windows of ``sigma``.

        Runs the same window kernel as consecutive counting in ``perms``:
        edge id i is the i-th size-k pattern, which is the id that kernel
        yields for each window, with no Python step per window.
        """
        k, n = self.k, len(sigma)
        if n < k:
            raise SizeError(f"permutation of size {n} has no window of width {k}")
        return Walk._trusted(self.graph, tuple(_window_ids(sigma.word, k)))

    def walk_labels(self, walk: Walk) -> tuple[Permutation, ...]:
        return tuple(map(all_patterns(self.k).__getitem__, walk.edge_ids))

    def permutation_of_walk(self, walk: Walk) -> Permutation:
        """A permutation of size |walk| + k - 1 whose window walk is ``walk``.

        Built greedily: start from the first edge label and repeatedly append
        a point on the right so that the last k points induce the next label.
        Among the admissible heights the lowest slot that stays above the
        current bottom point is chosen (the bottom only when forced), which
        makes the construction deterministic.

        Every new point goes directly above one known point or becomes the
        new bottom, so the value order is kept as a linked list of points
        (``above[p]`` is the point just above p) and one walk up it assigns
        the values 1..n: O(n) steps.  Which point that is needs no record of
        the last k - 1 points: they stand in the order of the first k - 1
        entries of p's edge e, so the point of e's value e[-1] - 1, which p
        goes just above, sits a fixed number of places before p, read off e
        alone (``perms._insertion_offsets``).  When e ends in 1, p goes just
        above the bottom point, unless the lowest of the last k - 1 points,
        the one of e's value 2 and again a fixed number of places back, is the
        bottom: then p is the new bottom.
        """
        if walk.graph is not self.graph:
            raise ValueError("walk does not live on this overlap graph")
        k = self.k
        offsets = _insertion_offsets(k)
        ids = walk.edge_ids
        first = all_patterns(k)[ids[0]].word
        n = len(ids) + k - 1
        above = [-1] * n
        order = sorted(range(k), key=first.__getitem__)  # point ids by value
        for lower, upper in zip(order, order[1:]):
            above[lower] = upper
        bottom = order[0]
        for point, eid in enumerate(islice(ids, 1, None), start=k):
            back = offsets[eid]
            if back > 0:  # just above the point of value e[-1] - 1
                below = point - back
                above[point] = above[below]
                above[below] = point
            elif point + back == bottom:  # forced below everything
                above[point] = bottom
                bottom = point
            else:  # just above the bottom
                above[point] = above[bottom]
                above[bottom] = point
        word = [0] * n
        point = bottom
        for value in range(1, n + 1):
            word[point] = value
            point = above[point]
        return Permutation._trusted(tuple(word))


def build_overlap_graph(k: int) -> OverlapGraph:
    """Construct (and cache) the overlap graph for size ``k``.  The cap is
    checked on every call, so a cached graph is refused under a lower cap."""
    limits.check_overlap_k(k)
    return _cached_overlap_graph(k)


_cached_overlap_graph = lru_cache(maxsize=None)(OverlapGraph)


def walk_of(sigma: Permutation, k: int) -> Walk:
    return build_overlap_graph(k).walk_of(sigma)


def eulerian_universal_permutation(k: int) -> Permutation:
    """A permutation of size k! + k - 1 containing every size-k pattern exactly
    once consecutively, from an Eulerian circuit of the overlap graph."""
    og = build_overlap_graph(k)
    circuit = eulerian_circuit(og.graph, 0)
    return og.permutation_of_walk(circuit)
