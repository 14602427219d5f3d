"""The cycle polytope of a directed multigraph, in exact rational arithmetic.

The polytope lives in R^{E(G)}: it is the convex hull of the normalized
edge-frequency vectors of the simple cycles of G.  Everything here is a
certificate, not an approximation: membership tests check the defining
equations, positive answers come with an explicit convex decomposition into
cycle vectors, and faces are handled through the full subgraphs that index
them: one strong-component pass over an edge subset of G decides whether the
subset is full and gives the dimension of its face.  Whether two vertices
span an edge of the polytope needs no such pass: the union of two cycles is
full, and its dimension is a count of its edges and vertices (see
``skeleton_adjacent``).  Points enter and weights
leave as ``Fraction``.  In between, the checks and the decomposition run on
integer numerators over one common denominator: an ``ExactPoint`` (the
feasible region's ``point_of``) is read as it is, and any other ``Sequence``
point is scaled once to that form.  A membership test makes two C-level
passes over all |E| entries (``min`` and ``sum``); the flow balance and
the decomposition then do Python work only over the point's support and
the edges of the cycles they peel.
"""

from __future__ import annotations

import itertools
from _thread import allocate_lock  # threading.Lock, without importing threading
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import limits
from ._record import Record
from .errors import EmptyError, EmptyPolytopeError, NotFullError, NotInPolytopeError
from .graphs import (
    _MORE_CYCLES,
    Multigraph,
    SimpleCycle,
    _canonical_rotation,
    _cycle_paths,
    _int_ids,
    iter_simple_cycles,
)
from .rationals import ExactPoint, as_fraction, integer_numerators

# The kept prefix of simple cycles stops growing once it holds this many
# 8-byte slots, so it takes about 8 MiB however long the cycles are (plus at
# most one batch).  A cycle of L edges counts L + 12 of them: its L edge ids
# (the ints are the graph's own), plus 96 bytes for its tuple header, its
# object and its list slot.  At k = 5 (about 22 edges a cycle) the budget
# keeps some 30,000 cycles; at k = 7 (about 710) some 1,500.  Without it,
# streaming k = 7 cycles would grow the prefix by about 450 MB a second.
_KEPT_SLOTS = 1 << 20
# Cycles the shared enumerator adds to the kept prefix under one lock: one
# at a time, the lock and the calls cost about 40% on top of the search.
_BATCH = 64


class CycleVector(Record):
    """The point of the polytope carried by one simple cycle: entry 1/|C| on
    each cycle edge, 0 elsewhere.  Only the cycle is stored; the dense
    ``entries`` are built on each access."""

    __slots__ = ("cycle",)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        weight = Fraction(1, len(self.cycle))
        entries = [Fraction(0)] * self.cycle.graph.n_edges
        for eid in self.cycle.edge_ids:
            entries[eid] = weight
        return tuple(entries)


class MembershipResult(Record):
    """Outcome of a membership test, with a certificate either way: the
    violated constraint (``violation``), or a convex decomposition into cycle
    vectors (``decomposition``); the other field is None."""

    __slots__ = ("member", "violation", "decomposition")

    def __bool__(self) -> bool:
        return self.member


class FaceHandle(Record, hidden=("polytope", "_dimension"), uncompared=("_dimension",)):
    """A face of the polytope, identified by the full subgraph carrying it."""

    __slots__ = ("polytope", "edge_ids", "_dimension")

    def dimension(self) -> int:
        return self._dimension

    def __len__(self) -> int:
        return len(self.edge_ids)


class FacePoset(Record, hidden=("polytope",)):
    """All non-empty full subgraphs of the graph, ordered by inclusion."""

    __slots__ = ("polytope", "faces")

    def by_dimension(self) -> dict[int, tuple[FaceHandle, ...]]:
        grouped: dict[int, list[FaceHandle]] = {}
        for face in self.faces:
            grouped.setdefault(face.dimension(), []).append(face)
        return {dim: tuple(handles) for dim, handles in sorted(grouped.items())}

    def facets(self) -> tuple[FaceHandle, ...]:
        if not self.faces:
            return ()
        top = self.polytope.dimension()
        return tuple(f for f in self.faces if f.dimension() == top - 1)


class CyclePolytope:
    """P(G) = conv{ cycle vectors of simple cycles of G }.

    The defining system is the per-vertex flow balance plus the normalization
    row; dropping the normalization row describes the cone of non-negative
    circulations that the polytope spans.
    """

    __slots__ = (
        "graph",
        "full_edge_ids",
        "_dimension",
        "_n_cycles",
        "_equations",
        "_kept",
        "_kept_slots",
        "_source",
        "_source_cap",
        "_lock",
    )

    def __init__(self, graph: Multigraph) -> None:
        self.graph = graph
        full, self._dimension = self._full_subgraph(range(graph.n_edges))
        self.full_edge_ids = frozenset(full)
        self._n_cycles: int | None = None
        self._equations: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None = None
        # The kept prefix of the enumeration, its size in slots, and the
        # shared enumerator that extends it with the cap it was started under.
        self._kept: list[SimpleCycle] = []
        self._kept_slots = 0
        self._source: Iterator[SimpleCycle] | None = None
        self._source_cap = 0
        self._lock = allocate_lock()

    def __reduce__(self):
        # A copy or a pickle carries the graph only: no lock, no live
        # enumerator, no kept cycles.
        return type(self), (self.graph,)

    # -- vertices --------------------------------------------------------

    def simple_cycles(self) -> Iterator[SimpleCycle]:
        """Every simple cycle, in the order of ``iter_simple_cycles``;
        repeated calls yield the same cycle objects.

        The polytope keeps the prefix of cycles it has enumerated, up to
        ``_KEPT_SLOTS``, and serves later calls from it: one shared
        enumerator extends the prefix under a lock, and a call that goes past
        the budget gets a private enumerator that skips the kept prefix.
        Each call reads the ``cycles`` cap when it starts and raises
        CapacityError when asked for a cycle past it.
        """
        cap = limits.cap("cycles")
        kept, emitted = self._kept, 0
        while emitted < len(kept) or self._extend(emitted, cap):
            if emitted == cap:
                raise limits.refusal("cycles", cap, _MORE_CYCLES)
            stop = min(len(kept), cap)
            yield from kept[emitted:stop]
            emitted = stop
        if emitted == self._n_cycles:
            return
        for cycle in itertools.islice(iter_simple_cycles(self.graph), emitted, None):
            if emitted == cap:
                raise limits.refusal("cycles", cap, _MORE_CYCLES)
            emitted += 1
            yield cycle

    def _extend(self, length: int, cap: int) -> bool:
        """Make the kept prefix longer than ``length``, the length a call of
        cap ``cap`` has read; False when the enumeration is over or the
        prefix holds its budget."""
        kept = self._kept
        with self._lock:
            if len(kept) > length:  # another call extended it meanwhile
                return True
            if len(kept) == self._n_cycles or self._kept_slots >= _KEPT_SLOTS:
                self._source = None
                return False
            if self._source is None or self._source_cap < cap:
                # A fresh enumerator, so that one started under a lower cap
                # cannot cut this call off.
                self._source_cap = cap
                self._source = itertools.islice(iter_simple_cycles(self.graph), length, None)
            # A batch, but no cycle past the first one over the call's cap:
            # asking the enumerator for that one may raise.
            wanted = min(length + _BATCH, max(cap, length + 1)) - length
            try:
                kept.extend(itertools.islice(self._source, wanted))
            except BaseException:
                self._source = None
                raise
            finally:
                added = kept[length:]
                self._kept_slots += sum(len(c.edge_ids) for c in added) + 12 * len(added)
            if len(added) < wanted:  # the enumeration is over
                self._source, self._n_cycles = None, len(kept)
            return len(kept) > length

    def vertices(self) -> tuple[CycleVector, ...]:
        """One vertex per simple cycle, in the enumerator's order: by
        canonical cycle ids.

        Distinct simple cycles have distinct vectors, so the vertex count
        equals the simple-cycle count.  A first pass runs the search alone,
        building no cycle, so the ``cycles`` cap fires before any of them is
        built or held; the count is kept, and a later call counts again only
        when the cap is below it.  The vertices are built over the cycles of
        ``simple_cycles``.
        """
        if self._n_cycles is None or self._n_cycles > limits.cap("cycles"):
            self._n_cycles = sum(1 for _ in _cycle_paths(self.graph))
        return tuple(map(CycleVector, self.simple_cycles()))

    # -- dimension ---------------------------------------------------------

    def _full_subgraph(self, edge_ids: Sequence[int]) -> tuple[list[int], int]:
        """The largest full subgraph F inside an edge subset: the ids whose ends
        share a strong component of the subset, and the dimension of F's face,
        |F| - |V(G)| + #components - 1.  The subset's strong components are
        F's weak components (isolated vertices count)."""
        g = self.graph
        label, count = g._scc_labels(edge_ids)
        st, ar = g._st, g._ar
        full = [eid for eid in edge_ids if label[st[eid]] == label[ar[eid]]]
        return full, len(full) - g.n_vertices + count - 1

    def dimension(self) -> int:
        """|E(H)| - |V(G)| + #components(H) - 1 for the largest full subgraph H,
        whose components are the strong components of G, kept from __init__."""
        if not self.full_edge_ids:
            raise EmptyPolytopeError("the graph has no cycle; the polytope is empty")
        return self._dimension

    # -- membership ---------------------------------------------------------

    def equation_system(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(rows, rhs): per-vertex conservation rows (= 0) and the sum row (= 1).

        The dense |V| x |E| rows are built on the first call and cached.
        """
        if self._equations is None:
            g = self.graph
            # Flow conservation at every vertex (+1 incoming, -1 outgoing; a
            # loop contributes to both sides and cancels), then the sum row.
            rows = []
            for v in range(g.n_vertices):
                row = [0] * g.n_edges
                for eid in g.in_edges(v):
                    row[eid] += 1
                for eid in g.out_edges(v):
                    row[eid] -= 1
                rows.append(tuple(row))
            rows.append((1,) * g.n_edges)
            self._equations = (tuple(rows), (0,) * g.n_vertices + (1,))
        return self._equations

    def _exact(self, point: Sequence) -> tuple[list[int], int]:
        """(n, d) with point[i] = n[i] / d: a fresh list of an ``ExactPoint``'s
        numerators, or any other sequence's entries over their lcm denominator."""
        if type(point) is ExactPoint:
            n, d = list(point.numerators), point.denominator
        else:
            n, d = integer_numerators([as_fraction(x) for x in point])
        if len(n) != self.graph.n_edges:
            raise IndexError(f"point has {len(n)} entries, graph has {self.graph.n_edges} edges")
        return n, d

    def _equation_violation(self, n: Sequence[int], d: int, support: Sequence[int]) -> str | None:
        """The first unbalanced vertex of a point n / d with non-negative
        entries summing to 1, or None.

        ``support`` lists the ids of the non-zero entries in ascending order.
        A balanced point is a circulation, so every support edge lies on a
        cycle and no other equation can fail.
        """
        g = self.graph
        st, ar = g._st, g._ar
        balance = [0] * g.n_vertices
        for eid in support:
            value = n[eid]
            balance[ar[eid]] += value
            balance[st[eid]] -= value
        if any(balance):
            v = next(itertools.compress(range(g.n_vertices), balance))
            at = n.__getitem__
            outflow = sum(map(at, g._out[v]))
            inflow = sum(map(at, g._in[v]))
            return (
                f"flow not conserved at vertex {g.vertex_names[v]!r}: "
                f"out {Fraction(outflow, d)} != in {Fraction(inflow, d)}"
            )
        return None

    def membership(self, point: Sequence) -> MembershipResult:
        """Exact test of the defining equations, with a certificate."""
        return self._membership(*self._exact(point))

    def _membership(self, n: list[int], d: int) -> MembershipResult:
        """Membership of the point n / d: one integer per edge over a positive
        d.  Consumes ``n``.  The support is listed only once the sign and sum
        checks pass."""
        if n and min(n) < 0:
            eid = next(eid for eid, value in enumerate(n) if value < 0)
            violation = f"negative entry x[{eid}] = {Fraction(n[eid], d)}"
        elif sum(n) != d:
            violation = f"entries sum to {Fraction(sum(n), d)}, not 1"
        else:
            support = list(itertools.compress(range(len(n)), n))
            violation = self._equation_violation(n, d, support)
        if violation is not None:
            return MembershipResult(False, violation, None)
        return MembershipResult(True, None, tuple(self._greedy_decomposition(n, d, support)))

    def convex_decomposition(self, point: Sequence) -> tuple[tuple[Fraction, SimpleCycle], ...]:
        """Write a member point as an exact convex combination of cycle vectors.

        Greedy flow extraction: walk the support along smallest-id
        continuations until a vertex repeats, peel that simple cycle off with
        the largest weight keeping all entries non-negative.  Uses at most |E|
        cycles since every round zeroes at least one edge.  After the C-level
        ``min`` and ``sum`` over all entries, the equation check and the peel
        touch only the support and the edges of the peeled cycles.
        """
        result = self._membership(*self._exact(point))
        if not result.member:
            raise NotInPolytopeError(result.violation)
        return result.decomposition

    def _greedy_decomposition(
        self, n: list[int], d: int, support: Sequence[int]
    ) -> list[tuple[Fraction, SimpleCycle]]:
        """Peel cycles off the member point n / d, whose non-zero entries are at
        the ascending ids ``support``; consumes ``n``.

        The walk lives in flat lists of |V| entries, allocated once, as in
        ``graphs.decompose_walk``: the path is ``edges[:depth]``;
        ``depth_of[v]`` is the index in ``edges`` of the edge by which v
        leaves the path, stale unless it is below ``depth`` and that edge
        starts at v; and ``first[v]`` is the index in ``out[v]`` below which
        every out-edge is spent.  Entries only fall, so ``first`` only rises
        and the walk still takes the smallest-id positive continuation.
        """
        g = self.graph
        st, ar, out = g._st, g._ar, g._out
        remaining = n
        result: list[tuple[Fraction, SimpleCycle]] = []
        depth_of = [0] * g.n_vertices
        first = [0] * g.n_vertices
        edges = [0] * g.n_vertices
        # support[pos] is the smallest positive edge id, which never decreases
        pos = depth = 0
        while True:
            if not depth:
                while pos < len(support) and not remaining[support[pos]]:
                    pos += 1
                if pos == len(support):
                    break
                start = support[pos]
                depth_of[st[start]] = 0
                edges[0] = start
                depth = 1
                v = ar[start]
            while True:
                at = depth_of[v]
                if at < depth and st[edges[at]] == v:
                    break  # v is on the path: the walk closed a cycle
                # Out-edges come in ascending id order, so this is the
                # smallest-id continuation along the support.
                ids, i = out[v], first[v]
                try:
                    while not remaining[ids[i]]:
                        i += 1
                except IndexError:
                    raise AssertionError(
                        "conservation guarantees an outgoing support edge"
                    ) from None
                first[v] = i
                depth_of[v] = depth
                e = edges[depth] = ids[i]
                depth += 1
                v = ar[e]
            cycle_edges = edges[at:depth]
            flow = min(map(remaining.__getitem__, cycle_edges))
            for e in cycle_edges:
                remaining[e] -= flow
            # Only edges leaving cycle vertices fell and the path meets the cycle
            # only at v, so a fresh walk from start retraces it; at == 0 restarts.
            depth = at
            cycle = SimpleCycle._trusted(g, _canonical_rotation(cycle_edges))
            result.append((Fraction(flow * len(cycle_edges), d), cycle))
        return result

    # -- faces ---------------------------------------------------------------

    def face(self, edge_ids: Iterable[int]) -> FaceHandle:
        """The face carried by a full subgraph, given as an edge subset."""
        ids = tuple(sorted(set(_int_ids(edge_ids))))
        if not ids:
            raise EmptyError("the empty subgraph does not index a face")
        for eid in ids:
            if not 0 <= eid < self.graph.n_edges:
                raise IndexError(f"no edge with id {eid}")
        full, dimension = self._full_subgraph(ids)
        if len(full) != len(ids):
            dead = sorted(set(ids).difference(full))
            raise NotFullError(f"edges {dead} lie on no cycle of the subgraph")
        return FaceHandle(self, ids, dimension)

    def face_poset(self) -> FacePoset:
        """All faces, via enumeration of the non-empty full edge subsets.

        Exponential in |E| of the full part, hence guarded by the ``faces`` cap.
        """
        full = sorted(self.full_edge_ids)
        limits.check("faces", len(full), f"face enumeration over {len(full)} edges exceeds")
        faces: list[FaceHandle] = []
        for r in range(1, len(full) + 1):
            for subset in itertools.combinations(full, r):
                kept, dimension = self._full_subgraph(subset)
                if len(kept) == r:
                    faces.append(FaceHandle(self, subset, dimension))
        faces.sort(key=lambda f: (f.dimension(), f.edge_ids))
        return FacePoset(self, tuple(faces))

    def skeleton_adjacent(self, c1: SimpleCycle, c2: SimpleCycle) -> bool:
        """Whether two polytope vertices are joined by an edge of the polytope.

        True exactly when the union U of the two cycles carries a
        1-dimensional face, decided by counting.  U is full, since each of its
        edges lies on one of the two cycles, so its strong components are its
        weak ones: two when the cycles share no vertex, else one.  Its face
        has dimension |U| - |V(U)| + #components - 1 (the vertices outside
        V(U) add one component each and cancel).  A simple cycle has as many
        vertices as edges, so vertex-disjoint cycles give dimension 1, and
        cycles that meet give |U| - |V(U)|: the pair is adjacent exactly when
        the cycles are vertex-disjoint or |U| = |V(U)| + 1.  A cycle and
        itself give |U| = |V(U)|, so it is not adjacent to itself.
        """
        if c1.graph is not self.graph or c2.graph is not self.graph:
            raise IndexError("cycle references edges of a different graph")
        e1, e2 = set(c1.edge_ids), set(c2.edge_ids)
        # A cycle's vertices are the starts of its edges.
        start = self.graph._st.__getitem__
        v1, v2 = set(map(start, e1)), set(map(start, e2))
        return v1.isdisjoint(v2) or len(e1 | e2) == len(v1 | v2) + 1
