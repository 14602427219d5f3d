"""Directed multigraphs with parallel edges and loops.

Edges carry dense integer ids ``0..|E|-1`` plus an opaque string label.
Graphs are immutable after construction; everything downstream (walks,
simple-cycle enumeration, the cycle polytope) identifies edges by id.

The simple-cycle enumerator is an iterative Johnson-style search adapted to
multigraphs: parallel edges are distinguished by id, a loop is a cycle of
length one, and each cycle is reported once in canonical rotation (smallest
edge id first) and in lexicographic order of the edge-id tuples.  It and the
walk splitter keep their state in flat lists indexed by vertex, allocated
once per call; the enumerator resets after each search only the vertices
that search touched.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

from . import limits
from ._record import Record


class Multigraph:
    """An immutable directed multigraph."""

    __slots__ = ("vertex_names", "edges", "_st", "_ar", "_out", "_in")

    def __init__(
        self,
        vertex_names: Sequence[str],
        edges: Sequence[tuple[int, int, str]],
    ) -> None:
        names = tuple(str(v) for v in vertex_names)
        if len(set(names)) != len(names):
            raise ValueError("vertex names must be unique")
        n = len(names)
        checked = []
        for st, ar, label in edges:
            if type(st) is not int or type(ar) is not int:
                raise ValueError(
                    f"edge ends must be integers, got ({limits.excerpt(st)}, {limits.excerpt(ar)})"
                )
            if not (0 <= st < n and 0 <= ar < n):
                raise IndexError(
                    f"edge ({limits.excerpt(st)}, {limits.excerpt(ar)}) references a missing vertex"
                )
            checked.append((st, ar, str(label)))
        self.vertex_names = names
        self.edges = tuple(checked)
        self._st = tuple(st for st, _, _ in checked)
        self._ar = tuple(ar for _, ar, _ in checked)
        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        for eid, (st, ar, _) in enumerate(self.edges):
            out[st].append(eid)
            inc[ar].append(eid)
        self._out = tuple(tuple(ids) for ids in out)
        self._in = tuple(tuple(ids) for ids in inc)

    @classmethod
    def _trusted(
        cls, names: tuple, edges: tuple, st: tuple, ar: tuple, out: tuple, inc: tuple
    ) -> "Multigraph":
        """Wrap parts that already agree, skipping the checks: unique names,
        ``(st, ar, label)`` edges in range with ``str`` labels, their ends, and
        each vertex's out- and in-edge ids in increasing order."""
        graph = object.__new__(cls)
        graph.vertex_names, graph.edges, graph._st, graph._ar = names, edges, st, ar
        graph._out, graph._in = out, inc
        return graph

    # -- basic accessors ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def st(self, eid: int) -> int:
        return self._st[eid]

    def ar(self, eid: int) -> int:
        return self._ar[eid]

    def label(self, eid: int) -> str:
        return self.edges[eid][2]

    def out_edges(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_edges(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def __repr__(self) -> str:
        return f"Multigraph({self.n_vertices} vertices, {self.n_edges} edges)"

    # -- connectivity ------------------------------------------------------

    def _scc_labels(self, edge_ids: Iterable[int]) -> tuple[list[int], int]:
        """Tarjan's algorithm, iterative, on all vertices and the given edges
        (valid ids, not checked): each vertex's strong-component label and the
        number of components.  An isolated vertex is a component of its own."""
        n, st, ar = self.n_vertices, self._st, self._ar
        succ: list[list[int]] = [[] for _ in range(n)]
        for eid in edge_ids:
            succ[st[eid]].append(ar[eid])
        index = [-1] * n
        low = [0] * n
        label = [-1] * n  # a visited vertex without a label is on the stack
        stack: list[int] = []
        counter = count = 0
        for root in range(n):
            if index[root] != -1:
                continue
            work: list[tuple[int, int]] = [(root, 0)]
            while work:
                v, ei = work[-1]
                if ei == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                for j in range(ei, len(succ[v])):
                    w = succ[v][j]
                    if index[w] == -1:
                        work[-1] = (v, j + 1)
                        work.append((w, 0))
                        break
                    if label[w] == -1:
                        low[v] = min(low[v], index[w])
                else:
                    work.pop()
                    if low[v] == index[v]:
                        while True:
                            w = stack.pop()
                            label[w] = count
                            if w == v:
                                break
                        count += 1
                    if work:
                        u = work[-1][0]
                        low[u] = min(low[u], low[v])
        return label, count

    def strongly_connected_components(self) -> list[list[int]]:
        """Components ordered by smallest vertex id."""
        label, count = self._scc_labels(range(self.n_edges))
        components: list[list[int]] = [[] for _ in range(count)]
        for v, c in enumerate(label):
            components[c].append(v)
        return sorted(components)

    def is_strongly_connected(self) -> bool:
        return len(self.strongly_connected_components()) == 1

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertex_names),
            "edges": [{"st": st, "ar": ar, "label": label} for st, ar, label in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "Multigraph":
        """Read the ``to_json_dict`` format; any other shape is a ValueError."""
        if not (
            isinstance(data, dict)
            and isinstance(data.get("vertices"), list)
            and isinstance(data.get("edges"), list)
        ):
            raise ValueError("a graph is an object with a 'vertices' list and an 'edges' list")
        edges = []
        for e in data["edges"]:
            if not (
                isinstance(e, dict)
                and all(type(e.get(end)) is int for end in ("st", "ar"))
                and "label" in e
            ):
                raise ValueError(
                    "a graph edge is an object with integer 'st' and 'ar' and a 'label': "
                    + limits.excerpt(repr(e))
                )
            edges.append((e["st"], e["ar"], e["label"]))
        return cls(data["vertices"], edges)

    @classmethod
    def from_json(cls, text: str) -> "Multigraph":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("graph JSON is nested too deeply to parse") from None
        return cls.from_json_dict(data)

    def to_dot(self) -> str:
        def quote(s: str) -> str:
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["digraph G {"]
        for v in self.vertex_names:
            lines.append(f"  {quote(v)};")
        for st, ar, label in self.edges:
            lines.append(
                f"  {quote(self.vertex_names[st])} -> {quote(self.vertex_names[ar])}"
                f" [label={quote(label)}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


class Walk(Record, hidden=("graph",)):
    """A non-empty chained sequence of edge ids on a fixed graph.  Immutable;
    equal to a walk of the same class on the same graph with the same ids."""

    __slots__ = ("graph", "edge_ids")

    def __init__(self, graph: Multigraph, edge_ids: Iterable[int]) -> None:
        _set_graph(self, graph)
        _set_edge_ids(self, edge_ids)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the ids and store them as a tuple."""
        ids = _int_ids(self.edge_ids)
        _set_edge_ids(self, ids)
        if not ids:
            raise ValueError("walks are non-empty")
        st, ar = self.graph._st, self.graph._ar
        n_edges = len(st)
        # One pass checks both; only a failure rescans, so that a bad id
        # anywhere is reported before a broken chain.
        at = st[ids[0]] if 0 <= ids[0] < n_edges else -1
        for eid in ids:
            if not 0 <= eid < n_edges or st[eid] != at:
                break
            at = ar[eid]
        else:
            return
        for eid in ids:
            if not 0 <= eid < n_edges:
                raise IndexError(f"no edge with id {eid}")
        prev, nxt = next((p, q) for p, q in zip(ids, ids[1:]) if ar[p] != st[q])
        raise ValueError(
            f"edges {prev} and {nxt} do not chain: arrival {ar[prev]} != start {st[nxt]}"
        )

    @classmethod
    def _trusted(cls, graph: Multigraph, edge_ids: tuple[int, ...]) -> "Walk":
        """Wrap edge ids that already form a non-empty chained walk on
        ``graph`` (for a SimpleCycle, in canonical rotation), skipping the checks."""
        walk = object.__new__(cls)
        _set_graph(walk, graph)
        _set_edge_ids(walk, edge_ids)
        return walk

    def __len__(self) -> int:
        return len(self.edge_ids)

    def vertices(self) -> tuple[int, ...]:
        """The |w|+1 vertices visited, in order."""
        g = self.graph
        first = g.st(self.edge_ids[0])
        return (first,) + tuple(g.ar(eid) for eid in self.edge_ids)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.graph.label(eid) for eid in self.edge_ids)


# Set through the slots themselves, past Record's refusing __setattr__.
_set_graph, _set_edge_ids = Walk._setters


def _int_ids(edge_ids: Iterable) -> tuple[int, ...]:
    """The ids as a tuple, rejecting any that is not an ``int`` (a bool would
    pass the range checks, a float or string fail them with a TypeError)."""
    ids = tuple(edge_ids)
    if set(map(type, ids)) - {int}:
        bad = next(eid for eid in ids if type(eid) is not int)
        raise ValueError(f"edge ids must be integers, got {bad!r}")
    return ids


def _canonical_rotation(edge_ids: Sequence[int]) -> tuple[int, ...]:
    """The rotation starting at the smallest id, of a tuple or a list."""
    pivot = edge_ids.index(min(edge_ids))
    return tuple(edge_ids[pivot:] + edge_ids[:pivot] if pivot else edge_ids)


class SimpleCycle(Walk):
    """A closed walk with all edges and all visited vertices distinct.

    Stored in canonical rotation: the smallest edge id comes first.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        ids = _int_ids(self.edge_ids)
        if ids:
            ids = _canonical_rotation(ids)
        _set_edge_ids(self, ids)
        super().__post_init__()
        st = self.graph._st
        if st[ids[0]] != self.graph._ar[ids[-1]]:
            raise ValueError("cycle is not closed")
        # Distinct start vertices imply distinct edges.
        if len({st[eid] for eid in ids}) != len(ids):
            if len(set(ids)) != len(ids):
                raise ValueError("cycle repeats an edge")
            raise ValueError("cycle repeats a vertex")


# What the refusal of a simple cycle past the ``cycles`` cap says first.
_MORE_CYCLES = "the graph has more simple cycles than"


def iter_simple_cycles(g: Multigraph) -> Iterator[SimpleCycle]:
    """Yield every simple cycle of ``g`` exactly once, in canonical rotation
    and in lexicographic order of the edge-id tuples, from the search
    :func:`_cycle_paths`.  Raises CapacityError when asked for a cycle past
    the ``cycles`` cap, read when the enumeration starts.
    """
    for path in _cycle_paths(g):
        yield SimpleCycle._trusted(g, tuple(path))


def _cycle_paths(g: Multigraph) -> Iterator[list[int]]:
    """Yield the edge ids of every simple cycle of ``g`` in the order and
    rotation of :func:`iter_simple_cycles`, as one list that the search
    changes after each yield: a caller keeps a copy, or only counts.

    For each edge e in increasing order, a depth-first search from ``ar(e)``
    back to ``st(e)`` over the edges above e, taken in increasing id order,
    finds the cycles starting at e, so each starts at its smallest id; a loop
    e is the cycle ``(e,)``.  Each search keeps Johnson's blocked vertices
    and barriers.  The search state is flat and per vertex: a blocked flag,
    a barrier set or None, and the vertex's out-edges above e (cut from its
    ascending out-edge list on the vertex's first push in that search).
    These lists are allocated once per enumeration; after each search only
    the vertices it touched are reset, so a search that ends at once costs
    O(1) however large the graph.  Raises CapacityError when asked for a
    cycle past the ``cycles`` cap, read when the enumeration starts.
    """
    st, ar, out, cap = g._st, g._ar, g._out, limits.cap("cycles")
    n = g.n_vertices
    blocked = [False] * n
    barriers: list[set[int] | None] = [None] * n
    above: list[tuple[int, ...] | None] = [None] * n
    touched: list[int] = []  # s and every vertex whose ``above`` is filled
    emitted = 0
    for e in range(g.n_edges):
        s = st[e]  # the DFS leaves s only by e
        blocked[s] = True
        touched.append(s)
        epath: list[int] = []
        stack: list[Iterator[int]] = [iter((e,))]
        pushed_at: list[int] = [emitted]  # the cycle count when each frame was pushed
        while stack:
            for eid in stack[-1]:
                w = ar[eid]
                if w == s:
                    emitted += 1
                    if emitted > cap:
                        raise limits.refusal("cycles", cap, _MORE_CYCLES)
                    epath.append(eid)
                    yield epath
                    epath.pop()
                elif not blocked[w]:
                    epath.append(eid)
                    blocked[w] = True
                    successors = above[w]
                    if successors is None:
                        ids = out[w]
                        successors = above[w] = ids[bisect_right(ids, e) :]
                        touched.append(w)
                    stack.append(iter(successors))
                    pushed_at.append(emitted)
                    break
            else:
                stack.pop()
                if not epath:  # the search from e is over
                    break
                v = ar[epath.pop()]
                if pushed_at.pop() != emitted:  # a cycle was found below v: unblock it
                    pending = [v]
                    while pending:
                        u = pending.pop()
                        if blocked[u]:
                            blocked[u] = False
                            waiting = barriers[u]
                            if waiting is not None:
                                barriers[u] = None
                                pending.extend(waiting)
                else:
                    for eid in above[v]:
                        waiting = barriers[ar[eid]]
                        if waiting is None:
                            barriers[ar[eid]] = {v}
                        else:
                            waiting.add(v)
        for v in touched:
            blocked[v] = False
            barriers[v] = above[v] = None
        touched.clear()


class WalkDecomposition(Record):
    """A walk's edge multiset split into simple cycles plus a vertex-distinct tail:
    ``cycles``, a tuple of SimpleCycle, and ``tail``, a Walk or None."""

    __slots__ = ("cycles", "tail")

    def edge_multiset(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for cycle in self.cycles:
            for eid in cycle.edge_ids:
                counts[eid] = counts.get(eid, 0) + 1
        if self.tail is not None:
            for eid in self.tail.edge_ids:
                counts[eid] = counts.get(eid, 0) + 1
        return counts


def decompose_walk(walk: Walk) -> WalkDecomposition:
    """Split a walk into simple cycles and a tail by repeatedly pruning the
    cycle closed at the first vertex repetition.

    The identity ``walk = C_1 + ... + C_l + tail`` holds as edge multisets;
    the pruned pieces are generally not contiguous in the original walk.
    The path of distinct vertices left after pruning, its edges and each
    vertex's depth on it live in flat lists of |V| entries, allocated once;
    pruning only lowers the depth.  A depth entry left behind by a pruned
    vertex is told apart by reading the path at that depth, so nothing is
    reset.  A cycle pruned again with the same edges in the same order is
    the same SimpleCycle object.
    """
    g = walk.graph
    ar, ids = g._ar, walk.edge_ids
    n = g.n_vertices
    vertices = [0] * n  # vertices[:depth + 1] is the path, all distinct
    edges = [0] * n  # edges[i] runs from vertices[i] to vertices[i + 1]
    position = [0] * n  # v's depth while v is on the path
    vertices[0] = g._st[ids[0]]
    depth = 0
    known: dict[tuple[int, ...], SimpleCycle] = {}  # keyed by the ids as pruned
    cycles: list[SimpleCycle] = []
    for eid in ids:
        v = ar[eid]
        edges[depth] = eid
        at = position[v]
        if at <= depth and vertices[at] == v:
            # The path since the earlier visit of v closes a cycle.
            pruned = tuple(edges[at : depth + 1])
            depth = at
            cycle = known.get(pruned)
            if cycle is None:
                cycle = known[pruned] = SimpleCycle._trusted(g, _canonical_rotation(pruned))
            cycles.append(cycle)
        else:
            depth += 1
            vertices[depth] = v
            position[v] = depth
    tail = Walk._trusted(g, tuple(edges[:depth])) if depth else None
    return WalkDecomposition(tuple(cycles), tail)


def eulerian_circuit(g: Multigraph, start: int) -> Walk:
    """An Eulerian circuit from ``start`` (Hierholzer, smallest edge id first).

    Requires the usual balance and connectivity conditions; raises ValueError
    when the graph has no Eulerian circuit through ``start``.
    """
    if g.n_edges == 0:
        raise ValueError("graph has no edges")
    for v in range(g.n_vertices):
        if g.in_degree(v) != g.out_degree(v):
            raise ValueError(f"vertex {v} is unbalanced; no Eulerian circuit")
    next_ptr = [0] * g.n_vertices
    vertex_stack = [start]
    edge_stack: list[int] = []
    circuit: list[int] = []
    while vertex_stack:
        v = vertex_stack[-1]
        out = g.out_edges(v)
        if next_ptr[v] < len(out):
            eid = out[next_ptr[v]]
            next_ptr[v] += 1
            vertex_stack.append(g.ar(eid))
            edge_stack.append(eid)
        else:
            vertex_stack.pop()
            if edge_stack:
                circuit.append(edge_stack.pop())
    circuit.reverse()
    if len(circuit) != g.n_edges:
        raise ValueError("graph is not connected enough for an Eulerian circuit")
    return Walk(g, tuple(circuit))
