"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from the definitions, sharing no code
with the implementations under test: the pattern of a window or of an
overlap edge's ends by sorting, occurrence counting by explicit pairwise
order comparison, classical size-2 and size-3 counts from merge-sort
smaller-before counts split by the middle position, classical counts of any
size by one argsort per subset, simple cycles by edge-subset filtering, the
simple-cycle search and the walk split with sets and dicts where the graph
kernels keep flat per-vertex lists, rank by its own Gaussian elimination,
convex-hull membership by an exact phase-1 simplex over the vertex list,
membership and its greedy cycle decomposition in ``Fraction`` arithmetic,
the greedy walk-to-permutation construction by rewriting the whole word at
every step, the window walk one step per window through a step table built
by sorting, the signed incidence matrix, and the worst-case realization
error bound that charges every block-boundary window to every edge.  The
exceptions are ``cocc_via_walk``, which counts on the package's own window
walk to cross-check ``cocc``, and ``skeleton_adjacent_by_face``, which
decides a polytope edge through the package's face route (a strong-component
pass) to cross-check the closed form of ``skeleton_adjacent``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


# -- pattern counting ------------------------------------------------------


def standardized(values: Sequence) -> tuple[int, ...]:
    """The pattern of distinct values, by sorting: each value becomes its rank."""
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def window_pattern(sigma: Sequence[int], start: int, k: int) -> tuple[int, ...]:
    """The pattern of the width-k window at 0-based position ``start``."""
    return standardized(sigma[start : start + k])


def begin_pattern(pattern: Sequence[int]) -> tuple[int, ...]:
    """The pattern of the first k-1 entries: the start vertex of the
    pattern's overlap-graph edge."""
    return standardized(pattern[:-1])


def end_pattern(pattern: Sequence[int]) -> tuple[int, ...]:
    """The pattern of the last k-1 entries: the end vertex of the pattern's
    overlap-graph edge."""
    return standardized(pattern[1:])


def order_isomorphic(values: Sequence, pattern: Sequence[int]) -> bool:
    k = len(pattern)
    return all(
        (values[i] < values[j]) == (pattern[i] < pattern[j])
        for i in range(k)
        for j in range(i + 1, k)
    )


def naive_occ(pattern: Sequence[int], sigma: Sequence[int]) -> int:
    n, k = len(sigma), len(pattern)
    return sum(
        1
        for comb in itertools.combinations(range(n), k)
        if order_isomorphic([sigma[i] for i in comb], pattern)
    )


def naive_cocc(pattern: Sequence[int], sigma: Sequence[int]) -> int:
    n, k = len(sigma), len(pattern)
    return sum(1 for i in range(n - k + 1) if order_isomorphic(sigma[i : i + k], pattern))


def naive_cocc_counts(sigma: Sequence[int], k: int) -> dict[tuple[int, ...], int]:
    """Consecutive occurrences of every size-k pattern that occurs: each
    width-k window's pattern read off its pairwise order comparisons."""
    counts: dict[tuple[int, ...], int] = {}
    for i in range(len(sigma) - k + 1):
        window = sigma[i : i + k]
        pattern = tuple([1 + sum([w < v for w in window]) for v in window])
        counts[pattern] = counts.get(pattern, 0) + 1
    return counts


def merge_sort_smaller_before(values: Sequence) -> list[int]:
    """For every position j, how many earlier entries are smaller, counted
    while merge-sorting the positions by value: when a position of the right
    half is merged, every left-half position already merged holds a smaller
    value."""
    counts = [0] * len(values)

    def sort(lo: int, hi: int) -> list[int]:
        if hi - lo == 1:
            return [lo]
        mid = (lo + hi) // 2
        left, right = sort(lo, mid), sort(mid, hi)
        merged: list[int] = []
        i = 0
        for j in right:
            while i < len(left) and values[left[i]] < values[j]:
                merged.append(left[i])
                i += 1
            counts[j] += i
            merged.append(j)
        return merged + left[i:]

    if values:
        sort(0, len(values))
    return counts


def classical_counts_small(sigma: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Classical counts of every pattern of size 2 and 3 in a permutation word,
    from merge-sort smaller-before counts.

    Size 3 is split by the middle position: its left and right neighbours are
    each smaller or larger, which gives 123, 321, 132 + 231 and 213 + 312;
    the two sums are split by the pairs above a first entry (123 + 132) and
    below a last entry (123 + 213).
    """
    n = len(sigma)
    sb = merge_sort_smaller_before(sigma)
    lb = [j - x for j, x in enumerate(sb)]
    sa = [v - 1 - x for v, x in zip(sigma, sb)]
    la = [n - 1 - j - x for j, x in enumerate(sa)]
    occ123 = sum(x * y for x, y in zip(sb, la))
    occ321 = sum(x * y for x, y in zip(lb, sa))
    peak = sum(x * y for x, y in zip(sb, sa))
    valley = sum(x * y for x, y in zip(lb, la))
    occ132 = sum(x * (x - 1) // 2 for x in la) - occ123
    occ213 = sum(x * (x - 1) // 2 for x in sb) - occ123
    ascents = sum(sb)
    return {
        (1, 2): ascents,
        (2, 1): n * (n - 1) // 2 - ascents,
        (1, 2, 3): occ123,
        (1, 3, 2): occ132,
        (2, 1, 3): occ213,
        (2, 3, 1): peak - occ132,
        (3, 1, 2): valley - occ213,
        (3, 2, 1): occ321,
    }


def classical_counts_by_subsets(sigma: Sequence[int], k: int) -> list[int]:
    """Classical counts of every size-k pattern in a permutation word, in
    lexicographic pattern order: one argsort per k-subset, C(n, k) Python
    steps, so suited to short words only."""
    orders = Counter(
        tuple(sorted(range(k), key=comb.__getitem__))
        for comb in itertools.combinations(sigma, k)
    )
    counts = []
    for pattern in itertools.permutations(range(1, k + 1)):
        # the argsort of a pattern lists its positions by increasing value
        counts.append(orders[tuple(sorted(range(k), key=pattern.__getitem__))])
    return counts


# -- walks to permutations ---------------------------------------------------


@lru_cache(maxsize=None)
def step_table_by_sorting(k: int) -> tuple[tuple, ...]:
    """The overlap graph of size k as a transition table, for k >= 2:
    ``step[u][r]`` is ``(e, w)`` for the size-k pattern e whose first k-1
    entries form head u and whose last entry has 0-based rank r, and w the
    head its last k-1 entries form, both ends standardized by sorting."""
    head_id = {w: i for i, w in enumerate(itertools.permutations(range(1, k)))}
    step = [[None] * k for _ in head_id]
    for eid, w in enumerate(itertools.permutations(range(1, k + 1))):
        step[head_id[begin_pattern(w)]][w[-1] - 1] = (eid, head_id[end_pattern(w)])
    return tuple(map(tuple, step))


def window_ids_by_walk(word: Sequence[int], k: int) -> list[int]:
    """Pattern ids of the width-k windows of ``word``, left to right, for
    2 <= k <= len(word), by one step per window on the overlap graph.

    ``window`` holds the last k-1 values in sorted order: the new value's
    rank in it and the current head select the step in
    ``step_table_by_sorting(k)``, and the value leaving on the left sits at
    the rank of the head's first entry.
    """
    heads = list(itertools.permutations(range(1, k)))
    step = step_table_by_sorting(k)
    window = sorted(word[: k - 1])
    u = heads.index(standardized(word[: k - 1]))
    ids = []
    for v in word[k - 1 :]:
        eid, nxt = step[u][bisect_left(window, v)]
        ids.append(eid)
        del window[heads[u][0] - 1]
        insort(window, v)
        u = nxt
    return ids


def walk_to_word(labels: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The greedy permutation of a walk, given by its edge label words.

    Start from the first label and append one point per further label.  A
    height h for the new point (values >= h move up by one) is admissible when
    exactly r - 1 of the last k-1 values lie below h, r being the label's last
    entry; the lowest admissible h >= 2 is taken, and h = 1 only when no
    admissible h >= 2 exists.  The whole word is rewritten at every step.
    """
    word = list(labels[0])
    k = len(word)
    for label in labels[1:]:
        tail = sorted(word[len(word) - (k - 1) :])
        r = label[-1]
        low = tail[r - 2] + 1 if r >= 2 else 1  # the admissible heights are low..high
        high = tail[r - 1] if r < k else len(word) + 1
        h = max(low, 2) if max(low, 2) <= high else 1
        word = [v + 1 if v >= h else v for v in word] + [h]
        assert order_isomorphic(word[-k:], label)
    return tuple(word)


# -- simple cycles by subset filtering --------------------------------------


def _subset_as_cycle(g, subset: tuple[int, ...]) -> tuple[int, ...] | None:
    """Canonical edge tuple if the subset forms one simple cycle, else None."""
    starts = [g.st(e) for e in subset]
    arrivals = [g.ar(e) for e in subset]
    if len(set(starts)) != len(subset) or len(set(arrivals)) != len(subset):
        return None
    if set(starts) != set(arrivals):
        return None
    by_start = {g.st(e): e for e in subset}
    first = min(subset)
    seq = [first]
    while True:
        nxt = by_start.get(g.ar(seq[-1]))
        if nxt is None or (nxt in seq and nxt != first):
            return None
        if nxt == first:
            break
        seq.append(nxt)
    if len(seq) != len(subset):
        return None
    return tuple(seq)


def brute_force_simple_cycles(g) -> set[tuple[int, ...]]:
    found = set()
    for r in range(1, g.n_edges + 1):
        for subset in itertools.combinations(range(g.n_edges), r):
            cycle = _subset_as_cycle(g, subset)
            if cycle is not None:
                found.add(cycle)
    return found


def count_simple_cycles_dp(g) -> int:
    """Count simple cycles by subset DP over vertices, multiplying parallel
    edge counts; independent of the enumeration under test and usable on
    graphs too dense for subset filtering."""
    n = g.n_vertices
    adjacency = [[0] * n for _ in range(n)]
    total = 0
    for eid in range(g.n_edges):
        u, v = g.st(eid), g.ar(eid)
        if u == v:
            total += 1  # every loop is its own cycle
        else:
            adjacency[u][v] += 1
    for s in range(n):
        # simple paths s -> v through vertices > s; anchor cycles at their
        # minimum vertex s. paths[mask][v]: #paths visiting exactly mask.
        paths: dict[int, dict[int, int]] = {}
        for v in range(s + 1, n):
            if adjacency[s][v]:
                paths.setdefault(1 << v, {})[v] = adjacency[s][v]
        for mask in range(1, 1 << n):  # adding a vertex only increases the mask
            layer = paths.get(mask)
            if not layer:
                continue
            for v, ways in layer.items():
                total += ways * adjacency[v][s]
                for w in range(s + 1, n):
                    if not mask & (1 << w) and adjacency[v][w]:
                        nxt = paths.setdefault(mask | (1 << w), {})
                        nxt[w] = nxt.get(w, 0) + ways * adjacency[v][w]
    return total


# -- the graph kernels' slow routes ------------------------------------------


def simple_cycles_by_sets(g):
    """Yield every simple cycle's edge-id tuple, in the order the package's
    enumerator must give them: Johnson's search from each edge e in turn,
    over the edges above e (a bisection into each out-edge list, on every
    push and every barrier pass), with the blocked vertices in a set and
    the barriers in a dict of sets, both built afresh for each e."""
    for e in range(g.n_edges):
        s = g.st(e)  # the DFS leaves s only by e
        blocked = {s}
        barriers: dict[int, set[int]] = {}
        epath: list[int] = []
        stack = [iter((e,))]
        closed = [False]
        while stack:
            advanced = False
            for eid in stack[-1]:
                w = g.ar(eid)
                if w == s:
                    yield (*epath, eid)
                    closed[-1] = True
                elif w not in blocked:
                    epath.append(eid)
                    blocked.add(w)
                    out = g.out_edges(w)
                    stack.append(iter(out[bisect_right(out, e) :]))
                    closed.append(False)
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            v = g.ar(epath.pop()) if epath else s
            if closed.pop():
                if closed:
                    closed[-1] = True
                pending = {v}
                while pending:
                    u = pending.pop()
                    if u in blocked:
                        blocked.discard(u)
                        pending.update(barriers.pop(u, ()))
            else:
                out = g.out_edges(v)
                for eid in out[bisect_right(out, e) :]:
                    barriers.setdefault(g.ar(eid), set()).add(v)


def walk_split_by_dict(g, edge_ids: Sequence[int]):
    """(cycles, tail) of a walk split by pruning the cycle closed at the
    first vertex repetition, with the stack positions in a dict that is
    emptied of each pruned cycle's vertices: each cycle an edge-id tuple
    rotated to start at its smallest id, the tail a tuple or None."""
    cycles = []
    stack_edges: list[int] = []
    stack_vertices = [g.st(edge_ids[0])]
    position = {stack_vertices[0]: 0}
    for eid in edge_ids:
        v = g.ar(eid)
        stack_edges.append(eid)
        if v in position:
            at = position[v]
            cycle = stack_edges[at:]
            del stack_edges[at:]
            for u in stack_vertices[at + 1 :]:
                del position[u]
            del stack_vertices[at + 1 :]
            pivot = cycle.index(min(cycle))
            cycles.append(tuple(cycle[pivot:] + cycle[:pivot]))
        else:
            stack_vertices.append(v)
            position[v] = len(stack_vertices) - 1
    return cycles, tuple(stack_edges) or None


# -- routes that cross-check the package ---------------------------------------


def incidence_matrix(g) -> list[list[int]]:
    """Vertex-by-edge signed incidence matrix; a loop contributes a lone +1."""
    mat = [[0] * g.n_edges for _ in range(g.n_vertices)]
    for eid, (st, ar, _) in enumerate(g.edges):
        if st == ar:
            mat[st][eid] = 1
        else:
            mat[st][eid] = -1
            mat[ar][eid] = 1
    return mat


def cocc_via_walk(pattern, sigma) -> int:
    """Consecutive occurrences counted as label hits along the window walk.

    The one oracle that runs package code: it counts on the package's
    overlap-graph walk and its edge labels.  The walk runs the same window
    kernel as ``perms.cocc``, so this checks the labels and the count's
    indexing; ``window_ids_by_walk`` checks the kernel.
    """
    from permutope import SizeError, build_overlap_graph

    k = len(pattern)
    if k < 2:
        raise SizeError("walk counting needs patterns of size >= 2")
    if len(sigma) < k:
        raise SizeError(f"pattern size {k} exceeds permutation size {len(sigma)}")
    og = build_overlap_graph(k)
    return sum(1 for label in og.walk_labels(og.walk_of(sigma)) if label == pattern)


# -- realization error --------------------------------------------------------


def loose_error_bound(plan, m: int) -> Fraction:
    """(R + c(k-1))/N, a bound on the sup distance of ``plan.generate(m)``
    from the target that charges all c(k-1) boundary windows to every edge.
    N counts the Y walked edges plus c(k-1), and R = max over edges e of
    |y_e - x_e Y|, where y_e sums the multiplicities g_C(m) of the cycles
    through e and Y sums g_C(m) |C|."""
    g = plan.multiplicities(m)
    walked: dict[int, int] = {}
    for gi, (_, cycle) in zip(g, plan.decomposition):
        for e in cycle.edge_ids:
            walked[e] = walked.get(e, 0) + gi
    total = sum(gi * len(cycle) for gi, (_, cycle) in zip(g, plan.decomposition))
    x = plan.target.values_by_pattern()
    drift = max(abs(walked.get(e, 0) - xe * total) for e, xe in enumerate(x))
    boundary = len(plan.parts) * (plan.region.k - 1)
    return (drift + boundary) / (total + boundary)


def straddling_window_counts(
    sigma: Sequence[int], block_sizes: Sequence[int], k: int
) -> dict[tuple[int, ...], int]:
    """Patterns of the width-k windows of ``sigma`` that meet two of its
    consecutive blocks (of the given sizes, left to right), counted from
    pairwise order comparisons."""
    counts: dict[tuple[int, ...], int] = {}
    end = 0
    for size in block_sizes[:-1]:
        end += size
        for i in range(end - k + 1, end):
            window = sigma[i : i + k]
            pattern = tuple([1 + sum([w < v for w in window]) for v in window])
            counts[pattern] = counts.get(pattern, 0) + 1
    return counts


# -- exact linear algebra ----------------------------------------------------


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals by Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        rows[rank] = [x / head for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the differences to the first point."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return matrix_rank([[Fraction(x) - Fraction(b) for x, b in zip(p, base)] for p in points[1:]])


def ambient_affine_dimension(poly) -> int:
    """Dimension of the affine space cut out by the polytope's defining
    equations.  Equals ``dimension()`` whenever the graph is full and strongly
    connected (in particular for every overlap graph): the equation-rank route
    to the dimension."""
    rows, _ = poly.equation_system()
    return poly.graph.n_edges - matrix_rank(rows)


def skeleton_adjacent_by_face(poly, c1, c2) -> bool:
    """Whether two cycles span an edge of the polytope, by building the face
    of their union: a strong-component pass over the union's edges gives its
    dimension, which must be 1.  The checked slow route for
    ``CyclePolytope.skeleton_adjacent``, which counts vertices and edges."""
    if set(c1.edge_ids) == set(c2.edge_ids):
        return False
    return poly.face(set(c1.edge_ids) | set(c2.edge_ids)).dimension() == 1


# -- membership in Fraction arithmetic ------------------------------------------


def fraction_membership(graph, full_edge_ids, x: Sequence[Fraction]):
    """(violation, decomposition) for the point x, all in ``Fraction``.

    ``violation`` is the first violated constraint as text, or None; then
    ``decomposition`` lists (weight, cycle edge ids in canonical rotation)
    from greedy flow extraction: walk the support along smallest-id
    continuations until a vertex repeats, peel that simple cycle off with the
    largest weight keeping all entries non-negative.

    The checked slow route for ``CyclePolytope._membership``: it scans every
    entry and every vertex, and each round walks afresh from the smallest
    positive edge, where the fast route works over the support and resumes
    the walk at the vertex where the last cycle closed.
    """
    g = graph
    for eid, value in enumerate(x):
        if value < 0:
            return f"negative entry x[{eid}] = {value}", None
    total = sum(x, Fraction(0))
    if total != 1:
        return f"entries sum to {total}, not 1", None
    for v in range(g.n_vertices):
        outflow = sum((x[eid] for eid in g.out_edges(v)), Fraction(0))
        inflow = sum((x[eid] for eid in g.in_edges(v)), Fraction(0))
        if outflow != inflow:
            return (
                f"flow not conserved at vertex {g.vertex_names[v]!r}: "
                f"out {outflow} != in {inflow}"
            ), None
    for eid, value in enumerate(x):
        if value > 0 and eid not in full_edge_ids:
            return f"support edge {eid} lies on no cycle", None
    remaining = list(x)
    result = []
    while True:
        start = next((eid for eid, v in enumerate(remaining) if v > 0), None)
        if start is None:
            break
        seen = {g.st(start): 0}
        edges = [start]
        while True:
            v = g.ar(edges[-1])
            if v in seen:
                cycle_edges = edges[seen[v] :]
                break
            seen[v] = len(edges)
            edges.append(min(e for e in g.out_edges(v) if remaining[e] > 0))
        flow = min(remaining[e] for e in cycle_edges)
        for e in cycle_edges:
            remaining[e] -= flow
        pivot = cycle_edges.index(min(cycle_edges))
        result.append((flow * len(cycle_edges), tuple(cycle_edges[pivot:] + cycle_edges[:pivot])))
    return None, result


# -- exact convex-hull membership (phase-1 simplex, Bland's rule) -------------


def in_convex_hull(points: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> bool:
    """Is x a convex combination of the given points?  Exact rational LP."""
    n = len(points)
    if n == 0:
        return False
    d = len(x)
    rows = [[Fraction(points[j][i]) for j in range(n)] for i in range(d)]
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(v) for v in x] + [Fraction(1)]
    return _phase1_feasible(rows, rhs)


def _phase1_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    m, n = len(rows), len(rows[0])
    tableau = []
    for i in range(m):
        row, b = rows[i], rhs[i]
        if b < 0:
            row, b = [-a for a in row], -b
        art = [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        tableau.append(row + art + [b])
    basis = list(range(n, n + m))
    ncols = n + m
    while True:
        in_basis = set(basis)
        entering = None
        for j in range(ncols):
            if j in in_basis:
                continue
            # reduced cost for min(sum of artificials): c_j - sum of tableau
            # rows whose basic variable is artificial
            reduced = (1 if j >= n else 0) - sum(
                tableau[i][j] for i in range(m) if basis[i] >= n
            )
            if reduced < 0:
                entering = j  # Bland: first improving index
                break
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for i in range(m):
            if tableau[i][entering] > 0:
                ratio = tableau[i][ncols] / tableau[i][entering]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio, leaving = ratio, i
        assert leaving is not None, "phase-1 objective is bounded below"
        pivot = tableau[leaving][entering]
        tableau[leaving] = [v / pivot for v in tableau[leaving]]
        for i in range(m):
            if i != leaving and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leaving])]
        basis[leaving] = entering
    objective = sum(tableau[i][ncols] for i in range(m) if basis[i] >= n)
    return objective == 0
