import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from permutope import (
    CapacityError,
    CyclePolytope,
    CycleVector,
    EmptyError,
    EmptyPolytopeError,
    Multigraph,
    NotFullError,
    NotInPolytopeError,
    RationalityError,
    SimpleCycle,
    build_overlap_graph,
    iter_simple_cycles,
)
from conftest import random_multigraph, seeded_multigraphs
from oracles import (
    affine_rank,
    ambient_affine_dimension,
    brute_force_simple_cycles,
    fraction_membership,
    in_convex_hull,
    skeleton_adjacent_by_face,
)

F = Fraction


def random_member(rng, poly, vertices):
    """A random rational convex combination of polytope vertices."""
    weights = [F(rng.randint(0, 6)) for _ in vertices]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = F(1)
    total = sum(weights)
    weights = [w / total for w in weights]
    point = [F(0)] * poly.graph.n_edges
    for w, cv in zip(weights, vertices):
        for eid, value in enumerate(cv.entries):
            point[eid] += w * value
    return point


class TestCycleVector:
    def test_loop_indicator(self):
        g = Multigraph(["v"], [(0, 0, "loop")])
        cv = CycleVector(SimpleCycle(g, (0,)))
        assert cv.entries == (F(1),)

    def test_two_cycle_in_overlap_graph(self):
        og = build_overlap_graph(3)
        cv = CycleVector(SimpleCycle(og.graph, (1, 2)))  # 132, 213
        assert cv.entries == (0, F(1, 2), F(1, 2), 0, 0, 0)

    def test_triangle(self, fig2_graph):
        cv = CycleVector(SimpleCycle(fig2_graph, (0, 1, 2)))
        assert cv.entries == (F(1, 3), F(1, 3), F(1, 3))

    def test_entries_sum_to_one_and_support(self, fig3_graph):
        poly = CyclePolytope(fig3_graph)
        for cv in poly.vertices():
            assert sum(cv.entries) == 1
            assert {eid for eid, x in enumerate(cv.entries) if x} == set(cv.cycle.edge_ids)


class TestVertices:
    def test_counts(self, fig3_graph):
        assert len(CyclePolytope(fig3_graph).vertices()) == 5
        assert len(CyclePolytope(build_overlap_graph(3).graph).vertices()) == 6
        loop = Multigraph(["v"], [(0, 0, "loop")])
        assert len(CyclePolytope(loop).vertices()) == 1

    def test_distinct_cycles_give_distinct_vectors(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_multigraph(rng)
            vertices = CyclePolytope(g).vertices()
            assert len({cv.entries for cv in vertices}) == len(vertices)

    def test_every_vertex_passes_membership(self, fig3_graph):
        poly = CyclePolytope(fig3_graph)
        for cv in poly.vertices():
            assert poly.membership(cv.entries).member

    def test_in_canonical_order(self):
        poly = CyclePolytope(build_overlap_graph(4).graph)
        ids = [cv.cycle.edge_ids for cv in poly.vertices()]
        assert ids == sorted(c.edge_ids for c in iter_simple_cycles(poly.graph))

    def test_cap_fires_before_cycles_are_held(self, monkeypatch):
        # 100,000 held k=5 cycles would take about 40 MB.
        monkeypatch.setenv("PERMUTOPE_CAP", "cycles=100000")
        poly = CyclePolytope(build_overlap_graph(5).graph)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="cycles cap 100000"):
                poly.vertices()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_cap_lowered_after_a_listing_still_refuses(self, fig3_graph, monkeypatch):
        poly = CyclePolytope(fig3_graph)
        assert len(poly.vertices()) == 5
        monkeypatch.setenv("PERMUTOPE_CAP", "cycles=4")
        with pytest.raises(CapacityError) as info:
            poly.vertices()
        assert str(info.value) == (
            "the graph has more simple cycles than the cycles cap 4 (PERMUTOPE_CAP key 'cycles')"
        )


class TestDimension:
    def test_examples(self, fig2_graph, fig3_graph):
        assert CyclePolytope(fig2_graph).dimension() == 0
        assert CyclePolytope(fig3_graph).dimension() == 3
        two_loops = Multigraph(["a", "b"], [(0, 0, "x"), (1, 1, "y")])
        assert CyclePolytope(two_loops).dimension() == 1

    def test_acyclic_graph(self):
        g = Multigraph(["a", "b"], [(0, 1, "x")])
        with pytest.raises(EmptyPolytopeError):
            CyclePolytope(g).dimension()

    def test_equation_rank_route_on_strongly_connected_graphs(self, fig2_graph, fig3_graph):
        for g in (fig2_graph, fig3_graph, build_overlap_graph(3).graph):
            poly = CyclePolytope(g)
            assert ambient_affine_dimension(poly) == poly.dimension()

    def test_disjoint_union_adds_dimensions_plus_one(self):
        # triangle (dim 0) next to the two-vertex pyramid graph (dim 3)
        merged = Multigraph(
            ["t1", "t2", "t3", "p1", "p2"],
            [
                (1, 2, "e1"),
                (2, 0, "e2"),
                (0, 1, "e3"),
                (3, 3, "loop"),
                (3, 4, "a1"),
                (3, 4, "a2"),
                (4, 3, "b1"),
                (4, 3, "b2"),
            ],
        )
        poly = CyclePolytope(merged)
        assert poly.dimension() == 0 + 3 + 1
        assert affine_rank([cv.entries for cv in poly.vertices()]) == 4

    def test_matches_affine_rank_of_vertices(self, fig2_graph, fig3_graph):
        rng = random.Random(10)
        graphs = [fig2_graph, fig3_graph, build_overlap_graph(3).graph]
        graphs += [random_multigraph(rng) for _ in range(40)]
        for g in graphs:
            poly = CyclePolytope(g)
            vertices = poly.vertices()
            if not vertices:
                with pytest.raises(EmptyPolytopeError):
                    poly.dimension()
                continue
            assert poly.dimension() == affine_rank([cv.entries for cv in vertices])


class TestMembership:
    def test_vertices_are_members(self, fig3_graph):
        poly = CyclePolytope(fig3_graph)
        for cv in poly.vertices():
            result = poly.membership(cv.entries)
            assert result.member and result.decomposition is not None

    def test_single_nonloop_edge_indicator_fails_conservation(self, fig2_graph):
        poly = CyclePolytope(fig2_graph)
        result = poly.membership([1, 0, 0])
        assert not result.member
        assert "conserved" in result.violation

    def test_average_of_two_square_base_vertices(self, fig3_graph):
        poly = CyclePolytope(fig3_graph)
        # average of cycles (a1, b1) and (a2, b2)
        point = [F(0), F(1, 4), F(1, 4), F(1, 4), F(1, 4)]
        assert poly.membership(point).member

    def test_negative_and_sum_violations(self, fig3_graph):
        poly = CyclePolytope(fig3_graph)
        assert "negative" in poly.membership([-1, 1, 0, 0, 1]).violation
        assert "sum" in poly.membership([F(1, 2), 0, 0, 0, 0]).violation

    def test_wrong_length(self, fig3_graph):
        with pytest.raises(IndexError):
            CyclePolytope(fig3_graph).membership([1, 0])

    def test_floats_rejected(self, fig3_graph):
        with pytest.raises(RationalityError):
            CyclePolytope(fig3_graph).membership([0.2, 0.2, 0.2, 0.2, 0.2])

    def test_equations_agree_with_convex_hull_oracle(self):
        rng = random.Random(11)
        graphs = [random_multigraph(rng) for _ in range(25)]
        checked = 0
        for g in graphs:
            poly = CyclePolytope(g)
            vertices = poly.vertices()
            points = [cv.entries for cv in vertices]
            for _ in range(12):
                n = g.n_edges
                if n == 0:
                    break
                if vertices and rng.random() < 0.5:
                    x = random_member(rng, poly, vertices)
                    if rng.random() < 0.5:
                        # perturb while keeping the sum; often breaks conservation
                        i, j = rng.randrange(n), rng.randrange(n)
                        delta = F(1, rng.randint(2, 9))
                        x[i] += delta
                        x[j] -= delta
                else:
                    x = [F(rng.randint(0, 3)) for _ in range(n)]
                    total = sum(x)
                    if total == 0:
                        continue
                    x = [v / total for v in x]
                if any(v < 0 for v in x):
                    continue
                checked += 1
                assert poly.membership(x).member == in_convex_hull(points, x)
        assert checked > 150


def random_cycle(rng, g):
    """A simple cycle closed by a random walk from a random vertex (every
    vertex needs an out-edge): its edge ids in walk order."""
    v = rng.randrange(g.n_vertices)
    seen, edges = {v: 0}, []
    while True:
        eid = rng.choice(g.out_edges(v))
        edges.append(eid)
        v = g.ar(eid)
        if v in seen:
            return edges[seen[v] :]
        seen[v] = len(edges)


def planted_point(rng, g, n_cycles):
    """A convex combination of random simple cycles with weights 1..4."""
    return point_on_cycles(rng, g, [random_cycle(rng, g) for _ in range(n_cycles)])


def point_on_cycles(rng, g, cycles):
    """A convex combination of the given cycles (edge ids) with weights 1..4."""
    weights = [rng.randint(1, 4) for _ in cycles]
    point = [F(0)] * g.n_edges
    for w, cycle in zip(weights, cycles):
        for eid in cycle:
            point[eid] += F(w, sum(weights) * len(cycle))
    return point


def broken_point(rng, g, point, how):
    """A non-member made from a member: a negative entry, a wrong sum, or an
    unbalanced vertex (mass moved between a loop and a non-loop edge)."""
    point = list(point)
    if how == "negative":
        e, f = rng.sample(range(g.n_edges), 2)
        point[f] += point[e] + F(1, 97)
        point[e] = F(-1, 97)
    elif how == "sum":
        point = [v * F(8, 7) for v in point]
    else:
        e = rng.choice([e for e in range(g.n_edges) if point[e] > 0])
        is_loop = [g.st(f) == g.ar(f) for f in range(g.n_edges)]
        loops = [f for f in range(g.n_edges) if is_loop[f]]
        f = rng.choice([f for f in range(g.n_edges) if not is_loop[f]] if is_loop[e] else loops)
        delta = point[e] / 2
        point[e] -= delta
        point[f] += delta
    return point


def assert_matches_fraction_oracle(poly, x):
    violation, expected = fraction_membership(poly.graph, poly.full_edge_ids, x)
    result = poly.membership(x)
    assert result.member == (violation is None)
    assert result.violation == violation
    if violation is None:
        got = [(w, c.edge_ids) for w, c in result.decomposition]
        assert got == expected
        assert all(type(w) is Fraction for w, _ in got)
        decomposition = poly.convex_decomposition(x)
        assert [(w, c.edge_ids) for w, c in decomposition] == expected
    else:
        with pytest.raises(NotInPolytopeError) as info:
            poly.convex_decomposition(x)
        assert str(info.value) == violation


class TestFractionOracle:
    """Membership on integer numerators agrees exactly with the Fraction route."""

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_planted_members_and_non_members(self, k):
        rng = random.Random(500 + k)
        poly = CyclePolytope(build_overlap_graph(k).graph)
        g = poly.graph
        for n_cycles in range(1, 31):
            point = planted_point(rng, g, n_cycles)
            assert_matches_fraction_oracle(poly, point)
            assert poly.membership(point).member
            how = ("negative", "sum", "flow")[n_cycles % 3]
            broken = broken_point(rng, g, point, how)
            assert_matches_fraction_oracle(poly, broken)
            expected = {"negative": "negative", "sum": "sum", "flow": "conserved"}[how]
            assert expected in poly.membership(broken).violation

    def test_random_multigraphs(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_multigraph(rng)
            poly = CyclePolytope(g)
            for _ in range(8):
                x = [F(rng.randint(-1, 3), rng.randint(1, 4)) for _ in range(g.n_edges)]
                assert_matches_fraction_oracle(poly, x)
                total = sum(x)
                if total > 0 and all(v >= 0 for v in x):
                    assert_matches_fraction_oracle(poly, [v / total for v in x])

    def test_k7_planted_and_broken(self):
        rng = random.Random(507)
        poly = CyclePolytope(build_overlap_graph(7).graph)
        g = poly.graph
        points = [planted_point(rng, g, n_cycles) for n_cycles in (1, 6, 17, 40)]
        for point in points:
            assert_matches_fraction_oracle(poly, point)
        for how, expected in (("negative", "negative"), ("sum", "sum"), ("flow", "conserved")):
            broken = broken_point(rng, g, points[-1], how)
            assert_matches_fraction_oracle(poly, broken)
            assert expected in poly.membership(broken).violation

    @pytest.mark.parametrize("back_at", [0, 4, 10])
    def test_path_into_loops_and_back(self, back_at):
        # Vertex 50 ends a 50-edge path and carries 10 loops and the back edge
        # to vertex 0, which sits at position back_at among its out-edges, so
        # the walk peels back_at loops from the end of the path first.
        rng = random.Random(back_at)
        out_50 = [(50, 50, f"l{j}") for j in range(10)]
        out_50.insert(back_at, (50, 0, "back"))
        path = [(i, i + 1, f"p{i}") for i in range(50)]
        g = Multigraph([f"v{i}" for i in range(51)], path + out_50)
        x = [F(1)] * 50 + [F(1) if head == 0 else F(rng.randint(1, 9)) for _, head, _ in out_50]
        total = sum(x)
        x = [v / total for v in x]
        poly = CyclePolytope(g)
        assert_matches_fraction_oracle(poly, x)
        assert len(poly.convex_decomposition(x)) == 11

    def test_resumed_prefix_through_parallel_edges(self):
        # Parallel edges 0 -> 1 have the two smallest ids, and vertex 1 carries
        # two loops: a walk from edge 0 keeps its prefix while it peels loops.
        rng = random.Random(29)
        resumed = 0
        for _ in range(60):
            base = random_multigraph(rng, max_vertices=5, max_edges=10)
            n = max(base.n_vertices, 2)
            edges = [(0, 1, "p1"), (0, 1, "p2"), (1, 1, "l1"), (1, 1, "l2")]
            edges += list(base.edges) + [(1, 0, "back"), (1, 0, "back2")]
            edges += [(v, 0, f"home{v}") for v in range(2, n)]
            g = Multigraph([f"v{i}" for i in range(n)], edges)
            poly = CyclePolytope(g)
            for _ in range(5):
                x = planted_point(rng, g, rng.randint(2, 8))
                assert_matches_fraction_oracle(poly, x)
                first = poly.convex_decomposition(x)[0][1].edge_ids
                resumed += x[0] > 0 and 0 not in first
        assert resumed > 20

    def test_edge_on_no_cycle(self):
        # y and w lie on no cycle; the loops x and z do
        g = Multigraph(["a", "b", "c"], [(0, 0, "x"), (0, 1, "y"), (1, 1, "z"), (1, 2, "w")])
        poly = CyclePolytope(g)
        assert poly.full_edge_ids == {0, 2}
        for x in (
            [F(1, 2), 0, F(1, 2), 0],
            [F(1, 3), 0, F(2, 3), 0],
            [F(1, 2), F(1, 4), F(1, 4), 0],
            [F(1, 2), 0, F(1, 4), F(1, 4)],
            [0, 0, 0, F(1)],
        ):
            assert_matches_fraction_oracle(poly, [F(v) for v in x])

    def test_zero_edge_graph(self):
        for g in (Multigraph(["a"], []), Multigraph([], [])):
            poly = CyclePolytope(g)
            assert_matches_fraction_oracle(poly, [])
            assert poly.membership([]).violation == "entries sum to 0, not 1"


def revisits_past_spent_edge(g, x, decomposition) -> int:
    """How many times a peeled cycle leaves a vertex whose smallest-id support
    out-edge an earlier cycle has already spent."""
    remaining = list(x)
    smallest = {}
    for eid, value in enumerate(x):
        if value:
            smallest.setdefault(g.st(eid), eid)
    revisits = 0
    for weight, cycle in decomposition:
        revisits += sum(not remaining[smallest[g.st(eid)]] for eid in cycle.edge_ids)
        for eid in cycle.edge_ids:
            remaining[eid] -= weight / len(cycle)
    return revisits


class TestFlatPeel:
    """The peel keeps its walk in flat per-vertex lists and resumes each
    vertex's out-edge scan where it stopped; the decomposition stays the
    Fraction route's."""

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_planted_points_revisit_vertices_past_a_spent_edge(self, k):
        rng = random.Random(900 + k)
        poly = CyclePolytope(build_overlap_graph(k).graph)
        revisits = 0
        for n_cycles in (20, 24, 27, 30):
            x = planted_point(rng, poly.graph, n_cycles)
            assert_matches_fraction_oracle(poly, x)
            revisits += revisits_past_spent_edge(poly.graph, x, poly.convex_decomposition(x))
        assert revisits > 0

    def test_seeded_multigraphs(self):
        # Loops, parallel edges and (in some graphs) two loops at one vertex.
        rng = random.Random(43)
        points = revisits = 0
        for g in seeded_multigraphs():
            cycles = [c.edge_ids for c in iter_simple_cycles(g)]
            if not cycles:
                continue
            poly = CyclePolytope(g)
            for _ in range(4):
                chosen = [rng.choice(cycles) for _ in range(rng.randint(1, 12))]
                x = point_on_cycles(rng, g, chosen)
                assert_matches_fraction_oracle(poly, x)
                revisits += revisits_past_spent_edge(g, x, poly.convex_decomposition(x))
                points += 1
        assert points > 200 and revisits > 0

    @pytest.mark.parametrize(
        "n, support",
        [
            ([0, 1, 0, 0, 0], [1]),  # nothing leaves v2
            ([0, 1, 1, 1, 0], [1, 2, 3]),  # v2's one out-edge is spent by the first cycle
        ],
    )
    def test_unbalanced_point_trips_the_guard(self, fig3_graph, n, support):
        poly = CyclePolytope(fig3_graph)
        with pytest.raises(AssertionError, match="outgoing support edge"):
            poly._greedy_decomposition(n, sum(n), support)


class TestConvexDecomposition:
    def test_long_path_into_many_loops_is_linear(self):
        # A path of L edges ends at a vertex with J loops and the back edge.
        # Each loop is peeled at the end of the path; walking the path again
        # after every peel would cost L * J steps.
        length, n_loops = 20_000, 2_000
        edges = [(i, i + 1, f"p{i}") for i in range(length)]
        edges += [(length, length, f"l{j}") for j in range(n_loops)]
        edges.append((length, 0, "back"))
        g = Multigraph([f"v{i}" for i in range(length + 1)], edges)
        poly = CyclePolytope(g)
        on_path = F(1, 2 * (length + 1))
        x = [on_path] * length + [F(1, 2 * n_loops)] * n_loops + [on_path]
        start = time.perf_counter()
        result = poly.membership(x)
        elapsed = time.perf_counter() - start
        assert len(result.decomposition) == n_loops + 1
        assert elapsed < 2.0, f"{elapsed:.2f} s"

    def test_vertex_decomposes_to_itself(self, fig3_graph):
        poly = CyclePolytope(fig3_graph)
        cv = poly.vertices()[0]
        decomposition = poly.convex_decomposition(cv.entries)
        assert decomposition == ((F(1), cv.cycle),)

    def test_uniform_point_on_overlap_graph(self):
        poly = CyclePolytope(build_overlap_graph(3).graph)
        decomposition = poly.convex_decomposition([F(1, 6)] * 6)
        as_pairs = [(w, c.edge_ids) for w, c in decomposition]
        assert as_pairs == [
            (F(1, 6), (0,)),
            (F(1, 3), (1, 2)),
            (F(1, 3), (3, 4)),
            (F(1, 6), (5,)),
        ]

    def test_midpoint_of_two_disjoint_loops(self):
        g = Multigraph(["a", "b"], [(0, 0, "x"), (1, 1, "y")])
        poly = CyclePolytope(g)
        decomposition = poly.convex_decomposition([F(1, 2), F(1, 2)])
        assert [(w, c.edge_ids) for w, c in decomposition] == [
            (F(1, 2), (0,)),
            (F(1, 2), (1,)),
        ]

    def test_non_member_rejected(self, fig2_graph):
        with pytest.raises(NotInPolytopeError):
            CyclePolytope(fig2_graph).convex_decomposition([1, 0, 0])

    def test_random_members_resum_exactly(self, fig2_graph, fig3_graph):
        rng = random.Random(12)
        graphs = [fig2_graph, fig3_graph, build_overlap_graph(3).graph]
        while len(graphs) < 6:
            g = random_multigraph(rng, max_edges=10)
            if CyclePolytope(g).vertices():
                graphs.append(g)
        for g in graphs:
            poly = CyclePolytope(g)
            vertices = poly.vertices()
            for _ in range(1000):
                x = random_member(rng, poly, vertices)
                decomposition = poly.convex_decomposition(x)
                assert len(decomposition) <= g.n_edges
                assert sum(w for w, _ in decomposition) == 1
                resum = [F(0)] * g.n_edges
                for w, cycle in decomposition:
                    share = w / len(cycle)
                    for eid in cycle.edge_ids:
                        resum[eid] += share
                assert resum == x


class TestFaces:
    def test_single_loop_face_is_vertex(self):
        og = build_overlap_graph(3)
        poly = CyclePolytope(og.graph)
        face = poly.face([0])
        assert face.dimension() == 0

    def test_pyramid_green_facet(self, fig3_graph):
        # union of the loop and two base cycles sharing an ascending edge
        poly = CyclePolytope(fig3_graph)
        face = poly.face([0, 1, 3, 4])
        assert face.dimension() == 2

    def test_not_full_rejected(self, fig2_graph):
        poly = CyclePolytope(fig2_graph)
        with pytest.raises(NotFullError):
            poly.face([0])
        with pytest.raises(EmptyError):
            poly.face([])

    @pytest.mark.parametrize("ids, bad", [([99], 99), ([-1], -1), ([0, 6], 6)])
    def test_unknown_edge_id_rejected(self, ids, bad):
        poly = CyclePolytope(build_overlap_graph(3).graph)
        with pytest.raises(IndexError) as info:
            poly.face(ids)
        assert str(info.value) == f"no edge with id {bad}"

    @pytest.mark.parametrize("bad", [True, False, 0.5, "0"])
    def test_non_integer_edge_id_rejected(self, bad):
        poly = CyclePolytope(build_overlap_graph(3).graph)
        for ids in ([bad], [0, bad]):
            with pytest.raises(ValueError) as info:
                poly.face(ids)
            assert str(info.value) == f"edge ids must be integers, got {bad!r}"

    def test_every_edge_subset_against_brute_force_cycles(self):
        # a subset is full when its own simple cycles cover it; the face it
        # carries is the convex hull of those cycles' vectors
        rng = random.Random(14)
        graphs = [random_multigraph(rng, 5, 7) for _ in range(30)]
        graphs.append(build_overlap_graph(3).graph)
        for g in graphs:
            poly = CyclePolytope(g)
            cycles = brute_force_simple_cycles(g)
            for r in range(1, g.n_edges + 1):
                for subset in itertools.combinations(range(g.n_edges), r):
                    inside = [c for c in cycles if set(c) <= set(subset)]
                    covered = {eid for c in inside for eid in c}
                    if covered != set(subset):
                        dead = sorted(set(subset) - covered)
                        with pytest.raises(NotFullError) as info:
                            poly.face(subset)
                        assert str(info.value) == f"edges {dead} lie on no cycle of the subgraph"
                        continue
                    points = [
                        [F(1, len(c)) if eid in c else F(0) for eid in range(g.n_edges)]
                        for c in inside
                    ]
                    assert poly.face(subset).dimension() == affine_rank(points)

    def test_overlap_graph_face_poset(self):
        poly = CyclePolytope(build_overlap_graph(3).graph)
        poset = poly.face_poset()
        by_dim = {dim: len(handles) for dim, handles in poset.by_dimension().items()}
        assert by_dim == {0: 6, 1: 13, 2: 13, 3: 6, 4: 1}
        assert len(poset.facets()) == 6
        assert len(poset.by_dimension()[0]) == sum(
            1 for _ in iter_simple_cycles(poly.graph)
        )

    def test_poset_inclusion_maps_to_face_inclusion(self, fig3_graph):
        poly = CyclePolytope(fig3_graph)
        poset = poly.face_poset()
        cycles = list(iter_simple_cycles(fig3_graph))
        for a in poset.faces:
            vertices_a = {c.edge_ids for c in cycles if set(c.edge_ids) <= set(a.edge_ids)}
            for b in poset.faces:
                if set(a.edge_ids) <= set(b.edge_ids):
                    vertices_b = {
                        c.edge_ids for c in cycles if set(c.edge_ids) <= set(b.edge_ids)
                    }
                    assert vertices_a <= vertices_b

    def test_face_poset_guard(self, fig3_graph, monkeypatch):
        monkeypatch.setenv("PERMUTOPE_CAP", "faces=3")
        with pytest.raises(CapacityError):
            CyclePolytope(fig3_graph).face_poset()


class TestSkeleton:
    def test_disjoint_loops_adjacent(self):
        poly = CyclePolytope(build_overlap_graph(3).graph)
        loops = [SimpleCycle(poly.graph, (0,)), SimpleCycle(poly.graph, (5,))]
        assert poly.skeleton_adjacent(loops[0], loops[1])

    def test_pyramid_square_base(self, fig3_graph):
        poly = CyclePolytope(fig3_graph)
        c = {
            "a1b1": SimpleCycle(fig3_graph, (1, 3)),
            "a1b2": SimpleCycle(fig3_graph, (1, 4)),
            "a2b1": SimpleCycle(fig3_graph, (2, 3)),
            "a2b2": SimpleCycle(fig3_graph, (2, 4)),
            "apex": SimpleCycle(fig3_graph, (0,)),
        }
        # diagonals of the square are not edges of the polytope
        assert not poly.skeleton_adjacent(c["a1b1"], c["a2b2"])
        assert not poly.skeleton_adjacent(c["a1b2"], c["a2b1"])
        # sides and all apex connections are edges
        assert poly.skeleton_adjacent(c["a1b1"], c["a1b2"])
        assert poly.skeleton_adjacent(c["a1b1"], c["a2b1"])
        for name in ("a1b1", "a1b2", "a2b1", "a2b2"):
            assert poly.skeleton_adjacent(c["apex"], c[name])

    def test_cycle_not_adjacent_to_itself(self, fig3_graph):
        poly = CyclePolytope(fig3_graph)
        c = SimpleCycle(fig3_graph, (1, 3))
        assert not poly.skeleton_adjacent(c, c)

    @pytest.mark.parametrize("k, f1", [(3, 13), (4, 2667)])
    def test_closed_form_on_every_pair_of_overlap_graph_cycles(self, k, f1):
        # f1 is the number of edges of P_k, the second entry of its f-vector.
        poly = CyclePolytope(build_overlap_graph(k).graph)
        cycles = list(poly.simple_cycles())
        adjacent = 0
        for c1, c2 in itertools.product(cycles, repeat=2):
            fast = poly.skeleton_adjacent(c1, c2)
            assert fast == skeleton_adjacent_by_face(poly, c1, c2)
            adjacent += fast
        assert adjacent == 2 * f1

    def test_closed_form_on_seeded_multigraphs(self):
        pairs = adjacent = two_loops = 0
        for g in seeded_multigraphs():
            poly = CyclePolytope(g)
            cycles = list(iter_simple_cycles(g))
            loops = [g.st(eid) for eid in range(g.n_edges) if g.st(eid) == g.ar(eid)]
            two_loops += len(loops) > len(set(loops))
            for c1, c2 in itertools.product(cycles, repeat=2):
                fast = poly.skeleton_adjacent(c1, c2)
                assert fast == skeleton_adjacent_by_face(poly, c1, c2)
                pairs += 1
                adjacent += fast
        assert two_loops > 0 and 0 < adjacent < pairs

    def test_cycles_of_another_graph_are_refused(self, fig3_graph):
        poly = CyclePolytope(fig3_graph)
        other = Multigraph(["a"], [(0, 0, "x")])
        with pytest.raises(IndexError, match="different graph"):
            poly.skeleton_adjacent(SimpleCycle(fig3_graph, (0,)), SimpleCycle(other, (0,)))


class TestEquationSystem:
    def test_rows_built_on_first_use(self):
        # the 721 x 5040 rows of k=7 take about 30 MB; construction needs none
        g = build_overlap_graph(7).graph
        tracemalloc.start()
        try:
            poly = CyclePolytope(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        rows, rhs = poly.equation_system()
        assert len(rows) == len(rhs) == g.n_vertices + 1
        assert all(len(row) == g.n_edges for row in rows)
        assert poly.equation_system()[0] is rows

    def test_rows_are_the_flow_balance(self, fig3_graph):
        rows, rhs = CyclePolytope(fig3_graph).equation_system()
        # loop, a1, a2 (v1 -> v2), b1, b2 (v2 -> v1); the loop cancels
        assert rows == ((0, -1, -1, 1, 1), (0, 1, 1, -1, -1), (1, 1, 1, 1, 1))
        assert rhs == (0, 0, 1)
