import itertools
import random
import sys
import threading
import time

import pytest

from permutope import (
    CapacityError,
    CyclePolytope,
    Multigraph,
    Permutation,
    SimpleCycle,
    Walk,
    build_overlap_graph,
    decompose_walk,
    eulerian_circuit,
    iter_simple_cycles,
)
from conftest import (
    random_multigraph,
    random_multigraph_with_extras,
    random_walk,
    seeded_multigraphs,
)
from oracles import (
    brute_force_simple_cycles,
    count_simple_cycles_dp,
    incidence_matrix,
    simple_cycles_by_sets,
    walk_split_by_dict,
)
from permutope import graphs as graphs_module
from permutope import polytope as polytope_module


class TestConstruction:
    def test_duplicate_vertex_names(self):
        with pytest.raises(ValueError):
            Multigraph(["a", "a"], [])

    def test_edge_bounds(self):
        with pytest.raises(IndexError):
            Multigraph(["a"], [(0, 1, "x")])

    @pytest.mark.parametrize("st, ar", [(0.5, 1.9), (0, 1.0), (True, 1), (0, "1"), (None, 0)])
    def test_non_integer_edge_ends_rejected(self, st, ar):
        with pytest.raises(ValueError, match="edge ends must be integers"):
            Multigraph(["a", "b"], [(st, ar, "e")])

    @pytest.mark.parametrize("st, ar", [("x" * 5000, 0), (0, ["y"] * 5000)])
    def test_long_non_integer_edge_end_is_quoted_in_part(self, st, ar):
        with pytest.raises(ValueError, match="edge ends must be integers") as refusal:
            Multigraph(["1"], [(st, ar, "l")])
        assert len(str(refusal.value)) < 200

    def test_degrees_and_continuations(self, fig2_graph):
        g = fig2_graph
        assert g.out_degree(0) == g.in_degree(0) == 1
        # e1 = v2 -> v3; the edges that can follow it start at v3.
        assert g.out_edges(g.ar(0)) == (1,)

    def test_loop_continues_itself(self):
        g = Multigraph(["v"], [(0, 0, "loop")])
        assert g.out_edges(g.ar(0)) == (0,)

    def test_sink_vertex_has_no_continuations(self):
        g = Multigraph(["a", "b"], [(0, 1, "x")])
        assert g.out_edges(g.ar(0)) == ()


class TestIncidenceMatrix:
    def test_triangle_matches_printed_matrix(self, fig2_graph):
        assert incidence_matrix(fig2_graph) == [
            [0, 1, -1],
            [-1, 0, 1],
            [1, -1, 0],
        ]

    def test_single_loop(self):
        g = Multigraph(["v"], [(0, 0, "loop")])
        assert incidence_matrix(g) == [[1]]

    def test_parallel_edges_give_identical_columns(self):
        g = Multigraph(["v", "u"], [(0, 1, "a"), (0, 1, "b")])
        assert incidence_matrix(g) == [[-1, -1], [1, 1]]

    def test_column_sums(self):
        rng = random.Random(1)
        for _ in range(25):
            g = random_multigraph(rng)
            mat = incidence_matrix(g)
            for eid in range(g.n_edges):
                column_sum = sum(mat[v][eid] for v in range(g.n_vertices))
                assert column_sum == (1 if g.st(eid) == g.ar(eid) else 0)


class TestConnectivity:
    def test_triangle_strongly_connected(self, fig2_graph):
        assert fig2_graph.is_strongly_connected()
        assert fig2_graph.strongly_connected_components() == [[0, 1, 2]]

    def test_one_edge_not_strongly_connected(self):
        g = Multigraph(["a", "b"], [(0, 1, "x")])
        assert not g.is_strongly_connected()

    def test_overlap_graph_strongly_connected(self):
        assert build_overlap_graph(3).graph.is_strongly_connected()

    def test_two_disjoint_loops(self):
        g = Multigraph(["a", "b"], [(0, 0, "x"), (1, 1, "y")])
        assert g.strongly_connected_components() == [[0], [1]]

    def test_triangle_plus_isolated_vertex(self, fig2_graph):
        g = Multigraph(["v1", "v2", "v3", "v4"], list(fig2_graph.edges))
        assert g.strongly_connected_components() == [[0, 1, 2], [3]]


class TestLargestFullSubgraph:
    def test_acyclic_keeps_vertices_only(self):
        g = Multigraph(["a", "b", "c"], [(0, 1, "x"), (1, 2, "y")])
        assert CyclePolytope(g).full_edge_ids == frozenset()

    def test_triangle_is_already_full(self, fig2_graph):
        assert CyclePolytope(fig2_graph).full_edge_ids == {0, 1, 2}

    def test_pendant_edge_removed_vertex_kept(self, fig2_graph):
        g = Multigraph(
            ["v1", "v2", "v3", "v4"], list(fig2_graph.edges) + [(0, 3, "pendant")]
        )
        poly = CyclePolytope(g)
        assert poly.full_edge_ids == {0, 1, 2}
        # v4 stays as a component of its own: 3 edges - 4 vertices + 2 - 1
        assert poly.dimension() == 0

    def test_equals_union_of_simple_cycles(self):
        rng = random.Random(2)
        for _ in range(30):
            g = random_multigraph(rng)
            on_cycles = set()
            for cycle in brute_force_simple_cycles(g):
                on_cycles.update(cycle)
            assert CyclePolytope(g).full_edge_ids == on_cycles


class TestSimpleCycleType:
    def test_canonical_rotation(self, fig2_graph):
        c = SimpleCycle(fig2_graph, (1, 2, 0))
        assert c.edge_ids == (0, 1, 2)

    def test_rejects_vertex_repeats(self, fig3_graph):
        with pytest.raises(ValueError):
            SimpleCycle(fig3_graph, (0, 0))
        with pytest.raises(ValueError):
            SimpleCycle(fig3_graph, (1, 3, 2, 4))

    def test_rejects_open_walks(self, fig3_graph):
        with pytest.raises(ValueError):
            SimpleCycle(fig3_graph, (1,))


class TestCycleEnumeration:
    def test_triangle(self, fig2_graph):
        cycles = list(iter_simple_cycles(fig2_graph))
        assert len(cycles) == 1 and len(cycles[0]) == 3

    def test_pyramid_graph_has_five(self, fig3_graph):
        assert sum(1 for _ in iter_simple_cycles(fig3_graph)) == 5

    def test_two_loops_on_one_vertex(self):
        g = Multigraph(["v"], [(0, 0, "x"), (0, 0, "y")])
        cycles = list(iter_simple_cycles(g))
        assert sorted(c.edge_ids for c in cycles) == [(0,), (1,)]

    def test_callback_streaming(self, fig3_graph, monkeypatch):
        # Cycles stream out one at a time: the cap fires only when the
        # cycle past it is asked for.
        monkeypatch.setenv("PERMUTOPE_CAP", "cycles=1")
        stream = iter_simple_cycles(fig3_graph)
        seen = [next(stream)]
        with pytest.raises(CapacityError):
            next(stream)
        monkeypatch.delenv("PERMUTOPE_CAP")
        seen += iter_simple_cycles(fig3_graph)
        assert len(seen) == 6 and seen[0] == seen[1]

    def test_cap(self, fig3_graph, monkeypatch):
        monkeypatch.setenv("PERMUTOPE_CAP", "cycles=2")
        with pytest.raises(CapacityError):
            list(iter_simple_cycles(fig3_graph))

    def test_against_brute_force(self, fig2_graph, fig3_graph):
        # Every cycle once, in canonical rotation and lexicographic order.
        rng = random.Random(3)
        graphs = [fig2_graph, fig3_graph]
        graphs += [build_overlap_graph(k).graph for k in (2, 3)]
        graphs += [random_multigraph(rng) for _ in range(40)]
        # denser graphs exercise the blocking bookkeeping harder
        graphs += [random_multigraph(rng, max_vertices=4, max_edges=11) for _ in range(10)]
        graphs += [random_multigraph(rng, max_vertices=7, max_edges=13) for _ in range(10)]
        for g in graphs:
            enumerated = [c.edge_ids for c in iter_simple_cycles(g)]
            assert enumerated == sorted(brute_force_simple_cycles(g))

    @pytest.mark.parametrize("k, prefix", [(4, None), (5, 20_000)])
    def test_lexicographic_order_on_overlap_graphs(self, k, prefix):
        cycles = itertools.islice(iter_simple_cycles(build_overlap_graph(k).graph), prefix)
        ids = [c.edge_ids for c in cycles]
        assert len(ids) == (prefix or 160)
        assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_deterministic_order(self, fig3_graph):
        first = [c.edge_ids for c in iter_simple_cycles(fig3_graph)]
        second = [c.edge_ids for c in iter_simple_cycles(fig3_graph)]
        assert first == second

    def test_sparse_graph_costs_what_its_searches_touch(self):
        # A 50,000-vertex path with edges pointing to lower ids, plus a loop on
        # every 100th vertex: every search ends at once, so the enumeration
        # must not pay O(|V|) per start edge.
        n = 50_000
        edges = [(n - 2 - j, n - 1 - j, f"p{j}") for j in range(n - 1)]
        edges += [(v, v, f"l{v}") for v in range(0, n, 100)]
        graph = Multigraph([f"v{i}" for i in range(n)], edges)
        start = time.perf_counter()
        count = sum(1 for _ in iter_simple_cycles(graph))
        elapsed = time.perf_counter() - start
        assert count == 500
        assert elapsed < 3.0, f"{elapsed:.2f} s for 500 loops"

    def test_blocking_keeps_a_dead_end_chain_linear(self):
        # From s, a chain of 22 diamonds a_i -> {b_i, c_i} -> a_(i+1) ends in
        # a dead end: without Johnson's blocking each search would try all
        # 2^22 paths through it.  The only cycle is the loop at s.
        m = 22
        edges = [(0, 1, "s")]
        for i in range(m):
            a, b, c, nxt = 3 * i + 1, 3 * i + 2, 3 * i + 3, 3 * i + 4
            edges += [(a, b, f"ab{i}"), (a, c, f"ac{i}"), (b, nxt, f"b{i}"), (c, nxt, f"c{i}")]
        edges.append((0, 0, "loop"))
        graph = Multigraph([f"v{i}" for i in range(3 * m + 2)], edges)
        start = time.perf_counter()
        cycles = [c.edge_ids for c in iter_simple_cycles(graph)]
        elapsed = time.perf_counter() - start
        assert cycles == [(len(edges) - 1,)]
        assert elapsed < 1.0, f"{elapsed:.2f} s"


def assert_same_split(walk) -> int:
    """The split equals the slow route's, cycle by cycle; the cycle count."""
    split = decompose_walk(walk)
    cycles, tail = walk_split_by_dict(walk.graph, walk.edge_ids)
    assert [c.edge_ids for c in split.cycles] == cycles
    assert (split.tail.edge_ids if split.tail is not None else None) == tail
    return len(cycles)


class TestAgainstSlowRoutes:
    """The kernels give what the set-and-dict routes in ``oracles`` give: the
    same cycles in the same order and rotation, and the same splits."""

    @pytest.mark.parametrize(
        "k, prefix", [(2, None), (3, None), (4, None), (5, 20_000), (6, 2_000)]
    )
    def test_cycles_on_overlap_graphs(self, k, prefix):
        graph = build_overlap_graph(k).graph
        slow = list(itertools.islice(simple_cycles_by_sets(graph), prefix))
        assert len(slow) == (prefix or count_simple_cycles_dp(graph))
        polytope = CyclePolytope(graph)
        # The enumerator, a fresh polytope, then the same polytope from its kept prefix.
        streams = (iter_simple_cycles(graph), polytope.simple_cycles(), polytope.simple_cycles())
        for stream in streams:
            assert [c.edge_ids for c in itertools.islice(stream, prefix)] == slow

    def test_cycles_on_random_multigraphs(self):
        total = 0
        for graph in seeded_multigraphs():
            fast = [c.edge_ids for c in iter_simple_cycles(graph)]
            assert fast == list(simple_cycles_by_sets(graph))
            total += len(fast)
        assert total > 500

    def test_count_on_random_multigraphs_and_small_overlap_graphs(self):
        # The count that vertices() makes runs the search alone.
        graphs = seeded_multigraphs() + [build_overlap_graph(k).graph for k in (2, 3, 4)]
        for graph in graphs:
            count = sum(1 for _ in graphs_module._cycle_paths(graph))
            assert count == len(list(iter_simple_cycles(graph))) == count_simple_cycles_dp(graph)
            assert len(CyclePolytope(graph).vertices()) == count

    def test_count_builds_no_cycle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a SimpleCycle was built")

        monkeypatch.setattr(SimpleCycle, "_trusted", refuse)
        polytope = CyclePolytope(build_overlap_graph(5).graph)
        with pytest.raises(CapacityError, match="more simple cycles than the cycles cap 1000000 "):
            polytope.vertices()

    @pytest.mark.parametrize("cap", [0, 1, 37, 159, 160])
    def test_cap_fires_on_the_cycle_past_it(self, cap, monkeypatch):
        # k = 4 has 160 cycles, so a cap of 160 lets them all out.
        graph = build_overlap_graph(4).graph
        slow = list(itertools.islice(simple_cycles_by_sets(graph), cap))
        refusals = set()
        routes = ("enumerator", "count", "fresh", "kept_past_cap", "source_alive", "source_cut")
        for route in routes:
            monkeypatch.delenv("PERMUTOPE_CAP", raising=False)
            polytope = CyclePolytope(graph)
            if route == "kept_past_cap":
                assert len(list(polytope.simple_cycles())) == 160
            elif route != "fresh":
                # The shared enumerator starts under a lower cap than the call below.
                monkeypatch.setenv("PERMUTOPE_CAP", "cycles=1")
                early = polytope.simple_cycles()
                next(early)
                if route == "source_cut":
                    with pytest.raises(CapacityError, match="cycles cap 1 "):
                        next(early)
            monkeypatch.setenv("PERMUTOPE_CAP", f"cycles={cap}")
            if route == "enumerator":
                stream = (c.edge_ids for c in iter_simple_cycles(graph))
            elif route == "count":
                # The search vertices() counts with, whose one list changes after each yield.
                stream = map(tuple, graphs_module._cycle_paths(graph))
            else:
                stream = (c.edge_ids for c in polytope.simple_cycles())
            first = [next(stream) for _ in range(cap)]
            assert first == slow, route
            if cap < 160:
                with pytest.raises(CapacityError, match=f"cycles cap {cap} ") as refusal:
                    next(stream)
                refusals.add(str(refusal.value))
                if route == "count":
                    with pytest.raises(CapacityError) as refusal:
                        polytope.vertices()
                    refusals.add(str(refusal.value))
            else:
                assert next(stream, None) is None
                if route == "count":
                    assert len(polytope.vertices()) == 160
        assert len(refusals) == (cap < 160)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_walk_splits_on_overlap_graphs(self, k):
        rng = random.Random(1300 + k)
        og = build_overlap_graph(k)
        cycles = 0
        for n in (k, k + 1, k + 5, 300, 3_000, 12_000):
            word = list(range(1, n + 1))
            rng.shuffle(word)
            cycles += assert_same_split(og.walk_of(Permutation(tuple(word))))
        assert cycles > 0

    def test_walk_splits_on_random_multigraphs(self):
        rng = random.Random(73)
        checked = 0
        while checked < 500:
            walk = random_walk(rng, random_multigraph_with_extras(rng), max_len=80)
            if walk is not None:
                assert_same_split(walk)
                checked += 1

    def test_a_repeated_cycle_is_one_object(self):
        # k = 2: one vertex and two loops, so every step closes a loop.
        rng = random.Random(5)
        word = list(range(1, 1_001))
        rng.shuffle(word)
        split = decompose_walk(build_overlap_graph(2).walk_of(Permutation(tuple(word))))
        assert len(split.cycles) == 999 and split.tail is None
        assert len({id(c) for c in split.cycles}) == 2


# (class, graph fixture, edge ids, exception type, message), as raised before
# the checks were table-driven.
MALFORMED_WALKS = [
    (Walk, "fig2_graph", (), ValueError, "walks are non-empty"),
    (SimpleCycle, "fig2_graph", (), ValueError, "walks are non-empty"),
    (Walk, "fig2_graph", (0, 3), IndexError, "no edge with id 3"),
    (Walk, "fig2_graph", (5, -1), IndexError, "no edge with id 5"),
    (SimpleCycle, "fig2_graph", (0, 1, 3), IndexError, "no edge with id 3"),
    (Walk, "fig2_graph", (-1,), IndexError, "no edge with id -1"),
    (SimpleCycle, "fig2_graph", (2, -1), IndexError, "no edge with id -1"),
    (Walk, "fig2_graph", (0, 0), ValueError, "edges 0 and 0 do not chain: arrival 2 != start 1"),
    (Walk, "fig2_graph", (0, 1, 0, 2), ValueError, "edges 1 and 0 do not chain: arrival 0 != start 1"),
    (SimpleCycle, "fig2_graph", (0, 2), ValueError, "edges 0 and 2 do not chain: arrival 2 != start 0"),
    (SimpleCycle, "fig2_graph", (0, 1), ValueError, "cycle is not closed"),
    (SimpleCycle, "fig3_graph", (1,), ValueError, "cycle is not closed"),
    (SimpleCycle, "fig3_graph", (0, 0), ValueError, "cycle repeats an edge"),
    (SimpleCycle, "fig3_graph", (1, 3, 1, 3), ValueError, "cycle repeats an edge"),
    (SimpleCycle, "fig3_graph", (1, 3, 2, 4), ValueError, "cycle repeats a vertex"),
    (SimpleCycle, "fig3_graph", (2, 4, 0), ValueError, "cycle repeats a vertex"),
    (Walk, "fig2_graph", (True,), ValueError, "edge ids must be integers, got True"),
    (Walk, "fig2_graph", (False,), ValueError, "edge ids must be integers, got False"),
    (Walk, "fig2_graph", (0.0,), ValueError, "edge ids must be integers, got 0.0"),
    (Walk, "fig2_graph", (0, 0.5), ValueError, "edge ids must be integers, got 0.5"),
    (Walk, "fig2_graph", ("0",), ValueError, "edge ids must be integers, got '0'"),
    (SimpleCycle, "fig2_graph", (0, 1, True), ValueError, "edge ids must be integers, got True"),
    (SimpleCycle, "fig2_graph", (0, "1", 2), ValueError, "edge ids must be integers, got '1'"),
]


@pytest.mark.parametrize("cls, fixture, ids, exc, message", MALFORMED_WALKS)
def test_malformed_walk_messages(request, cls, fixture, ids, exc, message):
    with pytest.raises(exc) as info:
        cls(request.getfixturevalue(fixture), ids)
    assert type(info.value) is exc and str(info.value) == message


class TestKeptCycles:
    """A polytope serves repeated ``simple_cycles`` calls from the prefix it
    has kept: the same sequence as the slow route, and the same objects."""

    @staticmethod
    def slow(k, count=None):
        return list(itertools.islice(simple_cycles_by_sets(build_overlap_graph(k).graph), count))

    def test_interleaved_consumers(self):
        polytope = CyclePolytope(build_overlap_graph(5).graph)
        a, b = polytope.simple_cycles(), polytope.simple_cycles()
        got_a, got_b = [], []
        # Each consumer in turn reads what the other kept, then extends the prefix.
        turns = ((a, got_a, 1_000), (b, got_b, 2_000), (a, got_a, 2_000), (b, got_b, 1_000))
        for stream, got, count in turns:
            got += itertools.islice(stream, count)
        assert [c.edge_ids for c in got_a] == self.slow(5, 3_000)
        assert all(x is y for x, y in zip(got_a, got_b)) and len(got_b) == 3_000

    def test_two_threads(self):
        polytope = CyclePolytope(build_overlap_graph(5).graph)
        start = threading.Barrier(2, timeout=10)
        results = [None, None]

        def stream(slot):
            start.wait()
            results[slot] = [c.edge_ids for c in itertools.islice(polytope.simple_cycles(), 5_000)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often while both extend the prefix
        try:
            threads = [threading.Thread(target=stream, args=(slot,)) for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        slow = self.slow(5, 5_000)
        assert results[0] == slow and results[1] == slow
        assert 5_000 <= len(polytope._kept) < 5_000 + polytope_module._BATCH

    def test_calls_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(polytope_module, "_KEPT_SLOTS", 200)
        polytope = CyclePolytope(build_overlap_graph(4).graph)
        slow = self.slow(4)
        for _ in range(2):
            assert [c.edge_ids for c in polytope.simple_cycles()] == slow
        kept = polytope._kept
        assert 0 < len(kept) < len(slow)
        assert polytope._kept_slots == sum(len(c) + 12 for c in kept) >= 200
        # The private enumerator past the budget keeps the call's cap.
        monkeypatch.setenv("PERMUTOPE_CAP", "cycles=37")
        stream = polytope.simple_cycles()
        assert [next(stream).edge_ids for _ in range(37)] == slow[:37]
        with pytest.raises(CapacityError, match="cycles cap 37 "):
            next(stream)

    def test_vertices_twice_at_k4(self):
        polytope = CyclePolytope(build_overlap_graph(4).graph)
        first, second = polytope.vertices(), polytope.vertices()
        assert first == second
        assert all(x.cycle is y.cycle for x, y in zip(first, second))
        assert [v.cycle.edge_ids for v in first] == self.slow(4)


class TestWalks:
    def test_chaining_validated(self, fig2_graph):
        with pytest.raises(ValueError):
            Walk(fig2_graph, (0, 0))
        walk = Walk(fig2_graph, (0, 1, 2, 0))
        assert walk.vertices() == (1, 2, 0, 1, 2)
        assert walk.labels() == ("e1", "e2", "e3", "e1")

    def test_empty_rejected(self, fig2_graph):
        with pytest.raises(ValueError):
            Walk(fig2_graph, ())


class TestDecomposeWalk:
    def test_cycle_walk(self, fig2_graph):
        walk = Walk(fig2_graph, (0, 1, 2))
        decomposition = decompose_walk(walk)
        assert len(decomposition.cycles) == 1 and decomposition.tail is None

    def test_no_repeats_all_tail(self):
        g = Multigraph(["a", "b", "c"], [(0, 1, "x"), (1, 2, "y")])
        walk = Walk(g, (0, 1))
        decomposition = decompose_walk(walk)
        assert decomposition.cycles == () and decomposition.tail.edge_ids == (0, 1)

    def test_worked_walk_resums(self):
        og = build_overlap_graph(4)
        from permutope import Permutation, walk_of

        walk = walk_of(Permutation.parse("628451793"), 4)
        decomposition = decompose_walk(walk)
        multiset: dict[int, int] = {}
        for eid in walk.edge_ids:
            multiset[eid] = multiset.get(eid, 0) + 1
        assert decomposition.edge_multiset() == multiset
        if decomposition.tail is not None:
            tail_vertices = decomposition.tail.vertices()
            assert len(set(tail_vertices)) == len(tail_vertices)

    def test_randomized_resum(self):
        rng = random.Random(4)
        checked = 0
        while checked < 1000:
            g = random_multigraph(rng, max_vertices=6, max_edges=20)
            walk = random_walk(rng, g, max_len=50)
            if walk is None:
                continue
            checked += 1
            decomposition = decompose_walk(walk)
            multiset: dict[int, int] = {}
            for eid in walk.edge_ids:
                multiset[eid] = multiset.get(eid, 0) + 1
            assert decomposition.edge_multiset() == multiset
            if decomposition.tail is not None:
                tail_vertices = decomposition.tail.vertices()
                assert len(set(tail_vertices)) == len(tail_vertices)


class TestSerialization:
    def test_json_round_trip_bytes(self, fig3_graph):
        text = fig3_graph.to_json()
        again = Multigraph.from_json(text)
        assert again.to_json() == text
        assert again.edges == fig3_graph.edges
        assert again.vertex_names == fig3_graph.vertex_names

    def test_dot_deterministic_and_labeled(self, fig2_graph):
        dot = fig2_graph.to_dot()
        assert dot == fig2_graph.to_dot()
        assert '"v2" -> "v3" [label="e1"];' in dot
        assert dot.startswith("digraph G {")


class TestEulerianCircuit:
    def test_overlap_graphs_have_circuits(self):
        for k in (2, 3, 4):
            g = build_overlap_graph(k).graph
            circuit = eulerian_circuit(g, 0)
            assert len(circuit) == g.n_edges
            assert sorted(circuit.edge_ids) == list(range(g.n_edges))
            assert g.st(circuit.edge_ids[0]) == g.ar(circuit.edge_ids[-1])

    def test_unbalanced_rejected(self):
        g = Multigraph(["a", "b"], [(0, 1, "x")])
        with pytest.raises(ValueError):
            eulerian_circuit(g, 0)

    def test_disconnected_rejected(self):
        g = Multigraph(["a", "b"], [(0, 0, "x"), (1, 1, "y")])
        with pytest.raises(ValueError):
            eulerian_circuit(g, 0)
