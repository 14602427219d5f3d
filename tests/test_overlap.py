import itertools
import random

import pytest

from permutope import (
    CapacityError,
    Multigraph,
    Permutation,
    SizeError,
    Walk,
    build_overlap_graph,
    cocc,
    direct_sum,
    eulerian_circuit,
    eulerian_universal_permutation,
    walk_of,
)
from oracles import (
    cocc_via_walk,
    naive_cocc,
    order_isomorphic,
    step_table_by_sorting,
    walk_to_word,
    window_pattern,
)

P = Permutation.parse


def edge_ends(pattern: Permutation) -> tuple[str, str]:
    """The vertex names at the start and the end of a pattern's edge."""
    g = build_overlap_graph(len(pattern)).graph
    st, ar, _ = next(edge for edge in g.edges if edge[2] == str(pattern))
    return g.vertex_names[st], g.vertex_names[ar]


class TestEndpointPatterns:
    def test_caption_examples(self):
        assert edge_ends(P("3412")) == ("231", "312")
        assert edge_ends(P("2413")) == ("231", "312")

    def test_monotone_loop(self):
        assert edge_ends(P("123")) == ("12", "12")


class TestBuild:
    def test_k3_structure(self):
        og = build_overlap_graph(3)
        g = og.graph
        assert g.vertex_names == ("12", "21")
        # edge id = lexicographic index of the size-3 pattern
        expected = {
            "123": ("12", "12"),
            "132": ("12", "21"),
            "213": ("21", "12"),
            "231": ("12", "21"),
            "312": ("21", "12"),
            "321": ("21", "21"),
        }
        for eid, (st, ar, label) in enumerate(g.edges):
            assert str(og.edge_permutation(eid)) == label
            assert (g.vertex_names[st], g.vertex_names[ar]) == expected[label]

    def test_k2_single_vertex_two_loops(self):
        g = build_overlap_graph(2).graph
        assert g.n_vertices == 1 and g.n_edges == 2
        assert all(g.st(e) == g.ar(e) for e in range(2))

    def test_k4_counts(self):
        g = build_overlap_graph(4).graph
        assert g.n_vertices == 6 and g.n_edges == 24

    def test_out_of_range(self):
        with pytest.raises(CapacityError):
            build_overlap_graph(1)
        with pytest.raises(CapacityError):
            build_overlap_graph(9)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_equals_the_checked_construction(self, k, monkeypatch):
        """The graph built from edge-id arithmetic, against the checked
        ``Multigraph`` constructor given the ends found by sorting."""
        monkeypatch.setenv("PERMUTOPE_CAP", "overlap=8")  # k = 8 is past the default
        names = [str(Permutation(w)) for w in itertools.permutations(range(1, k))]
        labels = [str(Permutation(w)) for w in itertools.permutations(range(1, k + 1))]
        edges = [None] * len(labels)
        for st, row in enumerate(step_table_by_sorting(k)):
            for eid, ar in row:
                edges[eid] = (st, ar, labels[eid])
        checked = Multigraph(names, edges)
        built = build_overlap_graph(k).graph
        for part in Multigraph.__slots__:
            assert getattr(built, part) == getattr(checked, part), part

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_regularity_and_connectivity(self, k):
        g = build_overlap_graph(k).graph
        assert all(
            g.in_degree(v) == g.out_degree(v) == k for v in range(g.n_vertices)
        )
        assert g.is_strongly_connected()


class TestWalkOf:
    def test_worked_example(self):
        og = build_overlap_graph(4)
        walk = og.walk_of(P("628451793"))
        assert [str(p) for p in og.walk_labels(walk)] == [
            "3142",
            "1423",
            "4231",
            "2314",
            "2134",
            "1342",
        ]

    def test_single_window(self):
        og = build_overlap_graph(4)
        sigma = P("2431")
        walk = og.walk_of(sigma)
        assert og.walk_labels(walk) == (sigma,)

    def test_w3_of_1324(self):
        og = build_overlap_graph(3)
        assert [str(p) for p in og.walk_labels(og.walk_of(P("1324")))] == ["132", "213"]

    def test_too_small(self):
        with pytest.raises(SizeError):
            walk_of(P("12"), 3)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_edge_ids_match_every_window(self, k):
        og = build_overlap_graph(k)
        rng = random.Random(1910 + k)
        for n in (k, k + 1, rng.randint(k, 300)):
            word = list(range(1, n + 1))
            rng.shuffle(word)
            sigma = Permutation(tuple(word))
            ids = walk_of(sigma, k).edge_ids
            assert [og.edge_permutation(eid).word for eid in ids] == [
                window_pattern(word, i, k) for i in range(n - k + 1)
            ]
            for i, eid in enumerate(ids):
                assert order_isomorphic(word[i : i + k], og.edge_permutation(eid).word)

    @pytest.mark.parametrize("k", [3, 4])
    def test_direct_sum_walks_connect_all_vertex_pairs(self, k):
        og = build_overlap_graph(k)
        g = og.graph
        for p1 in itertools.permutations(range(1, k)):
            for p2 in itertools.permutations(range(1, k)):
                tau = direct_sum(Permutation(p1), Permutation(p2))
                walk = og.walk_of(tau)
                assert g.vertex_names[walk.vertices()[0]] == str(Permutation(p1))
                assert g.vertex_names[walk.vertices()[-1]] == str(Permutation(p2))


class TestPermutationOfWalk:
    def test_worked_example_bit_exact(self):
        og = build_overlap_graph(4)
        walk = og.walk_of(P("628451793"))
        assert og.permutation_of_walk(walk) == P("819452673")

    def test_single_edge(self):
        og = build_overlap_graph(4)
        sigma = P("3142")
        assert og.permutation_of_walk(og.walk_of(sigma)) == sigma

    def test_two_step_walk(self):
        og = build_overlap_graph(3)
        walk = Walk(og.graph, (1, 2))  # labels 132, 213
        assert og.permutation_of_walk(walk) == P("1324")

    def test_wrong_graph_rejected(self, fig2_graph):
        og = build_overlap_graph(3)
        with pytest.raises(ValueError):
            og.permutation_of_walk(Walk(fig2_graph, (0,)))

    @pytest.mark.parametrize("k", range(2, 8))
    def test_bit_exact_against_reference_on_random_walks(self, k):
        og = build_overlap_graph(k)
        g = og.graph
        rng = random.Random(70 + k)
        for _ in range(200):
            ids = [rng.randrange(g.n_edges)]
            for _ in range(rng.randint(0, 199)):
                ids.append(rng.choice(g.out_edges(g.ar(ids[-1]))))
            walk = Walk(g, tuple(ids))
            labels = [label.word for label in og.walk_labels(walk)]
            assert og.permutation_of_walk(walk).word == walk_to_word(labels)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_bit_exact_against_reference_on_eulerian_circuits(self, k):
        og = build_overlap_graph(k)
        for start in (0, og.graph.n_vertices - 1):
            walk = eulerian_circuit(og.graph, start)
            labels = [label.word for label in og.walk_labels(walk)]
            assert og.permutation_of_walk(walk).word == walk_to_word(labels)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_round_trip_on_random_walks(self, k):
        og = build_overlap_graph(k)
        g = og.graph
        rng = random.Random(40 + k)
        for _ in range(10_000):
            ids = [rng.randrange(g.n_edges)]
            for _ in range(rng.randint(0, 29)):
                ids.append(rng.choice(g.out_edges(g.ar(ids[-1]))))
            walk = Walk(g, tuple(ids))
            sigma = og.permutation_of_walk(walk)
            assert len(sigma) == len(walk) + k - 1
            assert og.walk_of(sigma).edge_ids == walk.edge_ids


class TestCoccViaWalk:
    def test_examples(self):
        sigma = P("628451793")
        assert cocc_via_walk(P("3142"), sigma) == 1
        assert cocc_via_walk(P("4321"), sigma) == 0
        assert cocc_via_walk(P("123"), P("123456")) == 4

    def test_errors(self):
        with pytest.raises(SizeError):
            cocc_via_walk(P("1"), P("123"))
        with pytest.raises(SizeError):
            cocc_via_walk(P("1234"), P("123"))

    def test_agrees_with_window_counting_exhaustively(self):
        for n in range(2, 7):
            for word in itertools.permutations(range(1, n + 1)):
                sigma = Permutation(word)
                for k in range(2, min(n, 5) + 1):
                    for pattern_word in itertools.permutations(range(1, k + 1)):
                        pattern = Permutation(pattern_word)
                        assert cocc_via_walk(pattern, sigma) == cocc(pattern, sigma)

    def test_agrees_on_random_larger_permutations(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(7, 9)
            word = list(range(1, n + 1))
            rng.shuffle(word)
            sigma = Permutation(tuple(word))
            for k in range(2, 6):
                for _ in range(8):
                    pattern_word = list(range(1, k + 1))
                    rng.shuffle(pattern_word)
                    pattern = Permutation(tuple(pattern_word))
                    assert cocc_via_walk(pattern, sigma) == cocc(pattern, sigma)


class TestUniversalPermutation:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_every_pattern_exactly_once(self, k):
        import math

        sigma = eulerian_universal_permutation(k)
        assert len(sigma) == math.factorial(k) + k - 1
        for pattern_word in itertools.permutations(range(1, k + 1)):
            assert naive_cocc(pattern_word, sigma.word) == 1

    def test_k2_witness(self):
        assert eulerian_universal_permutation(2) == P("132")

    def test_cap(self):
        with pytest.raises(CapacityError):
            eulerian_universal_permutation(9)

