"""Self-tests for the brute-force oracles; these carry the weight of the
agreement tests, so they get hand-checked cases of their own."""

import itertools
import random
from fractions import Fraction

from permutope import Multigraph, build_overlap_graph, iter_simple_cycles
from conftest import random_multigraph
from oracles import (
    affine_rank,
    brute_force_simple_cycles,
    classical_counts_small,
    count_simple_cycles_dp,
    in_convex_hull,
    merge_sort_smaller_before,
    naive_cocc,
    naive_cocc_counts,
    naive_occ,
    walk_to_word,
)

F = Fraction


class TestCountingOracles:
    def test_naive_counts_by_hand(self):
        assert naive_occ((2, 1), (2, 3, 1)) == 2
        assert naive_occ((1, 2), (2, 3, 1)) == 1
        assert naive_cocc((1, 2), (2, 3, 1)) == 1
        assert naive_cocc((1, 2, 3), (1, 2, 3, 4)) == 2

    def test_window_recount_against_naive(self):
        assert naive_cocc_counts((2, 3, 1, 4), 2) == {(1, 2): 2, (2, 1): 1}
        rng = random.Random(13)
        for n in range(1, 12):
            word = tuple(rng.sample(range(1, n + 1), n))
            for k in (1, 2, 3, 4):
                counts = naive_cocc_counts(word, k)
                for pattern in itertools.permutations(range(1, k + 1)):
                    assert counts.get(pattern, 0) == naive_cocc(pattern, word), (word, pattern)

    def test_merge_sort_smaller_before_by_hand(self):
        assert merge_sort_smaller_before((3, 1, 4, 2, 5)) == [0, 0, 2, 1, 4]
        assert merge_sort_smaller_before(()) == []

    def test_small_classical_counts_against_naive(self):
        rng = random.Random(12)
        words = [w for n in range(1, 6) for w in itertools.permutations(range(1, n + 1))]
        words += [tuple(rng.sample(range(1, 10), 9)) for _ in range(20)]
        for word in words:
            for pattern, count in classical_counts_small(word).items():
                if len(pattern) <= len(word):
                    assert count == naive_occ(pattern, word), (word, pattern)


class TestWalkOracle:
    def test_worked_examples_by_hand(self):
        # The windows of 628451793 at k = 4; the greedy word is 819452673.
        labels = [(3, 1, 4, 2), (1, 4, 2, 3), (4, 2, 3, 1), (2, 3, 1, 4), (2, 1, 3, 4),
                  (1, 3, 4, 2)]
        assert walk_to_word(labels) == (8, 1, 9, 4, 5, 2, 6, 7, 3)
        assert walk_to_word([(1, 3, 2), (2, 1, 3)]) == (1, 3, 2, 4)
        assert walk_to_word([(2, 1)]) == (2, 1)


class TestHullOracle:
    def test_segment(self):
        points = [(F(1), F(0)), (F(0), F(1))]
        assert in_convex_hull(points, (F(1, 2), F(1, 2)))
        assert in_convex_hull(points, (F(1), F(0)))
        assert not in_convex_hull(points, (F(3, 4), F(3, 4)))
        assert not in_convex_hull(points, (F(2), F(-1)))

    def test_triangle_interior_and_exterior(self):
        points = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
        assert in_convex_hull(points, (F(1, 4), F(1, 4)))
        assert in_convex_hull(points, (F(1, 2), F(1, 2)))  # on the hypotenuse
        assert not in_convex_hull(points, (F(2, 3), F(2, 3)))
        assert in_convex_hull([], (F(1),)) is False

    def test_affine_rank_by_hand(self):
        assert affine_rank([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]) == 2
        assert affine_rank([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))]) == 1
        assert affine_rank([(F(5), F(5))]) == 0


class TestCycleCountOracle:
    def test_matches_subset_filtering_on_small_graphs(self, fig2_graph, fig3_graph):
        rng = random.Random(21)
        graphs = [fig2_graph, fig3_graph] + [random_multigraph(rng) for _ in range(30)]
        for g in graphs:
            assert count_simple_cycles_dp(g) == len(brute_force_simple_cycles(g))

    def test_overlap_graph_counts(self):
        for k, expected in ((2, 2), (3, 6)):
            g = build_overlap_graph(k).graph
            assert count_simple_cycles_dp(g) == expected

    def test_johnson_agrees_on_dense_graphs(self):
        # too dense for subset filtering; DP is the independent count
        rng = random.Random(22)
        g4 = build_overlap_graph(4).graph
        graphs = [g4] + [
            random_multigraph(rng, max_vertices=7, max_edges=26) for _ in range(8)
        ]
        for g in graphs:
            enumerated = sum(1 for _ in iter_simple_cycles(g))
            assert enumerated == count_simple_cycles_dp(g)
        assert sum(1 for _ in iter_simple_cycles(g4)) == 160
