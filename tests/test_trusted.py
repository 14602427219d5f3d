"""Kernel outputs would pass the public constructors.

The kernels and the realization plan's block walks build their walks, simple
cycles, permutations and pattern vectors through the private ``_trusted``
constructors, which skip the checks.  Rebuilding each output through
``Walk``, ``SimpleCycle``, ``Permutation`` or ``PatternVector`` must succeed
and give an object of the same type that is equal and prints equal (and, for
the hashable ones, hashes equal).
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from permutope import (
    CyclePolytope,
    PatternVector,
    Permutation,
    SimpleCycle,
    Walk,
    build_overlap_graph,
    decompose_walk,
    direct_sum,
    feasible_region,
    all_patterns,
    iter_simple_cycles,
    pattern_at,
    proportion_vector,
    repeat_sum,
    standardize,
    substitute,
)
from conftest import point_mass, random_multigraph, random_multigraph_with_extras, random_walk
from oracles import count_simple_cycles_dp
from test_polytope import planted_point


def assert_same(rebuilt, built):
    assert type(rebuilt) is type(built)
    assert rebuilt == built
    assert hash(rebuilt) == hash(built)
    assert repr(rebuilt) == repr(built)


def assert_cycles_pass(cycles) -> int:
    count = 0
    for cycle in cycles:
        assert_same(SimpleCycle(cycle.graph, cycle.edge_ids), cycle)
        count += 1
    return count


def assert_walk_passes(walk) -> None:
    assert_same(Walk(walk.graph, walk.edge_ids), walk)


def assert_permutation_passes(sigma) -> None:
    assert_same(Permutation(sigma.word), sigma)


def random_permutation(rng, n):
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return Permutation(tuple(word))


class TestCycles:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_every_cycle_of_small_overlap_graphs(self, k):
        graph = build_overlap_graph(k).graph
        assert assert_cycles_pass(iter_simple_cycles(graph)) == count_simple_cycles_dp(graph)

    def test_first_20000_cycles_at_k5(self):
        cycles = iter_simple_cycles(build_overlap_graph(5).graph)
        assert assert_cycles_pass(itertools.islice(cycles, 20_000)) == 20_000

    def test_random_multigraphs_with_loops_and_parallel_edges(self):
        rng = random.Random(71)
        total = 0
        for _ in range(60):
            graph = random_multigraph_with_extras(rng)
            total += assert_cycles_pass(iter_simple_cycles(graph))
        assert total > 300


class TestWalkSplits:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_walk_of_and_decompose_walk(self, k):
        rng = random.Random(800 + k)
        og = build_overlap_graph(k)
        tails = 0
        for _ in range(40):
            sigma = random_permutation(rng, rng.randint(k, 400))
            walk = og.walk_of(sigma)
            assert_walk_passes(walk)
            split = decompose_walk(walk)
            assert_cycles_pass(split.cycles)
            if split.tail is not None:
                assert_walk_passes(split.tail)
                tails += 1
        assert tails > 0 or k == 2  # one vertex: every step closes a loop

    def test_random_walks_on_random_multigraphs(self):
        rng = random.Random(72)
        checked = 0
        while checked < 300:
            walk = random_walk(rng, random_multigraph(rng, max_vertices=6, max_edges=20))
            if walk is None:
                continue
            split = decompose_walk(walk)
            assert_cycles_pass(split.cycles)
            if split.tail is not None:
                assert_walk_passes(split.tail)
            checked += 1


class TestDecompositions:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_convex_decomposition_of_planted_members(self, k):
        rng = random.Random(900 + k)
        poly = CyclePolytope(build_overlap_graph(k).graph)
        for n_cycles in range(1, 31):
            point = planted_point(rng, poly.graph, n_cycles)
            decomposition = poly.convex_decomposition(point)
            assert_cycles_pass(cycle for _, cycle in decomposition)
            assert [c for _, c in poly.membership(point).decomposition] == [
                c for _, c in decomposition
            ]


class TestRealizationBlocks:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_block_walks_of_planted_plans(self, k, monkeypatch):
        rng = random.Random(1200 + k)
        region = feasible_region(k)
        og = region.overlap
        realize_walk = type(og).permutation_of_walk
        walks = []

        def record(self, walk):
            walks.append(walk)
            return realize_walk(self, walk)

        monkeypatch.setattr(type(og), "permutation_of_walk", record)
        for n_cycles in range(1, 7):
            plan = region.plan(region.vector_of(planted_point(rng, og.graph, n_cycles)))
            members = [[i for _, i in steps if i is not None] for steps in plan.parts]
            assert sorted(sum(members, [])) == list(range(len(plan.flows)))
            for m in (1, 2):
                g = plan.multiplicities(m)
                if plan.scale == plan.target.denominator:
                    assert g == tuple(m * f for f in plan.flows)
                walks.clear()
                sigma = plan.generate(m)
                assert len(walks) == len(plan.parts)
                rebuilt, visited = [], set()
                for walk, part in zip(walks, members):
                    assert_walk_passes(walk)
                    checked = Walk(og.graph, walk.edge_ids)
                    assert og.graph.st(checked.edge_ids[0]) == og.graph.ar(checked.edge_ids[-1])
                    expected = Counter()
                    for i in part:
                        for eid in plan.decomposition[i][1].edge_ids:
                            expected[eid] += g[i]
                    assert Counter(checked.edge_ids) == expected
                    vertices = set(checked.vertices())
                    assert not vertices & visited
                    visited |= vertices
                    rebuilt.append(realize_walk(og, checked))
                assert direct_sum(*rebuilt) == sigma


class TestPermutations:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_permutation_of_walk(self, k):
        rng = random.Random(1000 + k)
        og = build_overlap_graph(k)
        for _ in range(60):
            walk = random_walk(rng, og.graph, max_len=200)
            sigma = og.permutation_of_walk(walk)
            assert_permutation_passes(sigma)
            assert og.walk_of(sigma) == walk

    def test_substitute_and_sums(self):
        rng = random.Random(73)
        for _ in range(200):
            blocks = [random_permutation(rng, rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
            skeleton = random_permutation(rng, len(blocks))
            assert_permutation_passes(substitute(skeleton, blocks))
            assert_permutation_passes(direct_sum(*blocks))
            assert_permutation_passes(repeat_sum(rng.randint(1, 4), blocks[0]))

    def test_identity(self):
        for n in range(1, 51):
            assert_permutation_passes(Permutation.identity(n))
        with pytest.raises(ValueError, match="non-empty"):
            Permutation.identity(0)

    def test_standardized_patterns(self):
        rng = random.Random(74)
        for _ in range(200):
            sigma = random_permutation(rng, rng.randint(1, 12))
            indices = rng.sample(range(1, len(sigma) + 1), rng.randint(1, len(sigma)))
            assert_permutation_passes(pattern_at(sigma, indices))
            assert_permutation_passes(standardize([rng.random() for _ in range(len(sigma))]))


def assert_vector_passes(vector) -> None:
    rebuilt = PatternVector(vector.k, dict(vector.items()))
    assert type(rebuilt) is type(vector)
    assert rebuilt == vector
    assert repr(rebuilt) == repr(vector)
    assert rebuilt.to_json_dict() == vector.to_json_dict()


class TestPatternVectors:
    @pytest.mark.parametrize("kind", ["classical", "consecutive"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_proportion_vectors(self, kind, k):
        rng = random.Random(1300 + k)
        # classical k >= 4 is refused above the enum cap, so it stays under it
        top = 30 if kind == "classical" and k >= 4 else 300
        for n in [k, k, k + 1] + [rng.randint(k, top) for _ in range(12)]:
            assert_vector_passes(proportion_vector(k, random_permutation(rng, n), kind))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_uniform(self, k):
        assert_vector_passes(PatternVector.uniform(k))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_point_masses(self, k):
        for pattern in all_patterns(k):
            assert_vector_passes(point_mass(pattern))

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_vector_of_planted_points(self, k):
        rng = random.Random(1400 + k)
        region = feasible_region(k)
        for n_cycles in range(1, 9):
            point = planted_point(rng, region.overlap.graph, n_cycles)
            assert_vector_passes(region.vector_of(point))

    def test_from_values_reduces(self):
        assert PatternVector.from_values(3, ["2/12"] * 6) == PatternVector.uniform(3)

    def test_linf_distance_against_fractions(self):
        rng = random.Random(75)
        for _ in range(200):
            k = rng.randint(1, 4)
            size = len(all_patterns(k))
            u, v = (
                PatternVector.from_values(
                    k, [Fraction(rng.randint(0, q), q) for q in rng.choices(range(1, 40), k=size)]
                )
                for _ in range(2)
            )
            oracle = max(abs(a - b) for (_, a), (_, b) in zip(u.items(), v.items()))
            assert u.linf_distance(v) == oracle
