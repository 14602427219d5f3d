"""Acceptance gate: one test per criterion, each printing a PASS line with its
wall time (run with ``pytest tests/test_acceptance.py -v -s``).

Budgets are asserted, so a pathological slowdown fails the criterion too.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from permutope import (
    Multigraph,
    PatternVector,
    Permutation,
    all_patterns,
    build_overlap_graph,
    cocc_proportion,
    decompose_walk,
    eulerian_universal_permutation,
    feasible_region,
    iter_simple_cycles,
    mix,
    occ_proportion,
    proportion_vector,
    repeat_sum,
)
from conftest import random_multigraph, random_walk
from oracles import (
    affine_rank,
    ambient_affine_dimension,
    brute_force_simple_cycles,
    in_convex_hull,
    incidence_matrix,
    naive_cocc,
)

F = Fraction
P = Permutation.parse


class _Budget:
    def __init__(self, number: int, name: str, seconds: float):
        self.number, self.name, self.seconds = number, name, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.number:>2} {self.name}: PASS ({elapsed:.2f}s, budget {self.seconds:g}s)")
            assert elapsed < self.seconds, f"criterion {self.number} exceeded its budget"
        else:
            print(f"\nACCEPTANCE {self.number:>2} {self.name}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_01_overlap_graph_structure():
    with _Budget(1, "overlap graph structure", 1.0):
        for k in (2, 3, 4, 5):
            g = build_overlap_graph(k).graph
            assert g.n_vertices == math.factorial(k - 1)
            assert g.n_edges == math.factorial(k)
            assert g.is_strongly_connected()
            for v in range(g.n_vertices):
                assert g.in_degree(v) == k and g.out_degree(v) == k


def test_criterion_02_feasible_region_dimension():
    with _Budget(2, "dimension of the feasible region", 10.0):
        for k, expected in ((3, 4), (4, 18)):
            region = feasible_region(k)
            assert expected == math.factorial(k) - math.factorial(k - 1)
            assert region.dimension() == expected
            assert ambient_affine_dimension(region.polytope) == expected
        vertices = feasible_region(3).polytope.vertices()
        assert affine_rank([cv.entries for cv in vertices]) == 4


def test_criterion_03_worked_examples_bit_exact():
    with _Budget(3, "worked examples bit-exact", 5.0):
        og = build_overlap_graph(4)
        walk = og.walk_of(P("628451793"))
        assert tuple(str(p) for p in og.walk_labels(walk)) == (
            "3142",
            "1423",
            "4231",
            "2314",
            "2134",
            "1342",
        )
        assert og.permutation_of_walk(walk) == P("819452673")
        triangle = Multigraph(
            ["v1", "v2", "v3"], [(1, 2, "e1"), (2, 0, "e2"), (0, 1, "e3")]
        )
        assert incidence_matrix(triangle) == [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]


def test_criterion_04_p3_combinatorics():
    with _Budget(4, "P_3 vertices and facets", 5.0):
        region = feasible_region(3)
        poly = region.polytope
        cycles = {c.edge_ids for c in iter_simple_cycles(poly.graph)}
        assert len(cycles) == 6
        assert cycles == brute_force_simple_cycles(poly.graph)
        assert len(poly.vertices()) == 6
        poset = poly.face_poset()
        facets = poset.facets()
        assert len(facets) == 6
        # the facet spanned by the monotone loop 123 and the four mixed
        # 2-cycles: everything except the loop labeled 321 (edge id 5)
        pyramid = poly.face([0, 1, 2, 3, 4])
        assert pyramid.dimension() == 3
        vertex_cycles = [c for c in cycles if set(c) <= set(pyramid.edge_ids)]
        assert len(vertex_cycles) == 5
        # and its face profile is that of a pyramid with a square base
        profile: dict[int, int] = {}
        for face in poset.faces:
            if set(face.edge_ids) <= set(pyramid.edge_ids):
                d = face.dimension()
                profile[d] = profile.get(d, 0) + 1
        assert profile == {0: 5, 1: 8, 2: 5, 3: 1}


def test_criterion_05_membership_oracle_equivalence():
    with _Budget(5, "equation membership vs convex-hull LP", 30.0):
        region = feasible_region(3)
        vertices = region.polytope.vertices()
        points = [cv.entries for cv in vertices]
        rng = random.Random(2025)
        tested = 0
        disagreements = 0

        def check(x):
            nonlocal tested, disagreements
            tested += 1
            by_equations = region.membership(region.vector_of(x)).member
            if by_equations != in_convex_hull(points, x):
                disagreements += 1

        for cv in vertices:
            check(list(cv.entries))
        check([F(1, 6)] * 6)
        while tested < 1000:
            mode = rng.random()
            if mode < 0.45:
                weights = [F(rng.randint(0, 8)) for _ in points]
                if sum(weights) == 0:
                    continue
                total = sum(weights)
                x = [F(0)] * 6
                for w, point in zip(weights, points):
                    for eid, value in enumerate(point):
                        x[eid] += (w / total) * value
                if mode < 0.2:
                    i, j = rng.randrange(6), rng.randrange(6)
                    delta = F(1, rng.randint(3, 12))
                    x[i] += delta
                    x[j] -= delta
                    if any(v < 0 for v in x):
                        continue
            else:
                x = [F(rng.randint(0, 4)) for _ in range(6)]
                if sum(x) == 0:
                    continue
                total = sum(x)
                x = [v / total for v in x]
            check(x)
        assert tested >= 1000
        assert disagreements == 0


def test_criterion_06_realization_convergence():
    with _Budget(6, "realization convergence at m=1000", 30.0):
        region = feasible_region(3)
        m = 1000
        targets = []
        for cycle in iter_simple_cycles(region.overlap.graph):
            values = [F(0)] * 6
            for eid in cycle.edge_ids:
                values[eid] = F(1, len(cycle))
            targets.append(region.vector_of(values))
        targets.append(PatternVector.uniform(3))
        for target in targets:
            plan = region.plan(target)
            sigma = plan.generate(m)
            distance = proportion_vector(3, sigma, "consecutive").linf_distance(target)
            assert distance <= F(1, 100)
            assert distance == plan.sup_error_bound(m)
        # the monotone loop target: distance is exactly 2/(m+2)
        loop_target = targets[0]
        assert loop_target[P("123")] == 1
        sigma = region.plan(loop_target).generate(m)
        assert sigma == Permutation.identity(m + 2)
        distance = proportion_vector(3, sigma, "consecutive").linf_distance(loop_target)
        assert distance == F(2, m + 2)


def test_criterion_07_universal_permutations():
    with _Budget(7, "Eulerian universal permutations", 5.0):
        for k in (2, 3, 4):
            sigma = eulerian_universal_permutation(k)
            assert len(sigma) == math.factorial(k) + k - 1
            for pattern_word in itertools.permutations(range(1, k + 1)):
                assert naive_cocc(pattern_word, sigma.word) == 1


def test_criterion_08_mixing_bounds():
    with _Budget(8, "mixing error bounds", 60.0):
        region = feasible_region(3)
        plan = region.plan(PatternVector.uniform(3))
        # plan sizes are 6m + 2, so 50 is hit exactly while 98 and 194 fall
        # just short of 100 and 200
        inners = [plan.generate(m) for m in (8, 16, 32)]
        assert [len(s) for s in inners] == [50, 98, 194]
        outers = [repeat_sum(q, P("21")) for q in (25, 50)]
        assert [len(s) for s in outers] == [50, 100]
        patterns = all_patterns(3)
        for inner in inners:
            for outer in outers:
                mixed = mix(lambda m: inner, lambda m: outer, 1)
                assert len(mixed) == len(inner) * len(outer)
                for pattern in patterns:
                    k = len(pattern)
                    consec_gap = abs(
                        cocc_proportion(pattern, mixed) - cocc_proportion(pattern, inner)
                    )
                    assert consec_gap <= F(k, len(inner))
                    class_gap = abs(
                        occ_proportion(pattern, mixed) - occ_proportion(pattern, outer)
                    )
                    assert class_gap <= F(math.comb(3, 2), len(outer))


def test_criterion_09_walk_decomposition_soundness():
    with _Budget(9, "walk decomposition soundness", 30.0):
        rng = random.Random(99)
        walks = []
        while len(walks) < 8000:
            g = random_multigraph(rng, max_vertices=6, max_edges=20)
            walk = random_walk(rng, g, max_len=50)
            if walk is not None:
                walks.append(walk)
        for k in (3, 4):
            g = build_overlap_graph(k).graph
            for _ in range(1000):
                walks.append(random_walk(rng, g, max_len=50))
        assert len(walks) >= 10_000
        for walk in walks:
            decomposition = decompose_walk(walk)
            multiset: dict[int, int] = {}
            for eid in walk.edge_ids:
                multiset[eid] = multiset.get(eid, 0) + 1
            assert decomposition.edge_multiset() == multiset
            if decomposition.tail is not None:
                tail_vertices = decomposition.tail.vertices()
                assert len(set(tail_vertices)) == len(tail_vertices)
            used = sum(len(c) for c in decomposition.cycles) + (
                len(decomposition.tail) if decomposition.tail else 0
            )
            assert used == len(walk)


def test_criterion_10_property_suite_is_the_gate():
    with _Budget(10, "module property suites", 5.0):
        # The invariants-and-properties sections live in the sibling test
        # modules; this criterion is established by the whole suite passing
        # within its overall budget (the terminal summary prints the total).
        import test_feasible
        import test_graphs
        import test_overlap
        import test_perms
        import test_polytope  # noqa: F401

        for module in (test_perms, test_graphs, test_polytope, test_overlap, test_feasible):
            assert any(name.startswith("Test") for name in dir(module))
