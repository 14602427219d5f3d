import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from permutope import (
    CapacityError,
    CyclePolytope,
    NotInPolytopeError,
    PatternVector,
    Permutation,
    SimpleCycle,
    all_patterns,
    cocc_proportion,
    convergence_report,
    feasible_region,
    mix,
    monotone_sum_generator,
    occ_proportion,
    proportion_vector,
    repeat_sum,
)
from conftest import point_mass
from oracles import (
    begin_pattern,
    end_pattern,
    loose_error_bound,
    naive_cocc_counts,
    straddling_window_counts,
)
from permutope.cli import run
from test_polytope import broken_point, planted_point

P = Permutation.parse
F = Fraction


def vertex_vector(region, cycle_ids) -> PatternVector:
    cycle = SimpleCycle(region.overlap.graph, cycle_ids)
    share = F(1, len(cycle))
    values = [F(0)] * region.overlap.graph.n_edges
    for eid in cycle.edge_ids:
        values[eid] = share
    return region.vector_of(values)


def assert_parts_bound(region, target, ms=(1, 2)):
    """Plan ``target`` and check that generate(m) has size_for(m) =
    m*d + c(k-1) points for c <= B parts, that its window recount is exactly
    sup_error_bound(m) from the target, at most c(k-1)/N, and that sizes
    increase in m."""
    k = region.k
    plan = region.plan(target)
    c = len(plan.parts)
    assert 1 <= c <= len(plan.decomposition)
    words = [p.word for p in all_patterns(k)]
    d = target.denominator
    for m in ms:
        sigma = plan.generate(m)
        n = plan.size_for(m)
        assert len(sigma) == n == m * d + c * (k - 1)
        # |count/n - x/d| over all patterns, in units of 1/(n d)
        counts = naive_cocc_counts(sigma.word, k)
        gap = max(abs(counts.get(w, 0) * d - x * n) for w, x in zip(words, target.numerators))
        assert F(gap, n * d) == plan.sup_error_bound(m) <= F(c * (k - 1), n)
    sizes = [plan.size_for(m) for m in range(1, 6)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    return plan


def assert_rounded_bound(region, target, ms=(1, 2, 4)):
    """Plan a target whose scale s = min(d, sum of |C|) is below d and check
    that its multiplicities are m * s * f_C / d rounded half up, that
    generate(m) has size_for(m) points, no more than m * d + c(k-1), that its
    window recount is exactly sup_error_bound(m) from the target, that
    size_for(1) <= 2 * sum of |C| + c(k-1), and that sizes increase in m."""
    k = region.k
    plan = region.plan(target)
    c = len(plan.parts)
    d = target.denominator
    assert plan.scale < d
    total = sum(len(cycle) for _, cycle in plan.decomposition)
    assert plan.scale == min(d, total)
    words = [p.word for p in all_patterns(k)]
    for m in ms:
        # g_C = max(1, m s f_C / d rounded half up)
        half_up = [math.floor(F(m * plan.scale * f, d) + F(1, 2)) for f in plan.flows]
        assert plan.multiplicities(m) == tuple(max(1, g) for g in half_up)
        # s <= d and f_C >= 1, so no cycle is walked more than m * f_C times
        assert all(g <= m * f for g, f in zip(plan.multiplicities(m), plan.flows))
        sigma = plan.generate(m)
        n = plan.size_for(m)
        assert len(sigma) == n <= m * d + c * (k - 1)
        counts = naive_cocc_counts(sigma.word, k)
        gap = max(abs(counts.get(w, 0) * d - x * n) for w, x in zip(words, target.numerators))
        assert F(gap, n * d) == plan.sup_error_bound(m)
    assert plan.size_for(1) <= 2 * total + c * (k - 1)
    sizes = [plan.size_for(m) for m in range(1, 17)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    return plan


class TestMembership:
    def test_uniform_is_feasible(self):
        result = feasible_region(3).membership(PatternVector.uniform(3))
        assert result.member
        weights = {c.edge_ids: w for w, c in result.decomposition}
        assert weights == {(0,): F(1, 6), (1, 2): F(1, 3), (3, 4): F(1, 3), (5,): F(1, 6)}

    def test_point_mass_on_132_fails_conservation(self):
        result = feasible_region(3).membership(point_mass(P("132")))
        assert not result.member
        assert "12" in result.violation

    def test_two_loops_half_each(self):
        vec = PatternVector(
            3,
            {p: F(1, 2) if str(p) in ("123", "321") else F(0) for p in all_patterns(3)},
        )
        result = feasible_region(3).membership(vec)
        assert result.member
        assert [(w, c.edge_ids) for w, c in result.decomposition] == [
            (F(1, 2), (0,)),
            (F(1, 2), (5,)),
        ]

    def test_wrong_domain(self):
        with pytest.raises(IndexError):
            feasible_region(3).membership(PatternVector.uniform(4))

    def test_dimension_formula(self):
        assert feasible_region(3).dimension() == 4 == math.factorial(3) - math.factorial(2)
        assert feasible_region(4).dimension() == 18 == math.factorial(4) - math.factorial(3)

    @pytest.mark.parametrize("k", [3, 4])
    def test_equation_system_is_the_endpoint_balance(self, k):
        # one row per pattern rho of size k-1: (sum over patterns starting
        # with rho) = (sum over patterns ending with rho), plus the sum row
        region = feasible_region(k)
        rows, rhs = region.polytope.equation_system()
        patterns = all_patterns(k)
        vertex_patterns = all_patterns(k - 1)
        assert len(rows) == len(vertex_patterns) + 1
        for vid, rho in enumerate(vertex_patterns):
            for eid, pattern in enumerate(patterns):
                w = pattern.word
                expected = int(end_pattern(w) == rho.word) - int(begin_pattern(w) == rho.word)
                assert rows[vid][eid] == expected
            assert rhs[vid] == 0
        assert rows[-1] == tuple([1] * len(patterns)) and rhs[-1] == 1


class TestSingleRoute:
    """Every membership answer for a pattern vector is the polytope's public
    answer on ``point_of`` of the vector."""

    @pytest.fixture
    def entries(self, monkeypatch):
        """The names of the polytope's membership methods, in call order."""
        calls = []
        for name in ("membership", "convex_decomposition", "_membership"):

            def counted(self, *args, _name=name, _original=getattr(CyclePolytope, name)):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(CyclePolytope, name, counted)
        return calls

    def test_callers_reach_the_public_entries(self, entries, capsys):
        region = feasible_region(3)
        region.membership(PatternVector.uniform(3))
        assert entries == ["membership", "_membership"]
        entries.clear()
        region.membership(point_mass(P("132")))
        assert entries == ["membership", "_membership"]
        entries.clear()
        region.plan(PatternVector.uniform(3))
        assert entries == ["convex_decomposition", "_membership"]
        entries.clear()
        with pytest.raises(NotInPolytopeError):
            region.plan(point_mass(P("132")))
        assert entries == ["convex_decomposition", "_membership"]
        entries.clear()
        assert run(["decompose", "--k", "3", "--vector", "uniform"]) == 0
        assert entries == ["convex_decomposition", "_membership"]
        capsys.readouterr()

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_exact_point_answers_as_its_fractions(self, k):
        rng = random.Random(2600 + k)
        region = feasible_region(k)
        polytope, graph = region.polytope, region.overlap.graph
        for n_cycles in (1, 3, 8):
            planted = planted_point(rng, graph, n_cycles)
            vector = region.vector_of(planted)
            point = region.point_of(vector)
            assert len(point) == math.factorial(k) == graph.n_edges
            assert list(point) == vector.values_by_pattern() == planted
            assert [point[i] for i in (0, -1)] == [planted[0], planted[-1]]
            assert polytope.convex_decomposition(point) == polytope.convex_decomposition(planted)
            assert polytope.membership(point) == polytope.membership(list(point))
            for how in ("sum", "balance"):
                broken = region.vector_of(broken_point(rng, graph, planted, how))
                exact, fractions = region.point_of(broken), broken.values_by_pattern()
                assert polytope.membership(exact) == polytope.membership(fractions)
                with pytest.raises(NotInPolytopeError) as info:
                    polytope.convex_decomposition(fractions)
                with pytest.raises(NotInPolytopeError, match=f"^{re.escape(str(info.value))}$"):
                    polytope.convex_decomposition(exact)

    def test_exact_point_is_immutable(self):
        point = feasible_region(3).point_of(PatternVector.uniform(3))
        for field, value in (("numerators", (1,) * 6), ("denominator", 1)):
            with pytest.raises(AttributeError):
                setattr(point, field, value)
        assert point.numerators == (1,) * 6 and point.denominator == 6

    def test_wrong_length_exact_point(self):
        point = feasible_region(3).point_of(PatternVector.uniform(3))
        with pytest.raises(IndexError, match="^point has 6 entries, graph has 24 edges$"):
            feasible_region(4).polytope.membership(point)


class TestRealize:
    def test_plan_hashes_and_keys_a_dict(self):
        region = feasible_region(3)
        plan, again = region.plan(PatternVector.uniform(3)), region.plan(PatternVector.uniform(3))
        assert plan == again and hash(plan) == hash(again)
        assert {plan: "uniform"}[again] == "uniform"
        other = region.plan(PatternVector.from_values(3, ["1/3", "0", "1/3", "1/3", "0", "0"]))
        assert other != plan and len({plan, again, other}) == 2

    def test_size_cap_checked_before_building(self, monkeypatch):
        assert feasible_region(6).plan(PatternVector.uniform(6)).size_for(1) == 725
        plan = feasible_region(7).plan(PatternVector.uniform(7))
        assert plan.size_for(2000) == 10_080_006
        with pytest.raises(CapacityError, match="realize"):
            plan.generate(2000)
        small = feasible_region(4).plan(PatternVector.uniform(4))
        monkeypatch.setenv("PERMUTOPE_CAP", "realize=26")
        with pytest.raises(CapacityError, match="26"):
            small.generate(1)
        monkeypatch.setenv("PERMUTOPE_CAP", "realize=27")
        assert len(small.generate(1)) == small.size_for(1) == 27

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_flow_sizing_on_planted_targets(self, k):
        rng = random.Random(1100 + k)
        region = feasible_region(k)
        rounded = 0
        # more cycles at k = 5, 6 plant larger denominators
        for n_cycles in range(1, 9 if k <= 4 else 13):
            target = region.vector_of(planted_point(rng, region.overlap.graph, n_cycles))
            plan = region.plan(target)
            d = math.lcm(*(x.denominator for x in region.point_of(target)))
            cycles = [c for _, c in plan.decomposition]
            assert sum(f * len(c) for f, c in zip(plan.flows, cycles)) == d
            if plan.scale != d:
                rounded += 1
                assert_rounded_bound(region, target, (1, 2, 4))
            else:
                assert d == sum(map(len, cycles)) and set(plan.flows) == {1}
                # the oracle recount at k = 6, m = 4 costs seconds; proportion_vector covers it
                assert_parts_bound(region, target, (1, 2, 4) if k <= 5 else (1, 2))
            # the closed form of the lcm sizing that the integer flows replaced
            weight_lcm = math.lcm(*(w.denominator for w, _ in plan.decomposition))
            cycle_lcm = math.lcm(*map(len, cycles))
            for m in (1, 2, 4):
                assert plan.size_for(m) <= m * cycle_lcm * weight_lcm + len(cycles) * (k - 1)
            for m in (1, 2, 4):
                distance = proportion_vector(k, plan.generate(m), "consecutive").linf_distance(target)
                assert distance == plan.sup_error_bound(m)
        assert rounded >= (0 if k <= 4 else 4)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_flows_are_the_peeled_integers(self, k):
        # w·d/|C| is an integer, so the flow read off w's numerator and
        # denominator is the Fraction product's
        rng = random.Random(1200 + k)
        region = feasible_region(k)
        for _ in range(200):
            target = region.vector_of(planted_point(rng, region.overlap.graph, rng.randint(1, 12)))
            plan = region.plan(target)
            products = [w * target.denominator / len(c) for w, c in plan.decomposition]
            assert {x.denominator for x in products} == {1}
            assert plan.flows == tuple(map(int, products))

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_exact_error_against_the_loose_bound(self, k):
        # the planted targets of the sizing test, both modes
        rng = random.Random(1100 + k)
        region = feasible_region(k)
        index = {p.word: e for e, p in enumerate(all_patterns(k))}
        modes = set()
        for n_cycles in range(1, 9 if k <= 4 else 13):
            target = region.vector_of(planted_point(rng, region.overlap.graph, n_cycles))
            plan = region.plan(target)
            modes.add(plan.scale == target.denominator)
            for m in (1, 2, 4):
                assert plan.sup_error_bound(m) <= loose_error_bound(plan, m)
            # b_e is read off the parts' start vertices, so both sizes recount it
            c = len(plan.parts)
            for m in (1, 3):
                g = plan.multiplicities(m)
                blocks = [
                    sum(g[i] * len(edges) for edges, i in steps if i is not None) + k - 1
                    for steps in plan.parts
                ]
                sigma = plan.generate(m)
                assert sum(blocks) == len(sigma)
                straddling = straddling_window_counts(sigma.word, blocks, k)
                assert sum(straddling.values()) == (c - 1) * (k - 1)
                assert tuple(sorted((index[w], b) for w, b in straddling.items())) == plan.boundary
        assert modes == {True, False}

    @pytest.mark.parametrize("k", [3, 4])
    def test_parts_bound_on_every_vertex_pair_target(self, k):
        region = feasible_region(k)
        st = region.overlap.graph.st
        cycles = list(region.polytope.simple_cycles())
        for a, b in itertools.combinations(cycles, 2):
            values = [F(0)] * len(all_patterns(k))
            for cycle in (a, b):
                for eid in cycle.edge_ids:
                    values[eid] += F(1, 2 * len(cycle))
            target = region.vector_of(values)
            exact = region.plan(target).scale == target.denominator
            plan = (assert_parts_bound if exact else assert_rounded_bound)(region, target, (1,))
            shared = {st(e) for e in a.edge_ids} & {st(e) for e in b.edge_ids}
            assert len(plan.parts) == (1 if shared else 2)

    @pytest.mark.parametrize("k", [3, 4])
    def test_rounded_bound_on_every_vertex_pair_target(self, k):
        # weights 1/p and (p-1)/p put d past 256 c(k-1) for every pair; the
        # light cycle alternates between the earlier and the later one
        p = 10_007
        region = feasible_region(k)
        cycles = list(region.polytope.simple_cycles())
        for i, (a, b) in enumerate(itertools.combinations(cycles, 2)):
            if i % 2:
                a, b = b, a
            values = [F(0)] * len(all_patterns(k))
            for cycle, weight in ((a, F(1, p)), (b, F(p - 1, p))):
                for eid in cycle.edge_ids:
                    values[eid] += weight / len(cycle)
            assert_rounded_bound(region, region.vector_of(values))

    def test_two_loops_are_two_parts_and_uniform_is_one(self):
        region = feasible_region(3)
        # the loops 123 and 321 sit at different vertices
        loops = region.vector_of([F(1, 2), 0, 0, 0, 0, F(1, 2)])
        plan = assert_parts_bound(region, loops, (1, 2, 3))
        assert len(plan.parts) == 2
        assert [plan.size_for(m) for m in (1, 2, 3)] == [6, 8, 10]
        plan = assert_parts_bound(region, PatternVector.uniform(3))
        assert len(plan.decomposition) == 4 and len(plan.parts) == 1
        assert plan.size_for(1) == 8

    def test_scale_is_the_smaller_of_d_and_the_cycle_lengths(self):
        # loops 123 and 321 at 1/3 and 2/3: d = 3, flows (1, 2), sum of |C| = 2, c = 2
        region = feasible_region(3)
        target = region.vector_of([F(1, 3), 0, 0, 0, 0, F(2, 3)])
        plan = region.plan(target)
        assert plan.flows == (1, 2) and len(plan.parts) == 2
        assert plan.scale == 2
        # g_C = round(2 f_C / 3): 2/3 and 4/3 both round to 1
        assert plan.multiplicities(1) == (1, 1)
        assert plan.size_for(1) == 6
        assert plan.generate(1) == P("123654")
        for m in range(1, 5):
            distance = proportion_vector(3, plan.generate(m), "consecutive").linf_distance(target)
            assert distance == plan.sup_error_bound(m)

    def test_monotone_loop_gives_identity(self):
        region = feasible_region(3)
        target = vertex_vector(region, (0,))  # loop labeled 123
        plan = region.plan(target)
        for m in (1, 5, 40):
            sigma = plan.generate(m)
            assert sigma == Permutation.identity(m + 2)
            distance = proportion_vector(3, sigma, "consecutive").linf_distance(target)
            assert distance == F(2, m + 2)
            assert distance == plan.sup_error_bound(m)

    def test_two_cycle_alternation(self):
        region = feasible_region(3)
        target = vertex_vector(region, (1, 2))  # labels 132, 213
        plan = region.plan(target)
        sigma = plan.generate(1)
        assert sigma == P("1324")
        assert len(sigma) == 1 * 2 + 2

    def test_uniform_converges_within_bound(self):
        region = feasible_region(3)
        target = PatternVector.uniform(3)
        plan = region.plan(target)
        for m in (1, 10, 100):
            sigma = plan.generate(m)
            assert len(sigma) == plan.size_for(m)
            distance = proportion_vector(3, sigma, "consecutive").linf_distance(target)
            assert distance == plan.sup_error_bound(m)

    def test_sizes_strictly_increase(self):
        region = feasible_region(3)
        plan = region.plan(PatternVector.uniform(3))
        sizes = [plan.size_for(m) for m in range(1, 8)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_non_member_rejected(self):
        with pytest.raises(NotInPolytopeError):
            feasible_region(3).plan(point_mass(P("132")))

    def test_bad_m(self):
        plan = feasible_region(3).plan(PatternVector.uniform(3))
        with pytest.raises(ValueError):
            plan.generate(0)

    @pytest.mark.parametrize("k", [3, 4])
    def test_error_bound_for_every_vertex_target(self, k):
        region = feasible_region(k)
        cycles = list(region.polytope.simple_cycles())
        for cycle in cycles:
            target = vertex_vector(region, cycle.edge_ids)
            plan = region.plan(target)
            assert [c.edge_ids for _, c in plan.decomposition] == [cycle.edge_ids]
            for m in (10, 100, 1000):
                sigma = plan.generate(m)
                assert len(sigma) == m * len(cycle) + k - 1
                distance = proportion_vector(k, sigma, "consecutive").linf_distance(target)
                assert distance == plan.sup_error_bound(m)

    def test_uniform_target_at_size_four(self):
        region = feasible_region(4)
        target = PatternVector.uniform(4)
        plan = region.plan(target)
        assert sum(w for w, _ in plan.decomposition) == 1
        for m in (2, 20):
            sigma = plan.generate(m)
            assert len(sigma) == plan.size_for(m)
            distance = proportion_vector(4, sigma, "consecutive").linf_distance(target)
            assert distance == plan.sup_error_bound(m)

    def test_plan_json(self):
        region = feasible_region(3)
        plan = region.plan(PatternVector.uniform(3))
        data = plan.to_json_dict()
        assert data["k"] == 3
        assert data["scale"] == 6  # d = 6 = sum of |C|, so s = d
        assert [d["weight"] for d in data["decomposition"]] == ["1/6", "1/3", "1/3", "1/6"]
        assert plan.to_json() == plan.to_json()


class TestMix:
    def test_identity_blocks(self):
        ident = Permutation.identity(4)
        mixed = mix(lambda m: ident, lambda m: ident, 1)
        assert mixed == Permutation.identity(16)

    def test_outer_of_size_one(self):
        sigma = P("35142")
        assert mix(lambda m: sigma, lambda m: P("1"), 1) == sigma

    def test_size_cap(self, monkeypatch):
        big = Permutation.identity(100)
        monkeypatch.setenv("PERMUTOPE_CAP", "mix=100")
        with pytest.raises(CapacityError):
            mix(lambda m: big, lambda m: big, 1)

    def test_proof_bounds_exact(self):
        region = feasible_region(3)
        uniform_plan = region.plan(PatternVector.uniform(3))
        inners = [uniform_plan.generate(4), uniform_plan.generate(16), repeat_sum(50, P("21"))]
        outers = [repeat_sum(25, P("21")), repeat_sum(33, P("132")), P("2413")]
        patterns = [p for k in (2, 3) for p in all_patterns(k)]
        for inner in inners:
            assert len(inner) <= 200
            for outer in outers:
                mixed = mix(lambda m: inner, lambda m: outer, 1)
                for pattern in patterns:
                    k = len(pattern)
                    consec_gap = abs(
                        cocc_proportion(pattern, mixed) - cocc_proportion(pattern, inner)
                    )
                    assert consec_gap <= F(k, len(inner))
                    class_gap = abs(
                        occ_proportion(pattern, mixed) - occ_proportion(pattern, outer)
                    )
                    assert class_gap <= F(math.comb(k, 2), len(outer))


class TestConvergenceReport:
    def test_loop_plan_distance_closed_form(self):
        region = feasible_region(3)
        target = vertex_vector(region, (0,))
        plan = region.plan(target)
        report = convergence_report(
            plan.generate, 3, [1, 2, 4, 8], consecutive_target=target
        )
        sizes = [row.size for row in report.rows]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        for row in report.rows:
            assert row.linf_consecutive == F(2, row.m + 2)
        distances = [row.linf_consecutive for row in report.rows]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_constant_generator_constant_rows(self):
        sigma = P("35142")
        report = convergence_report(lambda m: sigma, 3, [1, 2, 3])
        sizes = [row.size for row in report.rows]
        assert not all(a < b for a, b in zip(sizes, sizes[1:]))
        vectors = {tuple(row.consecutive.values_by_pattern()) for row in report.rows}
        assert len(vectors) == 1

    def test_csv_round_trips_to_exact_rationals(self):
        import csv
        import io

        region = feasible_region(3)
        target = PatternVector.uniform(3)
        plan = region.plan(target)
        report = convergence_report(plan.generate, 3, [1, 2], consecutive_target=target)
        text = report.to_csv()
        reader = csv.DictReader(io.StringIO(text))
        rows = list(reader)
        assert len(rows) == 2
        for parsed, row in zip(rows, report.rows):
            assert int(parsed["m"]) == row.m
            assert int(parsed["size"]) == row.size
            for pattern in all_patterns(3):
                assert F(parsed[f"cocc_{pattern}"]) == row.consecutive[pattern]
                assert F(parsed[f"occ_{pattern}"]) == row.classical[pattern]
            assert F(parsed["linf_consec"]) == row.linf_consecutive
            assert parsed["linf_class"] == ""

    def test_classical_columns_blank_when_unaffordable(self):
        report = convergence_report(
            lambda m: Permutation.identity(40 + m), 4, [1], include_classical=True
        )
        assert report.rows[0].classical is None
        line = report.to_csv().splitlines()[1]
        assert ",,," in line

    def test_mix_generator_report(self):
        region = feasible_region(3)
        plan = region.plan(PatternVector.uniform(3))
        outer_gen = monotone_sum_generator(P("21"))

        def mixed_gen(m):
            return mix(plan.generate, outer_gen, m)

        # a long sum of descents looks classically like the identity at size 3
        classical_target = point_mass(P("123"))
        report = convergence_report(
            mixed_gen,
            3,
            [1, 2, 4],
            consecutive_target=PatternVector.uniform(3),
            classical_target=classical_target,
        )
        sizes = [row.size for row in report.rows]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        consec = [row.linf_consecutive for row in report.rows]
        classic = [row.linf_classical for row in report.rows]
        assert consec[0] > consec[-1]
        assert classic[0] > classic[-1]


class TestAtTheDefaultOverlapCap:
    """k = 8, the largest k under the default ``overlap`` cap: region,
    membership certificate and witness."""

    def test_uniform_membership_decomposition_adds_back(self):
        region = feasible_region(8)
        uniform = PatternVector.uniform(8)
        result = region.membership(uniform)
        assert result.member
        assert sum(weight for weight, _ in result.decomposition) == 1
        point = [F(0)] * math.factorial(8)
        for weight, cycle in result.decomposition:
            for eid in cycle.edge_ids:
                point[eid] += weight / len(cycle)
        assert point == list(region.point_of(uniform))

    def test_m1_witness_counts_at_its_bound(self):
        uniform = PatternVector.uniform(8)
        plan = feasible_region(8).plan(uniform)
        witness = plan.generate(1)
        assert len(witness) == plan.size_for(1)
        distance = proportion_vector(8, witness, "consecutive").linf_distance(uniform)
        assert distance == plan.sup_error_bound(1)
