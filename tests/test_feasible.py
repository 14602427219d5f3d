import itertools
import math
import random
from fractions import Fraction

import pytest

from permutope import (
    CapacityError,
    DistributionError,
    NotInPolytopeError,
    PatternVector,
    Permutation,
    SimpleCycle,
    all_patterns,
    cocc_proportion,
    convergence_report,
    derandomize,
    derandomize_weights,
    feasible_region,
    mix,
    monotone_sum_generator,
    occ_proportion,
    proportion_vector,
    repeat_sum,
)
from oracles import naive_cocc_counts
from test_polytope import planted_point

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
    m*d + c(k-1) points for c <= B parts, that its window recount lies within
    c(k-1)/N of the target, and that sizes increase in m."""
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
        assert plan.sup_error_bound(m) == F(c * (k - 1), n)
        # |count/n - x/d| over all patterns, in units of 1/(n d)
        counts = naive_cocc_counts(sigma.word, k)
        gap = max(abs(counts.get(w, 0) * d - x * n) for w, x in zip(words, target.numerators))
        assert F(gap, n * d) <= plan.sup_error_bound(m)
    sizes = [plan.size_for(m) for m in range(1, 6)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    return plan


def assert_rounded_bound(region, target, ms=(1, 2, 4)):
    """Plan a target with d > 256 c(k-1) and check that it is in rounded
    mode at scale s = min(d, sum of |C|), that generate(m) has size_for(m)
    points, no more than the exact m * d + c(k-1), that its window recount
    lies within sup_error_bound(m), that size_for(1) <= 2 * sum of |C| + c(k-1),
    and that sizes increase in m."""
    k = region.k
    plan = region.plan(target)
    c = len(plan.parts)
    d = target.denominator
    assert d > 256 * c * (k - 1)
    total = sum(len(cycle) for _, cycle in plan.decomposition)
    assert plan.scale == min(d, total)
    words = [p.word for p in all_patterns(k)]
    for m in ms:
        # g_C = max(1, m s f_C / d rounded half up)
        half_up = [math.floor(F(m * plan.scale * f, d) + F(1, 2)) for f in plan.flows]
        assert plan.multiplicities(m) == tuple(max(1, g) for g in half_up)
        # s <= d and f_C >= 1, so no cycle is walked more often than in exact mode
        assert all(g <= m * f for g, f in zip(plan.multiplicities(m), plan.flows))
        sigma = plan.generate(m)
        n = plan.size_for(m)
        assert len(sigma) == n <= m * d + c * (k - 1)
        counts = naive_cocc_counts(sigma.word, k)
        gap = max(abs(counts.get(w, 0) * d - x * n) for w, x in zip(words, target.numerators))
        assert F(gap, n * d) <= plan.sup_error_bound(m)
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
        result = feasible_region(3).membership(PatternVector.point_mass(P("132")))
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
        from permutope import begin_pattern, end_pattern

        region = feasible_region(k)
        rows, rhs = region.polytope.equation_system()
        patterns = all_patterns(k)
        vertex_patterns = all_patterns(k - 1)
        assert len(rows) == len(vertex_patterns) + 1
        for vid, rho in enumerate(vertex_patterns):
            for eid, pattern in enumerate(patterns):
                expected = int(end_pattern(pattern) == rho) - int(begin_pattern(pattern) == rho)
                assert rows[vid][eid] == expected
            assert rhs[vid] == 0
        assert rows[-1] == tuple([1] * len(patterns)) and rhs[-1] == 1


class TestRealize:
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
        # more cycles at k = 5, 6 plant denominators past 256 c(k-1)
        for n_cycles in range(1, 9 if k <= 4 else 13):
            target = region.vector_of(planted_point(rng, region.overlap.graph, n_cycles))
            plan = region.plan(target)
            d = math.lcm(*(x.denominator for x in region.point_of(target)))
            cycles = [c for _, c in plan.decomposition]
            assert sum(f * len(c) for f, c in zip(plan.flows, cycles)) == d
            if d > 256 * len(plan.parts) * (k - 1):
                rounded += 1
                assert_rounded_bound(region, target, (1, 2, 4))
            else:
                assert plan.scale == d
                # the oracle recount at k = 6, m = 4 costs seconds; proportion_vector covers it
                assert_parts_bound(region, target, (1, 2, 4) if k <= 5 else (1, 2))
            # the closed form of the lcm sizing that the integer flows replaced
            weight_lcm = math.lcm(*(w.denominator for w, _ in plan.decomposition))
            cycle_lcm = math.lcm(*map(len, cycles))
            for m in (1, 2, 4):
                assert plan.size_for(m) <= m * cycle_lcm * weight_lcm + len(cycles) * (k - 1)
            for m in (1, 2, 4):
                distance = proportion_vector(k, plan.generate(m), "consecutive").linf_distance(target)
                assert distance <= plan.sup_error_bound(m)
        assert rounded >= (0 if k <= 4 else 4)

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
            plan = assert_parts_bound(region, region.vector_of(values), (1,))
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

    def test_monotone_loop_gives_identity(self):
        region = feasible_region(3)
        target = vertex_vector(region, (0,))  # loop labeled 123
        for m in (1, 5, 40):
            sigma, plan = region.realize(target, m)
            assert sigma == Permutation.identity(m + 2)
            distance = proportion_vector(3, sigma, "consecutive").linf_distance(target)
            assert distance == F(2, m + 2)
            assert distance <= plan.sup_error_bound(m)

    def test_two_cycle_alternation(self):
        region = feasible_region(3)
        target = vertex_vector(region, (1, 2))  # labels 132, 213
        sigma, plan = region.realize(target, 1)
        assert sigma == P("1324")
        assert len(sigma) == 1 * 2 + 2

    def test_uniform_converges_within_bound(self):
        region = feasible_region(3)
        target = PatternVector.uniform(3)
        for m in (1, 10, 100):
            sigma, plan = region.realize(target, m)
            assert len(sigma) == plan.size_for(m)
            distance = proportion_vector(3, sigma, "consecutive").linf_distance(target)
            assert distance <= plan.sup_error_bound(m)

    def test_sizes_strictly_increase(self):
        region = feasible_region(3)
        _, plan = region.realize(PatternVector.uniform(3), 1)
        sizes = [plan.size_for(m) for m in range(1, 8)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_non_member_rejected(self):
        with pytest.raises(NotInPolytopeError):
            feasible_region(3).realize(PatternVector.point_mass(P("132")), 3)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            feasible_region(3).realize(PatternVector.uniform(3), 0)

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
                assert distance <= plan.sup_error_bound(m)

    def test_uniform_target_at_size_four(self):
        region = feasible_region(4)
        target = PatternVector.uniform(4)
        plan = region.plan(target)
        assert sum(w for w, _ in plan.decomposition) == 1
        for m in (2, 20):
            sigma = plan.generate(m)
            assert len(sigma) == plan.size_for(m)
            distance = proportion_vector(4, sigma, "consecutive").linf_distance(target)
            assert distance <= plan.sup_error_bound(m)

    def test_plan_json(self):
        region = feasible_region(3)
        plan = region.plan(PatternVector.uniform(3))
        data = plan.to_json_dict()
        assert data["k"] == 3
        assert data["scale"] == 6  # d = 6: exact mode
        assert [d["weight"] for d in data["decomposition"]] == ["1/6", "1/3", "1/3", "1/6"]
        assert plan.to_json() == plan.to_json()


def all_rational_distributions(patterns, denominator):
    """Every probability assignment with the given common denominator."""
    n = len(patterns)
    for cuts in itertools.combinations(range(denominator + n - 1), n - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(denominator + n - 2 - prev)
        yield {
            p: F(a, denominator) for p, a in zip(patterns, parts) if a > 0
        }


class TestDerandomize:
    def test_point_mass(self):
        rho = P("231")
        assert derandomize({rho: 1}) == rho

    def test_uniform_pair_exact(self):
        nu = derandomize({P("12"): F(1, 2), P("21"): F(1, 2)})
        assert nu == P("1243")
        weights = derandomize_weights({P("12"): F(1, 2), P("21"): F(1, 2)})
        assert weights == {P("12"): 1, P("21"): 1}

    def test_two_to_one_blocks(self):
        nu = derandomize({P("123"): F(2, 3), P("321"): F(1, 3)})
        assert nu == P("123456987")

    def test_errors(self):
        with pytest.raises(DistributionError):
            derandomize({})
        with pytest.raises(DistributionError):
            derandomize({P("12"): F(1, 2)})
        with pytest.raises(DistributionError):
            derandomize({P("12"): F(1, 2), P("123"): F(1, 2)})

    def test_size_cap_names_the_mix_key(self, monkeypatch):
        message = r"size 4, over the mix cap 3 \(PERMUTOPE_CAP key 'mix'\)"
        monkeypatch.setenv("PERMUTOPE_CAP", "mix=3")
        with pytest.raises(CapacityError, match=message):
            derandomize({P("12"): F(1, 2), P("21"): F(1, 2)})

    def test_rounding_path_respects_epsilon(self):
        # denominators too large for the exact path at this epsilon
        probs = {P("12"): F(333333333, 10**9), P("21"): F(666666667, 10**9)}
        eps = F(1, 100)
        weights = derandomize_weights(probs, eps)
        total = sum(weights.values())
        for p, q in weights.items():
            assert abs(F(q, total) - probs[p]) <= eps

    def test_expectation_bound_exhaustive_s3(self):
        patterns = all_patterns(3)
        seen = set()
        for denominator in range(1, 7):
            for dist in all_rational_distributions(patterns, denominator):
                key = tuple(sorted((str(p), v) for p, v in dist.items()))
                if key in seen:
                    continue
                seen.add(key)
                nu = derandomize(dist)
                n = 3
                for pattern in list(all_patterns(2)) + list(patterns):
                    expected = sum(
                        (prob * cocc_proportion(pattern, rho) for rho, prob in dist.items()),
                        F(0),
                    )
                    actual = cocc_proportion(pattern, nu)
                    # exact integer weights: the epsilon term vanishes
                    assert abs(actual - expected) <= F(len(pattern), n)


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
        assert report.sizes_strictly_increasing()
        for row in report.rows:
            assert row.linf_consecutive == F(2, row.m + 2)
        distances = [row.linf_consecutive for row in report.rows]
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_constant_generator_constant_rows(self):
        sigma = P("35142")
        report = convergence_report(lambda m: sigma, 3, [1, 2, 3])
        assert not report.sizes_strictly_increasing()
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
        classical_target = PatternVector.point_mass(P("123"))
        report = convergence_report(
            mixed_gen,
            3,
            [1, 2, 4],
            consecutive_target=PatternVector.uniform(3),
            classical_target=classical_target,
        )
        assert report.sizes_strictly_increasing()
        consec = [row.linf_consecutive for row in report.rows]
        classic = [row.linf_classical for row in report.rows]
        assert consec[0] > consec[-1]
        assert classic[0] > classic[-1]
