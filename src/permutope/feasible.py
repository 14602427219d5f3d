"""The feasible region of consecutive-pattern proportion vectors.

For each k the region is the cycle polytope of the overlap graph, so
membership reduces to the flow equations over the patterns of size k.  This
module adds the constructive side: given a feasible rational target, build
explicit permutations whose consecutive proportions approach it with an
explicit O(1/size) bound, derandomize a finitely supported distribution into
a single block permutation, and combine a consecutive target with a classical
one through substitution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from . import limits
from .errors import CapacityError, DistributionError, NotInPolytopeError
from .graphs import SimpleCycle, Walk
from .overlap import build_overlap_graph
from .perms import (
    PatternVector,
    Permutation,
    all_patterns,
    direct_sum,
    proportion_vector,
    repeat_sum,
    substitute,
)
from .polytope import CyclePolytope, MembershipResult
from .rationals import as_fraction, integer_numerators

# A plan walks each cycle exactly m * f_C times while its target denominator
# d is at most this multiple of c(k-1), that is while the exact m = 1 witness
# is no finer than 1/257; past it the multiplicities are rounded.  On the
# realize benchmark (k = 3..6, 15 s runs, seeds 1-6) 64 and 256 read the same
# throughput (median 480 and 491 op/s) and 1024 reads 12% less (431 op/s);
# 256 is the larger of the two equal ratios, so more targets keep the exact
# witness and its certificate c(k-1)/N.
EXACT_MODE_RATIO = 256


class FeasibleRegion:
    """P_k as the cycle polytope of the overlap graph, with pattern-vector I/O.

    Edge id i of the overlap graph is the i-th pattern of size k in
    lexicographic order, the order of a PatternVector's numerators, so
    membership hands the stored numerators and denominator to the polytope.
    """

    __slots__ = ("k", "overlap", "polytope")

    def __init__(self, k: int) -> None:
        self.overlap = build_overlap_graph(k)
        self.k = k
        self.polytope = CyclePolytope(self.overlap.graph)

    def __repr__(self) -> str:
        return f"FeasibleRegion(k={self.k})"

    def dimension(self) -> int:
        return self.polytope.dimension()

    def _check_k(self, vector: PatternVector) -> None:
        if vector.k != self.k:
            raise IndexError(f"vector over S_{vector.k}, region over S_{self.k}")

    def point_of(self, vector: PatternVector) -> list[Fraction]:
        self._check_k(vector)
        return vector.values_by_pattern()

    def vector_of(self, point: Sequence) -> PatternVector:
        return PatternVector.from_values(self.k, point)

    def membership(self, vector: PatternVector) -> MembershipResult:
        self._check_k(vector)
        return self.polytope._membership(list(vector.numerators), vector.denominator)

    def realize(self, vector: PatternVector, m: int) -> tuple[Permutation, "RealizationPlan"]:
        """A permutation whose consecutive proportions at size k approximate
        the feasible target ``vector``, plus the reusable plan behind it."""
        plan = self.plan(vector)
        return plan.generate(m), plan

    def plan(self, vector: PatternVector) -> "RealizationPlan":
        result = self.membership(vector)
        if not result.member:
            raise NotInPolytopeError(result.violation)
        decomposition = result.decomposition
        # The greedy peeled flow f units of 1/d off each cycle C, where d is
        # the target's denominator, so its weight is f|C|/d.
        d = vector.denominator
        flows = tuple(int(w * d) // len(c) for w, c in decomposition)
        parts = _splice_parts(self.overlap.graph._st, [c.edge_ids for _, c in decomposition])
        # Past the ratio s = d only if d <= sum of |C|, where rounding at s = d
        # gives m * f_C anyway, so s == d is exact mode either way.
        exact = d <= EXACT_MODE_RATIO * len(parts) * (self.k - 1)
        scale = d if exact else min(d, sum(len(c) for _, c in decomposition))
        return RealizationPlan(
            region=self,
            target=vector,
            decomposition=decomposition,
            flows=flows,
            parts=parts,
            scale=scale,
        )


def _splice_parts(st: Sequence[int], cycles: Sequence[tuple[int, ...]]) -> tuple:
    """Group cycles (edge-id tuples; ``st`` maps an edge to its start) into
    parts linked by shared vertices, each laid out as one closed walk in
    O(sum of |C|) steps; no walk of size m * d is built here.

    A depth-first search enters each cycle at the vertex it shares with the
    cycle it is spliced into, and splices every cycle first reached at a
    vertex into the first traversal there.  A step ``(edges, None)`` is a
    slice of a first traversal, walked once; ``(edges, i)`` is cycle i
    rotated to its entry vertex, walked g_i - 1 more times for multiplicity g_i.
    """
    through: dict[int, list[int]] = {}
    for i, edges in enumerate(cycles):
        for e in edges:
            through.setdefault(st[e], []).append(i)
    seen = [False] * len(cycles)
    parts = []
    for root in range(len(cycles)):
        if seen[root]:
            continue
        seen[root] = True
        steps: list[tuple[tuple[int, ...], int | None]] = []
        stack = [(cycles[root], root, 0)]  # rotated cycle, index, first edge not walked
        while stack:
            rotated, i, done = stack.pop()
            for pos in range(done, len(rotated)):
                # The first visit to a vertex claims it for every cycle through it.
                spliced = [j for j in through.pop(st[rotated[pos]], ()) if not seen[j]]
                if spliced:
                    break
            else:
                steps += [(rotated[done:], None), (rotated, i)]
                continue
            steps.append((rotated[done:pos], None))
            stack.append((rotated, i, pos))
            for j in reversed(spliced):
                seen[j] = True
                at = [st[e] for e in cycles[j]].index(st[rotated[pos]])
                stack.append((cycles[j][at:] + cycles[j][:at], j, 0))
        parts.append(tuple(steps))
    return tuple(parts)


@lru_cache(maxsize=None)
def feasible_region(k: int) -> FeasibleRegion:
    return FeasibleRegion(k)


def decomposition_json(
    decomposition: Iterable[tuple[Fraction, SimpleCycle]], weight: Callable[[Fraction], str] = str
) -> list[dict]:
    """One row per cycle: its weight written by ``weight``, edge ids and labels."""
    return [
        {"weight": weight(w), "cycle_edges": list(c.edge_ids), "cycle_labels": list(c.labels())}
        for w, c in decomposition
    ]


@dataclass(frozen=True)
class RealizationPlan:
    """Block construction realizing a feasible target.

    The target x = n/d is the convex combination of the decomposition's
    cycles, and cycle C carries the integer flow f_C (so n_e is the sum of
    f_C over the cycles through edge e, and d is the sum of f_C * |C|).  For a
    size parameter m, cycle C is traversed g_C(m) times (``multiplicities``):
    each of the c ``parts`` (cycles linked by shared vertices) contributes one
    block realizing a closed walk through its cycles, and the blocks are
    joined by direct sums.

    The ``scale`` s sets g_C(m) = max(1, round(m * s * f_C / d)).  It is d
    (exact mode, g_C = m * f_C) when d <= 256 c(k-1), and min(d, sum of |C|)
    otherwise, so the witness size follows the accuracy asked for, not d.
    """

    region: FeasibleRegion = field(repr=False)
    target: PatternVector
    decomposition: tuple[tuple[Fraction, SimpleCycle], ...]
    flows: tuple[int, ...]
    parts: tuple[tuple[tuple[tuple[int, ...], int | None], ...], ...] = field(repr=False)
    scale: int

    def multiplicities(self, m: int) -> tuple[int, ...]:
        """g_C(m), the traversals of each decomposition cycle: m * f_C in
        exact mode, else max(1, round(m * s * f_C / d)).  Since s >= d / max f_C,
        the heaviest cycle gains at least one traversal per step of m, and
        since s <= d, g_C(m) <= m * f_C, so no witness is larger than in exact mode."""
        d, s = self.target.denominator, self.scale
        return tuple(max(1, (2 * m * s * f + d) // (2 * d)) for f in self.flows)

    def _walk_length(self, g: Sequence[int]) -> int:
        """Y = sum of g_C * |C|, the edges of the c walks together."""
        return sum(gi * len(c) for gi, (_, c) in zip(g, self.decomposition))

    def size_for(self, m: int) -> int:
        """N = Y + c(k-1) for c parts and Y = sum of g_C(m) * |C|: a walk of L
        edges is realized by a permutation of L + k - 1 points, and the c walks
        have Y edges (m * d in exact mode, at most m * d otherwise)."""
        return self._walk_length(self.multiplicities(m)) + len(self.parts) * (self.region.k - 1)

    def sup_error_bound(self, m: int) -> Fraction:
        """Bound on the sup-distance between the size-k consecutive
        proportions of generate(m) and the target: (R + c(k-1))/N for c parts,
        N = size_for(m) points and R = max over e of |y_e - x_e * Y|, where
        y_e = sum of g_C(m) over the cycles through e and Y = sum of g_C(m) * |C|.
        In exact mode y_e = m * n_e and Y = m * d, so R = 0 and the bound is
        c(k-1)/N.

        Proof.  Each window lying inside a block is one edge of its part's walk, and
        the walks traverse every edge of cycle C exactly g_C times, so edge e is
        counted y_e times inside blocks, Y windows in all.  The remaining windows
        straddle one of the c - 1 block boundaries, k - 1 per boundary; let b_e of
        them have pattern e, so 0 <= b_e <= (c-1)(k-1).  Proportions divide by
        N = Y + c(k-1), hence
        p_e - x_e = (y_e + b_e)/N - x_e = (y_e - x_e * Y + b_e - x_e * c(k-1))/N,
        where |y_e - x_e * Y| <= R and both b_e and x_e * c(k-1) lie in [0, c(k-1)].
        """
        d, g = self.target.denominator, self.multiplicities(m)
        length = self._walk_length(g)
        # R * d = max |y_e * d - n_e * Y|, and y_e * d - n_e * Y sums
        # g_C * d - f_C * Y over the cycles C through e; every term is 0 in
        # exact mode.
        drift = [gi * d - f * length for gi, f in zip(g, self.flows)]
        error = 0
        if any(drift):
            per_edge: dict[int, int] = {}
            for a, (_, cycle) in zip(drift, self.decomposition):
                for e in cycle.edge_ids:
                    per_edge[e] = per_edge.get(e, 0) + a
            error = max(map(abs, per_edge.values()))
        boundary = len(self.parts) * (self.region.k - 1)
        return Fraction(error + boundary * d, (length + boundary) * d)

    def generate(self, m: int) -> Permutation:
        """The realizing permutation for size parameter m >= 1; sizes are
        strictly increasing in m.  A size over the ``realize`` cap is refused
        before any walk is built."""
        if m < 1:
            raise ValueError(f"size parameter must be >= 1, got {m}")
        size, cap = self.size_for(m), limits.cap("realize")
        if size > cap:
            raise CapacityError(
                f"realizing permutation would have size {size}, over the realize cap "
                f"{cap} (PERMUTOPE_CAP key 'realize')"
            )
        og, g = self.region.overlap, self.multiplicities(m)
        blocks = []
        for steps in self.parts:
            walk: list[int] = []
            for edges, i in steps:
                walk += edges if i is None else edges * (g[i] - 1)
            # Splicing closed walks at shared vertices keeps the walk closed.
            blocks.append(og.permutation_of_walk(Walk._trusted(og.graph, tuple(walk))))
        return direct_sum(*blocks)

    def to_json_dict(self) -> dict:
        return {
            "k": self.region.k,
            "target": self.target.to_json_dict(),
            "decomposition": decomposition_json(self.decomposition),
            "scale": self.scale,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def derandomize_weights(
    distribution: Mapping[Permutation, object], epsilon: Fraction | None = None
) -> dict[Permutation, int]:
    """Integer multiplicities q approximating a distribution: |q/sum(q) - p|
    is zero when the exact denominators are affordable, and at most epsilon
    after largest-remainder rounding otherwise."""
    if not distribution:
        raise DistributionError("empty distribution")
    support = sorted(distribution, key=lambda p: p.word)
    sizes = {len(p) for p in support}
    if len(sizes) != 1:
        raise DistributionError(f"support mixes sizes {sorted(sizes)}")
    probs = {p: as_fraction(distribution[p]) for p in support}
    if any(v < 0 for v in probs.values()):
        raise DistributionError("negative probability")
    total = sum(probs.values(), Fraction(0))
    if total != 1:
        raise DistributionError(f"probabilities sum to {total}, not 1")
    if epsilon is None:
        epsilon = Fraction(1, len(support) * 10**6)
    epsilon = as_fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    numerators, exact_denominator = integer_numerators(list(probs.values()))
    if epsilon == 0 or exact_denominator <= math.ceil(1 / epsilon):
        weights = dict(zip(support, numerators))
    else:
        scale = math.ceil(1 / epsilon)
        floors = {p: math.floor(v * scale) for p, v in probs.items()}
        remainders = sorted(
            support, key=lambda p: (probs[p] * scale - floors[p], p.word), reverse=True
        )
        deficit = scale - sum(floors.values())
        weights = dict(floors)
        for p in remainders[:deficit]:
            weights[p] += 1
    shrink = math.gcd(*weights.values())
    return {p: q // shrink for p, q in weights.items()}


def _check_mix_size(what: str, size: int) -> None:
    cap = limits.cap("mix")
    if size > cap:
        raise CapacityError(
            f"{what} would have size {size}, over the mix cap {cap} (PERMUTOPE_CAP key 'mix')"
        )


def derandomize(
    distribution: Mapping[Permutation, object], epsilon: Fraction | None = None
) -> Permutation:
    """A single permutation built from integer-weighted blocks of the support,
    whose consecutive proportions match the distribution's expectation up to
    epsilon plus a boundary term of |pattern|/n."""
    weights = derandomize_weights(distribution, epsilon)
    block_size = len(next(iter(weights)))
    total_copies = sum(weights.values())
    _check_mix_size("derandomized permutation", block_size * total_copies)
    return direct_sum(*[repeat_sum(q, p) for p, q in sorted(weights.items()) if q > 0])


def mix(
    generator_consecutive: Callable[[int], Permutation],
    generator_classical: Callable[[int], Permutation],
    m: int,
) -> Permutation:
    """Substitute copies of the consecutive-side permutation into the
    classical-side permutation.

    The result inherits the consecutive statistics of A = generator_consecutive(m)
    up to |pattern|/|A| and the classical statistics of B = generator_classical(m)
    up to C(|pattern|, 2)/|B|, both exactly in rational arithmetic.
    """
    inner = generator_consecutive(m)
    outer = generator_classical(m)
    _check_mix_size("mixed permutation", len(inner) * len(outer))
    return substitute(outer, [inner] * len(outer))


def monotone_sum_generator(block: Permutation) -> Callable[[int], Permutation]:
    """m -> direct sum of m copies of ``block``; a basic classical-side witness."""

    def gen(m: int) -> Permutation:
        return repeat_sum(m, block)

    return gen


@dataclass(frozen=True)
class ReportRow:
    m: int
    size: int
    consecutive: PatternVector
    classical: PatternVector | None
    linf_consecutive: Fraction | None
    linf_classical: Fraction | None


@dataclass(frozen=True)
class ConvergenceReport:
    k: int
    rows: tuple[ReportRow, ...]

    def sizes_strictly_increasing(self) -> bool:
        sizes = [row.size for row in self.rows]
        return all(a < b for a, b in zip(sizes, sizes[1:]))

    def to_csv(self) -> str:
        patterns = all_patterns(self.k)
        header = (
            ["m", "size"]
            + [f"cocc_{p}" for p in patterns]
            + [f"occ_{p}" for p in patterns]
            + ["linf_consec", "linf_class"]
        )
        lines = [",".join(header)]
        for row in self.rows:
            cells = [str(row.m), str(row.size)]
            cells += map(str, row.consecutive.values_by_pattern())
            if row.classical is None:
                cells += ["" for _ in patterns]
            else:
                cells += map(str, row.classical.values_by_pattern())
            cells.append("" if row.linf_consecutive is None else str(row.linf_consecutive))
            cells.append("" if row.linf_classical is None else str(row.linf_classical))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def convergence_report(
    generator: Callable[[int], Permutation],
    k: int,
    m_values: Iterable[int],
    *,
    consecutive_target: PatternVector | None = None,
    classical_target: PatternVector | None = None,
    include_classical: bool = True,
) -> ConvergenceReport:
    """Evaluate proportion vectors of generator(m) for each m.

    Rows are produced in increasing m.  Classical columns are left empty when
    counting them is not affordable for the generated size (pattern sizes
    >= 4 beyond the enumeration cap).
    """
    rows = []
    for m in sorted(set(m_values)):
        sigma = generator(m)
        consecutive = proportion_vector(k, sigma, "consecutive")
        classical: PatternVector | None = None
        if include_classical:
            try:
                classical = proportion_vector(k, sigma, "classical")
            except CapacityError:
                classical = None
        linf_consec = (
            consecutive.linf_distance(consecutive_target) if consecutive_target else None
        )
        linf_class = (
            classical.linf_distance(classical_target)
            if (classical is not None and classical_target is not None)
            else None
        )
        rows.append(ReportRow(m, len(sigma), consecutive, classical, linf_consec, linf_class))
    return ConvergenceReport(k, tuple(rows))
