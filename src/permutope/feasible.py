"""The feasible region of consecutive-pattern proportion vectors.

For each k the region is the cycle polytope of the overlap graph, so
membership reduces to the flow equations over the patterns of size k.  This
module adds the constructive side: given a feasible rational target, build
explicit permutations whose consecutive proportions approach it, each
certified by its exact sup distance to the target, and evaluate the
convergence of a witness family.  ``mix``, which combines a consecutive
witness with a classical one through substitution, is defined in ``perms``
and importable from here as well.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from . import limits
from ._record import Record
from .errors import CapacityError
from .graphs import SimpleCycle, Walk
from .overlap import build_overlap_graph
from .perms import (
    PatternVector,
    Permutation,
    _window_ids,
    all_patterns,
    direct_sum,
    mix,  # noqa: F401  re-exported; defined in perms, so the mix verb loads no geometry
    proportion_vector,
    repeat_sum,
)
from .polytope import CyclePolytope, MembershipResult
from .rationals import ExactPoint

class FeasibleRegion:
    """P_k as the cycle polytope of the overlap graph, with pattern-vector I/O.

    Edge id i of the overlap graph is the i-th pattern of size k in
    lexicographic order, the order of a PatternVector's numerators, so
    ``point_of`` is those numerators over the vector's denominator, and
    membership and ``plan`` pass it to the polytope's public entries.
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

    def point_of(self, vector: PatternVector) -> ExactPoint:
        """The vector as a point of the polytope: its stored numerators over
        its denominator, one entry per edge; no Fraction is built."""
        if vector.k != self.k:
            raise IndexError(f"vector over S_{vector.k}, region over S_{self.k}")
        return ExactPoint(vector.numerators, vector.denominator)

    def vector_of(self, point: Sequence) -> PatternVector:
        return PatternVector.from_values(self.k, point)

    def membership(self, vector: PatternVector) -> MembershipResult:
        return self.polytope.membership(self.point_of(vector))

    def plan(self, vector: PatternVector) -> "RealizationPlan":
        decomposition = self.polytope.convex_decomposition(self.point_of(vector))
        # The greedy peeled flow f units of 1/d off each cycle C, where d is
        # the target's denominator, so its weight is f|C|/d and f = w·d/|C|,
        # an integer, read off w's numerator and denominator.
        d = vector.denominator
        flows = tuple(w.numerator * d // (w.denominator * len(c)) for w, c in decomposition)
        parts = _splice_parts(self.overlap.graph._st, [c.edge_ids for _, c in decomposition])
        return RealizationPlan(
            region=self,
            target=vector,
            decomposition=decomposition,
            flows=flows,
            parts=parts,
            scale=min(d, sum(len(c) for _, c in decomposition)),
            boundary=_boundary_counts(self.k, self.overlap.graph._st, parts),
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


def _boundary_counts(k: int, st: Sequence[int], parts: Sequence) -> tuple[tuple[int, int], ...]:
    """(e, b_e) for the edges e that label some of the (c-1)(k-1) windows
    straddling a block boundary of a plan's witness, b_e of them, by edge id.

    Part i's closed walk starts and ends at the vertex v_i where its first
    non-empty step starts (the first step, a slice of the root cycle, may be
    empty; the steps after it are walked in order).  So block i's first and
    last k-1 points both have pattern v_i, and the straddling windows are the
    width-k windows of v_1 + ... + v_c (direct sum), whatever m is: each of
    them meets two blocks, as k points do not fit in k-1.
    """
    if len(parts) < 2:
        return ()
    heads = all_patterns(k - 1)
    starts = [st[next(edges for edges, _ in steps if edges)[0]] for steps in parts]
    # Built inline: direct_sum is traced as a witness (its perms.sum span).
    word = [v + i * (k - 1) for i, u in enumerate(starts) for v in heads[u].word]
    return tuple(sorted(Counter(_window_ids(word, k)).items()))


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


class RealizationPlan(Record, hidden=("region", "parts", "boundary")):
    """Block construction realizing a feasible target.

    The target x = n/d is the convex combination of the decomposition's
    cycles, and cycle C carries the integer flow f_C (so n_e is the sum of
    f_C over the cycles through edge e, and d is the sum of f_C * |C|).  For a
    size parameter m, cycle C is traversed g_C(m) times (``multiplicities``):
    each of the c ``parts`` (cycles linked by shared vertices) contributes one
    block realizing a closed walk through its cycles, and the blocks are
    joined by direct sums.

    The ``scale`` s = min(d, sum of |C|) sets g_C(m) = max(1, round(m * s * f_C / d)),
    so the witness size follows the accuracy asked for, not d.  Where every
    f_C is 1 (every uniform and single-cycle target), s = d and g_C = m * f_C.

    ``boundary`` holds (e, b_e) for the b_e windows of pattern e that straddle
    a block boundary; they depend on the part order and each part's start
    vertex, not on m.
    """

    __slots__ = ("region", "target", "decomposition", "flows", "parts", "scale", "boundary")

    def multiplicities(self, m: int) -> tuple[int, ...]:
        """g_C(m) = max(1, round(m * s * f_C / d)), the traversals of each cycle.
        As d = sum of f_C * |C| <= max f_C * sum of |C|, s >= d / max f_C, so the
        heaviest cycle gains at least one traversal per step of m; as s <= d,
        g_C(m) <= m * f_C, so no witness has more than m * d + c(k-1) points."""
        d, s = self.target.denominator, self.scale
        return tuple(max(1, (2 * m * s * f + d) // (2 * d)) for f in self.flows)

    def size_for(self, m: int) -> int:
        """N = Y + c(k-1) for c parts and Y = sum of g_C(m) * |C|: a walk of L
        edges is realized by a permutation of L + k - 1 points, and the c walks
        have Y <= m * d edges."""
        walks = sum(g * len(c) for g, (_, c) in zip(self.multiplicities(m), self.decomposition))
        return walks + len(self.parts) * (self.region.k - 1)

    def sup_error_bound(self, m: int) -> Fraction:
        """The exact sup distance between the size-k consecutive proportions
        of generate(m) and the target, the witness's certificate:
        max over e of |(y_e + b_e) * d - n_e * N| / (N * d), where
        N = size_for(m), y_e = sum of g_C(m) over the cycles C through e and
        b_e is the ``boundary`` count of e.

        Proof.  Each window lying inside a block is one edge of its part's walk, and
        the walks traverse every edge of cycle C exactly g_C times, so edge e is
        counted y_e times inside blocks, Y windows in all.  The remaining windows
        straddle one of the c - 1 block boundaries, k - 1 per boundary, and b_e of
        them have pattern e (``_boundary_counts`` reads their patterns off the
        parts' start vertices).  Proportions divide by N = Y + c(k-1), hence
        p_e - x_e = (y_e + b_e - x_e * N)/N.  Every edge off the cycles and the
        boundary windows has y_e = b_e = n_e = 0, so only the others are scanned.
        Where s = d, y_e = m * n_e and Y = m * d, so the distance is at most
        c(k-1)/N: b_e * d and n_e * c(k-1) both lie in [0, c(k-1) * d].
        """
        d, n = self.target.denominator, self.target.numerators
        size, count = len(self.parts) * (self.region.k - 1), dict(self.boundary)
        for gi, (_, cycle) in zip(self.multiplicities(m), self.decomposition):
            size += gi * len(cycle)
            for e in cycle.edge_ids:
                count[e] = count.get(e, 0) + gi
        return Fraction(max(abs(y * d - n[e] * size) for e, y in count.items()), size * d)

    def generate(self, m: int) -> Permutation:
        """The realizing permutation for size parameter m >= 1; sizes are
        strictly increasing in m.  A size over the ``realize`` cap is refused
        before any walk is built."""
        if m < 1:
            raise ValueError(f"size parameter must be >= 1, got {m}")
        size = self.size_for(m)
        limits.check("realize", size, f"realizing permutation would have size {size}, over")
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


def monotone_sum_generator(block: Permutation) -> Callable[[int], Permutation]:
    """m -> direct sum of m copies of ``block``; a basic classical-side witness."""

    def gen(m: int) -> Permutation:
        return repeat_sum(m, block)

    return gen


class ReportRow(Record):
    """One m of a convergence report: the witness size, its consecutive and
    classical proportion vectors (classical None when not counted) and their
    sup distances to the targets (None without a target)."""

    __slots__ = ("m", "size", "consecutive", "classical", "linf_consecutive", "linf_classical")


class ConvergenceReport(Record):
    __slots__ = ("k", "rows")

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
