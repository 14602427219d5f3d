"""The four workloads: how each builds its inputs, runs one operation and
checks the answer.

Every workload hands out its operations in decks.  A deck has a fixed
composition (operation kinds, pattern sizes and input-size strata); the seed
only draws the inputs inside each stratum and shuffles the order.  A run is a
fixed number of whole decks, about ``--seconds`` of work on the machine the
benchmark was tuned on, and a value drawn for one slot of the deck is spread
evenly over the run's decks.  So every run has the same operation mix and the
same spread of input sizes, which keeps medians and tails comparable across
seeds.

Operations are timed by the caller around ``execute``; ``check`` runs outside
the timed region.  ``execute`` raises ``Refused`` for a request the benchmark
turns down before allocating; the caller treats that, and a ``CapacityError``
from the program, as a refusal.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

# Witnesses longer than this are refused before ``generate`` is called.
WITNESS_SIZE_CEILING = 30_000

# Share of operations whose counts are also recomputed by ``oracle``.
RECOUNT_SHARE = 0.1

# Simple cycles of the k=4 overlap graph (a subset DP over vertices agrees).
K4_SIMPLE_CYCLES = 160


class Refused(Exception):
    """The benchmark turned a request down before allocating for it."""


class Crashed(Exception):
    """A CLI child ended with a traceback, or failed on a valid input."""


@dataclass
class Op:
    kind: str
    seed: int
    params: dict = field(default_factory=dict)


def load_program():
    """The package under ``src/`` of this checkout, never an installed copy."""
    import permutope

    source = Path(permutope.__file__).resolve().parent.parent
    if source != Path(__file__).resolve().parent.parent / "src":
        raise ImportError(f"permutope was imported from {source}, not from this checkout")
    return permutope


def _log_uniform(lo: float, hi: float, stratum: int, strata: int, u: float) -> int:
    span = math.log(hi) - math.log(lo)
    return int(round(math.exp(math.log(lo) + span * (stratum + u) / strata)))


def _uniform_int(lo: int, hi: int, u: float) -> int:
    return lo + int(u * (hi - lo + 1))


def random_word(rng: random.Random, n: int) -> list[int]:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return word


def graph_ends(graph) -> list[tuple[int, int]]:
    return [(st, ar) for st, ar, _ in graph.edges]


def sample_cycle(graph, rng: random.Random) -> tuple[int, ...]:
    """Loop-erased random walk: walk until a vertex repeats, keep the loop."""
    v = rng.randrange(graph.n_vertices)
    seen = {v: 0}
    edges: list[int] = []
    while True:
        e = rng.choice(graph.out_edges(v))
        edges.append(e)
        v = graph.ar(e)
        if v in seen:
            return tuple(edges[seen[v] :])
        seen[v] = len(edges)


def planted_point(graph, rng: random.Random, n_cycles: int) -> list[Fraction]:
    """A convex combination of sampled simple cycles with weights 1..4."""
    cycles = [sample_cycle(graph, rng) for _ in range(n_cycles)]
    weights = [rng.randint(1, 4) for _ in cycles]
    total = sum(weights)
    point = [Fraction(0)] * graph.n_edges
    for w, cycle in zip(weights, cycles):
        for e in cycle:
            point[e] += Fraction(w, total * len(cycle))
    return point


def _entries_by_word(vector) -> dict[tuple[int, ...], Fraction]:
    return {p.word: v for p, v in vector.items()}


def _decomposition_pieces(decomposition) -> list[tuple[Fraction, tuple[int, ...]]]:
    return [(w, c.edge_ids) for w, c in decomposition]


class Workload:
    name = ""
    # Busy seconds of one deck on the tuning machine (2 vCPUs, Python 3.11).
    deck_seconds = 1.0

    def __init__(self, root: Path) -> None:
        self.root = root

    def setup(self, P) -> None:
        self.P = P

    def decks(self, rng: random.Random, count: int) -> list[list[Op]]:
        """``count`` decks.  ``u(slot)`` gives each deck a uniform draw for a
        slot, stratified across the decks so that over the run every slot
        covers its range evenly."""
        spreads: dict = {}

        def spread(deck: int, slot) -> float:
            if slot not in spreads:
                order = list(range(count))
                rng.shuffle(order)
                spreads[slot] = [(i + rng.random()) / count for i in order]
            return spreads[slot][deck]

        return [self.deck(rng, functools.partial(spread, d)) for d in range(count)]

    def deck(self, rng: random.Random, u) -> list[Op]:
        """One deck of operations; the composition is fixed, the inputs are drawn."""
        raise NotImplementedError

    def prepare(self, op: Op):
        """Build the operation's input from its seed (untimed)."""
        raise NotImplementedError

    def execute(self, op: Op, prepared):
        """Run the operation (timed)."""
        raise NotImplementedError

    def check(self, op: Op, prepared, output) -> str | None:
        """What is wrong with the answer, or None (untimed)."""
        raise NotImplementedError


# -- stats ---------------------------------------------------------------------


class Stats(Workload):
    """One ``proportion_vector`` query per random permutation."""

    name = "stats"
    # Sixteen large inputs share sixteen log-uniform size strata over 10^3..2*10^5;
    # the slot order fixes which kind gets which stratum.
    LARGE = [("classical", 2), ("classical", 3), ("consecutive", 3), ("consecutive", 4),
             ("consecutive", 5), ("consecutive", 6), ("consecutive", 7)] * 2 + [
             ("classical", 2), ("classical", 3)]
    # Subset enumeration, n <= 30: (k, low, high) size ranges.
    SMALL = [(4, 10, 20), (4, 21, 30), (5, 10, 22), (5, 23, 30)]
    deck_seconds = 3.2

    def setup(self, P) -> None:
        super().setup(P)
        for k in range(1, 8):
            P.all_patterns(k)

    def deck(self, rng, u):
        ops = []
        for stratum, (kind, k) in enumerate(self.LARGE):
            n = _log_uniform(1e3, 2e5, stratum, len(self.LARGE), u(("large", stratum)))
            ops.append(Op(f"{kind}.k{k}", rng.getrandbits(32), {"kind": kind, "k": k, "n": n}))
        for slot, (k, lo, hi) in enumerate(self.SMALL):
            n = _uniform_int(lo, hi, u(("small", slot)))
            ops.append(Op(f"classical.k{k}", rng.getrandbits(32), {"kind": "classical", "k": k, "n": n}))
        rng.shuffle(ops)
        return ops

    def prepare(self, op: Op):
        word = random_word(random.Random(op.seed), op.params["n"])
        return self.P.Permutation(tuple(word))

    def execute(self, op, sigma):
        return self.P.proportion_vector(op.params["k"], sigma, op.params["kind"])

    def check(self, op, sigma, vector):
        recount = random.Random(op.seed ^ 1).random() < RECOUNT_SHARE
        return oracle.proportion_problem(
            _entries_by_word(vector), sigma.word, op.params["k"], op.params["kind"], recount
        )


# -- certify -------------------------------------------------------------------


class Certify(Workload):
    """Membership, decomposition, geometry and walk certificates."""

    name = "certify"
    MEMBER_STRATA = [(1, 7), (8, 15), (16, 22), (23, 30)]
    NONMEMBER = ["negative", "sum", "flow"]
    WALK_STRATA = [(4, 0), (5, 1), (6, 2)]  # (k, size stratum of 3 over 10^4..5*10^4)
    SKELETON_PAIRS = 16
    CYCLE_COUNTS = [(1_000, 5_000), (5_000, 20_000)]
    deck_seconds = 1.6

    def setup(self, P) -> None:
        super().setup(P)
        self.regions = {k: P.feasible_region(k) for k in (4, 5, 6, 7)}
        self.ends = {k: graph_ends(r.overlap.graph) for k, r in self.regions.items()}
        self.k4_cycles = list(P.iter_simple_cycles(self.regions[4].overlap.graph))

    def deck(self, rng, u):
        ops = []
        for k in (5, 6, 7):
            for lo, hi in self.MEMBER_STRATA:
                n_cycles = _uniform_int(lo, hi, u(("member", k, lo)))
                seed = rng.getrandbits(32)
                ops.append(Op(f"member.k{k}", seed, {"k": k, "cycles": n_cycles}))
                ops.append(Op(f"decompose.k{k}", seed, {"k": k, "cycles": n_cycles}))
            for how in self.NONMEMBER:
                ops.append(Op(f"nonmember.{how}.k{k}", rng.getrandbits(32), {"k": k, "how": how}))
        ops.append(Op("vertices.k4", rng.getrandbits(32)))
        for lo, hi in self.CYCLE_COUNTS:
            count = _uniform_int(lo, hi, u(("cycles", lo)))
            ops.append(Op("cycles.k5", rng.getrandbits(32), {"count": count}))
        ops += [Op("skeleton.k4", rng.getrandbits(32)) for _ in range(2)]
        for k, stratum in self.WALK_STRATA:
            n = _log_uniform(1e4, 5e4, stratum, len(self.WALK_STRATA), u(("walk", k)))
            ops.append(Op(f"walk.k{k}", rng.getrandbits(32), {"k": k, "n": n}))
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        rng = random.Random(op.seed)
        family = op.kind.split(".")[0]
        if family in ("member", "decompose", "nonmember"):
            region = self.regions[op.params["k"]]
            graph = region.overlap.graph
            if family != "nonmember":
                point = planted_point(graph, rng, op.params["cycles"])
                return point, region.vector_of(point)
            point = planted_point(graph, rng, rng.randint(1, 30))
            return self._break(graph, point, op.params["how"], rng), None
        if family == "skeleton":
            return [tuple(rng.sample(self.k4_cycles, 2)) for _ in range(self.SKELETON_PAIRS)]
        if family == "walk":
            return self.P.Permutation(tuple(random_word(rng, op.params["n"])))
        return None

    @staticmethod
    def _break(graph, point, how, rng):
        point = list(point)
        edges = range(graph.n_edges)
        if how == "negative":
            e, f = rng.sample(edges, 2)
            point[f] += point[e] + Fraction(1, 97)
            point[e] = Fraction(-1, 97)
        elif how == "sum":
            point = [x * Fraction(8, 7) for x in point]
        else:
            # Moving mass off e unbalances st(e) unless e is a loop; either way
            # it unbalances st(f), since f is no loop and leaves st(e) alone.
            e = rng.choice([e for e in edges if point[e] > 0])
            v = graph.st(e)
            f = rng.choice(
                [f for f in edges if graph.st(f) != v and graph.ar(f) != v and graph.st(f) != graph.ar(f)]
            )
            delta = point[e] / 2
            point[e] -= delta
            point[f] += delta
        return point

    def execute(self, op, prepared):
        family = op.kind.split(".")[0]
        if family == "member":
            return self.regions[op.params["k"]].membership(prepared[1])
        if family == "decompose":
            region = self.regions[op.params["k"]]
            return region.polytope.convex_decomposition(region.point_of(prepared[1]))
        if family == "nonmember":
            return self.regions[op.params["k"]].polytope.membership(prepared[0])
        if family == "vertices":
            return self.regions[4].polytope.vertices()
        if family == "cycles":
            return list(itertools.islice(self.regions[5].polytope.simple_cycles(), op.params["count"]))
        if family == "skeleton":
            adjacent = self.regions[4].polytope.skeleton_adjacent
            return [adjacent(c1, c2) for c1, c2 in prepared]
        walk = self.P.walk_of(prepared, op.params["k"])
        return walk, self.P.decompose_walk(walk)

    def check(self, op, prepared, output):
        family = op.kind.split(".")[0]
        k = op.params.get("k", 4)
        ends = self.ends[k]
        if family == "member":
            if not output.member:
                return f"planted member answered false: {output.violation}"
            return oracle.decomposition_problem(prepared[0], _decomposition_pieces(output.decomposition), ends)
        if family == "decompose":
            return oracle.decomposition_problem(prepared[0], _decomposition_pieces(output), ends)
        if family == "nonmember":
            return "planted non-member answered true" if output.member or not output.violation else None
        if family == "vertices":
            if len(output) != K4_SIMPLE_CYCLES:
                return f"{len(output)} vertices, expected {K4_SIMPLE_CYCLES}"
            return self._distinct_cycles([cv.cycle.edge_ids for cv in output], ends)
        if family == "cycles":
            if len(output) != op.params["count"]:
                return f"{len(output)} cycles, asked for {op.params['count']}"
            return self._distinct_cycles([c.edge_ids for c in output], self.ends[5])
        if family == "skeleton":
            n_vertices = self.regions[4].overlap.graph.n_vertices
            for (c1, c2), answer in zip(prepared, output):
                union = set(c1.edge_ids) | set(c2.edge_ids)
                expected = set(c1.edge_ids) != set(c2.edge_ids) and (
                    oracle.face_dimension(union, ends, n_vertices) == 1
                )
                if answer != expected:
                    return f"skeleton_adjacent{(c1.edge_ids, c2.edge_ids)} = {answer}"
            return None
        walk, split = output
        sigma = prepared.word
        if len(walk) != len(sigma) - k + 1:
            return "walk length is not n - k + 1"
        og = self.regions[k].overlap
        rng = random.Random(op.seed ^ 2)
        for i in rng.sample(range(len(walk)), 64):
            if og.edge_permutation(walk.edge_ids[i]).word != oracle.rank_word(sigma[i : i + k]):
                return f"walk edge {i} is not the window pattern"
        tail = split.tail.edge_ids if split.tail is not None else ()
        return oracle.walk_split_problem(walk.edge_ids, [c.edge_ids for c in split.cycles], tail, ends)

    @staticmethod
    def _distinct_cycles(cycles, ends):
        if len({tuple(c) for c in cycles}) != len(cycles):
            return "a cycle is listed twice"
        for c in cycles:
            problem = oracle.cycle_problem(list(c), ends)
            if problem:
                return problem
        return None


# -- realize ---------------------------------------------------------------------


class Realize(Workload):
    """Time to a witness of stated accuracy for a feasible target."""

    name = "realize"
    EPSILON = {3: Fraction(1, 500), 4: Fraction(1, 200), 5: Fraction(1, 50), 6: Fraction(1, 50)}
    CYCLES = range(1, 9)
    MIXED = {(3, 1), (4, 1), (5, 1)}  # (k, cycles) slots that also run ``mix``
    deck_seconds = 1.6

    def setup(self, P) -> None:
        super().setup(P)
        self.regions = {k: P.feasible_region(k) for k in self.EPSILON}
        self.slack: list[Fraction] = []  # achieved sup distance / proven bound

    def deck(self, rng, u):
        ops = [
            Op(f"realize.k{k}", rng.getrandbits(32), {"k": k, "cycles": c, "mix": (k, c) in self.MIXED})
            for k in self.EPSILON
            for c in self.CYCLES
        ]
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        rng = random.Random(op.seed)
        region = self.regions[op.params["k"]]
        vector = region.vector_of(planted_point(region.overlap.graph, rng, op.params["cycles"]))
        block = self.P.Permutation(tuple(random_word(rng, rng.randint(2, 4))))
        return vector, block, rng.randint(100, 300)

    def execute(self, op, prepared):
        P = self.P
        vector, block, copies = prepared
        k = op.params["k"]
        plan = self.regions[k].plan(vector)
        m = 1
        while plan.sup_error_bound(m) > self.EPSILON[k]:
            m *= 2
        if plan.size_for(m) > WITNESS_SIZE_CEILING:
            raise Refused(f"witness of {plan.size_for(m)} points exceeds the ceiling")
        witness = plan.generate(m)
        counted = P.proportion_vector(k, witness, "consecutive")
        mixed = None
        if op.params["mix"]:
            inner = plan.generate(1)
            result = P.mix(lambda _: inner, P.monotone_sum_generator(block), copies)
            mixed = (
                inner,
                result,
                P.proportion_vector(k, result, "consecutive"),
                P.proportion_vector(2, result, "classical"),
            )
        return plan, m, witness, counted, mixed

    def check(self, op, prepared, output):
        vector, block, copies = prepared
        plan, m, witness, counted, mixed = output
        k = op.params["k"]
        if len(witness) != plan.size_for(m):
            return f"witness has {len(witness)} points, size_for({m}) = {plan.size_for(m)}"
        entries = _entries_by_word(counted)
        recount = random.Random(op.seed ^ 1).random() < RECOUNT_SHARE
        problem = oracle.proportion_problem(entries, witness.word, k, "consecutive", recount)
        if problem:
            return problem
        target = _entries_by_word(vector)
        error = max(abs(entries[p] - target[p]) for p in target)
        bound = plan.sup_error_bound(m)
        if error > bound or bound > self.EPSILON[k]:
            return f"witness error {error} above bound {bound}"
        self.slack.append(error / bound)
        if mixed is not None:
            return self._check_mix(k, block, copies, *mixed)
        return None

    @staticmethod
    def _check_mix(k, block, copies, inner, result, consecutive, classical):
        """Consecutive statistics within k/|A| of A, classical ones within
        C(2, 2)/|B| of B = the monotone sum of ``copies`` blocks."""
        outer = [v + i * len(block) for i in range(copies) for v in block.word]
        if len(result) != len(inner) * len(outer):
            return "mixed permutation has the wrong size"
        a_counts = oracle.window_counts(inner.word, k)
        cons = _entries_by_word(consecutive)
        for p in oracle.all_words(k):
            if abs(cons[p] - Fraction(a_counts.get(p, 0), len(inner))) > Fraction(k, len(inner)):
                return f"mix: consecutive {p} outside k/|A|"
        b_counts = oracle.classical_counts(outer, 2)
        clas = _entries_by_word(classical)
        for p in oracle.all_words(2):
            if abs(clas[p] - Fraction(b_counts[p], math.comb(len(outer), 2))) > Fraction(1, len(outer)):
                return f"mix: classical {p} outside C(2,2)/|B|"
        return None


# -- cli -------------------------------------------------------------------------


# First 16 hex digits of the SHA-256 of the stdout of invocations whose answer
# is unique and whose input is fixed.
CLI_DIGESTS = {
    "vertices.k4": "78546e49e160a652",
    "faces.k3": "efc8b0ebf2b0b65a",
    "export.k5": "711237aeeb6b9ea4",
}


class Cli(Workload):
    """Cold ``python -m permutope`` processes, one at a time."""

    name = "cli"
    LABELS = [
        "dim.k3", "dim.k7", "member.k6", "member.k7", "decompose.k5", "realize.k4",
        "vertices.k4", "faces.k3", "stats", "universal.k6", "report.k3", "export.k5",
        "bad.zero_denominator", "bad.missing_k", "bad.list",
    ]
    deck_seconds = 3.5

    def setup(self, P) -> None:
        super().setup(P)
        self.regions = {k: P.feasible_region(k) for k in (3, 4, 5, 6, 7)}
        self.ends = {k: graph_ends(r.overlap.graph) for k, r in self.regions.items()}
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.env.pop("PERMUTOPE_CAP", None)
        self.command = [sys.executable, "-m", "permutope"]
        self.stdout_bytes = 0

    def deck(self, rng, u):
        ops = [Op(label, rng.getrandbits(32)) for label in self.LABELS]
        rng.shuffle(ops)
        return ops

    def _vector_json(self, k, point):
        return json.dumps(self.regions[k].vector_of(point).to_json_dict())

    def prepare(self, op):
        rng = random.Random(op.seed)
        label = op.kind
        verb = label.split(".")[0]
        k = int(label.split(".k")[1]) if ".k" in label else 3
        point = None
        if verb in ("member", "decompose", "realize", "report") and label != "member.k7":
            point = planted_point(self.regions[k].overlap.graph, rng, rng.randint(1, 8))
        if label == "member.k7":
            point = [Fraction(1, 5040)] * 5040
            argv = ["member", "--k", "7", "--vector", "uniform"]
        elif verb in ("member", "decompose"):
            argv = [verb, "--k", str(k), "--vector", self._vector_json(k, point)]
        elif verb == "realize":
            argv = ["realize", "--k", "4", "--vector", self._vector_json(4, point), "--m", str(rng.randint(1, 8))]
        elif verb == "report":
            argv = ["report", "--k", "3", "--vector", self._vector_json(3, point), "--no-classical"]
        elif verb == "stats":
            word = random_word(rng, rng.randint(200, 2000))
            kind = rng.choice(["classical", "consecutive"])
            k = rng.randint(2, 3) if kind == "classical" else rng.randint(3, 5)
            argv = ["stats", "--perm", ",".join(map(str, word)), "--k", str(k), "--kind", kind]
            point = (word, k, kind)
        elif verb == "export":
            argv = ["export", "--k", "5", "--format", "json"]
        elif verb == "bad":
            body = {"k": 3, "entries": {"".join(map(str, w)): "1/6" for w in oracle.all_words(3)}}
            if label == "bad.zero_denominator":
                body["entries"]["123"] = "1/0"
            elif label == "bad.missing_k":
                del body["k"]
            else:
                body = [1, 2, 3]
            argv = ["member", "--k", "3", "--vector", json.dumps(body)]
        else:
            argv = [verb, "--k", str(k)]
        return argv, point

    def execute(self, op, prepared):
        argv, _ = prepared
        done = subprocess.run(
            [*self.command, *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        self.stdout_bytes += len(done.stdout.encode())
        if "Traceback" in done.stderr:
            raise Crashed("traceback: " + done.stderr.strip().splitlines()[-1])
        if done.returncode != 0 and not op.kind.startswith("bad."):
            raise Crashed(f"exit code {done.returncode}: {done.stderr.strip()}")
        return done.returncode, done.stdout, done.stderr

    def check(self, op, prepared, output):
        rc, out, err = output
        argv, point = prepared
        label = op.kind
        if label.startswith("bad."):
            return None if rc in (1, 2) else f"malformed input ended with exit code {rc}"
        verb = label.split(".")[0]
        if label in CLI_DIGESTS:
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            return None if digest == CLI_DIGESTS[label] else f"stdout digest {digest} changed"
        if verb == "dim":
            k = int(label[-1])
            expected = math.factorial(k) - math.factorial(k - 1)
            return None if out.strip() == str(expected) else f"dimension {out.strip()}, expected {expected}"
        if verb in ("member", "decompose"):
            k = int(label[-1])
            if verb == "member":
                first, _, out = out.partition("\n")
                if first != "true":
                    return f"planted member answered {first}"
            pieces = [
                (Fraction(d["weight"]), tuple(d["cycle_edges"])) for d in json.loads(out)["decomposition"]
            ]
            return oracle.decomposition_problem(point, pieces, self.ends[k])
        if verb == "stats":
            word, k, kind = point
            entries = json.loads(out)["entries"]
            parsed = {tuple(int(ch) for ch in w): Fraction(v) for w, v in entries.items()}
            return oracle.proportion_problem(parsed, word, k, kind, recount=True)
        if verb == "universal":
            word = [int(v) for v in out.strip().split(",")]
            if sorted(word) != list(range(1, 726)):
                return "universal output is not a permutation of size 725"
            counts = oracle.window_counts(word, 6)
            return None if len(counts) == 720 and max(counts.values()) == 1 else "a pattern is missing"
        region = self.regions[3 if verb == "report" else 4]
        plan = region.plan(region.vector_of(point))
        if verb == "realize":
            m = int(argv[argv.index("--m") + 1])
            word = [int(v) for v in out.strip().split(",")] if "," in out else [int(c) for c in out.strip()]
            return self._witness_problem(plan, m, word, 4, point)
        return self._report_problem(plan, out, point)

    def _witness_problem(self, plan, m, word, k, point):
        if len(word) != plan.size_for(m) or sorted(word) != list(range(1, len(word) + 1)):
            return f"witness of size {len(word)}, size_for({m}) = {plan.size_for(m)}"
        counts = oracle.window_counts(word, k)
        error = max(
            abs(Fraction(counts.get(w, 0), len(word)) - point[i]) for i, w in enumerate(oracle.all_words(k))
        )
        return None if error <= plan.sup_error_bound(m) else f"witness error {error} above bound"

    @staticmethod
    def _report_problem(plan, out, point):
        rows = [line.split(",") for line in out.strip().splitlines()]
        header, rows = rows[0], rows[1:]
        if not rows:
            return "report has no rows"
        words = oracle.all_words(3)
        for row in rows:
            cells = dict(zip(header, row))
            m, size = int(cells["m"]), int(cells["size"])
            if size != plan.size_for(m):
                return f"report size {size} for m={m}, size_for = {plan.size_for(m)}"
            linf = max(
                abs(Fraction(cells["cocc_" + "".join(map(str, w))]) - point[i]) for i, w in enumerate(words)
            )
            if linf != Fraction(cells["linf_consec"]) or linf > plan.sup_error_bound(m):
                return f"report row m={m}: distance {linf} above bound"
        return None


WORKLOADS = {cls.name: cls for cls in (Stats, Certify, Realize, Cli)}
