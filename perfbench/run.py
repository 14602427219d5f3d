"""permutope benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload stats --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
client runs a fixed number of whole decks of operations (see
``workloads.py``), about ``--seconds`` of busy time on the machine the
benchmark was tuned on, checks every answer outside the timed region and
prints a human-readable summary followed, on the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Times are reported at a
reference speed (see ``REFERENCE_PROBE_S``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it sets up under spans, runs half the time untraced,
replays the same operations with the layer wrappers of ``tracer.py``
installed and writes the spans to ``.perfbench_out/``.

Outcomes: ``ok``; ``refused`` (the witness ceiling or a ``CapacityError``);
``error`` (the program raised, or a CLI child crashed); ``wrong`` (an answer
failed its check).  ``failed`` counts every outcome but ``ok``; ``correct`` is
false when any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
OUT_DIR = ROOT / ".perfbench_out"

# The speed of a shared virtual machine drifts by tens of percent from one
# minute to the next.  Before every operation the benchmark times a fixed
# pure-Python probe that shares no code with the program, and scales each
# deck's times by REFERENCE_PROBE_S / (median probe time in that deck): times
# are reported at the reference speed, where the probe takes REFERENCE_PROBE_S.
# Program speed-ups move the scaled times; machine drift mostly cancels.
REFERENCE_PROBE_S = 0.003
PROBE_WORD = workloads.random_word(random.Random(0), 500)

END_TO_END = [
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# fail_ratio is 0 on two workloads, so the JSON line carries it as attempted/failed.
JSON_END_TO_END = [name for name, _ in END_TO_END if name != "fail_ratio"]


# (name, unit, better); see README.md for what each should move.
PER_LAYER = [
    *[
        (f"perms.{kind}.{what}", unit, better)
        for kind in ("classical", "consecutive")
        for what, unit, better in (("calls", "count", "higher"), ("self_s", "s", "lower"),
                                   ("points", "count", "higher"))
    ],
    ("perms.vector.self_s", "s", "lower"),
    ("perms.sum.self_s", "s", "lower"),
    ("perms.sum.points", "count", "higher"),
    ("overlap.walk_to_perm.self_s", "s", "lower"),
    ("overlap.walk_to_perm.points", "count", "higher"),
    ("overlap.perm_to_walk.self_s", "s", "lower"),
    ("overlap.perm_to_walk.points", "count", "higher"),
    ("overlap.build.self_s", "s", "lower"),
    ("graphs.decompose.self_s", "s", "lower"),
    ("graphs.decompose.edges", "count", "higher"),
    ("graphs.cycles.self_s", "s", "lower"),
    ("graphs.cycles.count", "count", "higher"),
    ("graphs.walk.self_s", "s", "lower"),
    ("graphs.walk.edges", "count", "higher"),
    ("polytope.build.self_s", "s", "lower"),
    ("polytope.member.calls", "count", "higher"),
    ("polytope.member.self_s", "s", "lower"),
    ("polytope.nonmember.calls", "count", "higher"),
    ("polytope.nonmember.self_s", "s", "lower"),
    ("polytope.certificate.cycles", "count", "lower"),
    ("polytope.vertices.self_s", "s", "lower"),
    ("polytope.skeleton.calls", "count", "higher"),
    ("polytope.skeleton.self_s", "s", "lower"),
    ("feasible.plan.self_s", "s", "lower"),
    ("feasible.generate.self_s", "s", "lower"),
    ("feasible.witness.points", "count", "higher"),
    ("feasible.bound_slack", "ratio", "lower"),
    ("feasible.refused", "count", "lower"),
    ("feasible.mix.self_s", "s", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    *[(f"cli.{label}.p50_ms", "ms", "lower") for label in workloads.Cli.LABELS],
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
# Tracer counters whose metric name differs from "<span>.<counter>".
COUNTER_NAMES = {
    "polytope.certificate.cycles": "polytope.member.cycles",
    "feasible.witness.points": "feasible.generate.points",
}


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python counting job."""
    start = time.perf_counter()
    oracle.window_counts(PROBE_WORD, 4)
    oracle.classical_counts(PROBE_WORD, 3)
    return time.perf_counter() - start


def scale_of(probes: list[float]) -> float:
    return REFERENCE_PROBE_S / statistics.median(probes)


def setup_probe(name: str) -> float:
    """Cold set-up in this (fresh) process, import plus the one-time builds,
    at the reference speed."""
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[name](ROOT)
    probes = [speed_probe() for _ in range(3)]
    start = time.perf_counter()
    P = workloads.load_program()
    if name == "cli":
        import permutope.cli  # noqa: F401
    else:
        workload.setup(P)
    return (time.perf_counter() - start) * scale_of(probes)


def child_seconds(args: list[str]) -> float:
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(name: str, samples: int = SETUP_SAMPLES) -> list[float]:
    return [child_seconds([str(HERE / "run.py"), "--setup-probe", name]) for _ in range(samples)]


def run_op(workload, op, P, tracer=None):
    """Time one operation, then check it.
    Returns (seconds, outcome, reason, probe seconds just before it)."""
    prepared = workload.prepare(op)
    probe = speed_probe()
    if tracer is not None:
        tracer.op = op.seed
    output, outcome, reason = None, "ok", None
    start = time.perf_counter()
    try:
        if tracer is not None and workload.name == "cli":
            with tracer.span(f"cli.{op.kind}"):
                output = workload.execute(op, prepared)
        else:
            output = workload.execute(op, prepared)
    except (workloads.Refused, P.CapacityError) as exc:
        outcome, reason = "refused", str(exc)
    except Exception as exc:  # the program failed on a valid input
        outcome, reason = "error", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if outcome == "ok":
        try:
            reason = workload.check(op, prepared, output)
        except Exception as exc:  # an unreadable answer is a wrong answer
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            outcome = "wrong"
    if outcome == "refused" and tracer is not None:
        tracer.count("feasible.refused")
    return elapsed, outcome, reason, probe


def deck_count(workload, seconds: float) -> int:
    """Whole decks making about ``seconds`` of busy time on the tuning machine."""
    return max(1, round(seconds / workload.deck_seconds))


def run_decks(workload, decks, P, tracer=None):
    """Closed loop: one operation at a time, deck after deck.  Returns the
    records (operation, seconds at reference speed, outcome, reason) and, per
    deck, (completed operations, busy seconds at reference speed, scale)."""
    records, per_deck = [], []
    for deck in decks:
        raw = [(op, *run_op(workload, op, P, tracer)) for op in deck]
        scale = scale_of([probe for *_, probe in raw])
        completed = sum(outcome == "ok" for _, _, outcome, _, _ in raw)
        per_deck.append((completed, scale * sum(elapsed for _, elapsed, *_ in raw), scale))
        records += [(op, elapsed * scale, outcome, reason) for op, elapsed, outcome, reason, _ in raw]
    return records, per_deck


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    if not ordered:
        return math.inf, 100.0, 0
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def end_to_end(records, per_deck, setup_samples, cli: bool) -> tuple[dict, dict]:
    ok = [elapsed for _, elapsed, outcome, _ in records if outcome == "ok"]
    # A failed operation counts as infinitely slow in the median.
    everything = [elapsed if outcome == "ok" else math.inf for _, elapsed, outcome, _ in records]
    tail_value, percentile, beyond = tail(ok)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    metrics = {
        # The median over decks discounts a deck slowed by the machine.
        "ops_per_s": statistics.median(completed / busy for completed, busy, _ in per_deck),
        "op_p50_ms": 1000 * statistics.median(everything),
        "op_tail_ms": 1000 * tail_value,
        "fail_ratio": (len(records) - len(ok)) / len(records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    notes = {
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "completed": len(ok),
        "scale": statistics.median(scale for *_, scale in per_deck),
    }
    return metrics, notes


def per_layer(workload, tracer, decks_a, records_b, decks_b) -> dict:
    """Per-layer metrics of the traced pass; times at the reference speed."""
    scale = statistics.median(scale for *_, scale in decks_b)
    metrics = {name: 0 for name, _, _ in PER_LAYER}
    for name, _, _ in PER_LAYER:
        span, _, what = name.rpartition(".")
        if name in COUNTER_NAMES:
            metrics[name] = tracer.counts[COUNTER_NAMES[name]]
        elif what == "self_s":
            metrics[name] = tracer.self_s.get(span, 0.0) * scale
        elif what == "calls":
            metrics[name] = tracer.calls.get(span, 0)
        elif name in tracer.counts:
            metrics[name] = tracer.counts[name]
    # Untraced ops_per_s / traced ops_per_s over the same operations.
    busy_a = sum(busy for _, busy, _ in decks_a)
    busy_b = sum(busy for _, busy, _ in decks_b)
    metrics["trace.overhead_ratio"] = busy_b / busy_a
    if workload.name == "realize" and workload.slack:
        metrics["feasible.bound_slack"] = float(statistics.median(workload.slack))
    if workload.name == "cli":
        metrics["cli.interp_ms"] = 1000 * scale * statistics.median(
            [_interp_seconds() for _ in range(SETUP_SAMPLES)]
        )
        metrics["cli.import_ms"] = 1000 * statistics.median(setup_seconds("cli"))
        for label in workloads.Cli.LABELS:
            times = [elapsed for op, elapsed, _, _ in records_b if op.kind == label]
            metrics[f"cli.{label}.p50_ms"] = 1000 * statistics.median(times)
        metrics["cli.stdout_bytes"] = workload.stdout_bytes / len(decks_b)
    return metrics


def _interp_seconds() -> float:
    """Wall time of ``python -c pass``: the floor under every CLI process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="seed for every generated input")
    parser.add_argument("--seconds", type=float, default=15.0, help="busy time to measure")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.setup_probe)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload](ROOT)
    rng = random.Random(args.seed)
    if not args.trace:
        setup_samples = setup_seconds(args.workload)
        P = workloads.load_program()
        workload.setup(P)
        decks = workload.decks(rng, deck_count(workload, args.seconds))
        records, per_deck = run_decks(workload, decks, P)
        metrics, notes = end_to_end(records, per_deck, setup_samples, cli=args.workload == "cli")
        units = dict(END_TO_END)
        for name, _ in END_TO_END:
            print(f"{name:<12} {metrics[name]:.6g} {units[name]}")
        print(
            f"op_tail_ms is at p{notes['tail_percentile']:.1f} with {notes['tail_beyond']} "
            f"samples beyond it, of {notes['completed']} completed operations"
        )
        print(
            f"times are at the reference speed; this run's median scale was "
            f"{notes['scale']:.4f} (measured time = reported time / scale)"
        )
        reported = {name: {"value": metrics[name], "unit": units[name]} for name in JSON_END_TO_END}
    else:
        tracer = tracing.Tracer()
        P = workloads.load_program()
        patches = tracing.install(tracer, P)
        workload.setup(P)
        tracing.uninstall(patches)
        replayed = workload.decks(rng, deck_count(workload, args.seconds / 2))
        records_a, decks_a = run_decks(workload, replayed, P)
        workload.stdout_bytes = 0
        patches = tracing.install(tracer, P)
        try:
            records_b, decks_b = run_decks(workload, replayed, P, tracer)
        finally:
            tracing.uninstall(patches)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        records = records_a + records_b
        metrics = per_layer(workload, tracer, decks_a, records_b, decks_b)
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name, _, _ in PER_LAYER:
            print(f"{name:<34} {metrics[name]:.6g} {units[name]}")
        reported = {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in PER_LAYER}

    outcomes = [outcome for _, _, outcome, _ in records]
    failed = [r for r in records if r[2] != "ok"]
    for op, _, outcome, reason in failed[:20]:
        print(f"{outcome}: {op.kind} (op seed {op.seed}): {reason}", file=sys.stderr)
    print(
        f"workload {args.workload}, seed {args.seed}: {len(records)} operations, "
        + ", ".join(f"{outcomes.count(o)} {o}" for o in ("ok", "refused", "error", "wrong"))
    )
    print(
        json.dumps(
            {
                "correct": "wrong" not in outcomes,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
