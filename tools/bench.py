"""Benchmark pairs: this checkout against an earlier revision.

    python tools/bench.py --against HEAD~1 --seeds 1-10 --held-out 11-13 --out BENCH.json

Runs ``perfbench/run.py --trace 0`` on each workload and seed once in this
checkout (the change) and once in a copy of the revision (the parent),
alternating which side runs first, then ``--trace 1`` runs in alternating
pairs on the first ``TRACE_RUNS`` seeds of each workload, and then
``SETUP_PROBES`` alternating pairs of
``perfbench/run.py --setup-probe <workload>`` processes per workload: a run
takes ``setup_s`` from only 3 such probes, too few to resolve a shift of half
a millisecond.  Both trees get the one declared bytecode mode:
``none`` deletes their ``__pycache__`` folders and runs with
``PYTHONDONTWRITEBYTECODE=1``; ``compiled`` runs ``compileall`` on both first.

For each workload, seed set and end-to-end metric of ``BENCHMARK.json`` it
writes both sides' median and quartiles, the pairs each side won (ties count
for neither), whether the change's median is worse than the parent's by more
than the metric's bound, whether the metric is ``unresolved``: its median
gap lies inside the parent's interquartile spread, and whether it is a
``gain``: the change won at least 9 pairs in 10 and its median moved the
better way by more than that spread.  Every run's ``attempted``,
``failed`` and ``correct`` are kept too.  The whole report goes to ``--out``
as JSON, and a table is printed.  ``setup_s`` from the probes gets the same
comparison and a table of its own, beside the run-level value.  Each
per-layer figure is the median of a side's traced runs, since one traced run
can shift every layer at once; they are written and printed too.

The parent's files come from ``git archive`` into a temporary folder, so a
run that is killed leaves no worktree registered in ``.git``.  Each benchmark
run starts in a session of its own, whose processes are all killed when the
run ends, whether it ends well or not.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 4
# A 15 s run takes about 25 s with its set-up probes; a stalled one is cut.
RUN_TIMEOUT_S = 600
# Set-up probe pairs per workload; a run takes only 3 probes per side.
SETUP_PROBES = 12
# Traced runs per side and workload, one on each of the first seeds: one run
# moved layers a change did not touch by up to 35%.
TRACE_RUNS = 3


def seed_list(text: str) -> list[int]:
    """Seeds written as ``1-10``, ``1,3,5`` or a mix of both."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile, by linear interpolation
    between the order statistics (``statistics.quantiles``'s inclusive
    method); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs: ``parent[i]`` and ``change[i]`` ran on the
    same seed.  ``better`` is ``"lower"`` or ``"higher"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("a comparison needs the same number (at least one) of runs per side")
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    limit = pm * (1 - sign * bound)
    won = sum(g > 0 for g in gains)
    unresolved = abs(cm - pm) <= p3 - p1
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "relative": (cm - pm) / pm if pm else None,
        "pairs": len(gains),
        "won": {"change": won, "parent": sum(g < 0 for g in gains)},
        "unresolved": unresolved,
        "worse_than_bound": sign * (cm - limit) < 0,
        # A claimable gain: at least 9 pairs in 10 won, and a median gap the
        # better way that is wider than the parent's interquartile spread.
        "gain": 10 * won >= 9 * len(gains) and sign * (cm - pm) > 0 and not unresolved,
    }


def order(i: int) -> tuple[str, str]:
    """Which side runs first in the i-th pair: they take turns."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def last_line(text: str) -> str:
    """The last line a benchmark process printed: its result."""
    return text.strip().splitlines()[-1]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and seed set, every end-to-end metric compared over the
    runs of that workload and set, with the runs' outcomes."""
    report: dict = {}
    for run in runs:
        report.setdefault(run["workload"], {}).setdefault(run["set"], []).append(run)
    for workload, sets in report.items():
        for name, paired in sets.items():
            sets[name] = {
                "seeds": [run["seed"] for run in paired],
                "outcomes": {
                    side: {
                        "attempted": sum(run[side]["attempted"] for run in paired),
                        "failed": sum(run[side]["failed"] for run in paired),
                        "correct": all(run[side]["correct"] for run in paired),
                    }
                    for side in ("parent", "change")
                },
                "metrics": {
                    metric["name"]: compare(
                        [run["parent"]["metrics"][metric["name"]]["value"] for run in paired],
                        [run["change"]["metrics"][metric["name"]]["value"] for run in paired],
                        metric["better"],
                        metric["bound"],
                    )
                    for metric in end_to_end
                },
            }
    return report


def setup_report(probes: dict, summary: dict, end_to_end: list[dict]) -> dict:
    """Per workload, ``setup_s`` compared over the alternating probe pairs
    (``probes[workload][side]``, pair i at index i), beside the run-level
    comparison on the first seed set."""
    metric = next(m for m in end_to_end if m["name"] == "setup_s")
    return {
        workload: {
            "probes": compare(sides["parent"], sides["change"], metric["better"], metric["bound"]),
            "runs": summary[workload]["seeds"]["metrics"]["setup_s"],
        }
        for workload, sides in probes.items()
    }


def layer_medians(traced: dict) -> dict:
    """Per workload, each per-layer metric's median over each side's traced
    runs (``traced[workload][side]``, a list of run outputs)."""
    return {
        workload: {
            name: {
                side: statistics.median(run["metrics"][name]["value"] for run in runs)
                for side, runs in sides.items()
            }
            for name in sides["parent"][0]["metrics"]
        }
        for workload, sides in traced.items()
    }


def layer_table(layers: dict) -> str:
    """``layer_medians`` as a Markdown table, one row per workload and metric
    that is not zero on both sides."""
    lines = ["| workload | layer | parent | change |", "| --- | --- | --- | --- |"]
    for workload, metrics in layers.items():
        for name, sides in metrics.items():
            parent, change = sides["parent"], sides["change"]
            if parent or change:
                lines.append(f"| {workload} | {name} | {parent:.4g} | {change:.4g} |")
    return "\n".join(lines)


def cell(m: dict) -> str:
    """One comparison: parent median [q1, q3] -> change median (pairs the
    change won / pairs), with ``gain``, ``unresolved`` and ``WORSE`` (past
    the bound) marked."""
    p, c = m["parent"], m["change"]
    marks = [word for word, on in (("gain", m["gain"]),
                                   ("unresolved", m["unresolved"]),
                                   ("WORSE", m["worse_than_bound"])) if on]
    return (
        f"{p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> {c['median']:.4g} "
        f"({m['won']['change']}/{m['pairs']}{', ' if marks else ''}{', '.join(marks)})"
    )


def table(report: dict, end_to_end: list[dict]) -> str:
    """The report as a Markdown table of ``cell``s, one row per workload and
    seed set."""
    names = [metric["name"] for metric in end_to_end]
    lines = []
    for workload, sets in report.items():
        for set_name, summary in sets.items():
            cells = [cell(summary["metrics"][name]) for name in names]
            outcomes = summary["outcomes"]
            failed = f"{outcomes['parent']['failed']}/{outcomes['change']['failed']}"
            lines.append(f"| {workload} ({set_name}) | " + " | ".join(cells) + f" | {failed} |")
    header = "| workload | " + " | ".join(names) + " | failed (parent/change) |"
    return "\n".join([header, "|" + " --- |" * (len(names) + 2), *lines])


def setup_table(setup: dict) -> str:
    """``setup_report`` as a Markdown table, one row per workload."""
    lines = [
        "| workload | setup_s, probes | setup_s, runs |",
        "| --- | --- | --- |",
        *(f"| {w} | {cell(m['probes'])} | {cell(m['runs'])} |" for w, m in setup.items()),
    ]
    return "\n".join(lines)


def run_in_session(argv: list[str], cwd: Path, env: dict) -> str:
    """Run a command in a new session and return its stdout once it exits;
    every process left in that session is killed before this returns or
    raises.  Output goes through files, so a leftover process that holds
    them open does not hold this up."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True
        )
        try:
            proc.wait(timeout=RUN_TIMEOUT_S)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {err.read()[-2000:]}")
        return out.read()


def prepare(tree: Path, bytecode: str, env: dict) -> None:
    """Put a tree in the declared bytecode mode."""
    for folder in ("src", "perfbench"):
        for cache in (tree / folder).rglob("__pycache__"):
            shutil.rmtree(cache)
    if bytecode == "compiled":
        run_in_session([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], tree, env)


def extract(rev: str, into: Path) -> str:
    """Write the files of ``rev`` into a folder; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    data = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return commit


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV", help="the parent revision")
    parser.add_argument("--out", required=True, type=Path, help="where the JSON report goes")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--held-out", type=seed_list, default=[], help="a second seed set")
    parser.add_argument("--workloads", default="stats,certify,realize,cli")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--bytecode", choices=["none", "compiled"], default="none")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = benchmark["end_to_end"]
    workloads = args.workloads.split(",")
    env = dict(os.environ)
    if args.bytecode == "none":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    seed_sets = {"seeds": args.seeds, "held_out": args.held_out}

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as scratch:
        parent_tree = Path(scratch)
        trees = {"parent": parent_tree, "change": ROOT}
        parent_commit = extract(args.against, parent_tree)
        for tree in trees.values():
            prepare(tree, args.bytecode, env)

        def once(side: str, workload: str, seed: int, trace: int) -> dict:
            out = run_in_session(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                trees[side], env,
            )
            return json.loads(last_line(out))

        runs = []
        for workload in workloads:
            for set_name, seeds in seed_sets.items():
                for seed in seeds:
                    sides = order(len(runs))
                    run = {"workload": workload, "set": set_name, "seed": seed, "first": sides[0]}
                    for side in sides:
                        run[side] = once(side, workload, seed, 0)
                        print(f"{workload} seed {seed} {side}: done", file=sys.stderr)
                    runs.append(run)
        traces: dict = {workload: {"parent": [], "change": []} for workload in workloads}
        for workload in workloads:
            for i, seed in enumerate(args.seeds[:TRACE_RUNS]):
                for side in order(i):
                    traces[workload][side].append(once(side, workload, seed, 1))
            print(f"{workload} traced runs: done", file=sys.stderr)
        probes: dict = {workload: {"parent": [], "change": []} for workload in workloads}
        for workload in workloads:
            for i in range(SETUP_PROBES):
                for side in order(i):
                    out = run_in_session(
                        [sys.executable, "perfbench/run.py", "--setup-probe", workload],
                        trees[side], env,
                    )
                    probes[workload][side].append(float(last_line(out)))
            print(f"{workload} setup probes: done", file=sys.stderr)

    summary = summarize(runs, end_to_end)
    report = {
        "schema": SCHEMA,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "bytecode": args.bytecode,
        "seconds": args.seconds,
        "parent": {"rev": args.against, "commit": parent_commit},
        "change": {
            "commit": git("rev-parse", "HEAD"),
            "uncommitted": git("status", "--porcelain").splitlines(),
        },
        "seed_sets": seed_sets,
        "runs": runs,
        "summary": summary,
        "trace": traces,
        "layers": layer_medians(traces),
        "setup_probes": probes,
        "setup": setup_report(probes, summary, end_to_end),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(table(summary, end_to_end))
    print()
    print(setup_table(report["setup"]))
    print()
    print(layer_table(report["layers"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
