"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_shows_every_metric_with_its_unit(workload):
    lines, result = _run(workload, trace=0)
    for name, unit in run.END_TO_END:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    units = dict(run.END_TO_END)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: units[name] for name in run.JSON_END_TO_END
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())

    _, traced = _run(workload, trace=1)
    assert {name: m["unit"] for name, m in traced["metrics"].items()} == {
        name: unit for name, unit, _ in run.PER_LAYER
    }


def _setup(cls):
    workload = cls(ROOT)
    P = workloads.load_program()
    workload.setup(P)
    return workload, P


def _ops(workload, seed=5):
    return workload.decks(random.Random(seed), 2)[0]


def _first(workload, kind, seed=5):
    return next(op for op in _ops(workload, seed) if op.kind == kind)


def test_tampered_decomposition_is_a_failure():
    certify, P = _setup(workloads.Certify)
    op = next(op for op in _ops(certify)
              if op.kind == "decompose.k5" and op.params["cycles"] >= 8)
    (w0, c0), (w1, c1), *rest = certify.execute(op, certify.prepare(op))
    # Weights stay positive and still sum to 1; only the point moves.
    shift = min(w0, w1) / 2
    tampered = ((w0 + shift, c0), (w1 - shift, c1), *rest)
    certify.execute = lambda op, prepared: tampered
    assert run.run_op(certify, op, P)[1] == "wrong"


def test_wrong_count_is_a_failure(monkeypatch):
    stats, P = _setup(workloads.Stats)
    monkeypatch.setattr(workloads, "RECOUNT_SHARE", 1.0)
    op = _first(stats, "consecutive.k4")
    assert run.run_op(stats, op, P)[1] == "ok"
    other = P.Permutation(tuple(workloads.random_word(random.Random(0), op.params["n"])))
    stats.execute = lambda op, sigma: P.proportion_vector(4, other, "consecutive")
    assert run.run_op(stats, op, P)[1] == "wrong"


def test_traceback_from_a_cli_child_is_a_failure():
    cli, P = _setup(workloads.Cli)
    op = _first(cli, "dim.k3")
    cli.command = [sys.executable, "-c", "raise KeyError('k')"]
    _, outcome, reason, _ = run.run_op(cli, op, P)
    assert outcome == "error" and "KeyError" in reason


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_inputs_but_not_the_mix(name):
    workload = workloads.WORKLOADS[name](ROOT)
    a, b = workload.decks(random.Random(1), 3), workload.decks(random.Random(2), 3)
    for deck in a + b:
        assert Counter(op.kind for op in deck) == Counter(op.kind for op in a[0])
    assert [op.seed for op in a[0]] != [op.seed for op in b[0]]
    assert workload.decks(random.Random(1), 3) == a


def test_oracle_counts_match_brute_force():
    rng = random.Random(7)
    for n in (5, 9, 13):
        word = workloads.random_word(rng, n)
        for k in (2, 3):
            brute = Counter(
                oracle.rank_word([word[i] for i in c]) for c in itertools.combinations(range(n), k)
            )
            assert +oracle.classical_counts(word, k) == brute


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    units = dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: units[name] for name in run.JSON_END_TO_END
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert f"{workloads.WITNESS_SIZE_CEILING}-point ceiling" in spec["workloads"][2]["why"]


def test_planted_non_members_break_a_point_made_of_one_loop():
    certify, P = _setup(workloads.Certify)
    polytope = certify.regions[5].polytope
    graph = polytope.graph
    loop = next(e for e in range(graph.n_edges) if graph.st(e) == graph.ar(e))
    point = [Fraction(int(e == loop)) for e in range(graph.n_edges)]
    assert polytope.membership(point).member
    for how in certify.NONMEMBER:
        broken = certify._break(graph, point, how, random.Random(1))
        assert not polytope.membership(broken).member, how
