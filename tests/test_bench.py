"""tools/bench.py on synthetic run outputs; no test here runs the benchmark."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

END_TO_END = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]


def fake_run(workload, set_name, seed, parent, change, failed=0):
    """A pair of runs whose every end-to-end metric reads ``parent`` and
    ``change`` plus a per-metric offset."""

    def side(value, failed):
        metrics = {
            m["name"]: {"value": value + i, "unit": m["unit"]} for i, m in enumerate(END_TO_END)
        }
        return {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}

    return {
        "workload": workload, "set": set_name, "seed": seed, "first": "parent",
        "parent": side(parent, 0), "change": side(change, failed),
    }


class TestArithmetic:
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([5.0], (5.0, 5.0, 5.0)),
            ([1.0, 2.0], (1.25, 1.5, 1.75)),
            ([4.0, 1.0, 3.0, 2.0, 5.0], (2.0, 3.0, 4.0)),
            ([1.0, 2.0, 3.0, 4.0], (1.75, 2.5, 3.25)),
        ],
    )
    def test_quartiles_interpolate_between_order_statistics(self, values, expected):
        assert bench.quartiles(values) == pytest.approx(expected)

    def test_pairs_won_leave_ties_to_neither_side(self):
        parent = [10.0, 10.0, 10.0, 10.0, 10.0]
        change = [9.0, 9.0, 10.0, 11.0, 8.0]
        lower = bench.compare(parent, change, "lower", 0.25)
        assert lower["won"] == {"change": 3, "parent": 1} and lower["pairs"] == 5
        higher = bench.compare(parent, change, "higher", 0.25)
        assert higher["won"] == {"change": 1, "parent": 3}

    def test_unresolved_when_the_gap_is_inside_the_parents_spread(self):
        parent = [8.0, 9.0, 10.0, 11.0, 12.0]  # quartiles 9 and 11: a spread of 2
        assert bench.compare(parent, [x - 2 for x in parent], "lower", 0.25)["unresolved"]
        assert not bench.compare(parent, [x - 2.5 for x in parent], "lower", 0.25)["unresolved"]
        # the rule is about the medians, whatever the pairs say
        assert bench.compare(parent, [x + 1.5 for x in parent], "higher", 0.25)["unresolved"]

    @pytest.mark.parametrize("won, gain", [(9, True), (8, False)])
    def test_gain_needs_nine_pairs_in_ten(self, won, gain):
        parent = [10.0 + i for i in range(10)]  # quartiles 12.25 and 16.75: a spread of 4.5
        # the pairs the change wins are 6 lower, the rest 1 higher: a median gap of 6
        change = [p - 6 if i < won else p + 1 for i, p in enumerate(parent)]
        result = bench.compare(parent, change, "lower", 0.25)
        assert result["won"]["change"] == won and not result["unresolved"]
        assert result["gain"] is gain
        # the same runs read the other way round are no gain
        assert not bench.compare(parent, change, "higher", 0.25)["gain"]

    def test_no_gain_inside_the_parents_spread(self):
        parent = [10.0 + i for i in range(10)]
        result = bench.compare(parent, [p - 4 for p in parent], "lower", 0.25)
        assert result["won"]["change"] == 10 and result["unresolved"]
        assert not result["gain"]
        result = bench.compare(parent, [p - 5 for p in parent], "lower", 0.25)
        assert result["gain"] and "(10/10, gain)" in bench.cell(result)

    @pytest.mark.parametrize(
        "better, change, worse",
        [
            ("lower", 12.4, False),
            ("lower", 12.6, True),
            ("higher", 7.6, False),
            ("higher", 7.4, True),
        ],
    )
    def test_worse_than_bound(self, better, change, worse):
        result = bench.compare([10.0, 10.0, 10.0], [change] * 3, better, 0.25)
        assert result["worse_than_bound"] is worse
        assert result["relative"] == pytest.approx((change - 10) / 10)

    def test_unequal_sides_refused(self):
        with pytest.raises(ValueError):
            bench.compare([1.0, 2.0], [1.0], "lower", 0.25)

    @pytest.mark.parametrize(
        "text, seeds",
        [("1-10", list(range(1, 11))), ("11-13", [11, 12, 13]), ("1,4-5,9", [1, 4, 5, 9])],
    )
    def test_seed_lists(self, text, seeds):
        assert bench.seed_list(text) == seeds


class TestReport:
    def runs(self):
        runs = [fake_run("realize", "seeds", s, 10.0 + s, 9.0 + s) for s in range(1, 11)]
        runs += [fake_run("realize", "held_out", s, 10.0, 9.0, failed=1) for s in (11, 12, 13)]
        runs += [fake_run("cli", "seeds", s, 5.0, 5.0) for s in range(1, 11)]
        return runs

    def test_schema(self):
        report = bench.summarize(self.runs(), END_TO_END)
        assert set(report) == {"realize", "cli"}
        assert set(report["realize"]) == {"seeds", "held_out"} and set(report["cli"]) == {"seeds"}
        summary = report["realize"]["held_out"]
        assert summary["seeds"] == [11, 12, 13]
        assert summary["outcomes"] == {
            "parent": {"attempted": 300, "failed": 0, "correct": True},
            "change": {"attempted": 300, "failed": 3, "correct": True},
        }
        assert set(summary["metrics"]) == {m["name"] for m in END_TO_END}
        for result in summary["metrics"].values():
            assert set(result) == {
                "parent", "change", "relative", "pairs", "won", "unresolved", "worse_than_bound",
                "gain",
            }
            assert set(result["parent"]) == set(result["change"]) == {"median", "q1", "q3"}
        json.dumps(report)  # the report is written as JSON

    def test_values_and_table(self):
        report = bench.summarize(self.runs(), END_TO_END)
        tail = report["realize"]["seeds"]["metrics"]["op_tail_ms"]
        offset = [m["name"] for m in END_TO_END].index("op_tail_ms")
        assert tail["parent"]["median"] == 15.5 + offset
        assert tail["change"]["median"] == 14.5 + offset
        assert tail["won"] == {"change": 10, "parent": 0}
        # a gap of 1 against the parent's spread of 4.5
        assert tail["unresolved"] and not tail["worse_than_bound"] and not tail["gain"]
        rate = report["realize"]["seeds"]["metrics"]["ops_per_s"]
        assert rate["won"] == {"change": 0, "parent": 10}
        assert report["cli"]["seeds"]["metrics"]["op_p50_ms"]["won"] == {"change": 0, "parent": 0}
        lines = bench.table(report, END_TO_END).splitlines()
        assert len(lines) == 2 + 3
        assert lines[0].startswith("| workload | ops_per_s |")
        assert "(10/10, unresolved)" in lines[2]


class TestSetupProbes:
    """``setup_s`` from alternating ``--setup-probe`` processes, on synthetic
    probe outputs."""

    def test_sides_take_turns(self):
        assert [bench.order(i)[0] for i in range(4)] == ["parent", "change"] * 2
        assert all(sorted(bench.order(i)) == ["change", "parent"] for i in range(4))

    def test_a_probe_reads_its_last_line(self):
        # run.py --setup-probe prints repr() of the seconds
        assert float(bench.last_line("note\n0.0123\n")) == 0.0123

    def probes(self, shift):
        parent = [0.010 + 0.0001 * (i % 4) for i in range(12)]
        return {"realize": {"parent": parent, "change": [x + shift for x in parent]}}

    def summary(self):
        runs = [fake_run("realize", "seeds", s, 10.0, 9.0) for s in range(1, 11)]
        return bench.summarize(runs, END_TO_END)

    @pytest.mark.parametrize("shift, unresolved", [(0.0001, True), (0.0005, False)])
    def test_probes_get_the_unresolved_rule(self, shift, unresolved):
        # the parent's 12 probes have quartiles 0.010075 and 0.010225
        setup = bench.setup_report(self.probes(shift), self.summary(), END_TO_END)
        probes = setup["realize"]["probes"]
        assert probes["pairs"] == 12 and probes["won"] == {"change": 0, "parent": 12}
        assert probes["parent"]["median"] == pytest.approx(0.01015)
        assert probes["parent"]["q1"] == pytest.approx(0.010075)
        assert probes["parent"]["q3"] == pytest.approx(0.010225)
        assert probes["unresolved"] is unresolved and not probes["worse_than_bound"]
        # the run-level value sits beside it
        runs = setup["realize"]["runs"]
        assert runs == self.summary()["realize"]["seeds"]["metrics"]["setup_s"]
        json.dumps(setup)

    def test_setup_table(self):
        setup = bench.setup_report(self.probes(0.0005), self.summary(), END_TO_END)
        lines = bench.setup_table(setup).splitlines()
        assert lines[0] == "| workload | setup_s, probes | setup_s, runs |"
        assert len(lines) == 3 and lines[2].startswith("| realize | 0.01015 [0.01008, 0.01023] -> ")
        assert "-> 0.01065 (0/12) |" in lines[2] and "(10/10, gain) |" in lines[2]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_run_in_session_leaves_no_process(tmp_path):
    # the command exits at once, leaving a grandchild asleep in its session
    script = (
        "import subprocess, sys; "
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
        "print(child.pid)"
    )
    out = bench.run_in_session([sys.executable, "-c", script], tmp_path, dict(os.environ))
    pid = int(out.split()[-1])
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            break
        if state in ("Z", "X"):  # killed, and waiting to be reaped by init
            break
        time.sleep(0.05)
    else:
        raise AssertionError(f"process {pid} is still running")


def test_run_in_session_raises_on_failure(tmp_path):
    with pytest.raises(RuntimeError, match="exited 3"):
        bench.run_in_session([sys.executable, "-c", "import sys; sys.exit(3)"], tmp_path, {})


def commit_all(root):
    """Make ``root`` a git repository with every file in it committed."""
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "files"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=root,
                       check=True, capture_output=True)


def test_copy_checkout_takes_the_files_as_they_are_on_disk(tmp_path):
    root, into = tmp_path / "checkout", tmp_path / "copy"
    root.mkdir()
    files = {
        ".gitignore": "ignored.txt\n", "kept.txt": "old\n", "gone.txt": "x\n", "sub/edited.py": "old\n",
    }
    for name, text in files.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)

    commit_all(root)
    (root / "sub/edited.py").write_text("new\n")
    (root / "gone.txt").unlink()
    (root / "untracked.txt").write_text("u\n")
    (root / "ignored.txt").write_text("i\n")
    bench.copy_checkout(root, into)
    copied = {
        str(path.relative_to(into)): path.read_text() for path in into.rglob("*") if path.is_file()
    }
    assert copied == {
        ".gitignore": "ignored.txt\n", "kept.txt": "old\n", "sub/edited.py": "new\n",
        "untracked.txt": "u\n",
    }


def test_git_keeps_the_leading_status_column(tmp_path):
    (tmp_path / "a.txt").write_text("old\n")
    (tmp_path / "b.txt").write_text("old\n")
    commit_all(tmp_path)
    (tmp_path / "a.txt").write_text("new\n")  # modified, not staged
    (tmp_path / "b.txt").write_text("new\n")
    subprocess.run(["git", "add", "b.txt"], cwd=tmp_path, check=True)  # modified and staged
    assert bench.git("status", "--porcelain", root=tmp_path).splitlines() == [
        " M a.txt", "M  b.txt",
    ]
    assert len(bench.git("rev-parse", "HEAD", root=tmp_path)) == 40  # no newline


class TestTracedRuns:
    """Per-layer figures from ``TRACE_RUNS`` traced runs per side, on
    synthetic run outputs."""

    def traced(self, parent, change):
        def run(values):
            metrics = {
                "perms.classical.self_s": {"value": values[0], "unit": "s"},
                "graphs.cycles.count": {"value": values[1], "unit": "count"},
                "feasible.refused": {"value": 0, "unit": "count"},
            }
            return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

        return {"realize": {"parent": list(map(run, parent)), "change": list(map(run, change))}}

    def test_three_runs_per_side(self):
        assert bench.TRACE_RUNS == 3

    def test_each_layer_is_the_median_of_its_side(self):
        # one run per side reads a third above the rest: the median ignores it
        traced = self.traced([(0.10, 160), (0.14, 160), (0.11, 160)],
                             [(0.09, 160), (0.08, 160), (0.12, 170)])
        layers = bench.layer_medians(traced)
        assert layers["realize"]["perms.classical.self_s"] == {"parent": 0.11, "change": 0.09}
        assert layers["realize"]["graphs.cycles.count"] == {"parent": 160, "change": 160}
        assert layers["realize"]["feasible.refused"] == {"parent": 0, "change": 0}
        json.dumps(layers)

    def test_layer_table_leaves_out_layers_zero_on_both_sides(self):
        traced = self.traced([(0.10, 160)] * 3, [(0.05, 160)] * 3)
        lines = bench.layer_table(bench.layer_medians(traced)).splitlines()
        assert lines[0] == "| workload | layer | parent | change |"
        assert lines[2:] == [
            "| realize | perms.classical.self_s | 0.1 | 0.05 |",
            "| realize | graphs.cycles.count | 160 | 160 |",
        ]
