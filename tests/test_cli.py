import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import classical_counts_by_subsets, classical_counts_small
from permutope import (
    CapacityError,
    PatternVector,
    Permutation,
    build_overlap_graph,
    feasible_region,
    limits,
    mix,
    monotone_sum_generator,
)
from permutope.cli import run

F = Fraction

# Well formed but infeasible: all mass on 132, so flow leaves vertex 12 and
# never comes back.
INFEASIBLE = json.dumps(
    {"k": 3, "entries": {"123": "0", "132": "1", "213": "0", "231": "0", "312": "0", "321": "0"}}
)
VIOLATION = "flow not conserved at vertex '12': out 1 != in 0"


SRC = Path(__file__).resolve().parents[1] / "src"
CONSECUTIVE = ("--kind", "consecutive")
# Runs the CLI on its arguments under a 128 MiB address-space limit.
OUT_OF_MEMORY = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))
from permutope import cli
sys.exit(cli.run(sys.argv[1:]))
"""


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_consecutive_vector_of_worked_example(self, capsys):
        code, out, _ = invoke(
            capsys, "stats", "--perm", "628451793", "--k", "4", "--kind", "consecutive"
        )
        assert code == 0
        data = json.loads(out)
        nonzero = {w: v for w, v in data["entries"].items() if v != "0"}
        assert nonzero == {
            w: "1/9" for w in ["3142", "1423", "4231", "2314", "2134", "1342"]
        }

    def test_reproducible_bytes(self, capsys):
        args = ("stats", "--perm", "35142", "--k", "3", "--kind", "classical")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_float_display(self, capsys):
        code, out, _ = invoke(
            capsys, "--float", "stats", "--perm", "231", "--k", "2", "--kind", "classical"
        )
        assert code == 0
        assert json.loads(out)["entries"]["21"] == "0.666666666667"

    def test_classical_vector_of_a_mix(self, capsys):
        inner, block = Permutation.parse("13254687"), Permutation.parse("231")
        sigma = mix(lambda _: inner, monotone_sum_generator(block), 40)
        code, out, _ = invoke(
            capsys, "stats", "--perm", str(sigma), "--k", "3", "--kind", "classical"
        )
        assert code == 0
        expected = classical_counts_small(sigma.word)
        total = math.comb(len(sigma), 3)
        assert json.loads(out)["entries"] == {
            "".join(map(str, p)): str(F(c, total)) for p, c in expected.items() if len(p) == 3
        }

    def test_bad_permutation_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "stats", "--perm", "113", "--k", "2", "--kind", "classical")
        assert code == 1 and "error:" in err


class TestSimpleVerbs:
    def test_dim(self, capsys):
        code, out, _ = invoke(capsys, "dim", "--k", "3")
        assert code == 0 and out.strip() == "4"

    def test_member_uniform(self, capsys):
        code, out, _ = invoke(capsys, "member", "--k", "3", "--vector", "uniform")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "true"
        data = json.loads("\n".join(lines[1:]))
        assert [d["weight"] for d in data["decomposition"]] == ["1/6", "1/3", "1/3", "1/6"]

    def test_member_non_member(self, capsys):
        code, out, err = invoke(capsys, "member", "--k", "3", "--vector", INFEASIBLE)
        assert code == 0 and err == ""
        assert out == "false\n" + json.dumps({"violation": VIOLATION}, indent=2) + "\n"

    def test_decompose(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "--k", "3", "--vector", "uniform")
        assert code == 0
        data = json.loads(out)
        assert len(data["decomposition"]) == 4

    def test_realize_vertex_target(self, capsys, tmp_path):
        vector = {"k": 3, "entries": {w: "0" for w in ["132", "213", "231", "312", "321"]}}
        vector["entries"]["123"] = "1"
        plan_file = tmp_path / "plan.json"
        code, out, _ = invoke(
            capsys,
            "realize",
            "--k",
            "3",
            "--vector",
            json.dumps(vector),
            "--m",
            "5",
            "--plan",
            str(plan_file),
        )
        assert code == 0 and out.strip() == "1234567"
        plan = json.loads(plan_file.read_text())
        assert plan["decomposition"][0]["cycle_labels"] == ["123"]

    def test_universal(self, capsys):
        code, out, _ = invoke(capsys, "universal", "--k", "2")
        assert code == 0 and out.strip() == "132"

    def test_mix(self, capsys):
        code, out, _ = invoke(capsys, "mix", "--perm-a", "12", "--perm-b", "21")
        assert code == 0 and out.strip() == "3412"

    def test_vertices(self, capsys):
        code, out, _ = invoke(capsys, "vertices", "--k", "3")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 6

    def test_faces(self, capsys):
        code, out, _ = invoke(capsys, "faces", "--k", "3")
        assert code == 0
        data = json.loads(out)
        assert data["polytope_dimension"] == 4
        assert data["face_counts"] == {"0": 6, "1": 13, "2": 13, "3": 6, "4": 1}


class TestOverlapAndExport:
    def test_overlap_summary(self, capsys):
        code, out, _ = invoke(capsys, "overlap", "--k", "4")
        assert code == 0
        assert "6 vertices, 24 edges" in out and "strongly connected" in out

    def test_export_dot_file(self, capsys, tmp_path):
        dot = tmp_path / "ov4.dot"
        code, _, _ = invoke(capsys, "export", "--k", "4", "--format", "dot", "--out", str(dot))
        assert code == 0
        text = dot.read_text()
        assert text.count(" -> ") == 24
        assert '[label="3412"]' in text
        # export is the one graph writer
        assert invoke(capsys, "overlap", "--k", "4", "--dot", str(dot))[0] == 2

    def test_export_json_round_trip_bytes(self, capsys, tmp_path):
        first = tmp_path / "g1.json"
        second = tmp_path / "g2.json"
        invoke(capsys, "export", "--k", "2", "--format", "json", "--out", str(first))
        invoke(capsys, "--float", "export", "--graph", str(first), "--format", "json", "--out", str(second))
        assert first.read_bytes() == second.read_bytes()
        data = json.loads(first.read_text())
        assert len(data["vertices"]) == 1 and len(data["edges"]) == 2

    def test_export_dot_stdout(self, capsys):
        code, out, _ = invoke(capsys, "export", "--k", "2", "--format", "dot")
        assert code == 0 and out.startswith("digraph")


class TestReport:
    def test_report_csv_parses_back(self, capsys):
        code, out, _ = invoke(
            capsys, "report", "--k", "3", "--vector", "uniform", "--m-values", "1,2,4"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["m"] for row in rows] == ["1", "2", "4"]
        total = sum(F(rows[0][f"occ_{w}"]) for w in ["123", "132", "213", "231", "312", "321"])
        assert total == 1
        assert F(rows[2]["linf_consec"]) < F(rows[0]["linf_consec"])

    @pytest.mark.parametrize("loops", [False, True], ids=["uniform", "loops"])
    def test_report_distance_is_the_plan_certificate(self, capsys, loops):
        # the uniform target is one part; the loops 123 and 321 sit at
        # different vertices, so their witness has boundary windows
        region = feasible_region(3)
        uniform = PatternVector.uniform(3)
        target = region.vector_of([F(1, 2), 0, 0, 0, 0, F(1, 2)]) if loops else uniform
        plan = region.plan(target)
        assert len(plan.parts) == (2 if loops else 1)
        vector = json.dumps(target.to_json_dict())
        code, out, _ = invoke(capsys, "report", "--k", "3", "--vector", vector, "--max-size", "300")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) >= 5
        for row in rows:
            assert F(row["linf_consec"]) == plan.sup_error_bound(int(row["m"]))

    def test_report_classical_columns_of_a_direct_sum_witness(self, capsys):
        # loops 123 at 1/3 and 321 at 2/3: two parts, joined by a direct sum
        region = feasible_region(3)
        target = region.vector_of([F(1, 3), 0, 0, 0, 0, F(2, 3)])
        plan = region.plan(target)
        assert len(plan.parts) == 2
        vector = json.dumps(target.to_json_dict())
        code, out, _ = invoke(
            capsys, "report", "--k", "3", "--vector", vector, "--m-values", "1,2,4"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["m"] for row in rows] == ["1", "2", "4"]
        for row in rows:
            witness = plan.generate(int(row["m"])).word
            expected = classical_counts_small(witness)
            total = math.comb(len(witness), 3)
            for pattern in itertools.permutations((1, 2, 3)):
                name = "".join(map(str, pattern))
                assert F(row[f"occ_{name}"]) == F(expected[pattern], total), (row["m"], name)

    def test_report_default_schedule(self, capsys):
        code, out, _ = invoke(
            capsys, "report", "--k", "3", "--vector", "uniform", "--max-size", "200"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["m"] for row in rows] == ["1", "2", "4", "8", "16", "32"]
        assert all(int(row["size"]) <= 200 for row in rows)

    def test_classical_columns_at_k4(self, capsys):
        # m = 1 gives the 27-point witness of the uniform target, under the
        # enum cap 30: its classical columns are its counts over C(27, 4)
        argv = ("report", "--k", "4", "--vector", "uniform", "--m-values", "1")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(out))
        witness = feasible_region(4).plan(PatternVector.uniform(4)).generate(1)
        assert row["size"] == "27" and len(witness) == 27
        counts = classical_counts_by_subsets(witness.word, 4)
        words = ["".join(map(str, p)) for p in itertools.permutations(range(1, 5))]
        assert [F(row[f"occ_{w}"]) for w in words] == [F(c, math.comb(27, 4)) for c in counts]

    def test_classical_columns_empty_past_the_enum_cap(self, capsys):
        # m = 2 gives 51 points, over the enum cap 30: the consecutive columns
        # are filled and the classical ones left empty
        argv = ("report", "--k", "4", "--vector", "uniform", "--m-values", "1,2")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        first, second = csv.DictReader(io.StringIO(out))
        assert (first["size"], second["size"]) == ("27", "51")
        occ = [name for name in second if name.startswith("occ_")]
        cocc = [name for name in second if name.startswith("cocc_")]
        assert len(occ) == len(cocc) == 24
        assert all(first[name] != "" for name in occ) and first["linf_class"] == ""
        assert all(second[name] == "" for name in occ) and second["linf_class"] == ""
        assert sum(F(second[name]) for name in cocc) == F(51 - 3, 51)

    def test_default_schedule_stops_at_the_realize_cap(self, capsys, monkeypatch):
        # the uniform target at k=4 needs 27, 51, 99 and 195 points at m = 1, 2, 4, 8
        monkeypatch.setenv("PERMUTOPE_CAP", "realize=100")
        argv = ("report", "--k", "4", "--vector", "uniform", "--no-classical")
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(row["m"], row["size"]) for row in rows] == [("1", "27"), ("2", "51"), ("4", "99")]
        monkeypatch.setenv("PERMUTOPE_CAP", "realize=26")
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err == (
            "error: no m fits under --max-size 4096 and the realize cap 26 "
            "(PERMUTOPE_CAP key 'realize'); pass --m-values explicitly\n"
        )


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ("dim", "--k", "3"),
            ("member", "--k", "3", "--vector", "uniform"),
            ("decompose", "--k", "3", "--vector", "uniform"),
            ("vertices", "--k", "3"),
            ("faces", "--k", "3"),
            ("universal", "--k", "4"),
            ("report", "--k", "3", "--vector", "uniform", "--m-values", "1,2"),
            ("export", "--k", "3", "--format", "dot"),
        ],
    )
    def test_identical_bytes_across_invocations(self, capsys, argv):
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second and first[0] == 0


class TestErrorsAndCaps:
    def test_unknown_verb_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_missing_graph_file_reports_path(self, capsys):
        code, _, err = invoke(capsys, "export", "--graph", "no_such_graph.json", "--format", "dot")
        assert code == 1 and "no_such_graph.json" in err

    def test_missing_source_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "dim")
        assert code == 2  # neither --k nor --graph

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMUTOPE_CAP", "overlap=3")
        code, _, err = invoke(capsys, "overlap", "--k", "4")
        assert code == 1 and "error:" in err

    def test_env_cap_parse_error(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMUTOPE_CAP", "garbage")
        code, _, err = invoke(capsys, "dim", "--k", "3")
        assert code == 1

    @pytest.mark.parametrize("verb", ["dim", "export"])
    def test_env_cap_parse_error_before_any_guard(self, capsys, monkeypatch, tmp_path, verb):
        # neither verb reaches a guard with --graph, yet the variable is checked
        path = tmp_path / "graph.json"
        graph = {"vertices": ["a"], "edges": [{"st": 0, "ar": 0, "label": "e"}]}
        path.write_text(json.dumps(graph), encoding="utf-8")
        argv = [verb, "--graph", str(path)] + (["--format", "json"] if verb == "export" else [])
        assert invoke(capsys, *argv)[0] == 0
        monkeypatch.setenv("PERMUTOPE_CAP", "garbage")
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: PERMUTOPE_CAP entry 'garbage' is not name=value\n"

    def test_env_cap_negative(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMUTOPE_CAP", "cycles=-1")
        code, out, err = invoke(capsys, "vertices", "--k", "3")
        assert code == 1 and out == ""
        assert err == "error: PERMUTOPE_CAP cap 'cycles' is negative: -1\n"

    def test_env_cap_is_the_one_way_to_set_a_cap(self, capsys, monkeypatch):
        assert invoke(capsys, "vertices", "--k", "3", "--max-cycles", "100")[0] == 2
        assert invoke(capsys, "faces", "--k", "3", "--max-edges", "100")[0] == 2
        monkeypatch.setenv("PERMUTOPE_CAP", "cycles=2")
        code, out, err = invoke(capsys, "vertices", "--k", "3")
        assert code == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("kind", ["classical", "consecutive"])
    def test_vector_cap_names_its_value_and_key(self, capsys, monkeypatch, kind):
        perm = ",".join(map(str, range(1, 11)))
        argv = ("stats", "--perm", perm, "--k", "9", "--kind", kind)
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err == (
            "error: tables of k! entries are refused at k=9, over the overlap cap 8 "
            "(PERMUTOPE_CAP key 'overlap')\n"
        )
        monkeypatch.setenv("PERMUTOPE_CAP", "overlap=9")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and json.loads(out)["k"] == 9

    def test_dim_at_and_over_the_default_overlap_cap(self, capsys):
        code, out, _ = invoke(capsys, "dim", "--k", "8")
        assert code == 0 and out == "35280\n"
        assert 35280 == math.factorial(8) - math.factorial(7)
        code, out, err = invoke(capsys, "dim", "--k", "9")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.endswith("the overlap cap 8 (PERMUTOPE_CAP key 'overlap')\n")

    def test_overlap_cap_over_20_is_refused(self, capsys, monkeypatch):
        # 21! pattern ids do not fit in 64 bits; the variable is refused
        # before any verb runs
        monkeypatch.setenv("PERMUTOPE_CAP", "overlap=21")
        argv = ("stats", "--perm", ",".join(map(str, range(1, 26))), "--k", "21")
        code, out, err = invoke(capsys, *argv, "--kind", "consecutive")
        assert code == 1 and out == ""
        assert err == (
            "error: PERMUTOPE_CAP cap 'overlap' is 21, over 20: "
            "the ids of k! patterns fit in 64 bits only up to k = 20\n"
        )

    @pytest.mark.parametrize(
        "cap, argv",
        [
            (12, ("stats", "--perm", "3,1,4,12,5,9,2,6,11,8,10,7", "--k", "12", *CONSECUTIVE)),
            (12, ("dim", "--k", "12")),
            (
                20,
                ("stats", "--perm", ",".join(map(str, range(25, 0, -1))), "--k", "20", *CONSECUTIVE),
            ),
        ],
    )
    def test_out_of_memory_is_one_line(self, cap, argv):
        # A raised overlap cap allows k! tables that do not fit.  Each run is a
        # child process that limits its own address space, so that it fails
        # fast and the test process never builds such a table.
        env = dict(os.environ, PYTHONPATH=str(SRC), PERMUTOPE_CAP=f"overlap={cap}")
        done = subprocess.run(
            [sys.executable, "-S", "-c", OUT_OF_MEMORY, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == (
            f"error: out of memory; the overlap cap {cap} (PERMUTOPE_CAP key 'overlap') "
            f"allows tables of up to {cap}! entries\n"
        )
        assert len(done.stderr.encode()) < 200

    def test_out_of_memory_names_the_raised_cap(self):
        # A raised realize cap lets a witness too large for memory through;
        # the line names that cap, not the overlap cap left at its default.
        env = dict(os.environ, PYTHONPATH=str(SRC), PERMUTOPE_CAP="realize=100000000000")
        argv = ("realize", "--k", "3", "--vector", "uniform", "--m", "1000000000")
        done = subprocess.run(
            [sys.executable, "-S", "-c", OUT_OF_MEMORY, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == (
            "error: out of memory; the realize cap 100000000000 (PERMUTOPE_CAP key 'realize') "
            "is over its default 10000000\n"
        )
        assert len(done.stderr.encode()) < 200

    def test_env_cap_unknown_key(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMUTOPE_CAP", "cycle=2")
        code, _, err = invoke(capsys, "vertices", "--k", "3")
        assert code == 1 and err.startswith("error:") and "'cycle'" in err
        assert all(key in err for key in ("cycles", "enum", "overlap", "faces", "mix", "realize"))

    @pytest.mark.parametrize(
        "key, value, argv",
        [
            ("cycles", 2, ("vertices", "--k", "3")),
            ("enum", 5, ("stats", "--perm", "351426", "--k", "4", "--kind", "classical")),
            ("overlap", 3, ("overlap", "--k", "4")),
            ("faces", 5, ("faces", "--k", "3")),
            ("mix", 3, ("mix", "--perm-a", "12", "--perm-b", "21")),
            ("realize", 47, ("realize", "--k", "4", "--vector", "uniform", "--m", "2")),
        ],
    )
    def test_refusal_names_its_cap_and_key(self, capsys, monkeypatch, key, value, argv):
        monkeypatch.setenv("PERMUTOPE_CAP", f"{key}={value}")
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{key} cap {value} (PERMUTOPE_CAP key '{key}')" in err

    @pytest.mark.parametrize("verb", ["member", "decompose", "realize", "report"])
    def test_overlap_cap_refuses_before_the_uniform_vector(self, capsys, monkeypatch, verb):
        # k = 9 is over the default overlap cap 8: the refusal comes before
        # the 362,880-entry uniform vector, in the words build_overlap_graph uses
        def refuse(cls, k):
            raise AssertionError("built the uniform vector")

        monkeypatch.setattr(PatternVector, "uniform", classmethod(refuse))
        argv = [verb, "--k", "9", "--vector", "uniform"]
        argv += ["--m", "1"] if verb == "realize" else []
        code, out, err = invoke(capsys, *argv)
        with pytest.raises(CapacityError) as refusal:
            build_overlap_graph(9)
        assert code == 1 and out == ""
        assert err == f"error: {refusal.value}\n"

    def test_realize_over_the_cap_is_refused_before_building(self, capsys):
        # size_for(2000) of the uniform target at k=7 is 10,080,006 points
        start = time.perf_counter()
        code, out, err = invoke(capsys, "realize", "--k", "7", "--vector", "uniform", "--m", "2000")
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "10080006" in err and "'realize'" in err

    def test_env_cap_sets_the_realize_cap(self, capsys, monkeypatch):
        # the uniform target at k=4 needs 27 points at m=1
        argv = ("realize", "--k", "4", "--vector", "uniform", "--m", "1")
        monkeypatch.setenv("PERMUTOPE_CAP", "realize=26")
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == "" and "26" in err
        report = ("report", "--k", "4", "--vector", "uniform", "--m-values", "1", "--no-classical")
        code, out, err = invoke(capsys, *report)
        assert code == 1 and out == "" and "26" in err
        monkeypatch.setenv("PERMUTOPE_CAP", "realize=27")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and len(Permutation.parse(out.strip())) == 27
        code, out, _ = invoke(capsys, *report)
        assert code == 0 and out.splitlines()[1].startswith("1,27,")

    @pytest.mark.parametrize(
        "verb, body",
        [
            ("dim", {"vertices": ["a"]}),
            ("vertices", {"vertices": 5, "edges": []}),
            ("faces", [1, 2]),
            ("export", {"vertices": ["a"], "edges": [{"st": 0, "ar": "x", "label": "e"}]}),
            ("dim", {"vertices": ["a"], "edges": [{"st": 0.5, "ar": 0, "label": "e"}]}),
        ],
    )
    def test_malformed_graph_is_one_line_error(self, capsys, tmp_path, verb, body):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        argv = [verb, "--graph", str(path)] + (["--format", "json"] if verb == "export" else [])
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("defect", ["zero_denominator", "missing_k", "list"])
    def test_malformed_vector_is_one_line_error(self, capsys, defect):
        body = {"k": 3, "entries": {w: "1/6" for w in ["123", "132", "213", "231", "312", "321"]}}
        if defect == "zero_denominator":
            body["entries"]["123"] = "1/0"
        elif defect == "missing_k":
            del body["k"]
        else:
            body = [1, 2, 3]
        code, out, err = invoke(capsys, "member", "--k", "3", "--vector", json.dumps(body))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["1e10000000", "9" * 5000], ids=["exponent", "5000_digits"])
    def test_entry_is_read_in_bounded_time_and_quoted_in_one_line(self, capsys, entry):
        body = {"k": 3, "entries": {w: "0" for w in ["123", "132", "213", "231", "312", "321"]}}
        body["entries"]["123"] = entry
        start = time.perf_counter()
        code, out, err = invoke(capsys, "member", "--k", "3", "--vector", json.dumps(body))
        assert time.perf_counter() - start < 0.1
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize(
        "key",
        ["9" * 5000, "x" * 5000, ",".join(map(str, range(1, 2001)))],
        ids=["not_a_permutation", "not_digits", "outside_S3"],
    )
    def test_long_key_is_quoted_in_one_line(self, capsys, key):
        body = {"k": 3, "entries": {w: "1/6" for w in ["123", "132", "213", "231", "312", "321"]}}
        body["entries"][key] = "0"
        code, out, err = invoke(capsys, "member", "--k", "3", "--vector", json.dumps(body))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize(
        "argv", [["decompose"], ["realize", "--m", "1"], ["report", "--m-values", "1"]]
    )
    def test_infeasible_vector_is_one_line_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, "--k", "3", "--vector", INFEASIBLE)
        assert (code, out, err) == (1, "", f"error: {VIOLATION}\n")

    @pytest.mark.parametrize("k", [3.9, True])
    def test_vector_k_must_be_an_integer(self, capsys, k):
        # int() would read 3.9 as 3 and true as 1
        body = {"k": k, "entries": {w: "1/6" for w in ["123", "132", "213", "231", "312", "321"]}}
        code, out, err = invoke(capsys, "member", "--k", "3", "--vector", json.dumps(body))
        assert code == 1 and out == ""
        assert err == f"error: pattern vector 'k' is not an integer: {k!r}\n"

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0


def _golden_vector(member: bool) -> str:
    """A fixed non-uniform point at k = 4: 1/3 on the loop 1234, 1/6 on the
    loop 4321 and 1/2 spread uniformly.  Moving the 1243 entry onto the loop
    1234 breaks flow conservation."""
    words = ["".join(map(str, w)) for w in itertools.permutations(range(1, 5))]
    entries = {w: F(1, 48) for w in words}
    entries["1234"] += F(1, 3)
    entries["4321"] += F(1, 6)
    if not member:
        entries["1234"] += entries["1243"]
        entries["1243"] = F(0)
    return json.dumps({"k": 4, "entries": {w: str(v) for w, v in entries.items()}})


# A triangle, the two-vertex pyramid graph and an isolated vertex, with a
# pendant edge from the triangle into the pyramid that lies on no cycle.
_GOLDEN_GRAPH = {
    "vertices": ["t1", "t2", "t3", "p1", "p2", "iso"],
    "edges": [
        {"st": st, "ar": ar, "label": label}
        for st, ar, label in [
            (1, 2, "e1"),
            (2, 0, "e2"),
            (0, 1, "e3"),
            (0, 3, "pendant"),
            (3, 3, "loop"),
            (3, 4, "a1"),
            (3, 4, "a2"),
            (4, 3, "b1"),
            (4, 3, "b2"),
        ]
    ],
}
# Stands in an argv for the path of _GOLDEN_GRAPH written to a file.
_GRAPH_FILE = object()

# The permutation i -> 7i mod 41 of 1..40.
_GOLDEN_PERM = ",".join(str(7 * i % 41) for i in range(1, 41))

GOLDEN_STDOUT = {
    "stats.classical.k3": (
        ("stats", "--perm", _GOLDEN_PERM, "--k", "3", "--kind", "classical"),
        "45247a0ed46c9cb864f4703c8a965b306cd6f3e6b6aa1533c605f55a6eb30c4d",
    ),
    "stats.classical.k3.float": (
        ("--float", "stats", "--perm", _GOLDEN_PERM, "--k", "3", "--kind", "classical"),
        "2d1446601b80c54f2a60bdc17cddf9b3026c772543092bf1e10e58f52cb4d9df",
    ),
    "stats.consecutive.k4": (
        ("stats", "--perm", _GOLDEN_PERM, "--k", "4", "--kind", "consecutive"),
        "aeccb18f293626bd3df3fb309104e22fcca45e19a75d20d993d53c53617c75c9",
    ),
    "stats.consecutive.k4.float": (
        ("--float", "stats", "--perm", _GOLDEN_PERM, "--k", "4", "--kind", "consecutive"),
        "02906c715e44af1f8b2913306e8c91cfd1034feedb81501cfd41ce09261bf9cf",
    ),
    "stats.consecutive.k5": (
        ("stats", "--perm", _GOLDEN_PERM, "--k", "5", "--kind", "consecutive"),
        "2cc7c570274b46301dcdb40020cdfa9fb2f91f3d8b2c50733fecb90207124d09",
    ),
    "stats.consecutive.k5.float": (
        ("--float", "stats", "--perm", _GOLDEN_PERM, "--k", "5", "--kind", "consecutive"),
        "13278b6f055fcbaff1ead3b77635539e4db3db4d3b53b4957ed9c2f47e8c2c0d",
    ),
    "member.k4": (
        ("member", "--k", "4", "--vector", _golden_vector(True)),
        "d2dd8df6a8b1a0714acb826216f9f5c1e022766b2091c89e3a83294dc2e53c7b",
    ),
    "member.k4.float": (
        ("--float", "member", "--k", "4", "--vector", _golden_vector(True)),
        "068f10873d5b2204c1f653d33151e69edd73b31036460ff5775ac0518da7c840",
    ),
    "member.k4.violation": (
        ("member", "--k", "4", "--vector", _golden_vector(False)),
        "2db6034004fdfb4c99281fd94b93315380d73ccc2448f78f5a635157544a75cb",
    ),
    "decompose.k4": (
        ("decompose", "--k", "4", "--vector", _golden_vector(True)),
        "b534d6549677ba3ed7248927d7a14f2b2eef8a0526b555825b55a07b639fa45f",
    ),
    # every one of the 5,040 edges in the support: the longest greedy peel
    "decompose.k7.uniform": (
        ("decompose", "--k", "7", "--vector", "uniform"),
        "4b92c3d29e55bff3fd710bc5451efe6cbe4a10d7184b3cfe7087a7409955db2f",
    ),
    "faces.k3": (
        ("faces", "--k", "3"),
        "efc8b0ebf2b0b65a2c278e811db9b04a250d8b7ff5ed3062ecfadfb0e0dc35d7",
    ),
    "dim.graph": (
        ("dim", "--graph", _GRAPH_FILE),
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    ),
    "faces.graph": (
        ("faces", "--graph", _GRAPH_FILE),
        "8ff9e314b1dfbd2225316c5ed62e69846e0b4c9199711b571625ddd38573acb3",
    ),
    # witness bytes: an Eulerian circuit's permutation, and a plan's witness
    "universal.k5": (
        ("universal", "--k", "5"),
        "7a819aae6d7227a067fef3d6f193f557bec8a651711b025f008330ee5ee5162f",
    ),
    "realize.k4": (
        ("realize", "--k", "4", "--vector", _golden_vector(True), "--m", "2"),
        "ee6857f2ffb0e5320792443e344ee8f3cfa215a8d755d2c310ae5bf0b6afb829",
    ),
    "report.k3": (
        ("report", "--k", "3", "--vector", "uniform", "--m-values", "1,2,4"),
        "cd73e506fdcdc4f552c63eab78e074c98d57db82c357fe4ce71f91a9a30d55a9",
    ),
}


class TestGoldenOutput:
    """SHA-256 digests of fixed invocations: any change to a printed
    rational, its order or its formatting changes a digest."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
    def test_stdout_digest(self, capsys, tmp_path, name):
        argv, digest = GOLDEN_STDOUT[name]
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(_GOLDEN_GRAPH), encoding="utf-8")
        argv = [str(graph) if arg is _GRAPH_FILE else arg for arg in argv]
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_realize_plan_digest(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        argv = ("realize", "--k", "4", "--vector", _golden_vector(True), "--m", "2")
        code, out, err = invoke(capsys, *argv, "--plan", str(plan))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ee6857f2ffb0e5320792443e344ee8f3cfa215a8d755d2c310ae5bf0b6afb829"
        )
        assert hashlib.sha256(plan.read_bytes()).hexdigest() == (
            "41459b9f77b9910cd704cad0604276f17cd60a7e75ccc1547c66565d4b5805da"
        )
