import csv
import hashlib
import io
import itertools
import json
import time
from fractions import Fraction

import pytest

from permutope import Permutation, limits
from permutope.cli import run

F = Fraction


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
        vector = {"k": 3, "entries": {w: "0" for w in ["123", "213", "231", "312", "321"]}}
        vector["entries"]["132"] = "1"
        code, out, _ = invoke(capsys, "member", "--k", "3", "--vector", json.dumps(vector))
        assert code == 0
        assert out.splitlines()[0] == "false"
        assert "violation" in out

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

    def test_overlap_dot_file(self, capsys, tmp_path):
        dot = tmp_path / "ov4.dot"
        code, _, _ = invoke(capsys, "overlap", "--k", "4", "--dot", str(dot))
        assert code == 0
        text = dot.read_text()
        assert text.count(" -> ") == 24
        assert '[label="3412"]' in text

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

    def test_report_default_schedule(self, capsys):
        code, out, _ = invoke(
            capsys, "report", "--k", "3", "--vector", "uniform", "--max-size", "200"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["m"] for row in rows] == ["1", "2", "4", "8", "16", "32"]
        assert all(int(row["size"]) <= 200 for row in rows)

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
    def test_vector_cap_names_its_value_and_no_key(self, capsys, kind):
        perm = ",".join(map(str, range(1, 11)))
        code, out, err = invoke(capsys, "stats", "--perm", perm, "--k", "9", "--kind", kind)
        assert code == 1 and out == ""
        assert err == (
            "error: pattern vectors carry k! entries; k=9 exceeds the vector cap "
            f"{limits.VECTOR_K_CAP}, which no PERMUTOPE_CAP key overrides\n"
        )

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
            "e48c1035b73caf905d1351038d64196a245dc9a014a65e2dab35f9b48784371d"
        )
        assert hashlib.sha256(plan.read_bytes()).hexdigest() == (
            "8397b76a7904c17a53b13238d961a9affd686459639b9556aa46a91f454316f6"
        )
