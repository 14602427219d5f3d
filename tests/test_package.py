"""The package namespace, the value classes' record protocol, and what a
cold process imports."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import permutope
from permutope import (
    PatternVector,
    Walk,
    decompose_walk,
    feasible_region,
    walk_of,
)
from permutope import perms as perms_module
from permutope._record import Record
from conftest import point_mass

PUBLIC = [
    "ArityError", "CapacityError", "ConvergenceReport", "CyclePolytope", "CycleVector",
    "DistinctnessError", "EmptyError", "EmptyPolytopeError", "FaceHandle", "FacePoset",
    "FeasibleRegion", "MembershipResult", "Multigraph", "NotFullError", "NotInPolytopeError",
    "OverlapGraph", "PatternVector", "Permutation", "PermutopeError", "RationalityError",
    "RealizationPlan", "SimpleCycle", "SizeError", "Walk", "WalkDecomposition", "all_patterns",
    "build_overlap_graph", "cocc", "cocc_proportion", "convergence_report", "decompose_walk",
    "direct_sum", "eulerian_circuit", "eulerian_universal_permutation", "feasible_region",
    "iter_simple_cycles", "mix", "monotone_sum_generator", "occ", "occ_proportion", "pattern_at",
    "proportion_vector", "repeat_sum", "standardize", "substitute", "walk_of",
]
SUBMODULES = [
    "cli", "errors", "feasible", "graphs", "limits", "overlap", "perms", "polytope", "rationals",
]
SRC = Path(__file__).resolve().parent.parent / "src"


class TestNamespace:
    def test_all_is_pinned(self):
        assert len(PUBLIC) == 46
        assert permutope.__all__ == PUBLIC

    def test_dir_lists_public_names_and_submodules(self):
        public = [name for name in dir(permutope) if not name.startswith("_")]
        assert public == sorted(PUBLIC + SUBMODULES)

    @pytest.mark.parametrize("name", PUBLIC)
    def test_each_name_is_its_defining_modules_object(self, name):
        obj = getattr(permutope, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.rpartition(".")[2] in SUBMODULES
        assert getattr(module, obj.__name__) is obj
        assert name not in vars(permutope)  # read on access, never cached here

    def test_mix_is_importable_from_feasible(self):
        assert permutope.mix is permutope.perms.mix is permutope.feasible.mix

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodules_are_attributes(self, name):
        assert getattr(permutope, name) is sys.modules[f"permutope.{name}"]

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            permutope.nope

    def test_a_patched_defining_module_shows_through(self, monkeypatch):
        original = perms_module.proportion_vector
        monkeypatch.setattr(perms_module, "proportion_vector", lambda *args: "patched")
        assert permutope.proportion_vector(2, None, "classical") == "patched"
        monkeypatch.undo()
        assert permutope.proportion_vector is original

    def test_star_import_exports_exactly_all(self):
        namespace = {}
        exec("from permutope import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


def _records():
    region = feasible_region(3)
    graph = region.overlap.graph
    uniform = PatternVector.uniform(3)
    plan = region.plan(uniform)
    poset = region.polytope.face_poset()
    report = permutope.convergence_report(plan.generate, 3, [1], consecutive_target=uniform)
    return [
        permutope.Permutation.parse("2413"),
        Walk(graph, (2, 1, 4)),
        region.polytope.vertices()[1].cycle,
        decompose_walk(walk_of(permutope.Permutation.parse("31524"), 3)),
        region.polytope.vertices()[1],
        region.membership(uniform),
        region.membership(point_mass(permutope.all_patterns(3)[1])),
        poset.faces[3],
        poset,
        plan,
        report.rows[0],
        report,
        uniform,
    ]


class TestRecords:
    @pytest.mark.parametrize("index", range(13))
    def test_immutable_equal_copies(self, index):
        record = _records()[index]
        name = type(record).__slots__[0] if type(record).__slots__ else "edge_ids"
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        for twin in (copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record) and repr(twin) == repr(record)
        assert _records()[index] == record and hash(_records()[index]) == hash(record)

    def test_pickle_round_trip(self):
        # a permutation that carries a period comes back equal, without it
        marked = permutope.repeat_sum(3, permutope.Permutation.parse("21"))
        for record in [*_records(), marked]:
            twin = pickle.loads(pickle.dumps(record))
            assert type(twin) is type(record) and repr(twin) == repr(record)
        assert marked._period == 2 and twin == marked
        assert getattr(twin, "_period", None) is None

    def test_repr_hides_context_fields(self):
        walk, face, plan = (_records()[i] for i in (1, 7, 9))
        assert repr(walk) == "Walk(edge_ids=(2, 1, 4))"
        assert repr(face).startswith("FaceHandle(edge_ids=(") and "polytope" not in repr(face)
        assert repr(plan).startswith("RealizationPlan(target=PatternVector(k=3, {")
        assert "region" not in repr(plan) and "boundary" not in repr(plan)

    def test_hash_is_the_tuple_of_compared_fields(self):
        walk, cycle, split, vertex, member, _, face, poset, *_ = _records()[1:]
        assert hash(walk) == hash((walk.graph, walk.edge_ids))
        assert hash(cycle) == hash((cycle.graph, cycle.edge_ids))
        assert hash(split) == hash((split.cycles, split.tail))
        assert hash(vertex) == hash((vertex.cycle,))
        assert hash(member) == hash((member.member, member.violation, member.decomposition))
        assert hash(face) == hash((face.polytope, face.edge_ids))  # the dimension is not compared
        assert hash(poset) == hash((poset.polytope, poset.faces))

    @pytest.mark.parametrize(
        "cls", [permutope.Permutation, Walk, permutope.SimpleCycle, PatternVector]
    )
    def test_value_classes_inherit_the_protocol(self, cls):
        # one record protocol: no hand-written copy of it comes back
        assert issubclass(cls, Record)
        assert not {"__eq__", "__hash__", "__setattr__", "__delattr__"} & set(vars(cls))

    def test_iteration_truth_and_length_read_the_fields(self):
        perm, *_, member, nonmember, face = _records()[:8]
        assert list(perm) == [2, 4, 1, 3]
        assert member and not nonmember
        assert len(face) == len(face.edge_ids) > 0

    def test_a_walk_is_not_equal_to_the_same_cycle(self):
        cycle = _records()[2]
        assert Walk(cycle.graph, cycle.edge_ids) != cycle

    def test_constructor_takes_each_field_once(self):
        cycle = _records()[2]
        assert permutope.CycleVector(cycle=cycle) == permutope.CycleVector(cycle)
        for args, kwargs in [((), {}), ((cycle, cycle), {}), ((cycle,), {"cycle": cycle}),
                             ((), {"cycle": cycle, "extra": 1}), ((), {"other": cycle})]:
            with pytest.raises(TypeError, match="^CycleVector takes the fields cycle$"):
                permutope.CycleVector(*args, **kwargs)


# Run under ``python -S``: no site-packages, so nothing outside the standard
# library can be imported, and no site hook loads modules first.
COLD = """
import sys
from permutope import cli

def loaded(*names):
    return [name for name in names if name in sys.modules]

GEOMETRY = ("permutope.graphs", "permutope.polytope", "permutope.feasible")
early = loaded("dataclasses", "inspect", "permutope.perms", *GEOMETRY)
assert not early, early
assert cli.run(["stats", "--perm", "35142", "--k", "3", "--kind", "classical"]) == 0
assert cli.run(["mix", "--perm-a", "12", "--perm-b", "21"]) == 0
assert not loaded(*GEOMETRY), loaded(*GEOMETRY)
for vector in ('[1, 2, 3]', '{"entries": {}}', '{"k": 3, "entries": {"123": "1/0"}}'):
    assert cli.run(["member", "--k", "3", "--vector", vector]) == 1
assert not loaded(*GEOMETRY), loaded(*GEOMETRY)
for argv in (["dim", "--k", "3"], ["vertices", "--k", "3"], ["faces", "--k", "3"],
             ["export", "--k", "3", "--format", "dot"], ["universal", "--k", "3"]):
    assert cli.run(argv) == 0, argv
assert not loaded("permutope.feasible")
assert cli.run(["member", "--k", "3", "--vector", "uniform"]) == 0
assert loaded("permutope.feasible") and not loaded("dataclasses", "inspect")
print("cold imports ok", file=sys.stderr)
"""


def test_cold_process_loads_only_what_its_verb_uses():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PERMUTOPE_CAP", None)
    done = subprocess.run(
        [sys.executable, "-S", "-c", COLD], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.count("error:") == 3 and "cold imports ok" in done.stderr


def test_overlap_refusal_loads_no_layer():
    # member --k 9 is refused at the overlap cap before the vector is parsed,
    # so neither the counting layer nor the geometry is imported
    script = (
        "import sys\n"
        "from permutope import cli\n"
        "assert cli.run(['member', '--k', '9', '--vector', 'uniform']) == 1\n"
        "layers = ('permutope.perms', 'permutope.graphs', 'permutope.overlap')\n"
        "assert not [name for name in layers if name in sys.modules]\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PERMUTOPE_CAP", None)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == (
        "error: tables of k! entries are refused at k=9, over the overlap cap 8 "
        "(PERMUTOPE_CAP key 'overlap')\n"
    )
