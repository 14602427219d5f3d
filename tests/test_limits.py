"""The size guards read PERMUTOPE_CAP themselves, without the CLI."""

import pytest

from permutope import (
    CapacityError,
    CyclePolytope,
    PatternVector,
    Permutation,
    build_overlap_graph,
    feasible_region,
    iter_simple_cycles,
    limits,
    mix,
    proportion_vector,
)

P = Permutation.parse


# One case per key: the call, run once under the default cap and once under
# the cap set in PERMUTOPE_CAP, and the refusal it must give under the latter.
CASES = {
    "cycles": (
        2,
        lambda: list(iter_simple_cycles(build_overlap_graph(3).graph)),
        "the graph has more simple cycles than the cycles cap 2 (PERMUTOPE_CAP key 'cycles')",
    ),
    "enum": (
        5,
        lambda: proportion_vector(4, P("351426"), "classical"),
        "classical counting of size-4 patterns enumerates subsets; permutation size 6 "
        "exceeds the enum cap 5 (PERMUTOPE_CAP key 'enum')",
    ),
    "overlap": (
        3,
        lambda: build_overlap_graph(4),
        "tables of k! entries are refused at k=4, over the overlap cap 3 "
        "(PERMUTOPE_CAP key 'overlap')",
    ),
    "faces": (
        5,
        lambda: CyclePolytope(build_overlap_graph(3).graph).face_poset(),
        "face enumeration over 6 edges exceeds the faces cap 5 (PERMUTOPE_CAP key 'faces')",
    ),
    "mix": (
        3,
        lambda: mix(lambda m: P("12"), lambda m: P("21"), 1),
        "mixed permutation would have size 4, over the mix cap 3 (PERMUTOPE_CAP key 'mix')",
    ),
    "realize": (
        26,
        lambda: feasible_region(4).plan(PatternVector.uniform(4)).generate(1),
        "realizing permutation would have size 27, over the realize cap 26 "
        "(PERMUTOPE_CAP key 'realize')",
    ),
}


def test_one_case_per_key():
    assert list(CASES) == list(limits.DEFAULTS)


@pytest.mark.parametrize("key", list(CASES))
def test_guard_reads_the_variable(monkeypatch, key):
    value, call, message = CASES[key]
    call()  # under the default cap; for "overlap" this also caches the graph
    monkeypatch.setenv("PERMUTOPE_CAP", f"{key}={value}")
    with pytest.raises(CapacityError) as refusal:
        call()
    assert str(refusal.value) == message
    # each value above is under its default; overlap has no default + 100
    monkeypatch.setenv("PERMUTOPE_CAP", f"{key}={limits.DEFAULTS[key]}")
    call()


def test_defaults_without_the_variable():
    assert dict(limits.caps()) == limits.DEFAULTS
    assert limits.cap("overlap") == 8 and limits.cap("enum") == 30


def test_unknown_key_is_a_value_error(monkeypatch):
    monkeypatch.setenv("PERMUTOPE_CAP", "cycle=2")
    with pytest.raises(ValueError, match="has no cap 'cycle'; the caps are cycles, enum,"):
        build_overlap_graph(3)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("garbage", "PERMUTOPE_CAP entry 'garbage' is not name=value"),
        ("cycles=x", "invalid literal for int"),
        ("cycles=-1", "PERMUTOPE_CAP cap 'cycles' is negative: -1"),
        # int() reads each of these, as 10, 3 and 7
        ("cycles=1_0", "PERMUTOPE_CAP cap 'cycles': invalid literal for int"),
        ("cycles=٣", "PERMUTOPE_CAP cap 'cycles': invalid literal for int"),
        ("cycles= +7", "PERMUTOPE_CAP cap 'cycles': invalid literal for int"),
        # 21! pattern ids do not fit in 64 bits
        ("overlap=21", "PERMUTOPE_CAP cap 'overlap' is 21, over 20: the ids of k! patterns"),
    ],
)
def test_malformed_variable_is_a_value_error(monkeypatch, spec, message):
    monkeypatch.setenv("PERMUTOPE_CAP", spec)
    with pytest.raises(ValueError, match=message):
        limits.cap("cycles")


def test_overlap_cap_ends_at_20(monkeypatch):
    monkeypatch.setenv("PERMUTOPE_CAP", "overlap=20")
    assert limits.cap("overlap") == limits.OVERLAP_MOST == 20


def test_zero_is_a_cap(monkeypatch):
    monkeypatch.setenv("PERMUTOPE_CAP", " faces = 0 , mix=0,")
    assert limits.cap("faces") == 0 and limits.cap("mix") == 0
    assert limits.cap("cycles") == limits.DEFAULTS["cycles"]
