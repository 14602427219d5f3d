"""Malformed input on the CLI's permutation, integer and JSON surfaces: the
``--perm`` of ``stats``, the ``--perm-a`` and ``--perm-b`` of ``mix``, the
entry keys of a ``--vector``; the integer options ``--k``, ``--m``,
``--max-size`` and ``--m-values``, a ``PERMUTOPE_CAP`` value and a vector's
``"k"``; JSON nested too deeply for the parser in a ``--vector`` or a
``--graph``; and a ``realize --plan`` path that cannot be written.  Every case
must end in exit code 1 or 2 with exactly one ``error:`` line, under 200
bytes, on stderr, no traceback, nothing on stdout, within 1 s.

Each row is one malformed word; the tables are meant to grow whenever a new
malformed form is found.
"""

import json
import time

import pytest

from permutope.cli import run

UNIFORM3 = {w: "1/6" for w in ["123", "132", "213", "231", "312", "321"]}

# (id, word): each is refused as a permutation of any size.
WORDS = [
    ("duplicate", "113"),
    ("zero", "0"),
    ("n_plus_1", "124"),
    ("empty", ""),
    ("empty_part", "1,,2"),
    ("trailing_comma", "1,2,3,"),
    ("exponent", "1e3"),
    ("non_ascii_digits", "٣١٢"),
    # int() reads "1_0" as 10, which would make this a permutation of 1..10
    ("underscore", "2,1_0,1,3,4,5,6,7,8,9"),
    ("part_of_5000_digits", "1," + "9" * 5000),
]


def surfaces(word: str) -> dict[str, list[str]]:
    """Every CLI invocation that reads ``word`` as a permutation."""
    # The key joins six valid ones at weight 1/6, so a key read as one of
    # them would be accepted silently, not refused.
    vector = {"k": 3, "entries": {**UNIFORM3, word: "1/6"}}
    return {
        "stats": ["stats", "--perm", word, "--k", "2", "--kind", "classical"],
        "mix_a": ["mix", "--perm-a", word, "--perm-b", "21"],
        "mix_b": ["mix", "--perm-a", "12", "--perm-b", word],
        "vector_key": ["member", "--k", "3", "--vector", json.dumps(vector)],
    }


def assert_refused(capsys, argv: list[str]) -> None:
    start = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code in (1, 2), (code, err)
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1, err
    # a refusal quotes at most 40 characters of the value, however long
    assert len(errors[0].encode()) < 200, len(errors[0].encode())
    assert "Traceback" not in err
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("surface", ["stats", "mix_a", "mix_b", "vector_key"])
@pytest.mark.parametrize("word", [w for _, w in WORDS], ids=[i for i, _ in WORDS])
def test_malformed_word_is_one_error_line(capsys, surface, word):
    assert_refused(capsys, surfaces(word)[surface])


def test_non_ascii_key_does_not_stand_for_a_pattern(capsys):
    # "١٢" once read as 12, so this vector was a member of the k = 2 region
    vector = {"k": 2, "entries": {"١٢": "1/2", "21": "1/2"}}
    assert_refused(capsys, ["member", "--k", "2", "--vector", json.dumps(vector)])


# (id, word): each is refused as an integer.  int() reads the first three,
# as 3, 10 and 3.
INTEGERS = [
    ("non_ascii_digit", "٣"),
    ("underscore", "1_0"),
    ("sign", "+3"),
    ("empty", ""),
    ("5000_digits", "9" * 5000),
]


def integer_surfaces(word: str) -> dict[str, list[str]]:
    """Every CLI invocation that reads ``word`` as an integer option or a
    vector's ``"k"``; each is well formed but for ``word``."""
    vector = {"k": word, "entries": UNIFORM3}
    report = ["report", "--k", "3", "--vector", "uniform"]
    return {
        "dim_k": ["dim", "--k", word],
        "member_k": ["member", "--k", word, "--vector", "uniform"],
        "realize_m": ["realize", "--k", "3", "--vector", "uniform", "--m", word],
        "max_size": [*report, "--max-size", word],
        "m_values": [*report, "--m-values", word],
        "m_values_part": [*report, "--m-values", f"1,{word}"],
        "vector_k": ["member", "--k", "3", "--vector", json.dumps(vector)],
    }


@pytest.mark.parametrize("surface", list(integer_surfaces("")))
@pytest.mark.parametrize("word", [w for _, w in INTEGERS], ids=[i for i, _ in INTEGERS])
def test_malformed_integer_is_one_error_line(capsys, surface, word):
    assert_refused(capsys, integer_surfaces(word)[surface])


@pytest.mark.parametrize("surface", ["m_values", "m_values_part"])
@pytest.mark.parametrize("word", [w for _, w in INTEGERS], ids=[i for i, _ in INTEGERS])
def test_malformed_m_values_is_a_usage_error(capsys, surface, word):
    # refused by argparse, exit 2, like every other integer option: before
    # the plan is built
    assert run(integer_surfaces(word)[surface]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("word", [w for _, w in INTEGERS], ids=[i for i, _ in INTEGERS])
def test_malformed_cap_value_is_one_error_line(capsys, monkeypatch, word):
    # read before any verb runs, so even dim --k 3 is refused
    monkeypatch.setenv("PERMUTOPE_CAP", f"enum={word}")
    assert_refused(capsys, ["dim", "--k", "3"])


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("surface", ["vector_inline", "vector_file", "graph_file"])
def test_deeply_nested_json_is_one_error_line(capsys, tmp_path, surface):
    # json.loads raises RecursionError, which is not a ValueError
    deep = tmp_path / "deep.json"
    deep.write_text(nested(100_000), encoding="utf-8")
    argv = {
        "vector_inline": ["member", "--k", "3", "--vector", nested(5_000)],
        "vector_file": ["member", "--k", "3", "--vector", f"@{deep}"],
        "graph_file": ["dim", "--graph", str(deep)],
    }[surface]
    assert_refused(capsys, argv)


def test_unwritable_plan_prints_no_witness(capsys, tmp_path):
    # the plan is written before the witness is printed
    plan = tmp_path / "missing" / "plan.json"
    argv = ["realize", "--k", "3", "--vector", "uniform", "--m", "1", "--plan", str(plan)]
    assert_refused(capsys, argv)
