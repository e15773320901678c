"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``."""

import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from helpers import chorded_host_corpus, random_bounded_tree

from trestles.cli import main
from trestles.graphs import write_edgelist
from trestles.jsontext import indented


def _reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
int_rows = st.lists(st.lists(st.integers(-5, 10**12), max_size=4), max_size=6)
values = st.recursive(
    scalars | int_rows,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=30,
)


@given(values)
def test_writes_what_json_dumps_writes(value):
    assert indented(value) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[]],
        [[], [1]],
        [[1, 2], [3]],
        [[1, [2]], [3]],
        [True, 1, False, 0, None],
        [[True, 1], [None, 2.5]],
        ["a, b", "], ["],
        [["a, b"], ["c"]],
        {"10": [1], "2": {}, "": None, "é": " "},
        [{"check": "spanning", "pass": True, "detail": ""}],
        (1, (2, 3)),
    ],
)
def test_shapes_at_the_edges_of_the_fast_paths(value):
    assert indented(value) == _reference(value)


def test_a_key_that_is_not_a_string_is_a_type_error():
    with pytest.raises(TypeError):
        indented({1: 2})


def _cli_text(capsys, tmp_path, g, *argv):
    path = tmp_path / "host.el"
    path.write_bytes(write_edgelist(g))
    main([argv[0], str(path), *argv[1:]])
    return capsys.readouterr().out


def test_cli_output_is_json_dumps_text(capsys, tmp_path):
    rng = random.Random(5)
    outputs = []
    for n in (3, 40, 300):
        t = random_bounded_tree(rng, n, maxdeg=4)
        for k in ("2", "3", "4"):
            outputs.append(_cli_text(capsys, tmp_path, t, "build", "--k", k))
            outputs.append(_cli_text(capsys, tmp_path, t, "decide", "--k", k))
        outputs.append(_cli_text(capsys, tmp_path, t, "obstruction"))
        outputs.append(_cli_text(capsys, tmp_path, t, "centres", "--k", "3"))
    for g, _ in itertools.islice(chorded_host_corpus(11), 6):
        outputs.append(_cli_text(capsys, tmp_path, g, "build"))
        cert = tmp_path / "cert.json"
        cert.write_text(outputs[-1])
        outputs.append(_cli_text(capsys, tmp_path, g, "verify", "--certificate", str(cert)))
    # gen-family's output is pinned in test_cli.py
    for out in outputs:
        assert out == _reference(json.loads(out)) + "\n"
