import hashlib
import json

import pytest

from helpers import base_patterns

from trestles import cli, general_trestle, obstruction, oracle
from trestles.cli import main
from trestles.graphs import Tree, cycle_graph, path_graph, spider, write_edgelist, write_graph6


@pytest.fixture
def p5(tmp_path):
    path = tmp_path / "p5.el"
    path.write_bytes(write_edgelist(path_graph(5)))
    return str(path)


@pytest.fixture
def sk14(tmp_path):
    path = tmp_path / "sk14.el"
    path.write_bytes(write_edgelist(spider(4)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_decide_spider4(capsys, sk14):
    code, out = run(capsys, "decide", sk14, "--k", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload == {"feasible": False, "reason": "n(v)=4 > k"}


def test_build_p5_k2(capsys, p5):
    code, out = run(capsys, "build", p5, "--k", "2")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["edges"] == [[0, 1], [0, 2], [1, 3], [2, 4], [3, 4]]
    assert cert["degrees"] == [2, 2, 2, 2, 2]


def test_build_on_a_long_cycle(capsys, tmp_path):
    # a 2-connected host inside the theorem's domain, built by the
    # Hamilton search, which must not run out of stack
    path = tmp_path / "c3000.el"
    path.write_bytes(write_edgelist(cycle_graph(3000)))
    code, out = run(capsys, "build", str(path), "--k", "3")
    assert code == 0
    assert json.loads(out)["certificate"]["degrees"] == [2] * 3000


def test_square_roundtrip(capsys, p5):
    code, out = run(capsys, "square", p5)
    assert code == 0
    assert out.startswith("n=5\n")
    assert "0 2" in out


def test_centres(capsys, sk14):
    code, out = run(capsys, "centres", sk14, "--k", "4")
    assert code == 0
    assert json.loads(out)["centres"] == [0]


def test_graph6_input(capsys, tmp_path):
    path = tmp_path / "p5.g6"
    path.write_bytes(write_graph6(path_graph(5)))
    code, out = run(capsys, "decide", str(path), "--format", "graph6", "--k", "2")
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_build_then_verify(capsys, tmp_path, p5):
    code, out = run(capsys, "build", p5, "--k", "2")
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out = run(capsys, "verify", p5, "--certificate", str(cert_path), "--k", "2")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_rejects_tampered(capsys, tmp_path, p5):
    code, out = run(capsys, "build", p5, "--k", "2")
    payload = json.loads(out)
    payload["certificate"]["edges"] = payload["certificate"]["edges"][:-1]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(payload))
    code, out = run(capsys, "verify", p5, "--certificate", str(cert_path), "--k", "2")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_obstruction_verdict(capsys, tmp_path, sk14, p5):
    code, out = run(capsys, "obstruction", sk14)
    assert code == 1
    assert json.loads(out)["witness"]["kind"] == "spider"
    code, out = run(capsys, "obstruction", p5)
    assert code == 0
    assert json.loads(out) == {"obstruction": False}


def test_dot_output(capsys, tmp_path, sk14):
    dot = tmp_path / "w.dot"
    code, _ = run(capsys, "obstruction", sk14, "--dot", str(dot))
    assert code == 1
    text = dot.read_text()
    assert text.startswith("graph")
    assert "0" in text


def test_build_squares_the_host_only_for_dot(capsys, monkeypatch, tmp_path, p5):
    code, with_dot = run(capsys, "build", p5, "--k", "2", "--dot", str(tmp_path / "sq.dot"))
    assert code == 0
    assert "  0 -- 2;" in (tmp_path / "sq.dot").read_text()

    def forbidden(g):
        raise AssertionError("squared the host without --dot")

    monkeypatch.setattr(cli, "square", forbidden)
    code, without_dot = run(capsys, "build", p5, "--k", "2")
    assert code == 0 and without_dot == with_dot


@pytest.mark.parametrize(
    "edges", [[[0]], [[0, 9]], "xx"], ids=["short-pair", "out-of-range", "not-a-list"]
)
def test_malformed_certificate_is_a_usage_error(capsys, tmp_path, edges):
    host = tmp_path / "p4.el"
    host.write_bytes(write_edgelist(path_graph(4)))
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"k": 3, "edges": edges}))
    code = main(["verify", str(host), "--certificate", str(cert)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: certificate 'edges' must be")


def test_internal_key_error_is_not_a_usage_error(capsys, monkeypatch, tmp_path):
    # a KeyError from the builder's own bookkeeping is a fault, not bad input
    path = tmp_path / "c6.el"
    path.write_bytes(write_edgelist(cycle_graph(6)))

    def broken(g, matching_edges):
        raise KeyError(7)

    monkeypatch.setattr(cli, "build_general_trestle", broken)
    code = main(["build", str(path), "--k", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: KeyError: 7\n")
    assert "Traceback" in captured.err


def test_recursion_error_is_an_internal_fault(capsys, monkeypatch, p5):
    def too_deep(t, k):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "decide_tree_trestle", too_deep)
    code = main(["decide", p5, "--k", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: RecursionError: maximum recursion depth")


@pytest.mark.parametrize("command", ["decide", "build"])
@pytest.mark.parametrize("k", ["1", "0"])
def test_k_below_2_is_a_usage_error(capsys, tmp_path, p5, command, k):
    # n(v) > k holds on the path and not on the star: neither gets a verdict
    star = tmp_path / "star4.el"
    star.write_bytes(write_edgelist(Tree(4, [(0, 1), (0, 2), (0, 3)])))
    for host in (p5, str(star)):
        code = main([command, host, "--k", k])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: trestle parameter k must be at least 2\n"


def test_usage_error_on_missing_file(capsys):
    code = main(["decide", "/nonexistent/file.el", "--k", "3"])
    assert code == 2


def test_usage_error_on_bad_format(capsys, tmp_path):
    path = tmp_path / "bad.el"
    path.write_bytes(b"garbage\n")
    code = main(["decide", str(path), "--k", "3"])
    assert code == 2


def test_negative_vertex_count_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "neg.el"
    path.write_bytes(b"n=-3\n0 1\n1 2\n")
    assert main(["build", str(path), "--k", "2"]) == 2
    assert "bad vertex-count header (byte offset 0)" in capsys.readouterr().err


def test_budget_exhaustion_has_its_own_exit_code(capsys, monkeypatch, tmp_path):
    # C6 is 2-connected, so build falls back to the Hamilton search,
    # here with a budget too small to finish
    path = tmp_path / "c6.el"
    path.write_bytes(write_edgelist(cycle_graph(6)))
    monkeypatch.setattr(
        general_trestle,
        "fleischner_hamilton",
        lambda g: oracle.fleischner_hamilton(g, oracle.SearchBudget(node_limit=3)),
    )
    code = main(["build", str(path), "--k", "3"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: search budget exhausted\n"


def test_undetermined_derivation_is_no_verdict(capsys):
    # valid arguments, but T_0 has 16 vertices: no verdict, not a usage error
    code = main(["derive-patterns", "--max-n", "6"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == (
        "error: undetermined: no S(K_1,4)-free obstruction tree with at most 6 vertices\n"
    )


# SHA-256 of `trestles gen-family --max-n 40` stdout, taken from the
# search that composed each (A, v) once per w
GEN_FAMILY_DIGEST = "3bfcf7b7c27fde9803f4fdd346f375cab9b88ec5e53e9f4b3986eddf8acf50dc"


def test_gen_family_output(capsys, monkeypatch):
    # the run's cached patterns, so that the command does not derive them again
    base = base_patterns()
    monkeypatch.setattr(obstruction, "derive_base_patterns", lambda: base)
    code, out = run(capsys, "gen-family", "--max-n", "40")
    assert code == 0
    assert len(json.loads(out)["members"]) == 5
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_FAMILY_DIGEST


def test_validate_small(capsys):
    code, out = run(capsys, "validate", "--max-n", "7", "--k", "3")
    assert code == 0
    assert "agree: 23/23" in out


def test_validate_jobs_deterministic(capsys):
    _, out1 = run(capsys, "validate", "--max-n", "7", "--k", "2")
    _, out2 = run(capsys, "validate", "--max-n", "7", "--k", "2", "--jobs", "2")
    assert out1 == out2


def test_determinism_of_build(capsys, p5):
    _, out1 = run(capsys, "build", p5, "--k", "3")
    _, out2 = run(capsys, "build", p5, "--k", "3")
    assert out1 == out2
