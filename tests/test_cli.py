import hashlib
import json

import pytest

from helpers import EAR_HOST_17, RINGED_SPIDER_13, base_patterns

from trestles import cli, general_trestle, obstruction, oracle, tree_trestle
from trestles.cli import main
from trestles.graphs import (
    Graph,
    InternalInvariantError,
    Tree,
    cycle_graph,
    path_graph,
    read_graph6,
    spider,
    square,
    write_edgelist,
    write_graph6,
)
from trestles.matching_flow import theorem1_matching
from trestles.patterns import centres


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


def _host_file(tmp_path, name, g):
    path = tmp_path / name
    path.write_bytes(write_edgelist(g))
    return str(path)


@pytest.mark.parametrize("host", [EAR_HOST_17, RINGED_SPIDER_13], ids=["ear-17", "ringed-spider-13"])
def test_two_connected_host_outside_the_hypotheses_builds(capsys, tmp_path, host):
    # no saturating centre matching, or an induced S(K_{1,4}): the square
    # of a 2-connected host is Hamiltonian all the same
    code, out = run(capsys, "build", _host_file(tmp_path, "h.el", host), "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["certificate"]["degrees"] == [2] * host.n
    # the certificate carries the centre matching exactly when one exists
    matching = theorem1_matching(host, centres(host, 3))
    expected = None if matching is None else [list(e) for e in matching.edge_list]
    assert payload["certificate"].get("matching") == expected


@pytest.mark.parametrize(
    "host, why",
    [
        (Graph(14, RINGED_SPIDER_13.edges() + ((9, 13),)), "an induced S(K_{1,4})"),
        (
            Graph(13, [(0, 1), (0, 6), (0, 8), (1, 2), (1, 3), (2, 4), (2, 5), (3, 8), (3, 9),
                       (4, 10), (5, 11), (6, 7), (8, 11), (9, 12)]),
            "no saturating centre matching",
        ),
    ],
    ids=["ringed-spider-with-tail", "unmatched-centres"],
)
def test_host_with_a_cutvertex_outside_the_hypotheses_is_no_verdict(capsys, tmp_path, host, why):
    code = main(["build", _host_file(tmp_path, "h.el", host), "--k", "3"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == f"error: undetermined: the host has a cutvertex and {why}\n"


_DISCONNECTED = {
    "two-triangles": Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    # these two have n - 1 edges, so the tree path's connectivity test
    # finds them
    "triangle-and-edge": Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
    "triangle-and-vertex": Graph(4, [(0, 1), (1, 2), (0, 2)]),
}


@pytest.mark.parametrize(
    "host, k",
    [
        pytest.param(host, k, id=name if k == "3" else f"{name}-k{k}")
        for name, host in _DISCONNECTED.items()
        for k in ("2", "3", "4")
    ],
)
def test_disconnected_host_is_a_verdict(capsys, tmp_path, host, k):
    # the square of a disconnected host has no 2-connected spanning
    # subgraph for any k
    code = main(["build", _host_file(tmp_path, "h.el", host), "--k", k])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"feasible": False, "reason": "host graph is not connected"}
    assert captured.err == ""


def test_connected_non_tree_host_needs_k3(capsys, tmp_path):
    code = main(["build", _host_file(tmp_path, "c5.el", cycle_graph(5)), "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: non-tree hosts are built with --k 3\n"


def test_graph6_input_with_a_second_graph_is_a_format_error(capsys, tmp_path):
    path = tmp_path / "two.g6"
    path.write_bytes(b"Bw\nCx\n")
    code = main(["build", str(path), "--format", "graph6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: bytes after the graph6 body (byte offset 3)\n"


def test_square_roundtrip(capsys, p5):
    code, out = run(capsys, "square", p5)
    assert code == 0
    assert out.startswith("n=5\n")
    assert "0 2" in out


def test_square_in_graph6(capsys, tmp_path):
    path = tmp_path / "p5.g6"
    path.write_bytes(write_graph6(path_graph(5)))
    code, out = run(capsys, "square", str(path), "--format", "graph6")
    assert code == 0
    assert out == write_graph6(square(path_graph(5))).decode() + "\n"
    assert read_graph6(out.encode()).edges() == square(path_graph(5)).edges()


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


def test_decide_prints_the_assignment(capsys, tmp_path):
    # S(K_{1,3}) with legs of length 2: the one arc 3 -> 0 carries 1
    path = tmp_path / "s3.el"
    path.write_bytes(write_edgelist(spider(3)))
    code, out = run(capsys, "decide", str(path), "--k", "3")
    assert code == 0
    assert out == '{\n  "assignment": {\n    "3->0": 1\n  },\n  "feasible": true\n}\n'


def test_build_then_verify(capsys, tmp_path, p5):
    code, out = run(capsys, "build", p5, "--k", "2")
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out = run(capsys, "verify", p5, "--certificate", str(cert_path))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_rejects_tampered(capsys, tmp_path, p5):
    code, out = run(capsys, "build", p5, "--k", "2")
    payload = json.loads(out)
    payload["certificate"]["edges"] = payload["certificate"]["edges"][:-1]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(payload))
    code, out = run(capsys, "verify", p5, "--certificate", str(cert_path))
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("twice", [[0, 1], [1, 0]], ids=["same", "reversed"])
def test_verify_fails_a_repeated_edge(capsys, tmp_path, p5, twice):
    # the edge 0-1 of the certificate listed again, as given or reversed
    code, out = run(capsys, "build", p5, "--k", "2")
    payload = json.loads(out)
    assert [0, 1] in payload["certificate"]["edges"]
    payload["certificate"]["edges"].append(twice)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(payload))
    code, out = run(capsys, "verify", p5, "--certificate", str(cert_path))
    assert code == 1
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    assert checks["edges_in_square"] == {
        "check": "edges_in_square",
        "pass": False,
        "detail": "offending edges: [(0, 1)]",
    }


@pytest.mark.parametrize(
    "data",
    [b'\xff\xfe{"edges": []}', b"[" * 100000, b'{"edges": [}'],
    ids=["not-utf8", "too-deep", "not-json"],
)
def test_undecodable_certificate_is_a_format_error(capsys, tmp_path, p5, data):
    cert_path = tmp_path / "cert.json"
    cert_path.write_bytes(data)
    code = main(["verify", p5, "--certificate", str(cert_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: certificate is not UTF-8 JSON: ")
    assert "Traceback" not in captured.err


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
    "command, option",
    [
        ("obstruction", ["--k", "5"]),
        ("verify", ["--k", "2"]),
        ("decide", ["--dot"]),
        ("verify", ["--dot"]),
    ],
    ids=["obstruction-k", "verify-k", "decide-dot", "verify-dot"],
)
def test_options_a_command_ignores_are_usage_errors(capsys, tmp_path, sk14, command, option):
    # obstruction checks k = 3 only, verify the k its certificate names,
    # and decide and verify write no DOT
    dot = tmp_path / "x.dot"
    argv = [command, sk14, *option]
    if option == ["--dot"]:
        argv.append(str(dot))
    if command == "verify":
        argv += ["--certificate", str(tmp_path / "c.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {option[0]}" in captured.err
    assert not dot.exists()


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


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"edges": [[0, 1]]}, "certificate 'k' must be an integer"),
        ({"k": "2", "edges": [[0, 1]]}, "certificate 'k' must be an integer"),
        ([[0, 1]], "certificate must be a JSON object with an 'edges' list"),
    ],
    ids=["no-k", "k-not-int", "not-an-object"],
)
def test_certificate_k_and_shape_are_usage_errors(capsys, tmp_path, p5, payload, message):
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(payload))
    code = main(["verify", p5, "--certificate", str(cert)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_internal_invariant_violation_is_exit_3(capsys, monkeypatch, tmp_path):
    path = tmp_path / "c6.el"
    path.write_bytes(write_edgelist(cycle_graph(6)))

    def broken(g, matching_edges):
        raise InternalInvariantError("pair edge missing from the theta graph")

    monkeypatch.setattr(general_trestle, "build_general_trestle", broken)
    code = main(["build", str(path), "--k", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal invariant violated: pair edge missing from the theta graph\n"


def test_internal_key_error_is_not_a_usage_error(capsys, monkeypatch, tmp_path):
    # a KeyError from the builder's own bookkeeping is a fault, not bad input
    path = tmp_path / "c6.el"
    path.write_bytes(write_edgelist(cycle_graph(6)))

    def broken(g, matching_edges):
        raise KeyError(7)

    monkeypatch.setattr(general_trestle, "build_general_trestle", broken)
    code = main(["build", str(path), "--k", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: KeyError: 7\n")
    assert "Traceback" in captured.err


def test_recursion_error_is_an_internal_fault(capsys, monkeypatch, p5):
    def too_deep(t, k):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(tree_trestle, "decide_tree_trestle", too_deep)
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
    search = oracle.fleischner_hamilton
    monkeypatch.setattr(
        oracle, "fleischner_hamilton", lambda g: search(g, node_limit=3)
    )
    code = main(["build", str(path), "--k", "3"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: search budget exhausted\n"


def test_derivation_confirmation_out_of_budget_is_no_verdict(capsys):
    code = main(["derive-patterns", "--budget-nodes", "3"])
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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_validate_budget_exhaustion_is_no_verdict(capsys, jobs):
    # three nodes settle no tree: no ground truth, so no agreement count
    code = main(["validate", "--max-n", "6", "--budget-nodes", "3", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: search budget exhausted\n"


@pytest.mark.parametrize("command", [["validate", "--max-n", "6"], ["derive-patterns"]])
@pytest.mark.parametrize("nodes", ["0", "-1", "1.5", "x"])
def test_budget_nodes_must_be_positive(capsys, command, nodes):
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--budget-nodes", nodes])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert f"argument --budget-nodes: {nodes!r} is not a positive integer" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-3", "1.5", "x"])
def test_validate_jobs_must_be_positive(capsys, jobs):
    with pytest.raises(SystemExit) as exit_:
        main(["validate", "--max-n", "4", "--jobs", jobs])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert f"argument --jobs: {jobs!r} is not a positive integer" in captured.err


@pytest.mark.parametrize("max_n", ["2", "0", "-5"])
def test_validate_below_three_vertices_is_a_usage_error(capsys, max_n):
    # no tree that small: a run would check nothing and print agree: 0/0
    code = main(["validate", "--max-n", max_n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --max-n must be at least 3")


def test_validate_jobs_deterministic(capsys):
    _, out1 = run(capsys, "validate", "--max-n", "7", "--k", "2")
    _, out2 = run(capsys, "validate", "--max-n", "7", "--k", "2", "--jobs", "2")
    assert out1 == out2


def test_determinism_of_build(capsys, p5):
    _, out1 = run(capsys, "build", p5, "--k", "3")
    _, out2 = run(capsys, "build", p5, "--k", "3")
    assert out1 == out2
