"""What each entry point loads, and the package's lazily resolved names.

Each import-graph case runs in a fresh interpreter, since this process
has loaded every module already; the cases name modules and time
nothing.
"""

import json
import os
import subprocess
import sys

import pytest

import trestles
from trestles import graphs, oracle

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# a tree, the spider S(K_{1,3}) with the legs 4 and 5 joined through 7
# (the centre 0 is a cutvertex), and the 2-connected C_6
TREE = "n=5\n0 1\n1 2\n1 3\n3 4\n"
CUTVERTEX_HOST = "n=8\n0 1\n0 2\n0 3\n1 4\n2 5\n3 6\n4 7\n5 7\n"
CYCLE = "n=6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"
# S(K_{1,4}): four legs of length 2, an obstruction at k = 3
SPIDER4 = "n=9\n0 1\n1 2\n0 3\n3 4\n0 5\n5 6\n0 7\n7 8\n"

_REPORT = """
import json, sys
print(json.dumps(sorted(
    m for m in sys.modules if m.partition(".")[0] == "trestles" or m == "multiprocessing"
)))
"""


def _loaded(code: str) -> set[str]:
    """The package's modules, and multiprocessing, loaded once ``code``
    has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code + _REPORT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _after_main(tmp_path, host: str, *argv: str) -> set[str]:
    path = tmp_path / "host.el"
    path.write_text(host)
    args = [argv[0], str(path), *argv[1:]]
    return _loaded(
        "import contextlib, io\n"
        "from trestles.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({args!r})\n"
    )


def test_importing_the_cli_loads_graphs_only():
    assert _loaded("import trestles.cli") == {"trestles", "trestles.cli", "trestles.graphs"}


def test_a_public_name_loads_its_home_module_only():
    assert _loaded("from trestles import square") == {"trestles", "trestles.graphs"}
    assert _loaded("import trestles; trestles.centres") == {
        "trestles",
        "trestles.graphs",
        "trestles.patterns",
    }


def test_tree_build_loads_the_tree_modules_only(tmp_path):
    assert _after_main(tmp_path, TREE, "build", "--k", "3") == {
        "trestles",
        "trestles.cli",
        "trestles.graphs",
        "trestles.matching_flow",
        "trestles.patterns",
        "trestles.tree_trestle",
        "trestles.verify",
    }


def test_cutvertex_host_build_needs_no_oracle(tmp_path):
    loaded = _after_main(tmp_path, CUTVERTEX_HOST, "build")
    assert {"trestles.general_trestle", "trestles.path_cover"} <= loaded
    assert not loaded & {"trestles.oracle", "trestles.obstruction", "multiprocessing"}


def test_two_connected_host_build_loads_the_oracle(tmp_path):
    # the Hamilton search of the square lives there
    loaded = _after_main(tmp_path, CYCLE, "build")
    assert "trestles.oracle" in loaded
    assert not loaded & {"trestles.obstruction", "multiprocessing"}


def test_obstruction_loads_no_oracle(tmp_path):
    # the witness is the tree profile and one Hall violator
    assert _after_main(tmp_path, SPIDER4, "obstruction") == {
        "trestles",
        "trestles.cli",
        "trestles.graphs",
        "trestles.matching_flow",
        "trestles.obstruction",
        "trestles.patterns",
    }


def test_multiprocessing_only_for_parallel_validation():
    run = "import contextlib, io\nfrom trestles.cli import main\n"
    quiet = "with contextlib.redirect_stdout(io.StringIO()):\n    main({})\n"
    serial = _loaded(run + quiet.format(["validate", "--max-n", "5"]))
    assert "trestles.obstruction" in serial and "multiprocessing" not in serial
    parallel = _loaded(run + quiet.format(["validate", "--max-n", "5", "--jobs", "2"]))
    assert "multiprocessing" in parallel


def test_public_names_are_their_home_modules_objects():
    for name in trestles.__all__:
        value = getattr(trestles, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("trestles.")
        assert getattr(home, name) is value
        assert name in dir(trestles)


def test_unknown_public_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        trestles.no_such_name
    with pytest.raises(ImportError):
        from trestles import no_such_name  # noqa: F401


def test_search_budget_exhausted_is_one_class():
    assert trestles.SearchBudgetExhausted is graphs.SearchBudgetExhausted
    assert oracle.SearchBudgetExhausted is graphs.SearchBudgetExhausted
    assert issubclass(graphs.SearchBudgetExhausted, graphs.DomainError)
