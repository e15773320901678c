import hashlib
import json
import random

import pytest

from helpers import random_bounded_tree, random_caterpillar
from trestles import general_trestle, graphs, patterns, tree_trestle
from trestles.general_trestle import path_square_cycle
from trestles.graphs import (
    DomainError,
    InternalInvariantError,
    Tree,
    as_tree,
    path_graph,
    read_edgelist,
    spider,
    write_edgelist,
)
from trestles.obstruction import check_obstruction
from trestles.matching_flow import ArcAssignment, assignment_from_trestle
from trestles.oracle import enumerate_trees
from trestles.patterns import is_caterpillar, tree_profile
from trestles.tree_trestle import (
    _degree_tree_edges,
    build_tree_trestle,
    decide_tree_trestle,
    realize_degree_tree,
)
from trestles.verify import verify_trestle


def test_realize_degree_tree():
    for degrees in ([1, 1], [2, 1, 1], [3, 1, 1, 1], [2, 2, 1, 1], [3, 2, 1, 1, 1]):
        t = realize_degree_tree(degrees)
        assert [t.degree(v) for v in range(t.n)] == degrees
    with pytest.raises(DomainError):
        realize_degree_tree([1, 1, 1])  # wrong degree sum
    with pytest.raises(DomainError):
        realize_degree_tree([0, 2])
    # the builder's helper takes its degrees unchecked, and its own
    # bookkeeping catches a sequence that is no tree's
    with pytest.raises(InternalInvariantError):
        _degree_tree_edges(range(3), [1, 1, 1])
    with pytest.raises(InternalInvariantError):
        _degree_tree_edges(range(4), [3, 2, 1, 1])


def test_decide_path_always_feasible():
    for n in range(3, 10):
        assert decide_tree_trestle(path_graph(n), 2) is not None


def test_decide_spider4_infeasible():
    assert decide_tree_trestle(spider(4), 3) is None
    assert decide_tree_trestle(spider(4), 4) is not None


def test_build_spider3():
    t = spider(3)
    a = decide_tree_trestle(t, 3)
    cert = build_tree_trestle(t, 3, a)
    degs = cert.degrees()
    profile = tree_profile(t)
    for v in range(t.n):
        assert degs[v] == a.out_sum(v) + max(2, profile.n(v))


def test_build_rejects_bad_assignment():
    t = spider(3)
    empty = ArcAssignment(t)  # misses the in-demand at the centre
    with pytest.raises(DomainError):
        build_tree_trestle(t, 3, empty)


def test_exact_degree_law_exhaustive_small():
    for n in range(3, 11):
        for t in enumerate_trees(n):
            profile = tree_profile(t)
            for k in (2, 3, 4):
                a = decide_tree_trestle(t, k)
                if a is None:
                    continue
                cert = build_tree_trestle(t, k, a)
                degs = cert.degrees()
                for v in range(t.n):
                    assert degs[v] == a.out_sum(v) + max(2, profile.n(v))


def test_k2_iff_caterpillar():
    for n in range(3, 11):
        for t in enumerate_trees(n):
            assert (decide_tree_trestle(t, 2) is not None) == is_caterpillar(t)


def test_k2_build_is_hamilton_cycle():
    for n in range(3, 9):
        for t in enumerate_trees(n):
            a = decide_tree_trestle(t, 2)
            if a is None:
                continue
            cert = build_tree_trestle(t, 2, a)
            assert all(d == 2 for d in cert.degrees())
            assert len(cert.edge_list) == t.n


def test_assignment_roundtrip_from_certificate():
    for n in range(3, 9):
        for t in enumerate_trees(n):
            a = decide_tree_trestle(t, 3)
            if a is None:
                continue
            cert = build_tree_trestle(t, 3, a)
            back = assignment_from_trestle(t, cert.edge_list)
            assert back.satisfies_demands(3)


def test_certificates_verify_independently():
    t = Tree(10, [(0, 1), (0, 4), (0, 7), (1, 2), (1, 3), (4, 5), (4, 6), (7, 8), (8, 9)])
    a = decide_tree_trestle(t, 3)
    assert a is not None
    cert = build_tree_trestle(t, 3, a)
    assert verify_trestle(cert).passed()


# SHA-256 of the one-pass builder's certificates: every free tree with
# n <= 10 at k = 2, 3, 4, and a seeded corpus of random bounded-degree
# trees with n = 11..200 at k = 3, 4, 5
FREE_TREE_DIGEST = "df3479471963cbe46010e0d1f5c448b84a45fd61c5e33a20f61294f909133657"
RANDOM_TREE_DIGEST = "23bf6dbdfb5ca80bfae631f22c88365e6289f864602f72197357e88c23832f27"
# the same for every free tree with n = 11 and 12 at k = 2, 3, 4, taken
# from the builder that emitted each piece cycle through a vertex list
FREE_TREE_11_12_DIGEST = "4eb3304f54187d19780a65bc11800c7e53e2e12598eddd63f95d770d9a63b3dc"


def _digest(pairs) -> str:
    h = hashlib.sha256()
    for t, k in pairs:
        a = decide_tree_trestle(t, k)
        if a is None:
            h.update(b"infeasible\n")
            continue
        cert = build_tree_trestle(t, k, a)
        h.update(json.dumps(cert.to_jsonable(), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def _random_trees():
    rng = random.Random(2020)
    for _ in range(60):
        yield random_bounded_tree(rng, rng.randint(11, 200), maxdeg=rng.choice((3, 4, 5)))


def test_certificates_match_golden_digest():
    free = [(t, k) for n in range(3, 11) for t in enumerate_trees(n) for k in (2, 3, 4)]
    assert _digest(free) == FREE_TREE_DIGEST
    corpus = [(t, k) for t in _random_trees() for k in (3, 4, 5)]
    assert _digest(corpus) == RANDOM_TREE_DIGEST
    rest = [(t, k) for n in (11, 12) for t in enumerate_trees(n) for k in (2, 3, 4)]
    assert _digest(rest) == FREE_TREE_11_12_DIGEST


def test_path_certificate_is_the_path_square_cycle():
    rng = random.Random(9)
    for n in range(3, 40):
        for _ in range(5):
            order = list(range(n))
            rng.shuffle(order)
            t = Tree(n, list(zip(order, order[1:])))
            cert = build_tree_trestle(t, 2, decide_tree_trestle(t, 2))
            assert list(cert.edge_list) == path_square_cycle(t)


def test_one_verification_and_no_general_build(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the tree builder called the general builder")

    calls = []

    def counting_verify(cert):
        calls.append(cert)
        return verify_trestle(cert)

    monkeypatch.setattr(general_trestle, "build_general_trestle", forbidden)
    monkeypatch.setattr(tree_trestle, "verify_trestle", counting_verify)
    rng = random.Random(4)
    trees = [
        (random_caterpillar(rng, 30), 2),
        (spider(3), 3),
        (random_bounded_tree(rng, 60, maxdeg=3), 4),
    ]
    for t, k in trees:
        calls.clear()
        cert = build_tree_trestle(t, k, decide_tree_trestle(t, k))
        assert calls == [cert]


@pytest.mark.parametrize("damage", ["drop", "repeat"])
def test_build_rejects_a_damaged_edge_list(monkeypatch, damage):
    build_edges = tree_trestle._build_edges

    def damaged(*args):
        edges = build_edges(*args)
        return edges[1:] if damage == "drop" else edges + edges[:1]

    monkeypatch.setattr(tree_trestle, "_build_edges", damaged)
    rng = random.Random(5)
    for t, k in ((spider(3), 3), (path_graph(7), 2), (random_bounded_tree(rng, 40, maxdeg=4), 4)):
        with pytest.raises(InternalInvariantError):
            build_tree_trestle(t, k, decide_tree_trestle(t, k))


def test_one_profile_count_per_tree(monkeypatch):
    counted = []

    def counting(g):
        counted.append(g)
        return count(g)

    count = patterns._count_profile
    monkeypatch.setattr(patterns, "_count_profile", counting)
    rng = random.Random(6)
    for t in (spider(3), random_bounded_tree(rng, 60, maxdeg=3), random_caterpillar(rng, 30)):
        counted.clear()
        for k in (2, 3, 4):
            a = decide_tree_trestle(t, k)
            if a is not None:
                build_tree_trestle(t, k, a)
        check_obstruction(t)
        assert counted == [t]


def test_decide_after_as_tree_traverses_nothing_again(monkeypatch):
    # the BFS that checks the input is a tree is the one every decision,
    # build and witness on it reads
    searched = []

    def counting(g):
        searched.append(g)
        return bfs(g)

    rng = random.Random(7)
    trees = (spider(3), random_bounded_tree(rng, 60, maxdeg=3), random_caterpillar(rng, 30))
    bfs = graphs._bfs
    monkeypatch.setattr(graphs, "_bfs", counting)
    monkeypatch.setattr(graphs, "is_connected", None)
    for tree in trees:
        g = read_edgelist(write_edgelist(tree))
        t = as_tree(g)
        assert searched == [g]
        for k in (2, 3, 4):
            a = decide_tree_trestle(t, k)
            if a is not None:
                build_tree_trestle(t, k, a)
        check_obstruction(t)
        assert searched == [g]
        searched.clear()
