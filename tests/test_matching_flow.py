import hashlib
import itertools
import json

import pytest
from hypothesis import given, strategies as st

from helpers import (
    base_patterns,
    chorded_host_corpus,
    prufer_trees,
    random_red_graphs,
    reference_hall_violator,
)

from trestles import matching_flow
from trestles.graphs import DomainError, Graph, Tree, path_graph, spider
from trestles.matching_flow import (
    ArcAssignment,
    Matching,
    feasible_assignment,
    max_bipartite_matching,
    minimal_hall_violator,
    theorem1_matching,
)
from trestles.obstruction import f_family
from trestles.patterns import tree_profile


def test_matching_validation():
    g = path_graph(4)
    Matching(g, ((0, 1), (2, 3)))
    with pytest.raises(DomainError):
        Matching(g, ((0, 1), (1, 2)))  # shared vertex
    with pytest.raises(DomainError):
        Matching(g, ((0, 2),))  # not an edge


def test_max_bipartite_matching_simple():
    adjacency = {0: [10, 11], 1: [10], 2: [11, 12]}
    m = max_bipartite_matching([0, 1, 2], adjacency)
    assert len(m) == 3
    assert sorted(m) == [0, 1, 2]
    assert len(set(m.values())) == 3


def test_theorem1_matching_on_spider():
    s = spider(3)
    m = theorem1_matching(s, {0})
    assert m is not None and m.size() == 1
    (edge,) = m.edge_list
    assert 0 in edge


def test_theorem1_matching_fails_on_shared_neighbour():
    # two designated vertices forced onto one shared partner
    g = Graph(3, [(0, 1), (1, 2)])
    assert theorem1_matching(g, {0, 2}) is None


def test_minimal_hall_violator_none_when_saturated():
    s = spider(3)
    assert minimal_hall_violator(s, {0}) is None


def test_minimal_hall_violator_single():
    # star whose red centre has only red neighbours has an empty
    # bipartite neighbourhood
    t = Tree(4, [(0, 1), (0, 2), (0, 3)])
    violator = minimal_hall_violator(t, {0, 1, 2, 3})
    assert violator is not None
    assert len(violator.neighbourhood) == len(violator.red_set) - 1


def _black_neighbourhood(g: Graph, red: set[int], subset) -> set[int]:
    return {y for x in subset for y in g.adj[x] if y not in red}


def _assert_minimal_violator(g: Graph, red: set[int], violator) -> None:
    """Brute force, without the matching code: the violator is a
    deficient red set with the stated neighbourhood, and no nonempty
    proper subset of it is deficient."""
    r = sorted(violator.red_set)
    assert violator.red_set <= red
    assert violator.neighbourhood == _black_neighbourhood(g, red, r)
    assert len(violator.neighbourhood) < len(r)
    for size in range(1, len(r)):
        for subset in itertools.combinations(r, size):
            assert len(_black_neighbourhood(g, red, subset)) >= size


def test_violators_are_inclusion_minimal_on_random_graphs():
    found = 0
    for g, red in random_red_graphs(seed=5, count=1500):
        violator = minimal_hall_violator(g, red)
        if violator is None:
            # Hall's condition holds for every red subset
            for size in range(1, len(red) + 1):
                for subset in itertools.combinations(sorted(red), size):
                    assert len(_black_neighbourhood(g, red, subset)) >= size
            continue
        found += 1
        _assert_minimal_violator(g, red, violator)
    assert found >= 300


def test_violators_are_inclusion_minimal_on_the_f_family():
    for m in f_family(40, base_patterns()):
        red = tree_profile(m.tree).red_set()
        violator = minimal_hall_violator(m.tree, red)
        assert violator is not None
        assert violator.red_set == set(m.special)
        _assert_minimal_violator(m.tree, red, violator)


# SHA-256 of the answers that the earlier violator search, which
# re-matched every co-singleton of the reachable set until none was
# deficient, gave on these corpora; the one-matching search must
# reproduce them byte for byte
VIOLATOR_DIGEST = "375d42d3d64c68b2a5429f1e5af44f06086932e908f34c2a833c23d8b797e0ef"
MATCHING_DIGEST = "cfa8cdca84f95467e4d56ccd672b40e50143482cbf2ac33f2b60949169d8baab"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(json.dumps(line).encode() + b"\n")
    return h.hexdigest()


def _violator_lines():
    for g, red in random_red_graphs(seed=13, count=2000):
        v = minimal_hall_violator(g, red)
        yield None if v is None else [sorted(v.red_set), sorted(v.neighbourhood)]


def _matching_lines():
    for g, red in random_red_graphs(seed=13, count=2000):
        m = theorem1_matching(g, red)
        yield None if m is None else m.edge_list
    for g, m in chorded_host_corpus(seed=11):
        yield m.edge_list


def test_violators_and_matchings_match_golden_digest():
    assert _digest(_violator_lines()) == VIOLATOR_DIGEST
    assert _digest(_matching_lines()) == MATCHING_DIGEST


@st.composite
def red_graphs(draw):
    """A graph on 1..14 vertices with any edge set and any red set."""
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges), draw(st.sets(st.integers(0, n - 1)))


@st.composite
def red_trees(draw):
    """A labelled tree with its own red set (n(v) >= 3) or any red set."""
    t = draw(prufer_trees())
    red = draw(st.one_of(st.just(tree_profile(t).red_set()), st.sets(st.integers(0, t.n - 1))))
    return t, red


@given(st.one_of(red_graphs(), red_trees()))
def test_violator_equals_the_full_matching_reference(case):
    g, red = case
    v = minimal_hall_violator(g, red)
    assert (None if v is None else (v.red_set, v.neighbourhood)) == reference_hall_violator(g, red)


@st.composite
def bipartite_graphs(draw):
    """Left vertices in any order, each with a sorted list of right ones."""
    left = draw(st.lists(st.integers(0, 11), unique=True, max_size=12))
    right = range(100, 100 + draw(st.integers(1, 12)))
    return left, {x: sorted(draw(st.sets(st.sampled_from(right)))) for x in left}


@given(bipartite_graphs())
def test_first_step_shortcut_gives_the_plain_search_assignment(case):
    left, adjacency = case
    # Kuhn's algorithm with every left vertex searched in full
    match_of: dict[int, int] = {}
    for x in left:
        matching_flow._augment(adjacency, x, match_of)
    want = {x: y for y, x in match_of.items()}
    got = max_bipartite_matching(left, adjacency)
    assert list(got.items()) == list(want.items())


# the base obstruction T_0's shape: red 0 has only the red neighbours
# 1, 2 and 3, so its search fails before any other red is read
T16 = Tree(16, [
    (0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (1, 6), (6, 7), (2, 8), (8, 9), (2, 10), (10, 11),
    (3, 12), (12, 13), (3, 14), (14, 15),
])


def test_violator_search_stops_at_the_first_failed_red(monkeypatch):
    searched, read = [], []
    augment, one_end_rows = matching_flow._augment, matching_flow._one_end_rows

    def counting_augment(adjacency, free, match_of):
        searched.append(free)
        return augment(adjacency, free, match_of)

    def counting_rows(g, side, what):
        for x, blacks in one_end_rows(g, side, what):
            read.append(x)
            yield x, blacks

    monkeypatch.setattr(matching_flow, "_augment", counting_augment)
    monkeypatch.setattr(matching_flow, "_one_end_rows", counting_rows)
    red = tree_profile(T16).red_set()
    assert red == {0, 1, 2, 3}
    v = minimal_hall_violator(T16, red)
    assert (v.red_set, v.neighbourhood) == ({0}, set())
    assert searched == [0] and read == [0]


def test_assignment_demand_system():
    t = spider(3)
    a = feasible_assignment(t, 3)
    assert a is not None
    assert a.satisfies_demands(3)
    profile = tree_profile(t)
    assert a.in_sum(0) == max(0, profile.n(0) - 2) == 1
    assert all(a.out_sum(v) <= 3 - profile.n(v) for v in range(t.n))


def test_assignment_infeasible_for_spider4():
    assert feasible_assignment(spider(4), 3) is None


def test_assignment_k2_only_for_caterpillars():
    assert feasible_assignment(path_graph(5), 2) is not None
    assert feasible_assignment(spider(3), 2) is None


@given(prufer_trees())
def test_kept_bfs_gives_the_values_of_a_fresh_one(t):
    # a plain Graph has no kept BFS, so the pass runs its own
    g = Graph(t.n, t.edges())
    for k in range(2, 6):
        a, b = feasible_assignment(t, k), feasible_assignment(g, k)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.values == b.values


def test_assignment_values_validation():
    t = path_graph(3)
    a = ArcAssignment(t)
    with pytest.raises(DomainError):
        a.set_value(0, 2, 1)  # not a tree edge
    with pytest.raises(DomainError):
        a.set_value(0, 1, -1)
    a.set_value(0, 1, 2)
    a.set_value(0, 1, 0)
    assert a.values == {}
    # values given to the constructor pass the same checks
    with pytest.raises(DomainError):
        ArcAssignment(t, {(0, 2): 1})
    with pytest.raises(DomainError):
        ArcAssignment(t, {(0, 1): -1})
    assert ArcAssignment(t, {(0, 1): 0, (2, 1): 3}).values == {(2, 1): 3}


def test_domain_guards():
    with pytest.raises(DomainError):
        feasible_assignment(path_graph(5), 1)
    with pytest.raises(DomainError):
        feasible_assignment(Tree(2, [(0, 1)]), 3)
