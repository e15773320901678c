"""Deep inputs: the tree decision, both builders, the Hamilton search,
Kuhn's search and the obstruction witness must not recurse.

The decisions, builds and witnesses below run on trees with up to 10^5
vertices, on a chorded tree of 10^5 vertices and on a 3000-vertex
cycle; the matching instance needs an augmenting path longer than the
interpreter's recursion limit.
"""

import random
import sys

import pytest

from helpers import (
    builder_matching,
    frame_depth,
    path_ordered_comb,
    random_bounded_tree,
    random_caterpillar,
    reference_hall_violator,
    sprinkle_chords,
    subdivided_tree,
)
from trestles import general_trestle
from trestles.general_trestle import build_general_trestle
from trestles.graphs import Tree, connected_cutvertices, cycle_graph
from trestles.matching_flow import max_bipartite_matching, theorem1_matching
from trestles.obstruction import check_obstruction
from trestles.patterns import centres, tree_profile
from trestles.tree_trestle import build_tree_trestle, decide_tree_trestle
from trestles.verify import TrestleCertificate, verify_trestle

N = 100_000


def _starved_vertex(t: Tree, k: int) -> int | None:
    """A vertex whose in-demand exceeds its neighbours' out-capacity.

    Its existence proves infeasibility without the decision procedure.
    """
    profile = tree_profile(t)
    for v in range(t.n):
        if max(0, profile.n(v) - 2) > sum(k - profile.n(u) for u in t.adj[v]):
            return v
    return None


@pytest.mark.slow
def test_random_bounded_tree_decisions():
    t = random_bounded_tree(random.Random(1), N, maxdeg=3)
    assert decide_tree_trestle(t, 3) is None
    assert _starved_vertex(t, 3) is not None
    a = decide_tree_trestle(t, 4)
    assert a is not None and a.satisfies_demands(4)


@pytest.mark.slow
def test_hall_witness_of_a_random_bounded_tree():
    # maximum degree 3 leaves no vertex four non-leaf neighbours, so the
    # witness is a Hall violator
    t = random_bounded_tree(random.Random(1), N, maxdeg=3)
    w = check_obstruction(t)
    assert w is not None and w.kind == "hall"
    w.check(t)
    red = tree_profile(t).red_set()
    assert (set(w.special), set(w.black_neighbourhood)) == reference_hall_violator(t, red)


@pytest.mark.slow
def test_path_ordered_comb_is_feasible_at_k3():
    t = path_ordered_comb(N // 3)
    a = decide_tree_trestle(t, 3)
    assert a is not None and a.satisfies_demands(3)


@pytest.mark.slow
def test_large_star_decides_in_linear_time():
    # a hub of degree N - 1: demand sums must not rescan its adjacency
    t = Tree(N, [(0, v) for v in range(1, N)])
    a = decide_tree_trestle(t, 2)
    assert a is not None and a.satisfies_demands(2)


def _builds_with_exact_degrees(t: Tree, k: int) -> None:
    """Decide and build with the stack capped about 100 frames above
    the caller, then verify the degree law o(v) + max{2, n(v)}."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 100)
    try:
        a = decide_tree_trestle(t, k)
        assert a is not None
        cert = build_tree_trestle(t, k, a)
    finally:
        sys.setrecursionlimit(limit)
    profile = tree_profile(t)
    expected = [a.out_sum(v) + max(2, profile.n(v)) for v in range(t.n)]
    report = verify_trestle(TrestleCertificate.of(t, cert.edge_list, k, expected_degrees=expected))
    assert report.passed(), report.failed_checks()


def _spider(legs: int, length: int) -> Tree:
    """Centre 0 with ``legs`` paths of ``length`` vertices each."""
    edges = []
    for leg in range(legs):
        prev = 0
        for i in range(length):
            v = 1 + leg * length + i
            edges.append((prev, v))
            prev = v
    return Tree(1 + legs * length, edges)


def test_spine_1000_comb_builds_at_k3():
    # every inner spine vertex is a pivot next to the previous one
    _builds_with_exact_degrees(path_ordered_comb(1000), 3)


@pytest.mark.slow
def test_long_three_legged_spider_builds_at_k3():
    _builds_with_exact_degrees(_spider(3, 30_000), 3)


@pytest.mark.slow
def test_hairy_caterpillar_builds_at_k2():
    t = random_caterpillar(random.Random(2), N)
    assert sum(1 for v in range(t.n) if t.degree(v) == 1) > N // 4
    _builds_with_exact_degrees(t, 2)


@pytest.mark.slow
def test_random_bounded_tree_builds_at_k4():
    _builds_with_exact_degrees(random_bounded_tree(random.Random(1), N, maxdeg=3), 4)


@pytest.mark.slow
def test_spine_10000_comb_general_build():
    # the split peels one spine vertex per level, so about 10^4 levels
    # nest; scanning each level in full would touch about n^2 / 6 = 1.5e8
    # vertices, while the largest branch is never listed
    comb = path_ordered_comb(10_000)
    matching = builder_matching(comb)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 100)
    try:
        cert = build_general_trestle(comb, matching.edge_list)
    finally:
        sys.setrecursionlimit(limit)
    matched = matching.covered()
    degrees = cert.degrees()
    assert all(degrees[v] == 2 for v in range(comb.n) if v not in matched)


@pytest.mark.slow
def test_chorded_subdivided_host_cuts_scan_linearly(monkeypatch):
    # one distance-2 chord per 50 vertices, as on the benchmark's hosts:
    # every chord closes a short cycle, which its first cut breaks into
    # paths, so the cuts scan each block once at most (0.06 n vertices
    # in all), and their searches, small to large, reach about 9.2 n
    rng = random.Random(1)
    tree = subdivided_tree(rng, N // 2 + 1)
    g = sprinkle_chords(rng, tree, tree.n // 50)
    blocks: list[list[int]] = []
    connected_cutvertices(g, blocks)
    searched, blocked = [], []
    monkeypatch.setattr(general_trestle, "_cut_hook", lambda s, b: (searched.append(s), blocked.append(b)))
    matching = theorem1_matching(g, centres(g, 3))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 100)
    try:
        cert = build_general_trestle(g, matching.edge_list)
    finally:
        sys.setrecursionlimit(limit)
    degrees, matched = cert.degrees(), matching.covered()
    assert all(degrees[v] == 2 for v in range(g.n) if v not in matched)
    assert len(blocks) > g.n // 60
    assert 0 < sum(blocked) <= sum(map(len, blocks))
    assert sum(searched) < 12 * g.n


def test_long_cycle_builds_through_the_hamilton_search():
    # C_3000 is 2-connected, so the builder hands it to the Hamilton
    # search on its square, whose path grows one vertex per search node
    n = 3000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 100)
    try:
        cert = build_general_trestle(cycle_graph(n), [])
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(cert.edge_list) == sorted(cycle_graph(n).edges())


def _kuhn_recursive(left, adjacency):
    """Reference: the textbook recursive formulation."""
    match_of = {}

    def try_vertex(x, visited):
        for y in adjacency.get(x, ()):
            if y in visited:
                continue
            visited.add(y)
            if y not in match_of or try_vertex(match_of[y], visited):
                match_of[y] = x
                return True
        return False

    for x in left:
        try_vertex(x, set())
    return {x: y for y, x in match_of.items()}


def test_matching_follows_the_recursive_search():
    rng = random.Random(5)
    for _ in range(300):
        left = list(range(rng.randint(1, 12)))
        rng.shuffle(left)
        right = range(100, 100 + rng.randint(1, 12))
        adjacency = {x: sorted(rng.sample(right, rng.randint(0, len(right)))) for x in left}
        got = max_bipartite_matching(left, adjacency)
        want = _kuhn_recursive(left, adjacency)
        assert got == want and list(got.items()) == list(want.items())


def test_augmenting_path_longer_than_recursion_limit():
    # x_i (i >= 1) first takes r_i; x_0 can only have r_1, which shifts
    # every x_i onto r_{i+1} along one augmenting path of length m
    m = 2 * sys.getrecursionlimit()
    adjacency = {0: [1]}
    adjacency.update({i: [i, i + 1] for i in range(1, m)})
    left = list(range(1, m)) + [0]
    got = max_bipartite_matching(left, adjacency)
    assert got == {0: 1, **{i: i + 1 for i in range(1, m)}}
