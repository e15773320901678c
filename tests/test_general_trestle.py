import hashlib
import itertools
import json
import random
import sys
from collections import defaultdict

import pytest
from hypothesis import given, strategies as st

from helpers import (
    EAR_HOST_17,
    RINGED_SPIDER_13,
    builder_matching,
    chorded_host_corpus,
    distance_two_pairs,
    frame_depth,
    matched_spider_free_instances,
    path_ordered_comb,
    prufer_trees,
    random_bounded_tree,
    random_caterpillar,
    sprinkle_chords,
    subdivided_tree,
    three_clique_hub,
)

from trestles import general_trestle, graphs
from trestles.general_trestle import build_general_trestle, path_square_cycle
from trestles.graphs import (
    DomainError,
    Graph,
    Undetermined,
    complete_graph,
    cutvertices,
    cycle_graph,
    path_graph,
    spider,
    square,
)
from trestles.matching_flow import theorem1_matching
from trestles.oracle import independence_number
from trestles.path_cover import linear_forest_for
from trestles.patterns import NeighbourSets, centres, has_spider3, is_spider_free, spider_witness
from trestles.verify import TrestleCertificate, verify_trestle


def test_path_square_cycle_p5():
    assert path_square_cycle(path_graph(5)) == [
        (0, 1),
        (0, 2),
        (1, 3),
        (2, 4),
        (3, 4),
    ]


def test_path_square_cycle_valid_for_all_small_paths():
    for n in range(3, 12):
        p = path_graph(n)
        sq = square(p)
        edges = path_square_cycle(p)
        assert len(edges) == n
        for u, v in edges:
            assert sq.has_edge(u, v)


def test_path_square_cycle_rejects_non_path():
    with pytest.raises(DomainError):
        path_square_cycle(cycle_graph(5))


def test_build_on_spider3():
    s = spider(3)
    m = theorem1_matching(s, centres(s, 3))
    cert = build_general_trestle(s, m.edge_list)
    degs = cert.degrees()
    matched = {v for e in cert.matching_edges for v in e}
    for v in range(s.n):
        assert 2 <= degs[v] <= 3
        if v not in matched:
            assert degs[v] == 2


def test_build_rejects_spider4_host():
    with pytest.raises(DomainError):
        build_general_trestle(spider(4), ())


def test_build_rejects_unsaturating_matching():
    with pytest.raises(DomainError):
        build_general_trestle(spider(3), ())


def test_build_rejects_two_centre_edge():
    # edge with both ends outside the centre set
    s = spider(3)
    with pytest.raises(DomainError):
        build_general_trestle(s, ((1, 4),))


def test_empty_matching_gives_hamilton_cycle():
    # S(K_{1,3})-free hosts have no centres, so everything is unmatched
    # and the trestle is a Hamilton cycle
    hosts = [
        path_graph(7),
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)]),
    ]
    for g in hosts:
        assert is_spider_free(g, 3)
        cert = build_general_trestle(g, ())
        assert all(d == 2 for d in cert.degrees())
        assert len(cert.edge_list) == g.n


def test_two_connected_host_uses_square_hamilton():
    g = cycle_graph(6)
    cert = build_general_trestle(g, ())
    assert all(d == 2 for d in cert.degrees())


def test_random_instances_verified():
    for g, matching in matched_spider_free_instances(seed=101, count=60, max_n=30):
        cert = build_general_trestle(g, matching.edge_list)
        degs = cert.degrees()
        matched = matching.covered()
        for v in range(g.n):
            assert 2 <= degs[v] <= 3
            if v not in matched:
                assert degs[v] == 2


# SHA-256 of the certificates that the recursive builder, which analysed
# every branch from scratch, produced for these corpora; the per-level
# derivation must reproduce them byte for byte
SMALL_CORPUS_DIGEST = "f1a729f7628309022a9792ee5e5a915eb1c1e267a60fdd4d65e06d24551deb2e"
CHORDED_CORPUS_DIGEST = "9e60b5ee1e0f6b41e7c7ebfa7af7b7d8dbca09b690b67b6a70c9e974b3897481"
COMB_300_DIGEST = "e87c2293b65bfc7672f18a08f0d6c1b7af8d619560f86571208154d8fd0104f7"


# the same, taken before the input's 2-connectivity was settled ahead of
# the levels, for every labelled connected host on 3 to 5 vertices
LABELLED_N5_DIGEST = "0aaff71925ba85563d69ec5c77d4e00468e503e1d80d351be5c643f4161f640c"


def _digest(certs) -> str:
    h = hashlib.sha256()
    for cert in certs:
        h.update(json.dumps(cert.to_jsonable(), sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_certificates_match_golden_digest():
    small = matched_spider_free_instances(seed=7, count=80, max_n=40)
    assert _digest(build_general_trestle(g, m.edge_list) for g, m in small) == SMALL_CORPUS_DIGEST
    chorded = list(chorded_host_corpus(seed=11))
    assert max(g.n for g, _ in chorded) >= 400
    assert _digest(build_general_trestle(g, m.edge_list) for g, m in chorded) == CHORDED_CORPUS_DIGEST


def _labelled_connected_hosts(n: int):
    """Every connected graph on 0..n-1, edge sets in the binary order of
    their bitmasks over the pairs in lexicographic order."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        if graphs.is_connected(g):
            yield g


def test_every_small_labelled_host_matches_golden_digest():
    # covers every root that once had a case of its own for at most 4
    # vertices: the claw and the paw split, the 2-connected ones take
    # the Hamilton search
    certs = []
    for n in range(3, 6):
        for g in _labelled_connected_hosts(n):
            certs.append(build_general_trestle(g, builder_matching(g).edge_list))
    assert len(certs) == 770
    assert _digest(certs) == LABELLED_N5_DIGEST


def test_two_connected_host_builds_no_level(monkeypatch):
    # C_7, and a 2-connected ear host: the cycle 0..5 with the ear 1-6-7-4
    made = []
    for cls in (general_trestle._Level, general_trestle._Levels):

        def counting_init(self, *args, init=cls.__init__):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    monkeypatch.setattr(general_trestle, "_level_hook", lambda *args: made.append(args))
    ear = Graph(8, [(i, (i + 1) % 6) for i in range(6)] + [(1, 6), (6, 7), (7, 4)])
    for g in (cycle_graph(7), ear):
        cert = build_general_trestle(g, builder_matching(g).edge_list)
        assert verify_trestle(cert).passed()
    assert made == []
    # the same counter sees the levels of a host with a cutvertex
    build_general_trestle(path_graph(5), ())
    assert made


def test_two_connected_host_outside_the_hypotheses_gets_its_hamilton_cycle():
    assert theorem1_matching(EAR_HOST_17, centres(EAR_HOST_17, 3)) is None
    assert not is_spider_free(RINGED_SPIDER_13, 4)
    for g in (EAR_HOST_17, RINGED_SPIDER_13):
        cert = build_general_trestle(g, None)
        assert cert.matching_edges is None
        assert cert.degrees() == [2] * g.n
        assert verify_trestle(cert).passed()


def test_host_with_a_cutvertex_outside_the_hypotheses_is_undetermined():
    # a pendant vertex gives the ringed spider a cutvertex
    ringed = Graph(14, RINGED_SPIDER_13.edges() + ((9, 13),))
    with pytest.raises(Undetermined, match="induced S\\(K_\\{1,4\\}\\)"):
        build_general_trestle(ringed, theorem1_matching(ringed, centres(ringed, 3)).edge_list)
    with pytest.raises(Undetermined, match="no saturating centre matching"):
        build_general_trestle(path_graph(5), None)
    # a matching that breaks the pairing is still a usage error
    with pytest.raises(DomainError) as info:
        build_general_trestle(spider(3), ())
    assert not isinstance(info.value, Undetermined)


def test_is_path_is_the_degree_scan(monkeypatch):
    split = general_trestle._Levels.split
    seen = []

    def checked_split(self, level, depth):
        degrees = [len(level.view[v]) for v in level.vertices()]
        assert level.is_path() == (max(degrees) <= 2 and degrees.count(1) == 2)
        seen.append(level.is_path())
        return split(self, level, depth)

    monkeypatch.setattr(general_trestle._Levels, "split", checked_split)
    comb = path_ordered_comb(300)
    for g, m in [*chorded_host_corpus(seed=11), (comb, builder_matching(comb))]:
        build_general_trestle(g, m.edge_list)
    assert True in seen and False in seen


def test_largest_branch_that_is_a_path_is_closed_at_its_cut(monkeypatch):
    # at c = 0: the branch 1-2-{3,4} opens as a level (2 has degree 3),
    # then the path 5-6 and the largest branch, the path 7..27, are both
    # closed at the cut.  Inside the level, the largest branch at c = 2,
    # the path 1-0 and its dummy, is closed as well
    g = Graph(28, [(0, 1), (1, 2), (2, 3), (2, 4), (0, 5), (5, 6), (0, 7)] + [(i, i + 1) for i in range(7, 27)])
    closed, close = [], general_trestle._Cut.close

    def recording_close(self, comp):
        closed.append(comp and list(comp))
        close(self, comp)

    hook = _FullSearch()
    monkeypatch.setattr(general_trestle._Cut, "close", recording_close)
    monkeypatch.setattr(general_trestle, "_level_hook", hook)
    cert = build_general_trestle(g, builder_matching(g).edge_list)
    assert verify_trestle(cert).passed()
    assert closed == [None, [5, 6], None] and hook.levels == 1


def test_deep_comb_builds_under_a_low_recursion_limit():
    # the path-ordered comb splits off one spine vertex per level, so a
    # recursive builder would nest about 300 levels deep
    comb = path_ordered_comb(300)
    matching = builder_matching(comb)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 100)
    try:
        cert = build_general_trestle(comb, matching.edge_list)
    finally:
        sys.setrecursionlimit(limit)
    assert _digest([cert]) == COMB_300_DIGEST


def test_path_branches_open_no_level(monkeypatch):
    # every leg of the comb is a path branch, closed at its cut; only
    # the root and the spine's branches are levels
    made, closed = [], []
    init, close = general_trestle._Level.__init__, general_trestle._Cut.close

    def counting_init(self, *args):
        init(self, *args)
        made.append(self.is_path())

    def counting_close(self, comp):
        closed.append(comp)
        close(self, comp)

    monkeypatch.setattr(general_trestle._Level, "__init__", counting_init)
    monkeypatch.setattr(general_trestle._Cut, "close", counting_close)
    comb = path_ordered_comb(300)
    cert = build_general_trestle(comb, builder_matching(comb).edge_list)
    assert _digest([cert]) == COMB_300_DIGEST
    assert made and True not in made
    assert len(closed) >= 298


def test_join_memo_matches_fresh_solves(monkeypatch):
    states, joins = [], []
    build, join = general_trestle._Levels.build, general_trestle._Cut.join

    def recording_build(self, cuts):
        assert self.joins == {}
        states.append(self)
        return build(self, cuts)

    def counting_join(self):
        joins.append(len(self.pairs))
        join(self)

    monkeypatch.setattr(general_trestle._Levels, "build", recording_build)
    monkeypatch.setattr(general_trestle._Cut, "join", counting_join)
    hosts = list(chorded_host_corpus(seed=11))
    for g, m in hosts:
        build_general_trestle(g, m.edge_list)
    keys = []
    for lv in states:
        for (k, edges, anchor), paths in lv.joins.items():
            contracted = Graph(k, edges)
            assert paths == linear_forest_for(contracted, set(anchor))
            assert len(paths) <= independence_number(contracted) <= 3
            keys.append(anchor)
    # most joins find their contracted pair graph already solved, and
    # the anchored pair is part of the key
    assert 0 < len(keys) < len(joins) // 2
    assert () in keys and any(keys)
    # a second build of a host starts from an empty memo of its own
    g, m = hosts[-1]
    build_general_trestle(g, m.edge_list)
    assert len(states) == len(hosts) + 1
    assert states[-1] is not states[-2] and states[-1].joins == states[-2].joins
    # the paper's join lemma, which the join itself does not check: in an
    # S(K_{1,4})-free host every contracted pair graph has independence
    # number <= 3, so a fault that breaks it while the forest keeps at
    # most three paths still fails here
    del states[:]
    for g, m in matched_spider_free_instances(seed=7, count=300):
        build_general_trestle(g, m.edge_list)
    bounded = 0
    for lv in states:
        for (k, edges, _), paths in lv.joins.items():
            assert len(paths) <= independence_number(Graph(k, edges)) <= 3
            bounded += 1
    assert bounded > len(states) > 250


def test_distance_two_pairs_match_the_pair_scan():
    # the quadratic scan sprinkle_chords used to run; the same list in the
    # same order keeps every seeded chorded host the same
    def pair_scan(g):
        return [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v) and any(w in g.adj[v] for w in g.adj[u])
        ]

    rng = random.Random(13)
    hosts = [complete_graph(5), cycle_graph(6), EAR_HOST_17]
    for n in (3, 10, 40, 120):
        hosts += [random_bounded_tree(rng, n), random_caterpillar(rng, n)]
        hosts.append(sprinkle_chords(rng, subdivided_tree(rng, n // 2 + 2), 1 + n // 20))
    for g in hosts:
        assert distance_two_pairs(g) == pair_scan(g)


@given(prufer_trees(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_chorded_prufer_hosts_build_with_exact_degrees(t, chords, rng):
    g = sprinkle_chords(rng, t, chords)
    matching = builder_matching(g)
    if matching is None:
        return
    cert = build_general_trestle(g, matching.edge_list)
    matched = matching.covered()
    degs = cert.degrees()
    expected = [degs[v] if v in matched else 2 for v in range(g.n)]
    report = verify_trestle(
        TrestleCertificate.of(g, cert.edge_list, 3, cert.matching_edges, expected)
    )
    assert report.passed(), report.failed_checks()


def test_hub_over_three_k80_joins_three_paths(monkeypatch):
    # the hub's one join contracts three disjoint K_80, 240 pairs in all,
    # and spans them with three paths
    forest, found = general_trestle.linear_forest_for, []

    def recording_forest(g, independent):
        paths = forest(g, independent)
        found.append((g.n, len(paths)))
        return paths

    monkeypatch.setattr(general_trestle, "linear_forest_for", recording_forest)
    cert = build_general_trestle(three_clique_hub(80), [(0, 1)])
    assert verify_trestle(cert).passed()
    assert found == [(240, 3)]


def _paired_legs(legs: int) -> Graph:
    """A cutvertex 0 with ``legs`` legs of two vertices each, the first
    vertices of legs 2i and 2i + 1 joined: no vertex centres an induced
    S(K_{1,3}), and the one join contracts ``legs`` pairs, with 0
    unmatched."""
    edges = []
    for i in range(legs):
        mid, leaf = 1 + 2 * i, 2 + 2 * i
        edges += [(0, mid), (mid, leaf)]
        if i % 2:
            edges.append((mid - 2, mid))
    return Graph(1 + 2 * legs, edges)


@pytest.mark.parametrize(
    "legs, message",
    [(4, "more than three paths"), (3, "three paths but none is anchored")],
    ids=["four-paths", "three-unanchored"],
)
def test_join_checks_the_paths_it_uses(monkeypatch, legs, message):
    # a forest of one path per pair: four paths, or three with 0 unmatched
    g = _paired_legs(legs)
    assert centres(g, 3) == set() and verify_trestle(build_general_trestle(g, ())).passed()
    monkeypatch.setattr(
        general_trestle, "linear_forest_for", lambda h, independent: tuple((i,) for i in range(h.n))
    )
    with pytest.raises(general_trestle.InternalInvariantError, match=message):
        build_general_trestle(g, ())


def test_pendant_clique_builds_a_hamilton_cycle():
    # K_100 with a pendant leaf on every vertex is S(K_{1,3})-free; its
    # one split joins 99 branches over a contracted pair graph K_99, which
    # one path spans
    m = 100
    g = Graph(2 * m, list(complete_graph(m).edges()) + [(i, m + i) for i in range(m)])
    assert builder_matching(g).size() == 0
    cert = build_general_trestle(g, ())
    assert all(d == 2 for d in cert.degrees())
    assert len(cert.edge_list) == g.n


class _FullSearch:
    """Level hook: rebuilds each branch as a ``Graph`` from the shared
    adjacency and checks the view's neighbour lists, the re-tested
    centres and the inherited cutvertices against full searches, and
    the yes/no test for S(K_{1,3}) centres against the witness search
    on the view."""

    def __init__(self):
        self.levels = 0
        self.inherited = 0
        self.retained = 0

    def __call__(self, adj, vs, view, found, cuts):
        inside = set(vs)
        index = {v: i for i, v in enumerate(vs)}
        for u in vs:
            assert view[u] == [w for w in adj[u] if w in inside]
        sets = NeighbourSets(view)
        for v in vs:
            assert has_spider3(view, v, sets) == (spider_witness(view, v, 3, sets) is not None)
        h = Graph(len(vs), [(index[u], index[w]) for u in vs for w in adj[u] if w in inside])
        assert {vs[i] for i in centres(h, 3)} == found
        if cuts is not None:
            assert {vs[i] for i in cutvertices(h)} == cuts
            self.inherited += 1
        self.levels += 1
        self.retained += len(found)


def test_branch_views_match_full_searches(monkeypatch):
    hook = _FullSearch()
    monkeypatch.setattr(general_trestle, "_level_hook", hook)
    hosts = list(chorded_host_corpus(seed=11)) + list(
        matched_spider_free_instances(seed=7, count=300)
    )
    for g, m in hosts:
        build_general_trestle(g, m.edge_list)
    # 2428 branches opened as levels, 2225 of them inheriting their
    # cutvertices, and 2256 centres kept in all; both kinds of branch
    # occur.  Path branches are closed at their cut and open no level
    assert hook.levels > 2000 and hook.levels // 2 < hook.inherited < hook.levels
    assert hook.retained > 1000


@given(prufer_trees(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_chorded_prufer_branch_views_match_full_searches(t, chords, rng):
    g = sprinkle_chords(rng, t, chords)
    matching = builder_matching(g)
    if matching is None:
        return
    saved, general_trestle._level_hook = general_trestle._level_hook, _FullSearch()
    try:
        build_general_trestle(g, matching.edge_list)
    finally:
        general_trestle._level_hook = saved


def test_centre_across_a_dropped_edge_is_re_tested(monkeypatch):
    # the cycle 0-1-3-5-6-4-2-0 runs through the cutvertex 0, which also
    # has the tail 0-9-10; the edge 5-6 closes the cycle last, so the
    # spanning tree drops it.  Vertex 5 centres the spider with arms
    # 3-1, 6-4 and 7-8, and loses the arm 6-4 in its branch, two steps
    # away from the gate 1.  The tail's branch 9-10 is a path, closed at
    # the cut without a level
    g = Graph(
        11,
        [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6), (5, 7), (7, 8), (0, 9), (9, 10)],
    )
    assert centres(g, 3) == {0, 5}
    hook = _FullSearch()
    monkeypatch.setattr(general_trestle, "_level_hook", hook)
    build_general_trestle(g, builder_matching(g).edge_list)
    assert hook.levels == 2 and hook.retained == 0
    # matched to 6, vertex 5 makes the tree take 5-6, so 4-6 is dropped
    # instead and 5 loses the same arm as a neighbour of a dropped edge.
    # Two levels open: the branch of 5 and the one of 2; at the cut 5,
    # the largest branch 3-1-0 and its dummy is a path, closed there
    build_general_trestle(g, [(0, 9), (5, 6)])
    assert hook.levels == 4 and hook.retained == 0


def test_comb_builds_no_graph_per_level(monkeypatch):
    # the only graphs built are the contracted pair graphs of the joins,
    # one vertex per branch of a cut, so none has more vertices than the
    # host's maximum degree; a copy per level would have up to 3 * 300
    sizes = []
    init = graphs.Graph.__init__

    def counting_init(self, n, edges=()):
        sizes.append(n)
        init(self, n, edges)

    comb = path_ordered_comb(300)
    matching = builder_matching(comb)
    monkeypatch.setattr(graphs.Graph, "__init__", counting_init)
    build_general_trestle(comb, matching.edge_list)
    top = max(comb.degree(v) for v in range(comb.n))
    assert sizes and max(sizes) <= top


def _in_square(view, u: int, v: int) -> bool:
    return u != v and (v in view[u] or not set(view[u]).isdisjoint(view[v]))


def _first_square_walk(options, view):
    """The first choice, in ``itertools.product`` order over the option
    lists, whose consecutive pairs meet in the square, flattened."""
    for choice in itertools.product(*options):
        if all(_in_square(view, x[-1], y[0]) for x, y in zip(choice, choice[1:])):
            return [v for pair in choice for v in pair]
    return None


def _expand_by_brute_force(path, pairs, view, a_vertex):
    """Every orientation of the path's pairs tried in order: the anchored
    pair in front as (a, other) when a pair holds a_vertex, otherwise the
    first pair led by its gate, then the last pair trailed by its gate."""
    seq = list(path)
    if a_vertex in pairs[seq[-1]]:
        seq.reverse()
    options = [[pairs[i], pairs[i][::-1]] for i in seq]
    if a_vertex in pairs[seq[0]]:
        u, w = pairs[seq[0]]
        return "anchored", _first_square_walk([[(a_vertex, w if a_vertex == u else u)]] + options[1:], view)
    lead = _first_square_walk([options[0][:1]] + options[1:], view)
    if lead is not None:
        return "lead", lead
    return "trail", _first_square_walk(options[:-1] + [options[-1][1:]], view)


def _hub_hosts():
    # (m, bare leaves per clique): one join with three anchored paths, and
    # two whose anchor is a leftover gate
    return [three_clique_hub(m, bare) for m, bare in ((4, 0), (4, 1), (6, 2))]


def _densely_chorded_hosts(seed: int, count: int):
    """``count`` seeded hosts in the builder's domain with a cutvertex:
    random trees of maximum degree 3 to 6 with up to n/2 chords, whose
    joins have several pairs, anchored ones too, far more often than
    the sparse corpora's."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        n = rng.randint(6, 30)
        g = sprinkle_chords(rng, random_bounded_tree(rng, n, rng.randint(3, 6)), rng.randint(0, n // 2))
        if not cutvertices(g):
            continue
        matching = builder_matching(g)
        if matching is not None:
            found += 1
            yield g, matching


def test_expand_pairs_is_the_first_orientation_in_order(monkeypatch):
    # every expansion the builder makes over these hosts is the
    # lexicographically first orientation led by the first pair's gate,
    # and meets the premises of the join lemma (module docstring)
    expand = general_trestle._expand_pairs
    tries, multi, anchored = [], [], []

    def recording(*args):
        path, pairs, view, a_vertex = args[0], args[1], args[2], args[-1]
        assert all(w in view[u] for u, w in pairs)
        assert all(
            any(q in view[p] for p in pairs[i] for q in pairs[j]) for i, j in zip(path, path[1:])
        )
        assert all(a_vertex != w for _, w in pairs)
        out = expand(*args)
        how, expected = _expand_by_brute_force(path, pairs, view, a_vertex)
        assert out == expected
        tries.append(how)
        if len(path) > 1:
            multi.append(path)
            if how == "anchored":
                anchored.append(path)
        return out

    monkeypatch.setattr(general_trestle, "_expand_pairs", recording)
    for g, m in chorded_host_corpus(seed=11):
        build_general_trestle(g, m.edge_list)
    for g in _hub_hosts():
        build_general_trestle(g, [(0, 1)])
    for g, m in _densely_chorded_hosts(seed=22, count=300):
        build_general_trestle(g, m.edge_list)
    # the lead always succeeds, so the brute force never trails
    assert {"anchored", "lead"} == set(tries)
    # the dense hosts give most of the multi-pair paths and nearly all
    # the anchored ones: 221 of 248 and 78 of 79
    assert len(multi) > 200 and len(anchored) > 50


class _KeyLog(dict):
    """A join memo that remembers the last key looked up."""

    def get(self, key, default=None):
        self.last = key
        return super().get(key, default)


def _record_joins(monkeypatch):
    """Patch ``_Cut.join`` to check that each join looks up the key of
    the all-pairs scan of its contracted pair graph; returns the list of
    (key, leftover gates, cutvertex's partner, paths) per join."""
    join, seen = general_trestle._Cut.join, []

    def scanned_join(self):
        lv, mark, pairs = self.levels, self.mark, self.pairs
        k = len(pairs)

        def nbrs(v):
            return [w for w in lv.adj[v] if lv.label[w] == mark]

        edges = tuple(
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if any(q in nbrs(p) for p in pairs[i] for q in pairs[j])
        )
        a_vertex = lv.partner.get(self.c)
        key = (k, edges, tuple(i for i, (u, _) in enumerate(pairs) if u == a_vertex))
        rest = {v for v in nbrs(self.c) if not any(v in p for p in pairs)}
        if type(lv.joins) is dict:
            lv.joins = _KeyLog(lv.joins)
        join(self)
        assert lv.joins.last == key
        seen.append((key, rest, a_vertex, lv.joins[key]))

    monkeypatch.setattr(general_trestle._Cut, "join", scanned_join)
    return seen


def test_indexed_pair_edges_match_the_pair_scan(monkeypatch):
    seen = _record_joins(monkeypatch)
    for g, m in chorded_host_corpus(seed=11):
        build_general_trestle(g, m.edge_list)
    assert len(seen) > 900


def test_hub_over_three_cliques_joins_three_paths(monkeypatch):
    # the hub 0 is the only centre, matched to 1; every other vertex ends
    # with degree 2.  With a leaf on every clique vertex the one join has
    # alpha = 3 and the anchored pair leads one of its three paths; with
    # bare vertices the anchor 1 is a leftover gate instead
    seen = _record_joins(monkeypatch)
    for g, anchored in zip(_hub_hosts(), (True, False, False)):
        assert centres(g, 3) == {0} and is_spider_free(g, 4)
        seen.clear()
        cert = build_general_trestle(g, [(0, 1)])
        assert verify_trestle(cert).passed()
        assert cert.degrees()[2:] == [2] * (g.n - 2)
        (k, edges, anchor), rest, a_vertex, paths = seen[-1]
        assert a_vertex == 1 and len(paths) == 3
        assert independence_number(Graph(k, edges)) == 3
        assert (anchor != ()) == anchored and (1 in rest) == (not anchored)


def _cut_view(adj: dict[int, list[int]]):
    """A cut's view of the graph with neighbour lists ``adj``, every
    vertex of which is in the level."""
    return general_trestle._SetView(adj, defaultdict(int), 0)


@given(st.data())
def test_within_two_is_the_distance_two_test(data):
    # random neighbour lists, a hub adjacent to most vertices, and some
    # vertices outside the level (another mark), which must not count as
    # common neighbours
    n = data.draw(st.integers(1, 30))
    ids = st.integers(0, n - 1)
    edges = {(u, v) for u, v in data.draw(st.lists(st.tuples(ids, ids), max_size=3 * n)) if u != v}
    edges |= {(0, v) for v in data.draw(st.sets(ids, max_size=n)) if v}
    shared = [sorted({v for e in edges for v in e if u in e} - {u}) for u in range(n)]
    label = data.draw(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=n, max_size=n))
    view = general_trestle._SetView(shared, label, 0)
    level = [v for v in range(n) if label[v] == 0]
    nbrs = {v: {w for w in shared[v] if label[w] == 0} for v in level}
    for u in level:
        for v in level:
            square_edge = u != v and (v in nbrs[u] or bool(nbrs[u] & nbrs[v]))
            assert general_trestle._within_two(view, u, v) == square_edge


def test_expand_pairs_orients_greedily():
    # pairs (gate, other) 1-2 and 3-4, each an edge, meeting at 1-4: after
    # 2 the gate 3 is not within distance 2, so 3-4 is walked as (4, 3)
    view = _cut_view({1: [2, 4], 2: [1], 3: [4], 4: [1, 3]})
    pairs = [(1, 2), (3, 4)]
    expand = general_trestle._expand_pairs
    assert expand((0, 1), pairs, view, None) == [1, 2, 4, 3]
    assert _expand_by_brute_force((0, 1), pairs, view, None) == ("lead", [1, 2, 4, 3])
    # anchored at 3, the path is read from its other end
    assert expand((0, 1), pairs, view, 3) == [3, 4, 1, 2]
    assert _expand_by_brute_force((0, 1), pairs, view, 3) == ("anchored", [3, 4, 1, 2])
    assert expand((1,), pairs, view, 3) == [3, 4]
    with pytest.raises(general_trestle.InternalInvariantError, match="not at a path end"):
        expand((0, 1, 2), pairs + [(5, 6)], _cut_view({**view.shared, 5: [6], 6: [5]}), 3)
    # pairs that do not meet leave no orientation within distance 2
    with pytest.raises(general_trestle.InternalInvariantError, match="not within distance 2"):
        expand((0, 1), [(1, 2), (3, 5)], _cut_view({1: [2], 2: [1], 3: [5], 5: [3]}), None)


def test_path_branch_edges_are_the_square_cycle_away_from_c_and_the_dummy():
    # the dummy y, the cutvertex c and a branch path of m vertices, with
    # shuffled ids so that no edge comes out in order by accident
    rng = random.Random(15)
    norm = general_trestle._norm
    for m in range(2, 41):
        y, c, *path = rng.sample(range(100), m + 2)
        cycle = general_trestle._square_cycle([y, c, *path])
        edges = general_trestle._path_branch_edges(path)
        assert len(edges) == m - 1
        assert sorted(norm(*e) for e in edges) == [e for e in cycle if y not in e and c not in e]
        assert {e for e in cycle if y in e or c in e} == {
            norm(y, c),
            norm(y, path[0]),
            norm(c, path[1]),
        }
