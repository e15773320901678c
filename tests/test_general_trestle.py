import hashlib
import itertools
import json
import random
import sys

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
)

from trestles import general_trestle, graphs
from trestles.general_trestle import _bounded_alpha, build_general_trestle, path_square_cycle
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
from trestles.path_cover import linear_forest_for
from trestles.patterns import centres, is_spider_free
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

    def counting_close(self, comp, depth):
        closed.append(len(comp))
        close(self, comp, depth)

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
        for (k, edges, anchor), (alpha, paths) in lv.joins.items():
            contracted = Graph(k, edges)
            assert alpha == _bounded_alpha(contracted)
            assert paths == linear_forest_for(contracted, set(anchor)).paths
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


def test_bounded_alpha_matches_brute_force():
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(0, 11)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        alpha = max(
            size
            for size in range(n + 1)
            for combo in itertools.combinations(range(n), size)
            if not any(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2))
        )
        assert _bounded_alpha(g) == min(alpha, 4)
        assert _bounded_alpha(g, cap=2) == min(alpha, 2)


def test_pendant_clique_builds_a_hamilton_cycle():
    # K_100 with a pendant leaf on every vertex is S(K_{1,3})-free; its
    # one split joins 99 branches over a contracted pair graph K_99, where
    # trying every 4-subset for the alpha <= 3 check took seconds
    m = 100
    g = Graph(2 * m, list(complete_graph(m).edges()) + [(i, m + i) for i in range(m)])
    assert builder_matching(g).size() == 0
    cert = build_general_trestle(g, ())
    assert all(d == 2 for d in cert.degrees())
    assert len(cert.edge_list) == g.n


class _FullSearch:
    """Level hook: rebuilds each branch as a ``Graph`` from the shared
    adjacency and checks the view's neighbour lists, the re-tested
    centres and the inherited cutvertices against full searches."""

    def __init__(self):
        self.levels = 0
        self.inherited = 0
        self.retained = 0

    def __call__(self, adj, vs, view, found, cuts):
        inside = set(vs)
        index = {v: i for i, v in enumerate(vs)}
        for u in vs:
            assert view[u] == [w for w in adj[u] if w in inside]
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
    # instead and 5 loses the same arm as a neighbour of a dropped edge
    build_general_trestle(g, [(0, 9), (5, 6)])
    assert hook.levels == 5 and hook.retained == 0


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
