import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, strategies as st

from helpers import (
    builder_matching,
    chorded_host_corpus,
    frame_depth,
    matched_spider_free_instances,
    path_ordered_comb,
    prufer_trees,
    sprinkle_chords,
)

from trestles.general_trestle import _bounded_alpha, build_general_trestle, path_square_cycle
from trestles.graphs import (
    DomainError,
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    spider,
    square,
)
from trestles.matching_flow import theorem1_matching
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
