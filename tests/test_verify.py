import hashlib
import json
import random

from hypothesis import given, strategies as st

from trestles.graphs import Graph, complete_graph, path_graph, spider
from trestles.verify import TrestleCertificate, _adjacency, _biconnected, verify_trestle


def _cycle(edges_n):
    return [(i, (i + 1) % edges_n) for i in range(edges_n)]


def test_valid_certificate_passes():
    p = path_graph(5)
    cert = TrestleCertificate.of(p, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)], 2)
    report = verify_trestle(cert)
    assert report.passed()
    assert report.failed_checks() == []


def test_edge_outside_square_fails():
    p = path_graph(5)
    cert = TrestleCertificate.of(p, [(0, 4), (0, 2), (1, 3), (1, 2), (3, 4)], 2)
    report = verify_trestle(cert)
    assert "edges_in_square" in report.failed_checks()


def test_missing_vertex_fails_spanning():
    p = path_graph(5)
    cert = TrestleCertificate.of(p, [(0, 1), (1, 2), (0, 2)], 2)
    report = verify_trestle(cert)
    assert "spanning" in report.failed_checks()


def test_cutvertex_fails_two_connected():
    p = path_graph(5)
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
    report = verify_trestle(TrestleCertificate.of(p, edges, 3))
    assert "two_connected" in report.failed_checks()
    detail = [c for c in report.checks if c.check == "two_connected"][0].detail
    assert "cutvertex" in detail


def test_degree_cap():
    s = spider(3)
    # the full square exceeds degree 3 at the centre
    from trestles.graphs import square

    sq = square(s)
    report = verify_trestle(TrestleCertificate.of(s, sq.edges(), 3))
    assert "max_degree" in report.failed_checks()


def test_matching_condition_checked():
    s = spider(3)
    edges = [(0, 4), (1, 4), (0, 5), (2, 5), (0, 6), (3, 6), (1, 2), (2, 3)]
    # degree-3 vertices are 0 and 2
    good = verify_trestle(
        TrestleCertificate.of(s, edges, 3, matching_edges=[(0, 1), (2, 5)])
    )
    assert good.passed()
    bad = verify_trestle(
        TrestleCertificate.of(s, edges, 3, matching_edges=[(0, 1)])
    )
    assert "degree3_matched" in bad.failed_checks()


def _chorded_spider():
    """The spider S(K_{1,3}) with the legs 4 and 5 joined through 7, and
    a 3-trestle of its square with degree-3 vertices 0 and 1."""
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 7)])
    edges = [(0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 7), (2, 5), (3, 6), (4, 7)]
    return g, edges


def test_matching_must_be_a_matching_of_the_host():
    g, edges = _chorded_spider()
    assert verify_trestle(TrestleCertificate.of(g, edges, 3, matching_edges=[(0, 1)])).passed()
    # two non-edges that share vertex 6, two host edges that share 1, and
    # one host edge listed twice
    for matching in ([(0, 6), (1, 6)], [(0, 1), (1, 4)], [(0, 1), (0, 1)]):
        report = verify_trestle(TrestleCertificate.of(g, edges, 3, matching_edges=matching))
        assert report.failed_checks() == ["degree3_matched"]
        detail = [c for c in report.checks if c.check == "degree3_matched"][0].detail
        assert detail == f"pairs that are not a matching of the host: {matching}"
    # a non-edge alone fails too, and an unmatched vertex is named as well
    report = verify_trestle(TrestleCertificate.of(g, edges, 3, matching_edges=[(0, 7)]))
    detail = [c for c in report.checks if c.check == "degree3_matched"][0].detail
    assert detail == (
        "pairs that are not a matching of the host: [(0, 7)]; unmatched degree-3 vertices: [1]"
    )


def test_exact_degrees():
    p = path_graph(5)
    cert = TrestleCertificate.of(
        p,
        [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)],
        2,
        expected_degrees=[2, 2, 2, 2, 2],
    )
    assert verify_trestle(cert).passed()
    wrong = TrestleCertificate.of(
        p,
        [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)],
        2,
        expected_degrees=[3, 2, 2, 2, 1],
    )
    assert "exact_degrees" in verify_trestle(wrong).failed_checks()
    # a list too short for the host is a failure, not an IndexError
    edges = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]
    short = TrestleCertificate.of(p, edges, 2, expected_degrees=[2, 2, 2])
    report = verify_trestle(short)
    assert report.failed_checks() == ["exact_degrees"]
    assert report.checks[-1].detail == "degree mismatches at: [3, 4]"


def test_report_serialization():
    p = path_graph(5)
    cert = TrestleCertificate.of(p, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)], 2)
    rows = verify_trestle(cert).to_jsonable()
    assert all(set(r) == {"check", "pass", "detail"} for r in rows)


def test_edge_at_distance_three_fails():
    p = path_graph(4)
    report = verify_trestle(TrestleCertificate.of(p, [(0, 1), (1, 2), (2, 3), (0, 3)], 2))
    assert report.failed_checks() == ["edges_in_square"]
    detail = [c for c in report.checks if c.check == "edges_in_square"][0].detail
    assert detail == "offending edges: [(0, 3)]"


def test_repeated_edge_fails():
    # a repeated edge is not an edge of a simple graph
    p = path_graph(5)
    edges = ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (3, 4))
    report = verify_trestle(TrestleCertificate(p, edges, 3))
    assert report.failed_checks() == ["edges_in_square"]
    detail = [c for c in report.checks if c.check == "edges_in_square"][0].detail
    assert detail == "offending edges: [(3, 4)]"


def test_of_keeps_repeated_edges():
    # oriented and sorted, so a reversed repeat is a repeat too
    p = path_graph(5)
    cert = TrestleCertificate.of(p, [(1, 0), (0, 2), (1, 3), (2, 4), (4, 3), (3, 4)], 2)
    assert cert.edge_list == ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (3, 4))
    assert verify_trestle(cert).failed_checks() == ["edges_in_square", "max_degree"]


def test_large_star_certificate_verifies():
    # the square of a star is complete: any Hamilton cycle is a
    # 2-trestle, checked without listing the square's 2 * 10^8 edges
    leaves = 20000
    star = Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    report = verify_trestle(TrestleCertificate.of(star, _cycle(leaves + 1), 2))
    assert report.passed(), report.failed_checks()


def test_out_of_range_edges_fail_without_raising():
    p = path_graph(5)
    for stray in [(3, 9), (-1, 2), (5, 5)]:
        cert = TrestleCertificate.of(p, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), stray], 2)
        report = verify_trestle(cert)
        assert report.failed_checks() == ["edges_in_square"]
        detail = [c for c in report.checks if c.check == "edges_in_square"][0].detail
        assert str(tuple(sorted(stray))) in detail


def _broken_certificates():
    """Certificates on complete hosts, so that only the spanning,
    biconnectivity and degree checks can fail: fewer than 3 vertices,
    two cycles sharing a vertex, two disjoint cycles, a path, then
    seeded random edge sets."""
    shapes = [
        (1, []),
        (2, [(0, 1)]),
        (7, _cycle(4) + [(3, 4), (4, 5), (5, 6), (6, 3)]),
        (7, _cycle(3) + [(3, 4), (4, 5), (5, 6), (6, 3)]),
        (6, [(i, i + 1) for i in range(5)]),
    ]
    rng = random.Random(9)
    for _ in range(600):
        n = rng.randint(3, 12)
        p = rng.choice((0.15, 0.3, 0.5))
        shapes.append((n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]))
    return [TrestleCertificate.of(complete_graph(n), edges, 3) for n, edges in shapes]


# SHA-256 of the reports below, taken once the lowpoint DFS reported a
# graph that is not connected as such, never by a cutvertex of vertex
# 0's component
BROKEN_REPORTS_DIGEST = "f343811f2ab67a3ab07c1dea0fe7589f62dec4dcbc831b5cf626e3bedd132d28"


def test_broken_certificate_reports_are_pinned():
    reports = [verify_trestle(cert).to_jsonable() for cert in _broken_certificates()]
    why = {
        row["detail"].split(" ")[0]
        for report in reports
        for row in report
        if row["check"] == "two_connected"
    }
    assert {"fewer", "cutvertex", "not"} <= why
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == BROKEN_REPORTS_DIGEST


@st.composite
def edge_sets(draw):
    """A vertex count 3 <= n <= 12 and a random edge set on it, each pair
    kept with a drawn density between 1/8 and 3/4."""
    n = draw(st.integers(3, 12))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    density = draw(st.integers(1, 6))
    flags = draw(st.lists(st.integers(0, 7), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, f in zip(pairs, flags) if f < density]


def _reach(n, edges, start, gone=-1):
    """The vertices that ``start`` reaches once vertex ``gone`` is deleted."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if gone not in (u, v):
            adj[u].add(v)
            adj[v].add(u)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return seen


def test_disconnected_certificate_is_not_connected():
    # vertex 3 is unreached, and 1 would be a cutvertex of 0's component
    report = verify_trestle(TrestleCertificate.of(complete_graph(4), [(0, 1), (1, 2)], 3))
    detail = [c for c in report.checks if c.check == "two_connected"][0].detail
    assert detail == "not connected"


@given(edge_sets())
def test_biconnected_matches_vertex_deletion(graph):
    n, edges = graph
    ok, why = _biconnected(n, _adjacency(n, edges))
    connected = len(_reach(n, edges, 0)) == n
    survives = [len(_reach(n, edges, 1 if v == 0 else 0, v)) == n - 1 for v in range(n)]
    assert ok == (connected and all(survives))
    if why == "not connected":
        assert not connected
    elif not ok:
        # a cutvertex is named only in a connected graph, and deleting
        # it splits that graph
        word, p = why.split()
        assert word == "cutvertex" and connected
        assert not survives[int(p)]
