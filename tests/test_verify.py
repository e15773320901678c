import hashlib
import json
import random

from trestles.graphs import Graph, complete_graph, path_graph, spider
from trestles.verify import TrestleCertificate, verify_trestle


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


# SHA-256 of the reports below, taken before the lowpoint DFS in the
# verifier lost its min() calls
BROKEN_REPORTS_DIGEST = "f1e21e6f694eebd1c7133e931280e2f24c46243bbf455bb9ac2e062481eba59a"


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
