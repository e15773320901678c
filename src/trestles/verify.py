"""Independent verification of trestle certificates.

The checks recompute everything from the host graph: distance-2
adjacency, spanning, biconnectivity, degree caps, and the optional
matching / exact-degree side conditions.  None of the builder modules'
bookkeeping is reused, so a verifier pass is evidence, not an echo.

Each certificate edge is tested against the host's neighbour sets, and
the certificate's neighbour lists, built once, give the degrees and
feed the lowpoint DFS.  The DFS keeps (vertex, parent, neighbour
iterator) frames on an explicit stack; a frame resumes its iterator
where it stopped, so vertices are met in the order of the recursive
search and the first cutvertex reported is the one an index-based or
recursive search would report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .graphs import Graph


def _degrees(n: int, edges) -> list[int]:
    degs = [0] * n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    return degs


@dataclass(frozen=True)
class TrestleCertificate:
    """A claimed k-trestle of the square of ``host``."""

    host: Graph
    edge_list: tuple[tuple[int, int], ...]
    k: int
    matching_edges: tuple[tuple[int, int], ...] | None = None
    expected_degrees: tuple[int, ...] | None = None

    @staticmethod
    def of(host, edges, k, matching_edges=None, expected_degrees=None):
        norm = tuple(sorted({(u, v) if u < v else (v, u) for u, v in edges}))
        m = None
        if matching_edges is not None:
            m = tuple(sorted({(u, v) if u < v else (v, u) for u, v in matching_edges}))
        e = tuple(expected_degrees) if expected_degrees is not None else None
        return TrestleCertificate(host, norm, k, m, e)

    def degrees(self) -> list[int]:
        """Degrees in the certificate; every endpoint must be a host vertex."""
        return _degrees(self.host.n, self.edge_list)

    def to_jsonable(self) -> dict:
        data = {
            "k": self.k,
            "n": self.host.n,
            "edges": [list(e) for e in self.edge_list],
            "degrees": self.degrees(),
        }
        if self.matching_edges is not None:
            data["matching"] = [list(e) for e in self.matching_edges]
        return data


class CheckResult(NamedTuple):
    check: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed_checks(self) -> list[str]:
        return [c.check for c in self.checks if not c.ok]

    def to_jsonable(self) -> list[dict]:
        return [
            {"check": c.check, "pass": c.ok, "detail": c.detail}
            for c in self.checks
        ]


def _adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _biconnected(n: int, adj: list[list[int]]) -> tuple[bool, str]:
    """Whether the graph with neighbour lists ``adj`` is 2-connected, and
    if not, why: fewer than 3 vertices, not connected, or the first
    cutvertex the DFS meets."""
    if n < 3:
        return False, "fewer than 3 vertices"
    # lowpoint DFS from vertex 0 on (vertex, parent, iterator) frames
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    timer = 1
    root_children = 0
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent, nbrs = stack[-1]
        for w in nbrs:
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if parent == 0:
                root_children += 1
            if parent > 0:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    return False, f"cutvertex {parent}"
    if timer != n:
        return False, "not connected"
    if root_children >= 2:
        return False, "cutvertex 0"
    return True, ""


def verify_trestle(cert: TrestleCertificate) -> VerificationReport:
    """Full check battery; every failure is a report entry, never a raise."""
    n, k, edges = cert.host.n, cert.k, cert.edge_list
    # the square, recomputed here on purpose (never the builder-side
    # square()): u < v are joined in it when v is a neighbour of u or
    # the two share one.  An edge listed twice is not an edge of a
    # simple graph, so it fails too.
    near = list(map(set, cert.host.adj))
    bad = [
        (u, v)
        for u, v in edges
        if not (0 <= u < v < n and (v in near[u] or not near[u].isdisjoint(near[v])))
    ]
    if len(set(edges)) != len(edges):
        seen: set[tuple[int, int]] = set()
        for e in edges:
            if e in seen:
                bad.append(e)
            seen.add(e)
    checks = [
        CheckResult("edges_in_square", not bad, f"offending edges: {bad[:5]}" if bad else "")
    ]
    if bad:
        # an endpoint outside the host fails the check above; the other
        # checks see only the edges between host vertices
        edges = tuple((u, v) for u, v in edges if 0 <= u < n and 0 <= v < n)
    adj = _adjacency(n, edges)
    degs = list(map(len, adj))
    # each list below is built only when a quick test finds an entry
    isolated = [v for v in range(n) if degs[v] == 0] if 0 in degs else []
    checks.append(
        CheckResult(
            "spanning",
            n >= 3 and not isolated,
            f"untouched vertices: {isolated[:5]}" if isolated else "",
        )
    )
    checks.append(CheckResult("two_connected", *_biconnected(n, adj)))
    over = [v for v in range(n) if degs[v] > k] if max(degs, default=0) > k else []
    checks.append(
        CheckResult("max_degree", not over, f"degree > k at: {over[:5]}" if over else "")
    )
    if cert.matching_edges is not None:
        covered = {v for e in cert.matching_edges for v in e}
        unmatched3 = [v for v in range(n) if degs[v] == 3 and v not in covered]
        checks.append(
            CheckResult(
                "degree3_matched",
                not unmatched3,
                f"unmatched degree-3 vertices: {unmatched3[:5]}" if unmatched3 else "",
            )
        )
    if cert.expected_degrees is not None:
        expected = cert.expected_degrees
        wrong = []
        if tuple(degs) != expected:
            # a vertex past the end of a short list has no expected degree
            wrong = [v for v in range(n) if v >= len(expected) or degs[v] != expected[v]]
        checks.append(
            CheckResult(
                "exact_degrees",
                not wrong,
                f"degree mismatches at: {wrong[:5]}" if wrong else "",
            )
        )
    return VerificationReport(checks)
