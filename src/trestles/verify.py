"""Independent verification of trestle certificates.

The checks recompute everything from the host graph: distance-2
adjacency, spanning, biconnectivity, degree caps, and the optional
matching / exact-degree side conditions.  None of the builder modules'
bookkeeping is reused, so a verifier pass is evidence, not an echo.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
        norm = tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))
        m = None
        if matching_edges is not None:
            m = tuple(sorted({(min(u, v), max(u, v)) for u, v in matching_edges}))
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


@dataclass(frozen=True)
class CheckResult:
    check: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, ok, detail))

    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed_checks(self) -> list[str]:
        return [c.check for c in self.checks if not c.ok]

    def to_jsonable(self) -> list[dict]:
        return [
            {"check": c.check, "pass": c.ok, "detail": c.detail}
            for c in self.checks
        ]


def _in_square(adj: list[set[int]], u: int, v: int) -> bool:
    """Whether (u, v), with u < v, is an edge of the host's square.

    Recomputed here on purpose; do not call the builder-side square().
    """
    if not 0 <= u < v < len(adj):
        return False
    return v in adj[u] or not adj[u].isdisjoint(adj[v])


def _biconnected(n: int, edges) -> tuple[bool, str]:
    if n < 3:
        return False, "fewer than 3 vertices"
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    # recursive-free lowpoint DFS from vertex 0
    disc = [-1] * n
    low = [0] * n
    stack = [(0, -1, 0)]
    disc[0] = low[0] = 0
    timer = 1
    visited = 1
    root_children = 0
    while stack:
        v, parent, idx = stack.pop()
        if idx < len(adj[v]):
            stack.append((v, parent, idx + 1))
            w = adj[v][idx]
            if disc[w] == -1:
                if v == 0:
                    root_children += 1
                disc[w] = low[w] = timer
                timer += 1
                visited += 1
                stack.append((w, v, 0))
            elif w != parent and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            if parent != -1:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if parent != 0 and low[v] >= disc[parent]:
                    return False, f"cutvertex {parent}"
    if visited != n:
        return False, "not connected"
    if root_children >= 2:
        return False, "cutvertex 0"
    return True, ""


def verify_trestle(cert: TrestleCertificate) -> VerificationReport:
    """Full check battery; every failure is a report entry, never a raise."""
    report = VerificationReport()
    host = cert.host
    adj = [set(nbrs) for nbrs in host.adj]
    bad = [e for e in cert.edge_list if not _in_square(adj, *e)]
    report.add(
        "edges_in_square",
        not bad,
        "" if not bad else f"offending edges: {bad[:5]}",
    )
    edges = cert.edge_list
    if bad:
        # an endpoint outside the host fails the check above; the other
        # checks see only the edges between host vertices
        edges = tuple((u, v) for u, v in edges if 0 <= u < host.n and 0 <= v < host.n)
    degs = _degrees(host.n, edges)
    isolated = [v for v in range(host.n) if degs[v] == 0]
    report.add(
        "spanning",
        host.n >= 3 and not isolated,
        "" if not isolated else f"untouched vertices: {isolated[:5]}",
    )
    ok, why = _biconnected(host.n, edges)
    report.add("two_connected", ok, why)
    over = [v for v in range(host.n) if degs[v] > cert.k]
    report.add(
        "max_degree",
        not over,
        "" if not over else f"degree > k at: {over[:5]}",
    )
    if cert.matching_edges is not None:
        covered = {v for e in cert.matching_edges for v in e}
        unmatched3 = [v for v in range(host.n) if degs[v] == 3 and v not in covered]
        report.add(
            "degree3_matched",
            not unmatched3,
            "" if not unmatched3 else f"unmatched degree-3 vertices: {unmatched3[:5]}",
        )
    if cert.expected_degrees is not None:
        wrong = [
            v
            for v in range(host.n)
            if degs[v] != cert.expected_degrees[v]
        ]
        report.add(
            "exact_degrees",
            not wrong,
            "" if not wrong else f"degree mismatches at: {wrong[:5]}",
        )
    return report
