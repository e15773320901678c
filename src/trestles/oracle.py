"""Ground-truth brute force searches and exhaustive enumeration.

Everything here answers by exhaustion: k-trestle existence, Hamilton
cycles in squares (the stand-in for the 2-connected existence theorem),
maximum independent sets, and one-per-isomorphism-class streams of free
trees and small 2-connected graphs.  Budgets make exhaustion explicit:
running out of nodes yields "exhausted", never a silent "none".
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .graphs import (
    DomainError,
    Graph,
    InternalInvariantError,
    Tree,
    is_two_connected,
    square,
)

FOUND = "found"
NONE = "none"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 2_000_000
    time_limit: float | None = None

    def tracker(self) -> "_BudgetTracker":
        return _BudgetTracker(self)


class _BudgetTracker:
    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.limit = budget.node_limit
        self.deadline = (
            time.monotonic() + budget.time_limit if budget.time_limit else None
        )

    def tick(self) -> bool:
        """Charge one search node; False when the budget is gone."""
        self.nodes += 1
        if self.nodes > self.limit:
            return False
        if self.deadline is not None and self.nodes % 4096 == 0:
            if time.monotonic() > self.deadline:
                return False
        return True


@dataclass(frozen=True)
class TrestleSearchResult:
    status: str
    edges: tuple[tuple[int, int], ...] | None = None


class SearchBudgetExhausted(DomainError):
    """A search ran out of its node or time budget before a verdict."""


class _OutOfBudget(Exception):
    pass


def _two_connected_quick(n: int, edge_set: set[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_set:
        adj[u].append(v)
        adj[v].append(u)
    if any(len(a) < 2 for a in adj):
        return False
    # single-root iterative lowpoint DFS; disconnection shows up as
    # unvisited vertices at the end
    disc = [-1] * n
    low = [0] * n
    timer = 0
    root_children = 0
    stack = [(0, -1, 0)]
    disc[0] = low[0] = timer
    timer += 1
    visited = 1
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
            elif w != parent:
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            if parent != -1:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if parent != 0 and low[v] >= disc[parent]:
                    return False
    return visited == n and root_children < 2


def brute_force_trestle(g: Graph, k: int, budget: SearchBudget | None = None) -> TrestleSearchResult:
    """Exhaustive search for a 2-connected spanning subgraph, max degree <= k.

    Branches vertex by vertex: when vertex v is processed, all edges to
    higher-id neighbours are decided at once, so v's final degree is
    known and can be range-checked.  Partial states are pruned when the
    chosen-plus-undecided graph is no longer 2-connected (necessary,
    since any completion is a subgraph of it).
    """
    if g.n < 3:
        raise DomainError("trestles need n >= 3")
    budget = budget or SearchBudget()
    tracker = budget.tracker()
    n = g.n
    higher = [tuple(w for w in g.adj[v] if w > v) for v in range(n)]
    chosen: set[tuple[int, int]] = set()
    degree = [0] * n

    def union_ok(next_v: int) -> bool:
        # chosen edges plus still-decidable edges must be 2-connected
        edges = set(chosen)
        for u in range(next_v, n):
            if degree[u] >= k:
                continue
            for w in higher[u]:
                if degree[w] < k:
                    edges.add((u, w))
        return _two_connected_quick(n, edges)

    def rec(v: int) -> tuple[tuple[int, int], ...] | None:
        if not tracker.tick():
            raise _OutOfBudget
        if v == n:
            if _two_connected_quick(n, chosen):
                return tuple(sorted(chosen))
            return None
        options = [w for w in higher[v] if degree[w] < k]
        lo = max(0, 2 - degree[v])
        hi = min(k - degree[v], len(options))
        if lo > hi:
            return None
        for size in range(lo, hi + 1):
            for combo in itertools.combinations(options, size):
                for w in combo:
                    chosen.add((v, w))
                    degree[v] += 1
                    degree[w] += 1
                if union_ok(v + 1):
                    result = rec(v + 1)
                    if result is not None:
                        return result
                for w in combo:
                    chosen.remove((v, w))
                    degree[v] -= 1
                    degree[w] -= 1
        return None

    try:
        found = rec(0)
    except _OutOfBudget:
        return TrestleSearchResult(EXHAUSTED)
    if found is None:
        return TrestleSearchResult(NONE)
    return TrestleSearchResult(FOUND, found)


def brute_force_trestle_by_degrees(g: Graph, k: int, budget: SearchBudget | None = None) -> TrestleSearchResult:
    """Independent second strategy: fix a degree sequence, then realize it.

    Enumerates target degrees in [2, k] per vertex (bounded by the host
    degree) and searches for an exact-degree spanning subgraph that is
    2-connected.  Meant for cross-checking "none" verdicts at small n.
    """
    if g.n < 3:
        raise DomainError("trestles need n >= 3")
    budget = budget or SearchBudget()
    tracker = budget.tracker()
    n = g.n
    higher = [tuple(w for w in g.adj[v] if w > v) for v in range(n)]

    def realize(targets: tuple[int, ...]) -> tuple[tuple[int, int], ...] | None:
        chosen: set[tuple[int, int]] = set()
        remaining = list(targets)

        def rec(v: int) -> tuple[tuple[int, int], ...] | None:
            if not tracker.tick():
                raise _OutOfBudget
            if v == n:
                if all(r == 0 for r in remaining) and _two_connected_quick(n, chosen):
                    return tuple(sorted(chosen))
                return None
            options = [w for w in higher[v] if remaining[w] > 0]
            need = remaining[v]
            if need > len(options):
                return None
            for combo in itertools.combinations(options, need):
                for w in combo:
                    chosen.add((v, w))
                    remaining[w] -= 1
                remaining[v] = 0
                result = rec(v + 1)
                if result is not None:
                    return result
                remaining[v] = need
                for w in combo:
                    chosen.remove((v, w))
                    remaining[w] += 1
            return None

        return rec(0)

    ranges = [range(2, min(k, g.degree(v)) + 1) for v in range(n)]
    if any(len(r) == 0 for r in ranges):
        return TrestleSearchResult(NONE)
    try:
        for targets in itertools.product(*ranges):
            if sum(targets) % 2:
                continue
            found = realize(targets)
            if found is not None:
                return TrestleSearchResult(FOUND, found)
    except _OutOfBudget:
        return TrestleSearchResult(EXHAUSTED)
    return TrestleSearchResult(NONE)


# ---------------------------------------------------------------------------
# Hamilton cycles.
# ---------------------------------------------------------------------------


def hamilton_cycle(g: Graph, budget: SearchBudget | None = None) -> list[int] | None:
    """Backtracking Hamilton cycle search; None means none exists.

    Raises SearchBudgetExhausted on exhausted budget so callers never
    mistake a cutoff for a verdict.
    """
    n = g.n
    if n < 3:
        return None
    budget = budget or SearchBudget()
    tracker = budget.tracker()
    masks = g.adjacency_masks()
    all_mask = (1 << n) - 1
    path = [0]
    used = 1

    def connected_enough(used_mask: int, tip: int) -> bool:
        # unvisited vertices plus the tip and the start must hang together
        free = all_mask & ~used_mask
        if free == 0:
            return True
        seed = free & masks[tip]
        if seed == 0:
            return False
        comp = seed & (-seed)
        while True:
            grow = comp
            m = comp
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                grow |= masks[v] & free
            if grow == comp:
                break
            comp = grow
        if comp != free:
            return False
        # the start vertex must stay reachable from the free region
        return bool(masks[0] & (free | (1 << path[-1])))

    def rec() -> bool:
        if not tracker.tick():
            raise _OutOfBudget
        nonlocal used
        tip = path[-1]
        if len(path) == n:
            return bool(masks[tip] & 1)
        if not connected_enough(used, tip):
            return False
        m = masks[tip] & ~used
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            path.append(v)
            used |= 1 << v
            if rec():
                return True
            path.pop()
            used &= ~(1 << v)
        return False

    try:
        if rec():
            return list(path)
    except _OutOfBudget:
        raise SearchBudgetExhausted("Hamilton search budget exhausted") from None
    return None


def fleischner_hamilton(g: Graph, budget: SearchBudget | None = None) -> list[int]:
    """Hamilton cycle of the square of a 2-connected graph.

    Existence is guaranteed for 2-connected inputs, so a fruitless
    exhaustive search indicates an implementation bug and is raised as
    such; a budget cutoff is raised as SearchBudgetExhausted.
    """
    if not is_two_connected(g):
        raise DomainError("input graph is not 2-connected")
    cycle = hamilton_cycle(square(g), budget)
    if cycle is None:
        raise InternalInvariantError(
            f"square of a 2-connected graph searched Hamilton-free: {g!r}"
        )
    return cycle


# ---------------------------------------------------------------------------
# Maximum independent set.
# ---------------------------------------------------------------------------


def max_independent_set(g: Graph) -> set[int]:
    """Exact maximum independent set by branch and bound (n <= 20)."""
    if g.n > 20:
        raise DomainError("independent-set oracle is guarded to n <= 20")
    masks = g.adjacency_masks()
    best: list[int] = []

    def rec(candidates: int, current: list[int]) -> None:
        nonlocal best
        if len(current) + bin(candidates).count("1") <= len(best):
            return
        if candidates == 0:
            if len(current) > len(best):
                best = list(current)
            return
        v = (candidates & -candidates).bit_length() - 1
        # branch: take v
        rec(candidates & ~masks[v] & ~(1 << v), current + [v])
        # branch: skip v
        rec(candidates & ~(1 << v), current)

    rec((1 << g.n) - 1, [])
    return set(best)


def independence_number(g: Graph) -> int:
    return len(max_independent_set(g))


# ---------------------------------------------------------------------------
# Exhaustive enumeration of unlabeled free trees.
# ---------------------------------------------------------------------------


def _rooted_level_sequences(n: int):
    """Beyer-Hedetniemi successor generation of rooted level sequences."""
    if n <= 0:
        return
    levels = list(range(n))
    yield tuple(levels)
    if n <= 2:
        return
    while True:
        p = n - 1
        while p >= 0 and levels[p] <= 1:
            p -= 1
        if p <= 0:
            return
        q = p - 1
        while levels[q] != levels[p] - 1:
            q -= 1
        for i in range(p, n):
            levels[i] = levels[i - (p - q)]
        yield tuple(levels)


def _levels_to_edges(levels: tuple[int, ...]) -> list[tuple[int, int]]:
    parent_at = {}
    edges = []
    for i, lev in enumerate(levels):
        if lev > 0:
            edges.append((parent_at[lev - 1], i))
        parent_at[lev] = i
    return edges


def _centroids(n: int, adj: list[list[int]]) -> list[int]:
    size = [1] * n
    parent = [-1] * n
    order = []
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    result = []
    for v in range(n):
        heaviest = n - size[v]
        for w in adj[v]:
            if parent[w] == v:
                heaviest = max(heaviest, size[w])
        if heaviest <= n // 2:
            result.append(v)
    return result


def _subtree_code(adj: list[list[int]], root: int, parent: int) -> str:
    subs = sorted(_subtree_code(adj, w, root) for w in adj[root] if w != parent)
    return "(" + "".join(subs) + ")"


def tree_canonical_form(t: Graph) -> Tree:
    """Canonical labelling: centroid root, children by subtree code, preorder ids."""
    n = t.n
    adj = [list(t.adj[v]) for v in range(n)]
    if n == 1:
        return Tree(1, [])
    root = min(_centroids(n, adj), key=lambda c: _subtree_code(adj, c, -1))

    new_id = {}
    edges = []

    def assign(v: int, parent: int) -> None:
        new_id[v] = len(new_id)
        kids = sorted(
            (w for w in adj[v] if w != parent),
            key=lambda w: _subtree_code(adj, w, v),
        )
        for w in kids:
            edges.append((new_id[v], len(new_id)))
            assign(w, v)

    assign(root, -1)
    return Tree(n, edges)


def enumerate_trees(n: int):
    """One canonically labelled representative per free tree on n vertices.

    Generated by rooted level-sequence succession with free-tree
    deduplication via centroid-rooted subtree codes.  1 <= n <= 16.
    """
    if not 1 <= n <= 16:
        raise DomainError("tree enumeration is guarded to 1 <= n <= 16")
    seen: set[str] = set()
    for levels in _rooted_level_sequences(n):
        edges = _levels_to_edges(levels)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        if n == 1:
            key = "()"
        else:
            key = min(
                _subtree_code(adj, c, -1) for c in _centroids(n, adj)
            )
        if key in seen:
            continue
        seen.add(key)
        yield tree_canonical_form(Graph(n, edges))


# ---------------------------------------------------------------------------
# Small 2-connected graphs, one per isomorphism class.
# ---------------------------------------------------------------------------


def enumerate_two_connected(max_n: int):
    """All 2-connected graphs with 3 <= n <= max_n (max_n <= 8), up to iso.

    Backed by the networkx graph atlas for n <= 7; the n = 8 layer is
    produced by vertex augmentation of connected 7-vertex graphs with
    VF2 deduplication.
    """
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    if max_n > 8:
        raise DomainError("2-connected enumeration is guarded to n <= 8")

    def to_graph(nxg) -> Graph:
        mapping = {v: i for i, v in enumerate(sorted(nxg.nodes()))}
        return Graph(
            nxg.number_of_nodes(),
            [(mapping[u], mapping[v]) for u, v in nxg.edges()],
        )

    atlas = graph_atlas_g()
    seven_connected = []
    for nxg in atlas:
        n = nxg.number_of_nodes()
        if n == 7 and nxg.number_of_edges() and nx.is_connected(nxg):
            seven_connected.append(nxg)
        if n < 3 or n > min(max_n, 7):
            continue
        g = to_graph(nxg)
        if is_two_connected(g):
            yield g
    if max_n < 8:
        return

    buckets: dict[tuple, list] = {}
    for base in seven_connected:
        base = nx.convert_node_labels_to_integers(base, ordering="sorted")
        nodes = list(base.nodes())
        for size in range(2, 8):
            for nbrs in itertools.combinations(nodes, size):
                cand = base.copy()
                cand.add_node(7)
                cand.add_edges_from((7, v) for v in nbrs)
                g = to_graph(cand)
                if not is_two_connected(g):
                    continue
                degseq = tuple(sorted(g.degree(v) for v in range(8)))
                tri = tuple(sorted(nx.triangles(cand).values()))
                key = (g.num_edges(), degseq, tri)
                bucket = buckets.setdefault(key, [])
                if any(nx.is_isomorphic(cand, other) for other in bucket):
                    continue
                bucket.append(cand)
                yield g
