"""Ground-truth brute force searches and exhaustive enumeration.

Everything here answers by exhaustion: k-trestle existence, Hamilton
cycles in squares (the stand-in for the 2-connected existence theorem),
maximum independent sets, and one-per-isomorphism-class streams of free
trees and small 2-connected graphs.  Budgets make exhaustion explicit:
running out of nodes yields "exhausted", never a silent "none".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (
    DomainError,
    Graph,
    InternalInvariantError,
    Tree,
    articulation_points,
    is_two_connected,
    square,
)

FOUND = "found"
NONE = "none"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 2_000_000

    def tracker(self) -> "_BudgetTracker":
        return _BudgetTracker(self)


class _BudgetTracker:
    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.limit = budget.node_limit

    def tick(self) -> bool:
        """Charge one search node; False when the budget is gone."""
        self.nodes += 1
        return self.nodes <= self.limit


@dataclass(frozen=True)
class TrestleSearchResult:
    status: str
    edges: tuple[tuple[int, int], ...] | None = None


class SearchBudgetExhausted(DomainError):
    """A search ran out of its node budget before a verdict."""


class _OutOfBudget(Exception):
    pass


def _two_connected(n: int, edges) -> bool:
    """2-connectivity of the graph on 0..n-1 (n >= 3) with these edges:
    minimum degree 2, and one lowpoint DFS from vertex 0 that reaches
    every vertex and finds no articulation point."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if any(len(a) < 2 for a in adj):
        return False
    disc = [-1] * n
    return not articulation_points([0], adj, disc, [0] * n) and -1 not in disc


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
        return _two_connected(n, edges)

    def rec(v: int) -> tuple[tuple[int, int], ...] | None:
        if not tracker.tick():
            raise _OutOfBudget
        if v == n:
            if _two_connected(n, chosen):
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
                if all(r == 0 for r in remaining) and _two_connected(n, chosen):
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

    Extends a path from vertex 0 by the tip's unvisited neighbours in
    ascending order, one budget node per path, on explicit stacks so
    long cycles do not recurse.  A path whose unvisited rest does not
    hang together with its tip and vertex 0 is abandoned.

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

    def connected_enough(used_mask: int, tip: int) -> bool:
        # unvisited vertices plus the tip and the start must hang together
        free = all_mask & ~used_mask
        if free == 0:
            return True
        seed = free & masks[tip]
        if seed == 0:
            return False
        comp = frontier = seed & (-seed)
        while frontier:
            grow = 0
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                grow |= masks[v]
            frontier = grow & free & ~comp
            comp |= frontier
        if comp != free:
            return False
        # the start vertex must stay reachable from the free region
        return bool(masks[0] & (free | (1 << tip)))

    path = [0]
    used = 1
    untried: list[int] = []  # per path vertex, the extensions not yet tried
    while True:
        if not tracker.tick():
            raise SearchBudgetExhausted("Hamilton search budget exhausted")
        tip = path[-1]
        if len(path) == n:
            if masks[tip] & 1:
                return path
            untried.append(0)
        else:
            untried.append(masks[tip] & ~used if connected_enough(used, tip) else 0)
        while not untried[-1]:
            untried.pop()
            used &= ~(1 << path.pop())
            if not untried:
                return None
        m = untried[-1]
        untried[-1] = m & (m - 1)
        v = (m & -m).bit_length() - 1
        path.append(v)
        used |= 1 << v


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


def _level_adjacency(levels: tuple[int, ...]) -> list[list[int]]:
    """Neighbour lists of the rooted tree a level sequence lists in preorder."""
    adj: list[list[int]] = [[] for _ in levels]
    parent_at = {}
    for v, lev in enumerate(levels):
        if lev > 0:
            adj[v].append(parent_at[lev - 1])
            adj[parent_at[lev - 1]].append(v)
        parent_at[lev] = v
    return adj


def _bfs_order(adj, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from ``root``, and each vertex's parent."""
    parent = [-1] * len(adj)
    parent[root] = root
    order = [root]
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    return order, parent


def _rooted_code(adj, root: int) -> str:
    """The code of a rooted tree: "(", the children's codes in ascending
    order, ")".  Built bottom-up over a breadth-first order, so deep
    trees do not recurse."""
    order, parent = _bfs_order(adj, root)
    kids: list = [[] for _ in adj]
    for v in reversed(order):
        code = "(" + "".join(sorted(kids[v])) + ")"
        kids[v] = None  # held by the parent's code from here on
        if v != root:
            kids[parent[v]].append(code)
    return code


def _tree_code(adj) -> str:
    """The least code of the tree rooted at a centroid (a vertex whose
    removal leaves no component with more than half the vertices).

    Isomorphisms map centroids to centroids, and a rooted code spells
    its rooted tree (``_code_tree``), so two trees get the same code iff
    they are isomorphic.
    """
    n = len(adj)
    order, parent = _bfs_order(adj, 0)
    size, heaviest = [1] * n, [0] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
        heaviest[parent[v]] = max(heaviest[parent[v]], size[v])
    return min(_rooted_code(adj, c) for c in range(n) if max(heaviest[c], n - size[c]) <= n // 2)


def _code_tree(code: str) -> Tree:
    """The tree a code spells: each "(" opens the next id as a child of
    the innermost open vertex, each ")" closes it.

    Ids thus run in preorder from the root, children in ascending code
    order: the labelling "centroid root, children sorted by subtree
    code, preorder ids", since tied children have isomorphic subtrees.
    """
    edges: list[tuple[int, int]] = []
    open_ids = [0]
    for ch in code[1:]:
        if ch == ")":
            open_ids.pop()
        else:
            edges.append((open_ids[-1], len(edges) + 1))
            open_ids.append(len(edges))
    return Tree(len(edges) + 1, edges)


def tree_canonical_form(t: Graph) -> Tree:
    """Canonical labelling: centroid root, children by subtree code, preorder ids."""
    return _code_tree(_tree_code(t.adj))


def enumerate_trees(n: int):
    """One canonically labelled representative per free tree on n vertices.

    Rooted level sequences come in Beyer-Hedetniemi succession; each
    one's free-tree code both deduplicates the stream and spells the
    representative.  1 <= n <= 16.
    """
    if not 1 <= n <= 16:
        raise DomainError("tree enumeration is guarded to 1 <= n <= 16")
    seen: set[str] = set()
    for levels in _rooted_level_sequences(n):
        code = _tree_code(_level_adjacency(levels))
        if code not in seen:
            seen.add(code)
            yield _code_tree(code)


# ---------------------------------------------------------------------------
# Small 2-connected graphs, one per isomorphism class.
# ---------------------------------------------------------------------------


def _mask_edges(masks) -> list[tuple[int, int]]:
    return [(u, v) for v in range(len(masks)) for u in range(v) if masks[v] >> u & 1]


def _refine(nbrs: list[list[int]], colour: list[int]) -> list[int]:
    """Colour refinement: recolour every vertex by the rank of (its
    colour, its number of neighbours in each colour) until no cell splits."""
    n = len(nbrs)
    width = n.bit_length()  # bits per count; counts stay below n
    while True:
        sig = [colour[v] << (width * n) | sum(1 << (width * colour[w]) for w in nbrs[v]) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        if len(rank) == len(set(colour)):
            return colour
        colour = [rank[s] for s in sig]


def _canonical_masks(masks) -> tuple[int, ...]:
    """Canonical form of a graph given by neighbour bitmasks: the least
    relabelled copy over the leaves of an individualisation-refinement
    search, as the copy's bitmasks.

    A node refines its colouring.  While some cell has several vertices,
    each vertex v of the smallest such cell (lowest colour on ties) is
    one child, where v takes a colour of its own just below the rest of
    its cell.  A discrete colouring is a relabelling.  Refinement, the
    cell choice and the new colours read only colours and adjacency,
    never ids, so relabelling the input by p maps the search onto that
    of the relabelled input, leaf to leaf with equal relabelled copies:
    the least copy is the same for isomorphic graphs and, being a copy,
    differs for non-isomorphic ones.  A vertex that is a twin (same
    neighbours apart from each other) of one already branched on in its
    cell is skipped: swapping the two is an automorphism that fixes the
    colouring, so both branches reach the same copies.
    """
    n = len(masks)
    nbrs = [[w for w in range(n) if m >> w & 1] for m in masks]
    leaves = []
    stack = [_refine(nbrs, [0] * n)]
    while stack:
        colour = stack.pop()
        cells = [(colour.count(c), c) for c in set(colour) if colour.count(c) > 1]
        if not cells:
            by_label = sorted(range(n), key=colour.__getitem__)
            leaves.append(tuple(sum(1 << colour[w] for w in nbrs[v]) for v in by_label))
            continue
        c = min(cells)[1]
        branched: list[int] = []
        for v in range(n):
            if colour[v] == c and all(masks[v] & ~(1 << u) != masks[u] & ~(1 << v) for u in branched):
                branched.append(v)
                stack.append(_refine(nbrs, [x + (x > c or (x == c and u != v)) for u, x in enumerate(colour)]))
    return min(leaves)


def enumerate_two_connected(max_n: int):
    """All 2-connected graphs with 3 <= n <= max_n (max_n <= 8), up to
    iso, in canonical form, layer by layer in order of their codes.

    Layer n joins a new vertex to each nonempty subset of each connected
    graph on n - 1 vertices and keeps one graph per ``_canonical_masks``
    form; the last layer keeps only 2-connected graphs.  A connected
    graph arises from itself minus a leaf of a spanning tree, a
    2-connected one from itself minus any vertex.
    """
    if max_n > 8:
        raise DomainError("2-connected enumeration is guarded to n <= 8")
    layer = {(0,)}
    for n in range(2, max_n + 1):
        last, new = n == max_n, 1 << (n - 1)
        grown = set()
        for base in layer:
            for nbhd in range(1, new):
                masks = [m | new if nbhd >> v & 1 else m for v, m in enumerate(base)] + [nbhd]
                if not last or _two_connected(n, _mask_edges(masks)):
                    grown.add(_canonical_masks(masks))
        for masks in sorted(grown):
            edges = _mask_edges(masks)
            if n >= 3 and (last or _two_connected(n, edges)):
                yield Graph(n, edges)
        layer = grown
