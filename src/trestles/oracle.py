"""Ground-truth brute force searches and exhaustive enumeration.

Everything here answers by exhaustion: k-trestle existence, Hamilton
cycles in squares (the stand-in for the 2-connected existence theorem),
maximum independent sets, and one-per-isomorphism-class streams of free
trees and small 2-connected graphs.  Each search returns its answer, or
None when none exists, and raises SearchBudgetExhausted when it runs
out of nodes, so a cutoff is never a silent "none".  A search numbers
its nodes from 1 and stops at the first number above ``node_limit``.

Free trees.  A level sequence lists a rooted tree's depths in preorder;
the canonical one of a rooted tree is the lexicographically largest
over the orders of children.  Beyer-Hedetniemi succession lists every
rooted tree once, by its canonical sequence, in descending order, so a
free tree T first appears as key(T), the largest canonical sequence
over its roots, and ``enumerate_trees`` yields the free trees by
descending key.  Only sequences that can be a key are coded:

1. A canonical sequence starts 0, 1, ..., h, h its height.  Each
   child's part of it is canonical too (else that part could grow),
   so by induction on the height it starts with a climb to the child's
   deepest level.  If a later child were deeper than the first, listing
   it first would give a larger sequence: the two listings agree until
   the first child's climb ends, where the deeper child climbs once
   more while the shallower one is followed by a vertex at most as
   deep.  So each vertex's first child is a deepest one, and following
   first children climbs straight to h.
2. A root r of larger height than r' gives the larger sequence: both
   start 0, ..., h(r') (by 1), and at position h(r') + 1 r's sequence
   has h(r') + 1 while the vertex after the deepest leaf of the r'
   climb is at most as deep.  So key(T) is rooted at a vertex of
   largest eccentricity, the diameter d, which is an end of a longest
   path and, for n >= 2, a leaf.  A leaf-rooted canonical sequence is
   0 followed by the canonical sequence of the rooted tree at the
   root's neighbour, one level down, and dropping the common 0 keeps
   the order; so the leaf-rooted sequences come, in succession order,
   from the succession on n - 1 vertices with its root at level 1.
3. The root of key(T) has height h = d.  Let x be the vertex at
   position h, the end of the climb.  A vertex w at position i > h
   meets the climb at its vertex on level m - 1, m the least level at
   positions h + 1..i, so dist(x, w) = h + level(w) - 2(m - 1), and
   this is at most h = d for every such w: level(w) <= 2(m - 1).
4. key(T) is at least the sequence rooted at x that lists the path
   back to r first, the rest canonically.  After position h, the r
   sequence next lists the deepest path vertex with another child, at
   level j_max, so position h + 1 holds j_max + 1; the x listing walks
   back from r and reaches first the path vertex nearest r with
   another child, at r-level j_min, whose child has x-level
   h - j_min + 1.  Both agree up to h, so j_max + 1 >= h - j_min + 1,
   and since j_min + 1 is the least level after position h, the first
   and the least level after position h add up to at least h + 2.

``_may_come_first`` applies the tests of 3 and 4 to the sequences of 2,
and every key passes both.  The survivors (about 1.45 per free tree at
n = 16) are coded and deduplicated as before, so the stream is the one
that coding every rooted sequence gives.
"""

from __future__ import annotations

import itertools

from .graphs import (
    DomainError,
    Graph,
    InternalInvariantError,
    SearchBudgetExhausted,
    Tree,
    articulation_points,
    as_tree,
    is_two_connected,
    square,
)

# the default node limit of every search below
_NODE_LIMIT = 2_000_000


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


def brute_force_trestle(
    g: Graph, k: int, node_limit: int = _NODE_LIMIT
) -> tuple[tuple[int, int], ...] | None:
    """Exhaustive search for a 2-connected spanning subgraph, max degree
    <= k: its sorted edges, or None if there is none.

    Branches vertex by vertex: when vertex v is processed, all edges to
    higher-id neighbours are decided at once, so v's final degree is
    known and can be range-checked.  Partial states are pruned when the
    chosen-plus-undecided graph is no longer 2-connected (necessary,
    since any completion is a subgraph of it).
    """
    if g.n < 3:
        raise DomainError("trestles need n >= 3")
    nodes = itertools.count(1)
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
        if next(nodes) > node_limit:
            raise SearchBudgetExhausted("trestle search budget exhausted")
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

    return rec(0)


def brute_force_trestle_by_degrees(
    g: Graph, k: int, node_limit: int = _NODE_LIMIT
) -> tuple[tuple[int, int], ...] | None:
    """Independent second strategy: fix a degree sequence, then realize it.

    Enumerates target degrees in [2, k] per vertex (bounded by the host
    degree) and searches for an exact-degree spanning subgraph that is
    2-connected.  Meant for cross-checking None verdicts at small n.
    """
    if g.n < 3:
        raise DomainError("trestles need n >= 3")
    nodes = itertools.count(1)
    n = g.n
    higher = [tuple(w for w in g.adj[v] if w > v) for v in range(n)]

    def realize(targets: tuple[int, ...]) -> tuple[tuple[int, int], ...] | None:
        chosen: set[tuple[int, int]] = set()
        remaining = list(targets)

        def rec(v: int) -> tuple[tuple[int, int], ...] | None:
            if next(nodes) > node_limit:
                raise SearchBudgetExhausted("trestle search budget exhausted")
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
    for targets in itertools.product(*ranges):
        if sum(targets) % 2 == 0:
            found = realize(targets)
            if found is not None:
                return found
    return None


# ---------------------------------------------------------------------------
# Hamilton cycles.
# ---------------------------------------------------------------------------


def hamilton_cycle(g: Graph, node_limit: int = _NODE_LIMIT) -> list[int] | None:
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
    nodes = itertools.count(1)
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
        if next(nodes) > node_limit:
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


def fleischner_hamilton(g: Graph, node_limit: int = _NODE_LIMIT) -> list[int]:
    """Hamilton cycle of the square of a 2-connected graph.

    Existence is guaranteed for 2-connected inputs, so a fruitless
    exhaustive search indicates an implementation bug and is raised as
    such; a budget cutoff is raised as SearchBudgetExhausted.
    """
    if not is_two_connected(g):
        raise DomainError("input graph is not 2-connected")
    cycle = hamilton_cycle(square(g), node_limit)
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


def _leaf_rooted_sequences(n: int):
    """The canonical level sequences of the rooted trees on n >= 2
    vertices whose root is a leaf, in descending lexicographic order:
    0, then Beyer-Hedetniemi successor generation on positions 1..n-1,
    where the root's one child sits at level 1."""
    levels = list(range(n))
    yield tuple(levels)
    while True:
        p = n - 1
        while p > 1 and levels[p] <= 2:
            p -= 1
        if p <= 1:
            return
        q = p - 1
        while levels[q] != levels[p] - 1:
            q -= 1
        for i in range(p, n):
            levels[i] = levels[i - (p - q)]
        yield tuple(levels)


def _may_come_first(levels: tuple[int, ...]) -> bool:
    """False if a leaf-rooted canonical level sequence cannot be its free
    tree's first in the succession (see the module docstring): its height
    h is below the diameter, or the rooting at the vertex at position h,
    with the path back to the root listed first, is larger."""
    h = max(levels)
    tail = levels[h + 1:]
    if not tail:
        return True
    if tail[0] + min(tail) < h + 2:
        return False
    # m is the least level since position h, whose vertex meets the
    # climb at the vertex on level m - 1; a new least level passes, as
    # every level after position h is at least 2
    m = h
    for lev in tail:
        if lev < m:
            m = lev
        elif lev + 2 > 2 * m:
            return False
    return True


def _tree_code(levels) -> str:
    """The least code of the tree that a preorder level sequence lists,
    rooted at a centroid (a vertex whose removal leaves no component
    with more than half the vertices).

    A rooted code is "(", the children's codes in ascending order, ")".
    Isomorphisms map centroids to centroids, and a rooted code spells
    its rooted tree (``_code_tree``), so two trees get the same code iff
    they are isomorphic.

    One forward pass finds parents and one reverse pass subtree sizes.
    The vertices with 2 * size >= n are the listed root's path down to
    the centroid c, then c's child c2 of size n/2 if the tree has a
    second centroid.  Every other vertex keeps its listed subtree, so a
    reverse pass codes it from its children; the path is then coded
    from the top, each path vertex taking the code of the part above it
    as one more child.  No step recurses.
    """
    n = len(levels)
    parent = [0] * n
    last = [0] * n  # last[l]: the latest vertex on level l so far
    for v in range(1, n):
        lev = levels[v]
        parent[v] = last[lev - 1]
        last[lev] = v
    size = [1] * n
    for v in range(n - 1, 0, -1):
        size[parent[v]] += size[v]
    kids: list[list[str]] = [[] for _ in range(n)]
    path = []
    for v in range(n - 1, -1, -1):
        if 2 * size[v] >= n:
            path.append(v)
        elif kids[v]:
            kids[v].sort()
            kids[parent[v]].append("(" + "".join(kids[v]) + ")")
        else:
            kids[parent[v]].append("()")
    path.reverse()
    c2 = path.pop() if 2 * size[path[-1]] == n else None
    up = None
    for a in path:
        if up is not None:
            kids[a].append(up)
        kids[a].sort()
        up = "(" + "".join(kids[a]) + ")"
    if c2 is None:
        return up
    # up codes c's half rooted at c; c2's half is kids[c2] under c2
    half = sorted(kids[c2])
    at_c = kids[path[-1]] + ["(" + "".join(half) + ")"]
    at_c.sort()
    half.append(up)
    half.sort()
    return min("(" + "".join(at_c) + ")", "(" + "".join(half) + ")")


def _code_tree(code: str) -> Tree:
    """The tree a code spells: each "(" opens the next id as a child of
    the innermost open vertex, each ")" closes it.

    Ids thus run in preorder from the root, children in ascending code
    order: the labelling "centroid root, children sorted by subtree
    code, preorder ids", since tied children have isomorphic subtrees.
    """
    parent = [0]
    open_ids = [0]
    for ch in code[1:]:
        if ch == ")":
            open_ids.pop()
        else:
            parent.append(open_ids[-1])
            open_ids.append(len(parent) - 1)
    return Tree.from_parents(parent)


def tree_canonical_form(t: Graph) -> Tree:
    """Canonical labelling: centroid root, children by subtree code, preorder ids."""
    adj = as_tree(t).adj
    levels = []
    stack = [(0, -1, 0)]  # (vertex, its parent, its level): a preorder from 0
    while stack:
        v, up, lev = stack.pop()
        levels.append(lev)
        stack.extend((w, v, lev + 1) for w in adj[v] if w != up)
    return _code_tree(_tree_code(levels))


def enumerate_trees(n: int):
    """One canonically labelled representative per free tree on n
    vertices, 1 <= n <= 16, in the order in which Beyer-Hedetniemi
    succession first lists them.

    Only the leaf-rooted sequences are listed, only those that pass
    ``_may_come_first`` are coded, and each code both deduplicates the
    stream and spells the representative.
    """
    if not 1 <= n <= 16:
        raise DomainError("tree enumeration is guarded to 1 <= n <= 16")
    if n == 1:
        yield _code_tree("()")
        return
    seen: set[str] = set()
    for levels in _leaf_rooted_sequences(n):
        if not _may_come_first(levels):
            continue
        code = _tree_code(levels)
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
