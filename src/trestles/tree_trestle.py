"""Decide and build bounded-degree 2-connected spanning subgraphs of tree squares.

The decision procedure is the leaf-to-root arc-assignment pass of
``matching_flow.feasible_assignment``.  The builder turns a feasible
assignment into a certificate whose vertex degrees are exactly
o(v) + max{2, n(v)}, in one pass over the tree with no recursion.  Call
x a pivot when n(x) >= 3.  The certificate is the union of two parts:

* a hub tree for every pivot x: ``realize_degree_tree`` on N(x), with
  the non-leaves before the leaves, each in id order, and the degree
  a(u, x) + 1 for a non-leaf u, a(u, x) + 2 for a leaf u;
* a piece cycle for every component of the tree minus the pivots and
  their leaves.  The component, together with a copy of each adjacent
  pivot carrying a dummy leaf, is a caterpillar; the piece cycle is the
  Harary–Schwenk Hamilton cycle of its square minus the two edges at
  each dummy.

Two adjacent pivots would give the piece dummy-pivot-pivot-dummy, whose
cycle has no edge without a dummy, so such pieces are skipped.  Arcs
into a non-pivot carry 0, so a pivot gets one edge from each piece it
borders and a(p, x) + 1 from the hub tree of each adjacent pivot x,
which adds up to the degree law.  The Harary–Schwenk cycle of a path is
``path_square_cycle``'s cycle.
"""

from __future__ import annotations

from .graphs import DomainError, InternalInvariantError, Tree
from .matching_flow import ArcAssignment, demands_met, feasible_assignment
from .patterns import tree_profile
from .verify import TrestleCertificate, verify_trestle


def decide_tree_trestle(t: Tree, k: int) -> ArcAssignment | None:
    """Feasible assignment iff square(t) has a k-trestle; None otherwise."""
    return feasible_assignment(t, k)


def realize_degree_tree(degrees: list[int]) -> Tree:
    """A tree on len(degrees) vertices with exactly these degrees.

    Deterministic: vertices of degree >= 2 are chained in id order, then
    degree-1 vertices are attached to the earliest hub with remaining
    demand.
    """
    m = len(degrees)
    if m < 2:
        raise DomainError("need at least two vertices")
    if any(d < 1 for d in degrees) or sum(degrees) != 2 * (m - 1):
        raise DomainError("degree sequence is not realizable as a tree")
    hubs = [v for v in range(m) if degrees[v] >= 2]
    leaves = [v for v in range(m) if degrees[v] == 1]
    edges = []
    remaining = list(degrees)
    for a, b in zip(hubs, hubs[1:]):
        edges.append((a, b))
        remaining[a] -= 1
        remaining[b] -= 1
    if not hubs:
        # only possible shape: a single edge
        return Tree(2, [(0, 1)])
    hub_iter = iter(hubs)
    hub = next(hub_iter)
    for leaf in leaves:
        while remaining[hub] == 0:
            hub = next(hub_iter)
        edges.append((min(hub, leaf), max(hub, leaf)))
        remaining[hub] -= 1
    if any(remaining[v] != (1 if degrees[v] == 1 else 0) for v in range(m)):
        raise InternalInvariantError("degree-tree realization bookkeeping failed")
    return Tree(m, edges)


def _piece_cycle(spine: list[int], hairs: list[list[int]], n: int) -> list[tuple[int, int]]:
    """Harary–Schwenk cycle of a caterpillar square, minus dummy edges.

    ``spine`` runs over the non-leaf vertices in path order and
    ``hairs[i]`` holds the leaves of ``spine[i]`` in id order; ids >= n
    are dummies.  The cycle runs from the lowest-id leaf at a spine end,
    s_0, along the spine s_0 ... s_m to a leaf s_m at the other end,
    visiting the even s_i and the hairs of the odd s_i, and comes back
    over the odd s_i and the hairs of the even s_i; consecutive vertices
    are at distance at most 2.
    """
    if len(spine) == 1:
        first, last = hairs[0][0], hairs[0][1]
    else:
        first, last = hairs[0][0], hairs[-1][0]
        if last < first:
            spine, hairs = spine[::-1], hairs[::-1]
            first, last = last, first
    hairs = [list(h) for h in hairs]
    hairs[0].remove(first)
    hairs[-1].remove(last)
    forward = [first]
    back: list[int] = []
    for i, (s, hs) in enumerate(zip(spine, hairs), start=1):
        if i % 2:
            forward.extend(hs)
            back.append(s)
        else:
            forward.append(s)
            back.extend(hs)
    (forward if len(spine) % 2 else back).append(last)
    cycle = forward + back[::-1]
    return [
        (u, v) if u < v else (v, u)
        for u, v in zip(cycle, cycle[1:] + cycle[:1])
        if u < n and v < n
    ]


def _build_edges(t: Tree, a: ArcAssignment, is_pivot: list[bool]) -> set[tuple[int, int]]:
    """Hub trees of the pivots plus the cycles of the pivot-free pieces."""
    n, adj, values = t.n, t.adj, a.values
    is_leaf = [len(nbrs) == 1 for nbrs in adj]
    result: set[tuple[int, int]] = set()

    for x in range(n):
        if not is_pivot[x]:
            continue
        ordered = [u for u in adj[x] if not is_leaf[u]] + [u for u in adj[x] if is_leaf[u]]
        hub_tree = realize_degree_tree(
            [values.get((u, x), 0) + (2 if is_leaf[u] else 1) for u in ordered]
        )
        for p, q in hub_tree.edges():
            gp, gq = ordered[p], ordered[q]
            result.add((gp, gq) if gp < gq else (gq, gp))

    # each piece's spine is a pivot copy, a path of non-pivot non-leaves,
    # and another pivot copy, either copy possibly missing; the walk
    # starts the path at an end, a vertex with at most one inner neighbour
    inner = [
        [] if is_leaf[v] or is_pivot[v]
        else [w for w in adj[v] if not is_leaf[w] and not is_pivot[w]]
        for v in range(n)
    ]
    seen = [False] * n
    for v in range(n):
        if seen[v] or is_leaf[v] or is_pivot[v] or len(inner[v]) > 1:
            continue
        path = [v]
        seen[v] = True
        prev = -1
        while True:
            nxt = [w for w in inner[path[-1]] if w != prev]
            if not nxt:
                break
            prev = path[-1]
            path.append(nxt[0])
            seen[nxt[0]] = True
        head = [w for w in adj[path[0]] if is_pivot[w]]
        if len(path) == 1:
            head, tail = head[:1], head[1:]
        else:
            tail = [w for w in adj[path[-1]] if is_pivot[w]]
        spine = head + path + tail
        hairs = (
            [[n + p] for p in head]
            + [[w for w in adj[u] if is_leaf[w]] for u in path]
            + [[n + p] for p in tail]
        )
        result.update(_piece_cycle(spine, hairs, n))
    return result


def build_tree_trestle(t: Tree, k: int, a: ArcAssignment) -> TrestleCertificate:
    """Certificate with deg(v) = o(v) + max{2, n(v)}, verified before return."""
    if k < 2 or t.n < 3:
        raise DomainError("need k >= 2 and n >= 3")
    if a.tree is not t and a.tree != t:
        raise DomainError("assignment belongs to a different tree")
    counts = tree_profile(t).non_leaf_neighbours
    ins, outs = a.arc_sums()
    if not demands_met(k, counts, ins, outs):
        raise DomainError("assignment does not satisfy the demand system")
    expected = [o + max(2, c) for o, c in zip(outs, counts)]
    edges = _build_edges(t, a, [c >= 3 for c in counts])
    cert = TrestleCertificate.of(t, edges, k, expected_degrees=expected)
    report = verify_trestle(cert)
    if not report.passed():
        raise InternalInvariantError(
            f"built tree trestle failed verification: {report.failed_checks()}"
        )
    return cert
