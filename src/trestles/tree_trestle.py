"""Decide and build bounded-degree 2-connected spanning subgraphs of tree squares.

The decision procedure is the leaf-to-root arc-assignment pass of
``matching_flow.feasible_assignment``; the builder turns a feasible
assignment into a certificate whose vertex degrees are exactly
o(v) + max{2, n(v)}, by recursing on the branch trees hanging off a
pivot vertex with at least three non-leaf neighbours and gluing the
sub-certificates together with a degree-prescribed tree on the pivot's
neighbourhood.
"""

from __future__ import annotations

from .graphs import DomainError, InternalInvariantError, Tree, components
from .matching_flow import ArcAssignment, feasible_assignment
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


def _restricted_assignment(
    t: Tree, a: ArcAssignment, comp: list[int], pivot: int, gateway: int
) -> tuple[Tree, ArcAssignment, dict[int, int], int, int]:
    """Branch tree for one non-leaf neighbour of the pivot.

    Returns (branch tree, restricted assignment, old->new map, local
    pivot id, local dummy id).  The dummy leaf keeps the pivot a
    non-leaf inside the branch, exactly mirroring its role in the whole
    tree.
    """
    old = sorted(comp) + [pivot]
    old.sort()
    index = {v: i for i, v in enumerate(old)}
    dummy = len(old)
    edges = [
        (index[u], index[v])
        for u, v in t.edges()
        if u in index and v in index
    ]
    edges.append((index[pivot], dummy))
    branch = Tree(len(old) + 1, edges)
    restricted = ArcAssignment(branch)
    comp_set = set(comp)
    for (u, v), value in a.values.items():
        if u in comp_set and v in comp_set:
            restricted.set_value(index[u], index[v], value)
    # the pivot keeps its outgoing value towards the gateway; everything
    # else touching pivot or dummy is zero
    out_value = a.value(pivot, gateway)
    if out_value:
        restricted.set_value(index[pivot], index[gateway], out_value)
    return branch, restricted, index, index[pivot], dummy


def _build_edges(t: Tree, k: int, a: ArcAssignment) -> set[tuple[int, int]]:
    profile = tree_profile(t)
    pivots = [v for v in range(t.n) if profile.n(v) >= 3]
    if not pivots:
        # caterpillar case: all in-demands are zero, so the assignment is
        # identically zero and the result is a Hamilton cycle
        if a.values:
            raise InternalInvariantError("non-zero assignment on a caterpillar")
        from .general_trestle import build_general_trestle

        cert = build_general_trestle(t, ())
        return set(cert.edge_list)

    x = pivots[0]
    nbrs = list(t.adj[x])
    non_leaves = [u for u in nbrs if t.degree(u) >= 2]
    leaves = [u for u in nbrs if t.degree(u) == 1]
    ordered = non_leaves + leaves

    comps = components(t, removed={x})
    comp_of = {}
    for comp in comps:
        for v in comp:
            comp_of[v] = comp

    result: set[tuple[int, int]] = set()
    for u in non_leaves:
        branch, restricted, index, _, dummy = _restricted_assignment(
            t, a, comp_of[u], x, u
        )
        if not restricted.satisfies_demands(k):
            raise InternalInvariantError("restricted assignment broke the demand system")
        sub_edges = _build_edges(branch, k, restricted)
        back = {i: v for v, i in index.items()}
        for p, q in sub_edges:
            if p == dummy or q == dummy:
                continue
            gp, gq = back[p], back[q]
            result.add((min(gp, gq), max(gp, gq)))

    degrees = [
        a.value(u, x) + (1 if t.degree(u) >= 2 else 2) for u in ordered
    ]
    hub_tree = realize_degree_tree(degrees)
    for p, q in hub_tree.edges():
        gp, gq = ordered[p], ordered[q]
        result.add((min(gp, gq), max(gp, gq)))
    return result


def build_tree_trestle(t: Tree, k: int, a: ArcAssignment) -> TrestleCertificate:
    """Certificate with deg(v) = o(v) + max{2, n(v)}, verified before return."""
    if k < 2 or t.n < 3:
        raise DomainError("need k >= 2 and n >= 3")
    if a.tree is not t and a.tree != t:
        raise DomainError("assignment belongs to a different tree")
    if not a.satisfies_demands(k):
        raise DomainError("assignment does not satisfy the demand system")
    profile = tree_profile(t)
    expected = [
        a.out_sum(v) + max(2, profile.n(v)) for v in range(t.n)
    ]
    edges = _build_edges(t, k, a)
    cert = TrestleCertificate.of(t, edges, k, expected_degrees=expected)
    report = verify_trestle(cert)
    if not report.passed():
        raise InternalInvariantError(
            f"built tree trestle failed verification: {report.failed_checks()}"
        )
    return cert
