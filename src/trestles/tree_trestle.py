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

The pass classifies every vertex once as a leaf, a pivot or an inner
vertex (neither), and writes each edge once, as (low, high), into one
list.  A hub tree comes from ``_degree_tree_edges``, the edge-level
helper that ``realize_degree_tree`` wraps, named by N(x) directly.  A
piece is walked once along its inner path from its lowest vertex, in
both directions; the end with the lower first hair starts the cycle,
and ``_emit_piece`` then walks the spine from that end, writing the
cycle's edges as it goes, with no cycle list and no dummy vertex.  The
sorted list becomes the certificate as it is, which ``verify_trestle``
then checks from the host alone.
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
    return Tree(m, _degree_tree_edges(range(m), degrees))


def _degree_tree_edges(labels, degrees: list[int]) -> list[tuple[int, int]]:
    """The edges of ``realize_degree_tree(degrees)``, each as (low, high),
    with vertex i named ``labels[i]``; the degrees are not validated.

    The hubs (degree >= 2) are chained in order; the chain leaves each
    hub its degree minus 2 free slots, plus one at either end of the
    chain, and the degree-1 vertices fill the slots in order.  A lone
    degree-1 vertex serves as the hub when there is none (the
    single-edge tree).
    """
    hubs, spare, leaves = [], [], []
    for u, d in zip(labels, degrees):
        if d >= 2:
            hubs.append(u)
            spare.append(d - 2)
        else:
            leaves.append(u)
    if not hubs:
        hubs.append(leaves.pop(0))
        spare.append(-1)
    spare[0] += 1
    spare[-1] += 1
    slots = [u for u, s in zip(hubs, spare) for _ in range(s)]
    if len(slots) != len(leaves):
        raise InternalInvariantError("degree-tree realization bookkeeping failed")
    pairs = list(zip(hubs, hubs[1:]))
    pairs += zip(slots, leaves)
    return [(u, v) if u < v else (v, u) for u, v in pairs]


# vertex kinds; an inner vertex turns _DONE once its piece is walked
_LEAF, _INNER, _PIVOT, _DONE = range(4)


def _run(adj, kind: list[int], w: int) -> tuple[list[int], int]:
    """The inner vertices from ``w`` to the end of its path, marked done,
    and the pivot next to that end (-1 for none)."""
    run = [w]
    kind[w] = _DONE
    while True:
        pivot = -1
        for u in adj[w]:
            if kind[u] == _INNER:
                break
            if kind[u] == _PIVOT:
                pivot = u
        else:
            return run, pivot
        kind[u] = _DONE
        run.append(u)
        w = u


def _first_leaf(adj, kind: list[int], v: int) -> int:
    for u in adj[v]:
        if kind[u] == _LEAF:
            return u
    raise InternalInvariantError(f"spine end {v} has neither a pivot nor a leaf")


def _emit_piece(path: list[int], head: int, tail: int, adj, kind: list[int], out: list) -> None:
    """Append the non-dummy edges of one piece's Harary–Schwenk cycle.

    The spine is ``head``, ``path``, ``tail`` (a missing pivot copy is
    -1), from the end the cycle starts at.  The cycle is two chains
    from s_0 to s_m.  X takes the hairs of s_0, in id order, and then,
    for 0 < i < m, s_i at odd i and the hairs of s_i at even i; Y takes
    the rest.  At s_m the chain that takes hairs takes them from the
    second lowest on and then the lowest, and both chains end at s_m.
    A pivot copy's one hair is its dummy, which cuts its chain, so
    ``sp``, the end of the chain that takes the next spine vertex, is
    -1 just after a head pivot; ``hp`` is the end of the other chain.
    """
    if head >= 0:
        sp, hp = -1, head
        middle = path
    else:
        s = path[0]
        sp = hp = s
        for h in adj[s]:
            if kind[h] == _LEAF:
                out.append((sp, h) if sp < h else (h, sp))
                sp = h
        middle = path[1:]
    if tail < 0:
        middle, s = middle[:-1], middle[-1]
    for v in middle:
        if sp >= 0:
            out.append((sp, v) if sp < v else (v, sp))
        for h in adj[v]:
            if kind[h] == _LEAF:
                out.append((hp, h) if hp < h else (h, hp))
                hp = h
        sp, hp = hp, v
    if tail >= 0:
        s = tail
    else:
        hairs = [h for h in adj[s] if kind[h] == _LEAF]
        for h in hairs[1:] + hairs[:1]:
            out.append((hp, h) if hp < h else (h, hp))
            hp = h
        out.append((hp, s) if hp < s else (s, hp))
    if sp >= 0:
        out.append((sp, s) if sp < s else (s, sp))


def _build_edges(t: Tree, a: ArcAssignment, counts) -> list[tuple[int, int]]:
    """Hub trees of the pivots plus the cycles of the pivot-free pieces,
    each edge once as (low, high), in no particular order."""
    n, adj, values = t.n, t.adj, a.values
    kind = [
        _PIVOT if c >= 3 else _INNER if len(nbrs) > 1 else _LEAF
        for c, nbrs in zip(counts, adj)
    ]
    out: list[tuple[int, int]] = []
    for x in range(n):
        if kind[x] == _PIVOT:
            nbrs = adj[x]
            ordered = [u for u in nbrs if kind[u] != _LEAF] + [u for u in nbrs if kind[u] == _LEAF]
            out += _degree_tree_edges(
                ordered,
                [values.get((u, x), 0) + (2 if kind[u] == _LEAF else 1) for u in ordered],
            )
        elif kind[x] == _INNER:
            # x's piece: its path of inner vertices runs both ways from x,
            # and a pivot next to an end of the path ends the spine there
            kind[x] = _DONE
            ends, pivots = [], []
            for u in adj[x]:
                if kind[u] == _INNER:
                    ends.append(u)
                elif kind[u] == _PIVOT:
                    pivots.append(u)
            head, tail = (pivots + [-1, -1])[:2]
            path = [x]
            if ends:
                run, tail = _run(adj, kind, ends[0])
                path += run
                if len(ends) > 1:
                    run, head = _run(adj, kind, ends[1])
                    path = run[::-1] + path
            elif head < 0:
                # t is a star: the two lowest leaves start and end the cycle
                cycle = [x, adj[x][0], *adj[x][2:], adj[x][1], x]
                out += [(u, v) if u < v else (v, u) for u, v in zip(cycle, cycle[1:])]
                continue
            # the cycle starts at the end with the lower first hair: a
            # pivot copy's dummy is n + the pivot, above every leaf
            first = n + head if head >= 0 else _first_leaf(adj, kind, path[0])
            last = n + tail if tail >= 0 else _first_leaf(adj, kind, path[-1])
            if last < first:
                path.reverse()
                head, tail = tail, head
            _emit_piece(path, head, tail, adj, kind, out)
    return out


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
    expected = tuple([o + c if c > 2 else o + 2 for o, c in zip(outs, counts)])
    edges = _build_edges(t, a, counts)
    edges.sort()
    cert = TrestleCertificate(t, tuple(edges), k, None, expected)
    report = verify_trestle(cert)
    if not report.passed():
        raise InternalInvariantError(
            f"built tree trestle failed verification: {report.failed_checks()}"
        )
    return cert
