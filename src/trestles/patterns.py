"""Induced spider detection and tree vertex profiles.

A spider S(K_{1,k}) is a star with every edge subdivided once; its
centre is the unique degree-k vertex.  Two questions are asked of a
vertex v: is it a centre (``centres``, the general builder's re-tests),
and which spider is it the centre of (``centre_witness``, the k = 4
witness of an obstruction, the builder's S(K_{1,4}) hypothesis test).

Both searches start from the arms of v: each neighbour m of v with a
neighbour outside the closed neighbourhood N[v], which can be a mid,
with those neighbours, which can be its leaf.  The witness search
(``_spider_at``) backtracks over the arms in ascending order, their
leaves in ascending order, and returns the first spider it completes,
for any k.  The yes/no test for k = 3 (``has_spider3``) runs three
nested loops over the arms and their leaves with membership tests on
the neighbour sets, and builds nothing: no embedding, no recursive
call, no union of blocked sets.  Over the 76 hosts of the benchmark's
``host-matched`` workload (seed 1), ``centres(g, 3)`` takes 7.2 ms
with it against 18.5 ms with the witness search (fastest of 20 rounds,
Python 3.11 on a 2-vCPU Xeon VM); rewrites of the witness search for
every k, iterative or over ``itertools.combinations``, were measured
at no better than 1.4x.  ``centres`` picks the search by k.

The mids of an induced spider are pairwise non-adjacent, so no two lie
in one clique.  Before it tries a tuple, the witness search covers the
arms, in ascending order, greedily with cliques, and when fewer than k
cliques cover them it returns None: it skips only searches that would
find nothing, so the first witness is unchanged.  The cover stops at k
cliques, which bound nothing, so where a spider exists (the
obstruction's k = 4 witness on a tree) it looks at about k arms, with
set operations rather than Python loops.  At a hub over three
disjoint cliques with pendant leaves (m vertices each) this turns the
S(K_{1,4}) test from cubic in m into O(m) neighbour-set reads.  The
k = 3 test does not take the bound: on the chorded hosts it cost more
than it saved.

In a tree no search is needed: a vertex is a centre of an induced
S(K_{1,k}) exactly when it has at least k non-leaf neighbours, and
``tree_profile`` counts those.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .graphs import DomainError, Graph, Tree


@dataclass(frozen=True)
class SpiderEmbedding:
    """An induced S(K_{1,k}) inside a host graph.

    ``leaves[i]`` is adjacent to ``mids[i]``.
    """

    centre: int
    mids: tuple[int, ...]
    leaves: tuple[int, ...]

    def vertices(self) -> tuple[int, ...]:
        return (self.centre,) + self.mids + self.leaves

    def is_induced_in(self, g: Graph) -> bool:
        vs = self.vertices()
        if len(set(vs)) != len(vs):
            return False
        allowed = {(self.centre, m) for m in self.mids}
        allowed |= {(m, self.mids[i]) for i, m in enumerate(self.leaves)}
        allowed = {(min(a, b), max(a, b)) for a, b in allowed}
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                e = (min(u, v), max(u, v))
                if g.has_edge(u, v) != (e in allowed):
                    return False
        return True


@dataclass(frozen=True)
class TreeProfile:
    """Per-vertex non-leaf-neighbour counts n(v); red means n(v) >= 3."""

    non_leaf_neighbours: tuple[int, ...]

    def n(self, v: int) -> int:
        return self.non_leaf_neighbours[v]

    def red_set(self) -> frozenset[int]:
        """The vertices with n(v) >= 3, as a frozenset built on the
        first call and kept, so every caller on one profile shares it."""
        return self._red

    @cached_property
    def _red(self) -> frozenset[int]:
        return frozenset([v for v, c in enumerate(self.non_leaf_neighbours) if c >= 3])


def _spider_at(adj, centre: int, k: int, sets) -> SpiderEmbedding | None:
    """Backtracking search for an induced spider centred at ``centre``.

    ``adj[v]`` lists the neighbours of v in ascending order and
    ``sets[v]`` holds them as a set.  Mids are tried in ascending order
    above the last mid, each with its leaves in ascending order, and the
    first complete spider is returned.  ``blocked`` holds the centre,
    the chosen mids and leaves and all their neighbours: exactly the
    vertices that the next mid or leaf must avoid, so each test is one
    set lookup.  When fewer than k cliques cover the arms no tuple is
    tried.
    """
    around = adj[centre]
    cn = sets[centre]
    # the arms, each put into the first clique it is adjacent to all of;
    # k cliques bound nothing, so the cover stops there
    closed = cn | {centre}
    cliques: list[list[int]] = []
    for m in around:
        if len(cliques) == k:
            break
        if closed.issuperset(adj[m]):
            continue
        near = sets[m]
        for clique in cliques:
            if near.issuperset(clique):
                clique.append(m)
                break
        else:
            cliques.append([m])
    if len(cliques) < k:
        return None

    def extend(mids: list[int], leaves: list[int], blocked: set[int]) -> SpiderEmbedding | None:
        if len(mids) == k:
            return SpiderEmbedding(centre, tuple(mids), tuple(leaves))
        start = bisect_right(around, mids[-1]) if mids else 0
        for m in around[start:]:
            if m in blocked:
                continue
            for l in adj[m]:
                if l in blocked or l in cn:
                    continue
                # l is a neighbour of m and m one of l, so both are blocked
                found = extend(mids + [m], leaves + [l], blocked | sets[m] | sets[l])
                if found is not None:
                    return found
        return None

    return extend([], [], {centre})


def has_spider3(adj, v: int, sets) -> bool:
    """Whether ``v`` centres an induced S(K_{1,3}) in the graph whose
    ascending neighbour lists ``adj`` gives; ``sets`` as for
    ``spider_witness``.

    Three arms with pairwise non-adjacent mids a, b, c, then a leaf of
    each that is adjacent to no other mid and to no leaf before it.
    """
    if len(adj[v]) < 3:
        return False
    cn = sets[v]
    arms = []
    for m in adj[v]:
        out = [l for l in adj[m] if l != v and l not in cn]
        if out:
            arms.append((m, sets[m], out))
    for i, (a, na, la) in enumerate(arms):
        for j, (b, nb, lb) in enumerate(arms[i + 1 :], i + 1):
            if b in na:
                continue
            for c, nc, lc in arms[j + 1 :]:
                if c in na or c in nb:
                    continue
                for x in la:
                    if x in nb or x in nc:
                        continue
                    nx = sets[x]
                    for y in lb:
                        if y in na or y in nc or y in nx:
                            continue
                        ny = sets[y]
                        for z in lc:
                            if not (z in na or z in nb or z in nx or z in ny):
                                return True
    return False


class NeighbourSets(dict):
    """``sets`` for ``spider_witness`` and ``has_spider3``: each neighbour
    set built on first use."""

    __slots__ = ("adj",)

    def __init__(self, adj):
        super().__init__()
        self.adj = adj

    def __missing__(self, v: int) -> set[int]:
        s = self[v] = set(self.adj[v])
        return s


def spider_witness(adj, v: int, k: int, sets) -> SpiderEmbedding | None:
    """An induced S(K_{1,k}) centred at ``v`` in the graph whose ascending
    neighbour lists ``adj`` gives, or None.

    ``sets[v]`` is the neighbour set of v; calls on one graph may share
    them.
    """
    if len(adj[v]) < k:
        return None
    return _spider_at(adj, v, k, sets)


def centre_witness(g: Graph, v: int, k: int) -> SpiderEmbedding | None:
    """An induced S(K_{1,k}) centred at ``v``, or None."""
    if k < 2:
        raise DomainError("spider patterns need k >= 2")
    return spider_witness(g.adj, v, k, NeighbourSets(g.adj))


def centres(g: Graph, k: int) -> frozenset[int]:
    """All centres of induced copies of S(K_{1,k}).

    k = 3 is answered by ``has_spider3``, every other k by the witness
    search.  The graph keeps the last k searched with its centres, so a second
    call for the same k (the CLI's, then the general builder's) does no
    search.
    """
    if k < 2:
        raise DomainError("spider patterns need k >= 2")
    known = g._centres
    if known is not None and known[0] == k:
        return known[1]
    adj = g.adj
    sets = [set(a) for a in adj]
    if k == 3:
        found = frozenset(v for v in range(g.n) if has_spider3(adj, v, sets))
    else:
        found = frozenset(v for v in range(g.n) if spider_witness(adj, v, k, sets) is not None)
    g._centres = (k, found)
    return found


def is_spider_free(g: Graph, k: int) -> bool:
    return not centres(g, k)


def _count_profile(g: Graph) -> TreeProfile:
    if g.n < 2:
        raise DomainError("tree profiles need n >= 2")
    # a vertex's degree, less one for each leaf hanging off it
    counts = [len(nbrs) for nbrs in g.adj]
    for nbrs in g.adj:
        if len(nbrs) == 1:
            counts[nbrs[0]] -= 1
    return TreeProfile(tuple(counts))


def tree_profile(t: Graph) -> TreeProfile:
    """n(v) for every vertex of ``t``.

    A :class:`Tree` is counted once and keeps its profile, so every
    decision, build and witness on one tree shares it; a plain
    :class:`Graph` is counted afresh on each call.
    """
    if not isinstance(t, Tree):
        return _count_profile(t)
    if t._profile is None:
        t._profile = _count_profile(t)
    return t._profile


def is_caterpillar(t: Tree) -> bool:
    """Caterpillar: removing all leaves yields a path (or nothing)."""
    spine = [v for v in range(t.n) if t.degree(v) >= 2]
    if not spine:
        return True
    spine_set = set(spine)
    spine_deg = {v: sum(1 for w in t.adj[v] if w in spine_set) for v in spine}
    if any(d > 2 for d in spine_deg.values()):
        return False
    # the spine of a tree is acyclic, so degree <= 2 plus connectivity
    # (automatic in a tree after leaf removal) makes it a path
    return True
