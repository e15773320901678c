"""Induced spider detection and tree vertex profiles.

A spider S(K_{1,k}) is a star with every edge subdivided once; its
centre is the unique degree-k vertex.  The generic centre search is a
small backtracking embedding search.  In a tree it is not needed: a
vertex is a centre of an induced S(K_{1,k}) exactly when it has at
least k non-leaf neighbours, and ``tree_profile`` counts those.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def red_set(self) -> set[int]:
        return {v for v, c in enumerate(self.non_leaf_neighbours) if c >= 3}


def _spider_at(g: Graph, centre: int, k: int) -> SpiderEmbedding | None:
    """Backtracking search for an induced spider centred at ``centre``."""
    cn = set(g.adj[centre])

    def extend(mids: list[int], leaves: list[int], used: set[int]) -> SpiderEmbedding | None:
        if len(mids) == k:
            return SpiderEmbedding(centre, tuple(mids), tuple(leaves))
        start = mids[-1] + 1 if mids else 0
        for m in g.adj[centre]:
            if m < start or m in used:
                continue
            # mid must be non-adjacent to all previously chosen vertices
            if any(g.has_edge(m, x) for x in mids + leaves):
                continue
            for l in g.adj[m]:
                if l == centre or l in used or l in cn:
                    continue
                if any(g.has_edge(l, x) for x in mids + leaves):
                    continue
                found = extend(mids + [m], leaves + [l], used | {m, l})
                if found is not None:
                    return found
        return None

    return extend([], [], {centre})


def centre_witness(g: Graph, v: int, k: int) -> SpiderEmbedding | None:
    """An induced S(K_{1,k}) centred at ``v``, or None."""
    if k < 2:
        raise DomainError("spider patterns need k >= 2")
    if g.degree(v) < k:
        return None
    return _spider_at(g, v, k)


def centres(g: Graph, k: int) -> set[int]:
    """All centres of induced copies of S(K_{1,k})."""
    if k < 2:
        raise DomainError("spider patterns need k >= 2")
    return {v for v in range(g.n) if centre_witness(g, v, k) is not None}


def is_spider_free(g: Graph, k: int) -> bool:
    return not centres(g, k)


def tree_profile(t: Tree) -> TreeProfile:
    if t.n < 2:
        raise DomainError("tree profiles need n >= 2")
    is_leaf = [t.degree(v) <= 1 for v in range(t.n)]
    counts = tuple(
        sum(1 for w in t.adj[v] if not is_leaf[w]) for v in range(t.n)
    )
    return TreeProfile(counts)


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
