"""Constructive Gallai-Milgram path covers and linear forests.

The classical inductive proof is unrolled into an algorithm: either the
terminal set of the current cover is independent (then it doubles as a
one-vertex-per-path independent transversal), or an arc between
terminals yields a cover with a strictly smaller terminal set, possibly
via recursion into the digraph minus one vertex.  The transversal
certifies that the cover has at most independence-number many paths,
which is all the linear-forest construction needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Digraph, DomainError, Graph, InternalInvariantError


@dataclass(frozen=True)
class PathCover:
    """Vertex-disjoint directed paths covering all vertices.

    ``transversal`` holds one vertex per path and is independent in the
    digraph (no arc in either direction between any two members).
    """

    digraph: Digraph
    paths: tuple[tuple[int, ...], ...]
    transversal: tuple[int, ...]

    def size(self) -> int:
        return len(self.paths)

    def start_vertices(self) -> tuple[int, ...]:
        return tuple(p[0] for p in self.paths)

    def check(self) -> None:
        d = self.digraph
        seen: set[int] = set()
        for p in self.paths:
            for v in p:
                if v in seen:
                    raise InternalInvariantError("paths are not vertex-disjoint")
                seen.add(v)
            for a, b in zip(p, p[1:]):
                if b not in d.out[a]:
                    raise InternalInvariantError(f"({a},{b}) is not an arc")
        if seen != set(range(d.n)):
            raise InternalInvariantError("cover misses vertices")
        if len(self.transversal) != len(self.paths):
            raise InternalInvariantError("transversal size mismatch")
        for i, v in enumerate(self.transversal):
            if v not in self.paths[i]:
                raise InternalInvariantError("transversal member not on its path")
        for u in self.transversal:
            for v in self.transversal:
                if u != v and v in self.out_set(u):
                    raise InternalInvariantError("transversal is not independent")

    def out_set(self, u: int) -> tuple[int, ...]:
        return self.digraph.out[u]


@dataclass(frozen=True)
class LinearForest:
    """Vertex-disjoint paths covering a host graph's vertices."""

    host: Graph
    paths: tuple[tuple[int, ...], ...]

    def component_count(self) -> int:
        return len(self.paths)

    def degree(self, v: int) -> int:
        for p in self.paths:
            if v in p:
                if len(p) == 1:
                    return 0
                return 1 if (p[0] == v or p[-1] == v) else 2
        raise DomainError(f"vertex {v} not covered")

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for p in self.paths:
            for a, b in zip(p, p[1:]):
                out.append((min(a, b), max(a, b)))
        return sorted(out)


def _terminal_arc(d: Digraph, paths: list[list[int]]) -> tuple[int, int] | None:
    """Lowest (i, j) with an arc from terminal of path i to terminal of j."""
    terminals = [p[-1] for p in paths]
    for i, t in enumerate(terminals):
        for j, s in enumerate(terminals):
            if i != j and s in d.out[t]:
                return i, j
    return None


def _solve(d: Digraph, paths: list[list[int]]):
    """One round of the inductive argument.

    Returns ("transversal", S) with S a transversal of ``paths``, or
    ("improved", Q) where Q covers the same vertices and its terminal
    set is a proper subset of the input's.
    """
    hit = _terminal_arc(d, paths)
    if hit is None:
        return "transversal", [p[-1] for p in paths]
    i, j = hit
    if len(paths[j]) == 1:
        improved = [list(p) for p in paths]
        tail = improved.pop(j)
        if j < i:
            i -= 1
        improved[i] = improved[i] + tail
        return "improved", improved
    v = paths[j][-1]
    w = paths[j][-2]
    sub_paths = [list(p) for p in paths]
    sub_paths[j] = sub_paths[j][:-1]
    kind, payload = _solve(d, sub_paths)
    if kind == "transversal":
        return "transversal", payload
    q: list[list[int]] = payload
    q_terminals = [p[-1] for p in q]
    if w in q_terminals:
        q[q_terminals.index(w)].append(v)
        return "improved", q
    old_terminals = {p[-1] for p in paths}
    if set(q_terminals) < old_terminals - {v}:
        q.append([v])
        return "improved", q
    # q's terminal set equals the old one minus v; the arc tail t_i is
    # still a terminal, so appending v there shrinks the terminal set
    t_i = paths[i][-1]
    if t_i not in q_terminals:
        raise InternalInvariantError("Gallai-Milgram case analysis broke down")
    q[q_terminals.index(t_i)].append(v)
    return "improved", q


def gallai_milgram_cover(d: Digraph) -> PathCover:
    """A path cover with an independent one-vertex-per-path transversal.

    The number of paths therefore never exceeds the independence number
    of the digraph.
    """
    paths = [[v] for v in range(d.n)]
    while True:
        kind, payload = _solve(d, paths)
        if kind == "transversal":
            cover = PathCover(
                d,
                tuple(tuple(p) for p in paths),
                tuple(payload),
            )
            cover.check()
            return cover
        paths = payload


def linear_forest_for(g: Graph, independent: set[int]) -> LinearForest:
    """A spanning linear forest from an orientation and a path cover.

    Edges at the independent set are oriented towards it, all others
    from the lower to the higher id.  Members of the independent set end
    up with degree at most 1 and no two share a component; the number of
    components is bounded by the independence number of ``g``.
    """
    for u in independent:
        for v in independent:
            if u != v and g.has_edge(u, v):
                raise DomainError("given vertex set is not independent")
    arcs = []
    for u, v in g.edges():
        if u in independent:
            arcs.append((v, u))
        elif v in independent:
            arcs.append((u, v))
        else:
            arcs.append((u, v))
    cover = gallai_milgram_cover(Digraph(g.n, arcs))
    return LinearForest(g, cover.paths)
