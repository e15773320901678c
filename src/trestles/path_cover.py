"""Constructive Gallai-Milgram path covers and linear forests.

A digraph is given by out-neighbour bitmasks: bit v of ``out[u]`` is
the arc u -> v.  ``gallai_milgram_cover`` returns disjoint directed
paths covering it, with an independent transversal (one vertex per
path, no arc between two of them), so there are at most
independence-number many paths.

The classical proof (Gallai and Milgram, 1960) is an induction on a
cover with terminal set T.  If T is independent, it is the
transversal.  Otherwise take the lowest pair (i, j), in path order,
with an arc from terminal t_i to the terminal v of path j.  If path j
is v alone, joining it after t_i shrinks T.  Otherwise let w precede v
and cover the digraph minus v by cutting v off: a transversal found
there serves here too, and a cover Q found there, with terminals
strictly inside T' = T - {v} + {w}, takes v back after w if w is still
a terminal of Q, and after t_i otherwise.  The proof has a third case,
v as a new path when Q's terminals lie strictly inside T - {v}, which
this induction never meets, since each step removes exactly one
terminal.  Joining a lone v after t_i removes exactly t_i.  Let Q have
terminals T' - {x}.  If x is not w, v goes after w and the result has
terminals T - {x}.  If x is w, Q's terminals are exactly T - {v}, not
strictly inside it, and t_i is one of them (it is in T, and is not v),
so v goes after t_i and the result has terminals T - {t_i}.

Here that induction is one loop.  A round copies its cover once and
descends on the copy: each level cuts v off and pushes the frame
(v, w, t_i), until a level joins a single vertex j after t_i or finds
no terminal arc.  No arc ends the construction with the round's own
cover and the deepest terminals, one on each of its paths.  A join
unwinds the frames deepest first, each applying the two cases in that
order to the same copy.  That is the recursive order: each call only
changes the cover its inner call returned, so every level sees the
cover the recursion would hand it.  Each round removes one terminal,
so there are at most n.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graphs import DomainError, Graph, InternalInvariantError

Paths = tuple[tuple[int, ...], ...]


def _terminal_arc(out: Sequence[int], terminals: list[int], mask: int) -> tuple[int, int] | None:
    """Lowest (i, j) with an arc from terminal of path i to terminal of j;
    ``mask`` has the terminals' bits."""
    for i, t in enumerate(terminals):
        hits = out[t] & (mask ^ 1 << t)
        if hits:
            for j, s in enumerate(terminals):
                if hits >> s & 1:
                    return i, j
    return None


def _check(out: Sequence[int], paths: Paths, transversal: tuple[int, ...]) -> None:
    if sorted(v for p in paths for v in p) != list(range(len(out))):
        raise InternalInvariantError("paths do not partition the vertices")
    if any(not out[a] >> b & 1 for p in paths for a, b in zip(p, p[1:])):
        raise InternalInvariantError("a path steps along a non-arc")
    if len(transversal) != len(paths) or any(v not in p for v, p in zip(transversal, paths)):
        raise InternalInvariantError("transversal is not one vertex per path")
    members = sum(1 << v for v in transversal)
    if any(out[u] & (members ^ 1 << u) for u in transversal):
        raise InternalInvariantError("transversal is not independent")


def gallai_milgram_cover(out: Sequence[int]) -> tuple[Paths, tuple[int, ...]]:
    """Directed paths covering the digraph with out-neighbour bitmasks
    ``out``, and an independent transversal with one vertex per path,
    in path order.

    The number of paths therefore never exceeds the independence number
    of the digraph.
    """
    paths = [[v] for v in range(len(out))]
    while True:
        cover = [list(p) for p in paths]
        terminals = [p[-1] for p in cover]
        mask = sum(1 << t for t in terminals)
        frames = []
        while True:
            hit = _terminal_arc(out, terminals, mask)
            if hit is None:
                result = tuple(map(tuple, paths)), tuple(terminals)
                _check(out, *result)
                return result
            i, j = hit
            if len(cover[j]) == 1:
                break
            v = cover[j].pop()
            w = terminals[j] = cover[j][-1]
            frames.append((v, w, terminals[i]))
            mask ^= 1 << v | 1 << w
        v = cover.pop(j)[0]
        cover[i - 1 if j < i else i].append(v)
        # terminal -> its path in the cover being unwound
        where = {p[-1]: x for x, p in enumerate(cover)}
        for v, w, t_i in reversed(frames):
            if w in where:
                x = where.pop(w)
            elif t_i in where:
                x = where.pop(t_i)
            else:
                raise InternalInvariantError("Gallai-Milgram case analysis broke down")
            cover[x].append(v)
            where[v] = x
        paths = cover


def linear_forest_for(g: Graph, independent: set[int]) -> Paths:
    """The paths of a spanning linear forest, from an orientation and a
    path cover.

    Edges at the independent set are oriented towards it, all others
    from the lower to the higher id.  Members of the independent set end
    up with degree at most 1 and no two share a component; the number of
    components is bounded by the independence number of ``g``.
    """
    for u in independent:
        for v in independent:
            if u != v and g.has_edge(u, v):
                raise DomainError("given vertex set is not independent")
    out = [0] * g.n
    for u, v in g.edges():
        if u in independent:
            out[v] |= 1 << u
        else:
            out[u] |= 1 << v
    return gallai_milgram_cover(out)[0]
