"""Constructive 3-trestles in squares of S(K_{1,4})-free graphs.

Given a host graph together with a matching that pairs every centre of
an induced S(K_{1,3}) with exactly one non-centre neighbour, the builder
produces a 3-trestle of the square in which every unmatched vertex has
degree exactly 2.  The construction follows the inductive proof: split
the graph at a cutvertex of maximal degree, solve each branch with a
pendant dummy standing in for the rest of the graph, and reassemble the
branch solutions through a theta graph spanned over the cutvertex's
neighbourhood.

Each level derives its branches from its own data instead of analysing
every branch from scratch.  A branch's graph and matching are read off
the level's adjacency lists and partner map.  Its centres are among the
level's centres inside the branch, and only those are re-tested in the
branch.  A spider that avoids the dummy leaf is induced in the level's
graph.  One that uses the dummy has it as a leaf under the cutvertex c
and the branch's gate (c's one neighbour in the branch) as its centre;
but c is a cutvertex, so it has a neighbour in a component of the graph
minus c that misses the branch, and through it the gate has a third
arm in the level's graph as well.  One lowpoint DFS per level finds the
cutvertices; every level's graph is connected, so finding none means
2-connected.  Square adjacency is a distance-2 test on the level's
graph; no square is built.

The levels form a tree that is walked in post-order with an explicit
stack: ``_split`` either solves a level outright or returns a ``_Cut``
that hands out its branch subproblems one at a time, relabels each
branch solution as it comes back, and finally joins them.  The depth
of the decomposition is therefore not bounded by Python's recursion
limit.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

from .graphs import (
    DomainError,
    Graph,
    InternalInvariantError,
    components,
    cutvertices,
    is_connected,
    is_path_graph,
)
from .matching_flow import Matching
from .oracle import fleischner_hamilton
from .path_cover import linear_forest_for
from .patterns import centre_witness, centres
from .verify import TrestleCertificate, verify_trestle


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _cycle_edges(order: list[int]) -> set[tuple[int, int]]:
    return {
        _norm(order[i], order[(i + 1) % len(order)]) for i in range(len(order))
    }


def _within_two(g: Graph, u: int, v: int) -> bool:
    """Whether uv is an edge of the square of ``g``."""
    nu = g.adj[u]
    return u != v and (v in nu or not set(nu).isdisjoint(g.adj[v]))


def path_square_cycle(p: Graph) -> list[tuple[int, int]]:
    """Hamilton cycle of the square of a path.

    Walks the even positions in ascending order, then the odd positions
    in descending order; consecutive vertices are at distance at most 2
    along the path.
    """
    if not is_path_graph(p):
        raise DomainError("host is not a path")
    if p.n < 2:
        raise DomainError("not a non-trivial path")
    return _path_square_cycle(p)


def _path_square_cycle(p: Graph) -> list[tuple[int, int]]:
    """``path_square_cycle`` for a graph known to be a path on n >= 2."""
    start = next(v for v in range(p.n) if p.degree(v) == 1)
    order = [start]
    prev = -1
    while len(order) < p.n:
        cur = order[-1]
        nxt = [w for w in p.adj[cur] if w != prev]
        prev = cur
        order.append(nxt[0])
    seq = order[0::2] + order[1::2][::-1]
    return sorted(_cycle_edges(seq))


def _bounded_alpha(g: Graph, cap: int = 4) -> int:
    """min(independence number, cap); enough to check the alpha <= 3 bound."""
    best = 1 if g.n else 0
    for size in range(min(cap, g.n), 1, -1):
        for combo in combinations(range(g.n), size):
            if all(
                not g.has_edge(u, v) for u, v in combinations(combo, 2)
            ):
                return size
    return best


def _spanning_tree_with(g: Graph, forced: list[tuple[int, int]]) -> Graph:
    """A spanning tree of ``g`` containing all forced edges."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    taken: list[tuple[int, int]] = []

    def take(u: int, v: int) -> bool:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
        taken.append((u, v))
        return True

    for u, v in forced:
        if not take(u, v):
            raise InternalInvariantError("forced edges contain a cycle")
    for u, v in g.edges():
        take(u, v)
    return Graph(g.n, taken)


def _expand_pairs(
    path: tuple[int, ...],
    pairs: list[tuple[int, int]],
    g: Graph,
    nc: set[int],
    a_vertex: int | None,
) -> list[int]:
    """Replace each contracted pair by (u, w) or (w, u).

    The result must be a path in the square of ``g``; one end must lie
    in nc, and if a_vertex sits inside one of the pairs it is forced to
    be the very first vertex of the sequence.
    """
    seq = list(path)
    a_pos = None
    for pos, i in enumerate(seq):
        if a_vertex is not None and a_vertex in pairs[i]:
            a_pos = pos
    if a_pos is not None:
        if a_pos == len(seq) - 1:
            seq.reverse()
        elif a_pos != 0:
            raise InternalInvariantError("anchored pair is not at a path end")

    options = []
    for i in seq:
        u, w = pairs[i]
        options.append([(u, w), (w, u)])
    if a_pos is not None:
        u, w = pairs[seq[0]]
        first = (a_vertex, w if a_vertex == u else u)
        options[0] = [first]

    # an nc-end exists iff the first pair leads with u (always in nc) or
    # the last pair trails with u; the anchored case has a in front
    attempts: list[tuple[int | None, int | None]]
    if a_pos is not None:
        attempts = [(None, None)]
    else:
        attempts = [(0, None), (None, 1)]
    for first_forced, last_forced in attempts:
        opts = [list(o) for o in options]
        if first_forced is not None:
            opts[0] = [options[0][first_forced]]
        if last_forced is not None:
            opts[-1] = [options[-1][last_forced]]
        feas = [[False] * len(opts[p]) for p in range(len(seq))]
        feas[-1] = [True] * len(opts[-1])
        for p in range(len(seq) - 2, -1, -1):
            for o, (_, y) in enumerate(opts[p]):
                feas[p][o] = any(
                    feas[p + 1][o2] and _within_two(g, y, opts[p + 1][o2][0])
                    for o2 in range(len(opts[p + 1]))
                )
        if not any(feas[0]):
            continue
        out: list[int] = []
        choice = next(o for o in range(len(opts[0])) if feas[0][o])
        out.extend(opts[0][choice])
        for p in range(1, len(seq)):
            prev_last = out[-1]
            choice = next(
                o
                for o in range(len(opts[p]))
                if feas[p][o] and _within_two(g, prev_last, opts[p][o][0])
            )
            out.extend(opts[p][choice])
        return out
    raise InternalInvariantError("pair expansion found no square path")


Edges = set[tuple[int, int]]
Subproblem = tuple[Graph, dict[int, int], set[int]]


class _Cut:
    """A level split at cutvertex ``c``, collecting its branch solutions.

    ``branches`` are the vertex sets (sorted, in order of their minimum)
    of the components with at least two vertices of a spanning tree
    minus ``c``.  ``next_branch`` builds the subproblem of the next
    branch, ``take`` relabels that branch's solution into a contracted
    pair and extra edges, and ``join`` spans the theta graph once every
    branch is in.
    """

    def __init__(
        self,
        g: Graph,
        partner: dict[int, int],
        x: set[int],
        c: int,
        branches: list[list[int]],
    ):
        self.g = g
        self.partner = partner
        self.x = x
        self.c = c
        self.nc = set(g.adj[c])
        self.closed = self.nc | {c}
        self.branches = branches
        self.pairs: list[tuple[int, int]] = []
        self.extra_edges: list[tuple[int, int]] = []
        # the branch whose solution is awaited: its old ids by local id,
        # its gate, and the vertex the gate is engaged to, if any
        self._awaited: tuple[list[int], int, int | None] = ([], -1, None)

    def done(self) -> bool:
        return len(self.pairs) == len(self.branches)

    def next_branch(self) -> Subproblem:
        """The branch plus the cutvertex and a pendant dummy, relabelled
        in ascending id order with the dummy last, its matching and its
        centres."""
        g, c, nc = self.g, self.c, self.nc
        comp = self.branches[len(self.pairs)]
        gates = [v for v in comp if v in nc]
        if len(gates) != 1:
            raise InternalInvariantError("branch meets the neighbourhood more than once")
        u_i = gates[0]

        inside = set(comp)
        old = sorted(comp + [c])
        index = {v: i for i, v in enumerate(old)}
        y = len(old)
        h_edges = [
            (index[a], index[b])
            for a in old
            for b in g.adj[a]
            if a < b and b in index
        ]
        h_edges.append((index[c], y))
        h = Graph(len(old) + 1, h_edges)

        x_local = {
            index[v]
            for v in comp
            if v in self.x and centre_witness(h, index[v], 3) is not None
        }
        sub_partner: dict[int, int] = {}
        for a in comp:
            b = self.partner.get(a)
            if b is not None and b in inside:
                la, lb = index[a], index[b]
                if la in x_local or lb in x_local:
                    sub_partner[la] = lb
        engaged_to = None
        t_i = self.partner.get(u_i)
        if index[u_i] in x_local and t_i is not None and t_i not in inside:
            if t_i not in self.closed:
                raise InternalInvariantError("engaged vertex outside the closed neighbourhood")
            sub_partner[index[u_i]] = index[c]
            sub_partner[index[c]] = index[u_i]
            engaged_to = t_i
        for v in x_local:
            if v not in sub_partner:
                raise InternalInvariantError("branch matching misses a centre")

        self._awaited = (old, u_i, engaged_to)
        return h, sub_partner, x_local

    def take(self, sub: Edges) -> None:
        """Relabel the awaited branch's solution: its edges at the
        cutvertex and the dummy give the branch's entry pair, the others
        carry over."""
        old, u_i, engaged_to = self._awaited
        lc, lu, ly = bisect_left(old, self.c), bisect_left(old, u_i), len(old)
        if _norm(lc, ly) not in sub or _norm(lu, ly) not in sub:
            raise InternalInvariantError("dummy leaf is not wired to the cut and its gate")
        o_i = set()
        for p, q in sub:
            if p in (lc, ly) or q in (lc, ly):
                other = q if p in (lc, ly) else p
                if other not in (lc, ly):
                    o_i.add(old[other])
            else:
                self.extra_edges.append(_norm(old[p], old[q]))
        if not (2 <= len(o_i) <= 3) or u_i not in o_i:
            raise InternalInvariantError(f"entry set {sorted(o_i)} is malformed")
        w_i = min(o_i - {u_i})
        if w_i in self.nc:
            raise InternalInvariantError("second entry vertex fell into the neighbourhood")
        self.pairs.append((u_i, w_i))
        rest = o_i - {u_i, w_i}
        if rest:
            if engaged_to is None:
                raise InternalInvariantError("three entries but the gate is not engaged")
            v_i = rest.pop()
            e_i = _norm(v_i, engaged_to)
            if not _within_two(self.g, *e_i):
                raise InternalInvariantError("engagement edge is not in the square")
            self.extra_edges.append(e_i)

    def join(self) -> Edges:
        """The theta graph over the contracted pairs, minus the pair
        edges, plus every branch's carried-over edges."""
        g, c, nc, pairs = self.g, self.c, self.nc, self.pairs
        contracted = Graph(
            len(pairs),
            [
                (i, j)
                for i in range(len(pairs))
                for j in range(i + 1, len(pairs))
                if any(
                    g.has_edge(p, q)
                    for p in pairs[i]
                    for q in pairs[j]
                )
            ],
        )
        alpha = _bounded_alpha(contracted)
        if alpha > 3:
            raise InternalInvariantError("contracted pair graph has independence number > 3")
        a_vertex = self.partner.get(c)
        if alpha == 3 and a_vertex is None:
            raise InternalInvariantError("three independent pairs but the cutvertex is unmatched")

        anchor = {i for i, (u, _) in enumerate(pairs) if u == a_vertex}
        forest = linear_forest_for(contracted, anchor)
        expanded = [
            _expand_pairs(p, pairs, g, nc, a_vertex) for p in forest.paths
        ]

        w_set = {v for pair in pairs for v in pair}
        p_rest = sorted(v for v in nc if v not in w_set)
        if p_rest:
            if a_vertex in p_rest:
                tail = [a_vertex] + [v for v in p_rest if v != a_vertex]
            else:
                tail = p_rest
            # pick a component to absorb the leftover neighbourhood path; when
            # three components exist, the anchored one must be left alone
            host_idx = None
            for i, comp in enumerate(expanded):
                if len(expanded) == 3 and a_vertex in comp:
                    continue
                host_idx = i
                break
            if host_idx is None:
                raise InternalInvariantError("no component can absorb the leftover path")
            comp = expanded[host_idx]
            join_end = comp[0] if comp[0] in nc else comp[-1]
            if a_vertex is not None and len(expanded) == 3 and join_end == a_vertex:
                raise InternalInvariantError("absorbing component is anchored")
            if join_end not in nc:
                raise InternalInvariantError("component has no end in the neighbourhood")
            if comp[0] == join_end:
                comp = comp[::-1]
            if not _within_two(g, comp[-1], tail[-1]):
                raise InternalInvariantError("leftover path cannot attach in the square")
            expanded[host_idx] = comp + tail[::-1]

        ell: list[int] = []
        ell_prime: list[int] = []
        theta: set[tuple[int, int]] = set()
        for comp in expanded:
            for a, b in zip(comp, comp[1:]):
                theta.add(_norm(a, b))
            ends = [comp[0], comp[-1]]
            if a_vertex in ends:
                lead = a_vertex
            else:
                in_nc = [e for e in ends if e in nc]
                if not in_nc:
                    raise InternalInvariantError("path has no end in the neighbourhood")
                lead = min(in_nc)
            ends.remove(lead)
            ell.append(lead)
            ell_prime.append(ends[0])
        for v in ell_prime:
            theta.add(_norm(c, v))
        if len(ell) == 1:
            theta.add(_norm(c, ell[0]))
        elif len(ell) == 2:
            theta.add(_norm(ell[0], ell[1]))
        else:
            if a_vertex not in ell:
                raise InternalInvariantError("three paths but none is anchored")
            for v in ell:
                if v != a_vertex:
                    theta.add(_norm(a_vertex, v))

        for e in theta:
            if not _within_two(g, *e):
                raise InternalInvariantError(f"theta edge {e} is not in the square")

        result = set(theta)
        for u, w in pairs:
            e = _norm(u, w)
            if e not in result:
                raise InternalInvariantError("pair edge missing from the theta graph")
            result.remove(e)
        result.update(self.extra_edges)
        return result


def _split(g: Graph, partner: dict[int, int], x: set[int]) -> Edges | _Cut:
    """Solve a connected level outright, or split it at a cutvertex.

    ``x`` is the level's centre set and ``partner`` its centre matching,
    both maps symmetric.
    """
    n = g.n
    if max(map(len, g.adj)) <= 2 and is_path_graph(g):
        return set(_path_square_cycle(g))
    if n <= 4:
        # connected, not a path, at most 4 vertices: diameter <= 2, so
        # the square is complete and the identity cycle works
        return _cycle_edges(list(range(n)))
    cuts = cutvertices(g)
    if not cuts:
        return _cycle_edges(fleischner_hamilton(g))

    cand = [v for v in cuts if g.degree(v) >= 3]
    if not cand:
        raise InternalInvariantError("no cutvertex of degree >= 3 in a non-path host")
    top = max(g.degree(v) for v in cand)
    c = min(v for v in cand if g.degree(v) == top)

    closed = set(g.adj[c]) | {c}
    m_far = sorted(
        (u, v)
        for u, v in partner.items()
        if u < v and not (u in closed and v in closed)
    )
    star = [(c, w) for w in g.adj[c]]
    tree = _spanning_tree_with(g, star + m_far)
    branches = [comp for comp in components(tree, removed={c}) if len(comp) >= 2]
    if not branches:
        # c is adjacent to everything, the square is complete
        return _cycle_edges(list(range(n)))
    return _Cut(g, partner, x, c, branches)


def _build(g: Graph, partner: dict[int, int], x: set[int]) -> Edges:
    """Solve the level tree below ``g`` in post-order."""
    open_cuts: list[_Cut] = []
    step = _split(g, partner, x)
    while True:
        if isinstance(step, _Cut):
            open_cuts.append(step)
        elif open_cuts:
            open_cuts[-1].take(step)
        else:
            return step
        cut = open_cuts[-1]
        if cut.done():
            open_cuts.pop()
            step = cut.join()
        else:
            step = _split(*cut.next_branch())


def build_general_trestle(
    g: Graph, matching_edges
) -> TrestleCertificate:
    """3-trestle certificate with unmatched vertices of degree exactly 2.

    The host must be connected, S(K_{1,4})-free, and the matching must
    pair each centre of an induced S(K_{1,3}) with a non-centre
    neighbour, one centre per edge.
    """
    if g.n < 3:
        raise DomainError("need at least 3 vertices")
    if not is_connected(g):
        raise DomainError("host graph is not connected")
    x = centres(g, 3)
    # the centre of an induced S(K_{1,4}) is the centre of an induced
    # S(K_{1,3}) too, so only the centres need testing
    if any(centre_witness(g, v, 4) is not None for v in x):
        raise DomainError("host graph contains an induced S(K_{1,4})")
    edges = tuple(sorted({_norm(u, v) for u, v in matching_edges}))
    m = Matching(g, edges)
    for u, v in edges:
        if (u in x) == (v in x):
            raise DomainError(f"matching edge ({u},{v}) must have exactly one centre end")
    if not x <= m.covered():
        raise DomainError("matching does not saturate the centre set")
    partner = {}
    for u, v in edges:
        partner[u] = v
        partner[v] = u
    trestle = _build(g, partner, x)
    cert = TrestleCertificate.of(g, trestle, 3, matching_edges=edges)
    report = verify_trestle(cert)
    if not report.passed():
        raise InternalInvariantError(
            f"built trestle failed verification: {report.failed_checks()}"
        )
    return cert
