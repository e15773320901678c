"""Constructive 3-trestles in squares of S(K_{1,4})-free graphs.

Given a host graph together with a matching that pairs every centre of
an induced S(K_{1,3}) with exactly one non-centre neighbour, the builder
produces a 3-trestle of the square in which every unmatched vertex has
degree exactly 2.  The construction follows the inductive proof: split
the graph at a cutvertex of maximal degree, solve each branch with a
pendant dummy standing in for the rest of the graph, and reassemble the
branch solutions through a theta graph spanned over the cutvertex's
neighbourhood.

Views.  Every level of the induction works in the input's vertex ids on
one shared adjacency; no level copies or relabels the graph.  A level
is the set of vertices that carry its mark in ``label``, and its graph
is the subgraph of the shared adjacency induced on them, so the edges a
split drops between branches simply stop being seen.  A branch at depth
d gets the dummy id n + d, attached to the cutvertex c in the shared
adjacency while the branch is open.  The dummies of one level come from
distinct depths, so their ids never collide, and they sort after every
host vertex and in order of depth.  Ascending ids are therefore the
order that relabelling each branch in ascending order with its dummy
last would give, so every ``min`` tie-break, every ascending scan and
the sorted edge order of the spanning tree come out as on relabelled
copies.  The centre flags and the partner map are shared as well: a
branch changes them only at the vertices named below and undoes the
changes when its solution comes back.  The solutions of all levels
collect in one adjacency of result edges.  When a branch returns, the
result edges at c and at its dummy are exactly the branch's own, since
the earlier branches of the level have handed theirs over and the
engagement edges wait in the level until its join; they give the
branch's entry pair and are removed, and all other edges stay.

Small to large.  The search for branches (below) stops once a single
component is left unfinished.  When that component holds one gate, it
is the largest branch and becomes a level without being listed: it
keeps the level's mark and state (``_Level``), the rest of the level is
unmarked while it is open, and only that rest is touched.  Every other
branch is listed, gets a fresh mark and takes over the level's
neighbour list of every vertex off the dropped edges, since those
vertices keep all their neighbours.

Branches.  With the star at c and the far matching edges forced, a
spanning tree T of the level minus c has one component per neighbour of
c (its gate).  Searches from all gates find the components of the
level minus c, taking turns with budgets that double every round and
merging where they meet.  A component that holds a single gate is a
component of T minus c as it stands.  Inside one that holds several, a
union-find builds T's components: every gate starts as a marked root,
the forced edges and then the edges in sorted order merge roots, and
two marked roots never merge, since in T that edge would close a cycle
through c.  The edges refused that way are the dropped edges, between
two branches or a branch and a lone gate.

Centres.  A branch's centres are among the level's centres inside it.
A spider that avoids the dummy leaf is induced in the level's graph.  One
that uses the dummy has it as a leaf under c and the gate as its centre;
but c is a cutvertex, so it has a neighbour in a component of the graph
minus c that misses the branch, and through it the gate has a third arm
in the level's graph as well.  Conversely, a centre v of the level keeps
its status in the branch when it is at distance at least 3 from c and
at distance at least 2 from every endpoint of a dropped edge.  Then
neither v nor a neighbour of v is adjacent to c or on a dropped edge,
so every walk of length at most 2 from v stays inside the branch, in
the level's graph and in the branch's alike.  So v's radius-2 ball, and
every edge inside it, is the same in both graphs, and an induced spider
centred at v lies inside that ball.  Inside the branch, c's only
neighbour is the gate, and a vertex next to another neighbour of c is
itself on a dropped edge; so only the gate, the branch's ends of
dropped edges and the neighbours of these are re-tested.

Cutvertices.  A branch that no dropped edge meets is a whole component
of the level minus c.  The rest of the level meets it only at c and
stays connected to c when a vertex v of the branch is removed, so v
separates the level exactly when it separates the branch plus c.  The
dummy, hanging at c, changes nothing for v and makes c a cutvertex: the
branch's cutvertices are the level's inside it, plus c.  Only the other
branches run a lowpoint DFS.  A level picks its cutvertex from a heap
ordered by degree, then id, dropping entries of vertices that left or
changed degree as they surface.  Square adjacency is a distance-2 test
on the level's graph; no square is built.

The input is settled first.  Connected with at least 3 vertices and no
cutvertex, it is 2-connected, and its square's Hamilton cycle is the
answer (Fleischner's theorem; ``oracle.fleischner_hamilton``); no level
is built.  Otherwise the input, with the cutvertices that one DFS
found, is the root level, and every inner level has a pendant dummy.
So every level is connected and has a cutvertex: it is a path exactly
when no vertex has degree 3 or more, and the ring of ``_Level`` with
its count of such vertices is all a level needs.  Small levels need no
case of their own.  An inner level has at least 4 vertices (a branch
of at least 2, c and the dummy), and with exactly 4 it is the path
dummy-c-gate-w.  A root on at most 4 vertices that is no path is
either the claw K_{1,3} or the paw, whose split finds no branch of two
vertices and takes the identity cycle over the complete square, or
2-connected (the triangle, C_4, the diamond, K_4), where the Hamilton
search on the complete square returns 0, 1, ..., n-1: the same cycle.

The levels form a tree that is walked in post-order with an explicit
stack of generators, one per open cut: ``_Levels.split`` either solves
a level outright or returns a ``_Cut``, whose ``solve`` yields its
branches as levels one at a time, reads each branch's entry pair off
the result edges when resumed after it, and finally joins them.  The
depth of the decomposition is therefore not bounded by Python's
recursion limit.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop

from .graphs import (
    DomainError,
    Graph,
    InternalInvariantError,
    articulation_points,
    cutvertices,
    is_connected,
    is_path_graph,
)
from .matching_flow import Matching
from .oracle import fleischner_hamilton
from .path_cover import linear_forest_for
from .patterns import NeighbourSets, centre_witness, centres, spider_witness
from .verify import TrestleCertificate, verify_trestle

# when set, called as hook(adjacency, vertices, view, centres, cuts) on
# every branch as it opens, with the shared adjacency, the branch's
# graph, its centre set after the re-tests and its inherited cutvertices
# (None when a DFS will find them); tests compare them with full searches
_level_hook = None


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _cycle_edges(order) -> set[tuple[int, int]]:
    return {
        _norm(order[i], order[(i + 1) % len(order)]) for i in range(len(order))
    }


def _within_two(g, u: int, v: int) -> bool:
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
    return _path_square_cycle(range(p.n), p.adj)


def _path_square_cycle(vs, adj) -> list[tuple[int, int]]:
    """``path_square_cycle`` for the ascending vertices ``vs`` of a path
    on at least 2 vertices, with neighbour lists ``adj``."""
    start = next(v for v in vs if len(adj[v]) == 1)
    order = [start]
    prev = -1
    while len(order) < len(vs):
        cur = order[-1]
        nxt = [w for w in adj[cur] if w != prev]
        prev = cur
        order.append(nxt[0])
    seq = order[0::2] + order[1::2][::-1]
    return sorted(_cycle_edges(seq))


def _bounded_alpha(g: Graph, cap: int = 4) -> int:
    """min(independence number, cap); enough to check the alpha <= 3 bound.

    Depth-first over independent sets in increasing id order: a set is
    extended only by later vertices adjacent to none of its members,
    and the search stops at the first set of size ``cap``.
    """
    masks = g.adjacency_masks()
    best = 0
    # (size of an independent set, bitmask of the vertices that extend it)
    stack = [(0, (1 << g.n) - 1)]
    while stack:
        size, extend = stack.pop()
        if size > best:
            best = size
            if best >= cap:
                return cap
        while extend:
            low = extend & -extend
            extend ^= low
            stack.append((size + 1, extend & ~masks[low.bit_length() - 1]))
    return best


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


class _View(dict):
    """The graph of one level: the neighbour lists of the shared
    adjacency restricted to the vertices marked ``mark``, each built on
    first use.

    It is its own ``adj``, which with ``has_edge`` is all that
    ``_within_two``, ``_expand_pairs`` and the spider search read.
    """

    __slots__ = ("shared", "label", "mark")

    def __init__(self, shared: list[list[int]], label: list[int], mark: int):
        super().__init__()
        self.shared, self.label, self.mark = shared, label, mark

    def __missing__(self, v: int) -> list[int]:
        label, mark = self.label, self.mark
        nbrs = self[v] = [w for w in self.shared[v] if label[w] == mark]
        return nbrs

    @property
    def adj(self) -> _View:
        return self

    def has_edge(self, u: int, v: int) -> bool:
        return v in self[u]


class _Levels:
    """The state that every level of one build shares.

    ``adj`` is the host's adjacency plus the edge from each open
    branch's dummy to its cutvertex, ``label`` the mark of the innermost
    level that holds each vertex, ``centre`` and ``partner`` the centre
    flags and the centre matching as the innermost level sees them, and
    ``result`` the adjacency of the result edges gathered so far.
    """

    def __init__(self, g: Graph, partner: dict[int, int], x: set[int]):
        self.g = g
        self.adj = [list(a) for a in g.adj]
        self.label = [0] * g.n
        self.marks = 0
        self.centre = [v in x for v in range(g.n)]
        self.partner = partner
        self.result: list[set[int]] = [set() for _ in range(g.n)]

    def dummy(self, depth: int) -> int:
        """The id of the dummy of a branch at ``depth``, with its slots."""
        y = self.g.n + depth
        while len(self.adj) <= y:
            self.adj.append([])
            self.label.append(-1)
            self.centre.append(False)
            self.result.append(set())
        return y

    def add(self, edges) -> None:
        result = self.result
        for u, v in edges:
            result[u].add(v)
            result[v].add(u)

    def build(self) -> set[tuple[int, int]]:
        """The result edges: a Hamilton cycle of the square when the host
        is 2-connected, else the level tree solved in post-order."""
        g = self.g
        cuts = cutvertices(g)
        if not cuts:
            # connected with n >= 3 and no cutvertex: 2-connected
            return _cycle_edges(fleischner_hamilton(g))
        root = _Level(list(range(g.n)), _View(self.adj, self.label, 0), cuts)
        # below the root's one-item iterator, one generator per open cut,
        # innermost last; each yields its branches as levels and takes a
        # branch's solution when resumed
        open_cuts = [iter([(root, 0)])]
        while open_cuts:
            branch = next(open_cuts[-1], None)
            if branch is None:
                open_cuts.pop()
                continue
            cut = self.split(*branch)
            if cut is not None:
                open_cuts.append(cut.solve())
        return {(u, v) for u, vs in enumerate(self.result) for v in vs if u < v}

    def split(self, level: _Level, depth: int) -> _Cut | None:
        """Solve a level outright, or split it at a cutvertex.

        A solved level's edges go to the result.
        """
        view = level.view
        if level.is_path():
            self.add(_path_square_cycle(level.vertices(), view))
            return None
        if level.cuts is None:
            vs = level.vertices()
            level.cuts = articulation_points(vs, view, dict.fromkeys(vs, -1), dict.fromkeys(vs, 0))
            if not level.cuts:
                raise InternalInvariantError("a level with a dummy leaf has no cutvertex")
        c = level.top_cut(self.label)
        if c is None:
            raise InternalInvariantError("no cutvertex of degree >= 3 in a non-path host")
        nc = view[c]

        # the components of the level minus c, searched from every gate in
        # rounds, each search expanding up to ``budget`` vertices, which
        # doubles per round, until a single group of searches that met
        # is left with vertices to expand
        owner = {c: -1}
        stacks, parts = [], []
        for i, gate in enumerate(nc):
            owner[gate] = i
            stacks.append([gate])
            parts.append([gate])
        group = list(range(len(nc)))

        def root(i: int) -> int:
            while group[i] != i:
                group[i] = group[group[i]]
                i = group[i]
            return i

        def search(i: int, budget: int) -> None:
            stack, part = stacks[i], parts[i]
            while stack and budget:
                budget -= 1
                for w in view[stack.pop()]:
                    o = owner.get(w)
                    if o is None:
                        owner[w] = i
                        part.append(w)
                        stack.append(w)
                    elif o != i and o >= 0:
                        group[root(o)] = root(i)

        live = list(range(len(nc)))
        budget = 1
        while len({root(i) for i in live}) > 1:
            for i in live:
                search(i, budget)
            live = [i for i in live if stacks[i]]
            budget *= 2
        last = -1
        if len(live) == 1 and sum(1 for i in range(len(nc)) if root(i) == root(live[0])) == 1:
            # the last component holds one gate: it stays unsearched
            last = live[0]
        else:
            for i in live:
                search(i, -1)

        members: dict[int, list[int]] = {}
        for i in range(len(nc)):
            if i != last:
                members.setdefault(root(i), []).append(i)
        nc_set, cuts = set(nc), level.cuts
        branches = []
        parked: list[int] = []
        for searches in members.values():
            part = sorted(v for i in searches for v in parts[i])
            parked.extend(part)
            if len(searches) == 1:
                found = [(part, [])]
            else:
                found = self._tree_parts(part, view, c, nc_set)
            for comp, ends in found:
                if len(comp) >= 2:
                    branches.append(
                        (comp[0], comp, ends, [] if ends else [v for v in comp if v in cuts])
                    )
        heavy = None
        if last >= 0:
            # the largest branch's lowest vertex: the lowest of the level
            # after c and the other components
            first = next(v for v in level.ascending() if v != c and owner.get(v, last) == last)
            branches.append((first, None, [], []))
            heavy = (nc[last], parked, sum(1 for v in parked if len(view[v]) >= 3))
        if not branches:
            # c is adjacent to everything, the square is complete
            self.add(_cycle_edges(level.vertices()))
            return None
        branches.sort()
        return _Cut(self, level, depth, c, nc, branches, heavy)

    def _tree_parts(
        self, part: list[int], view: _View, c: int, nc: set[int]
    ) -> list[tuple[list[int], list[int]]]:
        """The components of T minus c inside ``part``, a component of the
        level minus c that holds several gates, each with its ends of
        dropped edges.

        T is the spanning tree of the level that takes the star at c,
        then the matching edges not inside c's closed neighbourhood,
        then every edge in sorted order that closes no cycle.  A
        matching edge lies in one part, and union-find steps in
        different parts do not interact, so ``part`` is done alone:
        every gate starts as a gated root, and two gated roots never
        merge, since in T their edge would close a cycle through c.
        """
        partner = self.partner
        parent = {v: v for v in part}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        gated = {v for v in part if v in nc}
        for u in part:
            v = partner.get(u)
            if v is None or u > v or (u in nc and (v in nc or v == c)):
                continue
            ru, rv = find(u), find(v)
            if ru == rv or (ru in gated and rv in gated):
                raise InternalInvariantError("forced edges contain a cycle")
            parent[ru] = rv
            if ru in gated:
                gated.add(rv)
        dropped: list[int] = []
        for u in part:
            for v in view[u]:
                if v < u or v == c:
                    continue
                ru, rv = find(u), find(v)
                if ru == rv:
                    continue
                if ru in gated and rv in gated:
                    dropped.append(u)
                    dropped.append(v)
                    continue
                parent[ru] = rv
                if ru in gated:
                    gated.add(rv)
        comps: dict[int, list[int]] = {}
        for v in part:
            comps.setdefault(find(v), []).append(v)
        ends: dict[int, list[int]] = {}
        for v in dropped:
            ends.setdefault(find(v), []).append(v)
        return [(comp, ends.get(r, [])) for r, comp in comps.items()]


_HEAD = -1


class _Level:
    """A level as the split reads it.

    ``view`` is its graph.  ``after`` and ``before`` link its vertices
    in ascending order into a ring closed by ``_HEAD``, and ``wide``
    counts its vertices of degree >= 3.  Every level is connected and
    has a cutvertex, so it is a path exactly when ``wide`` is 0.
    ``cuts`` holds its cutvertices, None until known, and ``heap`` those
    of degree >= 3 as (-degree, id), stale entries dropped when met.
    ``narrow`` turns the level into its largest branch in place, at the
    cost of the vertices that leave it.
    """

    def __init__(self, vs: list[int], view: _View, cuts: set[int] | None = None):
        self.view = view
        self.mark = view.mark
        ring = [_HEAD, *vs, _HEAD]
        self.after = dict(zip(ring, ring[1:]))
        self.before = dict(zip(ring[1:], ring))
        self.wide = sum(1 for v in vs if len(view[v]) >= 3)
        self.cuts = cuts
        self.heap: list[tuple[int, int]] | None = None

    def ascending(self):
        after = self.after
        v = after[_HEAD]
        while v != _HEAD:
            yield v
            v = after[v]

    def vertices(self) -> list[int]:
        return list(self.ascending())

    def is_path(self) -> bool:
        """No vertex of degree >= 3: a path, as the level is connected
        and has a cutvertex."""
        return not self.wide

    def top_cut(self, label: list[int]) -> int | None:
        """The cutvertex of the highest degree >= 3, the lowest among ties."""
        view, mark = self.view, self.mark
        if self.heap is None:
            self.heap = [(-len(view[v]), v) for v in self.cuts if len(view[v]) >= 3]
            heapify(self.heap)
        heap = self.heap
        while heap:
            d, v = heap[0]
            if label[v] == mark and len(view[v]) == -d:
                return v
            heappop(heap)
        return None

    def narrow(self, c: int, gate: int, parked: list[int], lost: int, y: int) -> None:
        """Become the branch at ``gate``: ``parked`` (the rest of the level
        but c, with ``lost`` vertices of degree >= 3) leaves, and the
        dummy ``y`` hangs at c, whose degree drops to 2.

        The branch is a whole component of the level minus c, so every
        other vertex keeps its neighbours, its degree and, as the module
        docstring shows, its cutvertex status; c, a cutvertex of the
        level, stays one through the dummy.
        """
        after, before, view = self.after, self.before, self.view
        for v in parked:
            a, b = after[v], before[v]
            after[b] = a
            before[a] = b
        last = before[_HEAD]
        after[last], before[y], after[y], before[_HEAD] = y, last, _HEAD, y
        self.wide -= lost + 1
        view[c] = [gate, y]
        view[y] = [c]


class _Cut:
    """A level split at cutvertex ``c``, collecting its branch solutions.

    ``branches`` holds, for each component with at least two vertices of
    a spanning tree minus ``c``, in order of their lowest vertex: that
    vertex, the vertex list (ascending), the ends of dropped edges in it
    and the level's cutvertices in it.  The largest component, when the
    search left it unsearched, has no list; ``heavy`` then holds its
    gate, the rest of the level but c, and how many of those have degree
    at least 3.
    ``solve`` opens each branch as a level in turn, reads its solution
    into a contracted pair and closes it, and spans the theta graph once
    every branch is in.
    """

    def __init__(
        self,
        levels: _Levels,
        level: _Level,
        depth: int,
        c: int,
        nc: list[int],
        branches: list[tuple[int, list[int] | None, list[int], list[int]]],
        heavy: tuple[int, list[int], int] | None,
    ):
        self.levels = levels
        # the level's state, which its largest branch takes over; the
        # other branches take their neighbour lists along when opened
        self.level = level
        self.mark = level.mark
        self.depth = depth
        self.c = c
        self.nc = set(nc)
        self.closed = self.nc | {c}
        self.branches = branches
        self.heavy = heavy
        self.pairs: list[tuple[int, int]] = []
        # engagement edges; they join the result with the theta graph
        self.extra_edges: list[tuple[int, int]] = []

    def solve(self):
        """Yield each branch as a level with its depth, in order; take
        the branch's solution when resumed, and join after the last."""
        depth = self.depth + 1
        for _, comp, ends, comp_cuts in self.branches:
            level, opened = self.open(comp, ends, comp_cuts, depth)
            yield level, depth
            self.take(*opened)
        self.join()

    def open(
        self, comp: list[int] | None, ends: list[int], comp_cuts: list[int], depth: int
    ) -> tuple[_Level, tuple]:
        """Open a branch plus the cutvertex and a pendant dummy as a
        level.  Its centres are the level's, re-tested near c and near
        dropped edges, and its matching is the level's, restricted to
        the branch.  Returns the level and what ``take`` needs: the
        vertices whose mark it restores, the gate, the vertex the gate
        is engaged to if any, the dummy, and the changes to undo."""
        lv, c, nc = self.levels, self.c, self.nc
        y = lv.dummy(depth)
        label = lv.label
        if comp is None:
            # the largest branch keeps the level's mark and state; the
            # rest of the level is unmarked while it is open
            u_i, parked, lost = self.heavy
            for v in parked:
                label[v] = -1
            label[y] = self.mark
            lv.adj[c].append(y)
            lv.adj[y] = [c]
            level = self.level
            level.narrow(c, u_i, parked, lost, y)
            restore = parked
        else:
            gates = [v for v in comp if v in nc]
            if len(gates) != 1:
                raise InternalInvariantError("branch meets the neighbourhood more than once")
            u_i = gates[0]
            lv.marks += 1
            mark = lv.marks
            view = _View(lv.adj, label, mark)
            # a vertex off the dropped edges has the same neighbours in the
            # branch as in the level, so its list moves over; the others,
            # c and the dummy are read afresh
            take_list = self.level.view.pop
            for v in comp:
                label[v] = mark
                view[v] = take_list(v)
            for v in ends:
                view.pop(v, None)
            label[c] = label[y] = mark
            lv.adj[c].append(y)
            lv.adj[y] = [c]
            vs = comp
            insort(vs, c)
            vs.append(y)
            # with no dropped edge, comp is a component of the level minus c
            level = _Level(vs, view, None if ends else set(comp_cuts) | {c})
            restore = vs
        view, mark = level.view, level.mark

        centre, partner = lv.centre, lv.partner
        # (store, key, previous value); None stands for no partner
        undo: list = [(centre, c, centre[c])]
        centre[c] = False
        seeds = [u_i] + ends
        near = set(seeds)
        for a in seeds:
            near.update(view[a])
        sets = NeighbourSets(view)
        for v in near:
            if centre[v] and spider_witness(view, v, 3, sets) is None:
                undo.append((centre, v, True))
                centre[v] = False
                p = partner.get(v)
                if p is not None and label[p] == mark and p != c and not centre[p]:
                    undo.append((partner, v, p))
                    undo.append((partner, p, v))
                    del partner[v], partner[p]

        engaged_to = None
        t_i = partner.get(u_i)
        if t_i is not None and (label[t_i] != mark or t_i == c):
            undo.append((partner, u_i, t_i))
            if centre[u_i]:
                if t_i not in self.closed:
                    raise InternalInvariantError("engaged vertex outside the closed neighbourhood")
                partner[u_i] = c
                engaged_to = t_i
            else:
                del partner[u_i]
        undo.append((partner, c, partner.get(c)))
        if engaged_to is None:
            partner.pop(c, None)
        else:
            partner[c] = u_i
        # a vertex's partner leaves the level only at the gate, so in the
        # largest branch the gate and the re-tested vertices are checked
        for v in near if comp is None else comp:
            if centre[v]:
                p = partner.get(v)
                if p is None or label[p] != mark:
                    raise InternalInvariantError("branch matching misses a centre")

        if _level_hook is not None:
            vs = level.vertices()
            cuts = None if level.cuts is None else {v for v in vs if v in level.cuts}
            _level_hook(lv.adj, vs, view, {v for v in vs if centre[v]}, cuts)
        return level, (restore, u_i, engaged_to, y, undo)

    def take(self, restore: list[int], u_i: int, engaged_to: int | None, y: int, undo: list) -> None:
        """Close the open branch; its result edges at the cutvertex and
        the dummy give the branch's entry pair, the others stay."""
        lv, c, mark = self.levels, self.c, self.mark
        label = lv.label
        for v in restore:
            label[v] = mark
        label[y] = -1
        lv.adj[c].pop()
        lv.adj[y] = []
        for store, key, old in reversed(undo):
            if old is None:
                store.pop(key, None)
            else:
                store[key] = old

        result = lv.result
        at_c, at_y = result[c], result[y]
        if c not in at_y or u_i not in at_y:
            raise InternalInvariantError("dummy leaf is not wired to the cut and its gate")
        o_i = (at_c | at_y) - {c, y}
        for w in at_c:
            result[w].discard(c)
        for w in at_y:
            result[w].discard(y)
        at_c.clear()
        at_y.clear()
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
            if not _within_two(_View(lv.adj, label, mark), *e_i):
                raise InternalInvariantError("engagement edge is not in the square")
            self.extra_edges.append(e_i)

    def join(self) -> None:
        """Add the theta graph over the contracted pairs, minus the pair
        edges, and the engagement edges to the result."""
        lv = self.levels
        g = _View(lv.adj, lv.label, self.mark)
        c, nc, pairs = self.c, self.nc, self.pairs
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
        a_vertex = lv.partner.get(c)
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
        lv.add(result)


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
    trestle = _Levels(g, partner, x).build()
    cert = TrestleCertificate.of(g, trestle, 3, matching_edges=edges)
    report = verify_trestle(cert)
    if not report.passed():
        raise InternalInvariantError(
            f"built trestle failed verification: {report.failed_checks()}"
        )
    return cert
