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
split drops between branches simply stop being seen.  The root level
holds every host vertex under mark 0, so its view starts as a copy of
the host's neighbour lists and filters none.  A branch at depth
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
component is left unfinished; it counts, per group of searches that
met, the searches with vertices left, so no round looks at them all.
When that component holds one gate, it is the largest branch and
becomes a level without being listed: it keeps the level's mark and
state (``_Level``), the rest of the level is unmarked while it is open,
and only that rest is touched.  A level's vertices are the marked ones
of the ascending list it opened with (each narrowing appends its
dummy), and the unmarked ones in front are skipped for good; below the
lowest vertex of a largest branch only c stays, so each unmarked
vertex is passed a bounded number of times.  Every other branch is
listed, gets a fresh mark and takes over the level's neighbour list of
every vertex off the dropped edges, since those vertices keep all their
neighbours; their lengths give its count of vertices of degree >= 3.

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
its status in the branch when it is not the gate and is at distance at
least 2 from every endpoint of a dropped edge.  Inside the branch c's
only neighbour is the gate, so v is not adjacent to c, nor within
distance 2 of the dummy or of c's other neighbours, and neither v nor a
neighbour of v is on a dropped edge; so every walk of length at most 2
from v stays inside the branch plus c, in the level's graph and in the
branch's alike.  So v's radius-2 ball, and every edge inside it, is the
same in both graphs, and an induced spider centred at v lies inside
that ball.  So only the gate, the branch's ends of dropped edges and
their neighbours are re-tested.

Path branches.  A branch that no dropped edge meets and whose vertices
all have degree at most 2 in the level is solved at its cut, without a
level: a listed one by its lists, the largest one when the level's
count of vertices of degree >= 3 is c plus those that would leave.  It
is a whole component of the level minus c with a single gate, so with
c and the dummy it is the path dummy, c, gate .. far end, and the
level's neighbour lists of its vertices are the branch's own.
``close`` walks it from the gate along those lists (built if the search
did not reach them) and writes the Hamilton cycle of the square of
dummy, c, walk straight from the walk: the pairs two apart and the two
end edges, the cycle ``_square_cycle`` gives path levels.  Its edges do
not depend on the direction of the walk, so they are the ones the
branch would get as a level.  No vertex of degree at most 2 centres a
spider, so the branch has no centre (``close`` checks that) and its
gate is not engaged; the re-tests and matching changes of an opened
branch would all be undone when it closed.  The cycle's edges away from
c and the dummy go to the result.  The others, dummy-c, dummy-gate and
c to the gate's successor, give the entry pair (gate, successor) with
no entry set to contract: the gate is the branch's only vertex in the
neighbourhood of c (``_gate`` checks that of a listed branch), so its
successor is not in it.

Joins.  A cut reads its level's graph through one ``_SetView`` of
neighbour sets, built with the cut, c's set being the neighbourhood,
and read only while every branch is back in the level, by ``enter`` and
by the join: ``_within_two`` meets one vertex's set with the other's
shared list.  A join spans a linear forest over the contracted pair
graph: one vertex per branch, two joined when their pairs meet in the
level.  One map from each pair vertex to its pair's index and one pass
over those vertices' shared neighbour lists give its edges, as every
pair vertex is in the level; the neighbourhood vertices outside the
map are the leftover gates.  The paper's join lemma bounds that
graph's independence number by 3 in an S(K_{1,4})-free host, with c
matched when it is 3.  The construction uses only a consequence:
``linear_forest_for`` gives at most independence-number many paths
(Gallai-Milgram; ``path_cover`` checks each cover against an
independent transversal), so there are at most 3, and when there are 3
one is led by c's partner, which the theta graph joins to the other two
leads.  The join checks exactly
that: more than three paths, or three with no anchored lead, is an
internal fault.  The graph is fixed by the pair count, its edges and
the anchored pair, and ``linear_forest_for`` reads nothing else, so
``_Levels.joins`` keeps its paths per key for the build.  Only a key
met for the first time builds a ``Graph`` and solves it; each join
still checks the path count and expands its own pairs.  The memo lives
and dies with the build's state.

Pair orientation.  ``_expand_pairs`` orients a path's pairs greedily,
and this lemma shows that it never gets stuck.  Every pair is an edge
of the level: a branch B_i is a component of T minus c and T holds the
star at c, so in B_i's level (B_i, c and the dummy) c's only neighbour
in B_i is the gate u_i, and every vertex within distance 2 of c or of
the dummy is u_i or a neighbour of u_i; ``enter``'s w_i and
``close``'s ``path[1]`` are such vertices.  Consecutive pairs P and Q
of a forest path are joined by an arc (``path_cover._check`` verifies
every step), so some p in P is adjacent to some q in Q.  Each x in P is
p or adjacent to p through P's own edge, so x is within distance 2 of
q, and x is not q since the branches are disjoint.  So whichever
vertex of P a walk ends at, Q fits after it: (u, w) when u is within
distance 2 of it, else (w, u).  Every prefix extends, so the greedy
walk is also the first orientation in order, (u, w) before (w, u) at
every position, of all that walk in the square.  c's partner is a
neighbour of c in the level, and ``enter`` refuses a w_i in c's
neighbourhood (``path[1]`` is not in it either), so an anchored pair
is led by its gate: the path is read from the anchored end, and every
path starts with its first pair as (u, w).

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

The input is settled first, by one DFS, before any hypothesis is
tested.  Connected with at least 3 vertices and no cutvertex, it is
2-connected, and its square's Hamilton cycle is the answer
(Fleischner's theorem; ``oracle.fleischner_hamilton``) whatever its
centres, since that theorem needs nothing else; no level is built.
Otherwise the input, with the cutvertices that the DFS found, is the
root level, and every inner level has a pendant dummy.
So every level is connected and has a cutvertex: it is a path exactly
when no vertex has degree 3 or more, and ``_Level``'s count of such
vertices is all a level needs.  Small levels need no
case of their own.  An inner level has at least 4 vertices (a branch
of at least 2, c and the dummy), and with exactly 4 it is the path
dummy-c-gate-w.  A root on at most 4 vertices that is no path is
either the claw K_{1,3} or the paw, whose split finds no branch of two
vertices and takes the identity cycle over the complete square, or
2-connected (the triangle, C_4, the diamond, K_4), where the Hamilton
search on the complete square returns 0, 1, ..., n-1: the same cycle.

The levels form a tree that is walked in post-order with an explicit
stack of generators, one per open cut: ``_Levels.split`` either solves
a level outright or returns a ``_Cut``, whose ``solve`` opens its
branches as levels one at a time and splits each, yields the ``solve``
of each one that it cuts to run to its end first, reads each branch's
entry pair off the result edges, and finally joins them.  The depth of
the decomposition is therefore not bounded by Python's recursion limit.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop
from itertools import compress, islice

from .graphs import (
    Disconnected,
    DomainError,
    Graph,
    InternalInvariantError,
    Undetermined,
    articulation_points,
    connected_cutvertices,
    is_path_graph,
)
from .matching_flow import Matching
from .path_cover import linear_forest_for
from .patterns import NeighbourSets, centre_witness, centres, has_spider3
from .verify import TrestleCertificate, verify_trestle

# when set, called as hook(adjacency, vertices, view, centres, cuts) on
# every branch as it opens as a level, with the shared adjacency, the
# branch's graph, its centre set after the re-tests and its inherited
# cutvertices (None when a DFS will find them); tests compare them with
# full searches
_level_hook = None


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _cycle_edges(order: list[int]) -> set[tuple[int, int]]:
    return set(map(_norm, order, order[1:] + order[:1]))


def _within_two(view: _SetView, u: int, v: int) -> bool:
    """Whether uv, two vertices of the level ``view``, is an edge of the
    square of its graph: v is in u's neighbour set, or that set meets v's
    shared neighbour list (the set holds only vertices of the level)."""
    nu = view[u]
    return u != v and (v in nu or not nu.isdisjoint(view.shared[v]))


def _find(parent, x: int) -> int:
    """The root of x in the union-find forest ``parent``, halving the
    path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _wide(lists) -> int:
    """How many of the neighbour lists ``lists`` hold 3 or more."""
    return sum(map((3).__le__, map(len, lists)))


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
    return _square_cycle(_walk([start], adj.__getitem__))


def _walk(order: list[int], nbrs) -> list[int]:
    """Extend ``order``, the start of a walk from one end of a path, to
    the path's other end.  ``nbrs(v)`` gives v's neighbour list; it is
    called once for order's last vertex and once for each one added."""
    prev = order[-2] if len(order) > 1 else -1
    v = order[-1]
    while True:
        for w in nbrs(v):
            if w != prev:
                break
        else:
            return order
        prev, v = v, w
        order.append(w)


def _square_cycle(order: list[int]) -> list[tuple[int, int]]:
    """The sorted edges of the Hamilton cycle of the square of the path
    ``order``: the even positions in order, then the odd ones backwards.

    They are the pairs two apart along the path plus its two end edges,
    so the walk's direction does not change them.
    """
    return sorted(_cycle_edges(order[0::2] + order[1::2][::-1]))


def _path_branch_edges(path: list[int]) -> list[tuple[int, int]]:
    """The edges that avoid c and the dummy y of the Hamilton cycle of
    the square of the path y, c, ``path``: the pairs two apart along
    ``path`` and its far end edge.  The cycle's other edges, yc, y to
    ``path[0]`` and c to ``path[1]``, make the entry pair
    (``path[0]``, ``path[1]``).  ``path`` has at least 2 vertices."""
    return [*zip(path, path[2:]), (path[-2], path[-1])]


def _expand_pairs(
    path: tuple[int, ...], pairs: list[tuple[int, int]], view: _SetView, a_vertex: int | None
) -> list[int]:
    """Replace each contracted pair (u, w), u the gate, by (u, w) or
    (w, u), so that the result is a path in the square of the graph
    ``view`` that starts at a gate.

    The path is read from the end whose pair holds a_vertex, if one
    does; the first pair is (u, w), and each later pair is (u, w) when
    u is within distance 2 of the last vertex so far, (w, u) otherwise.
    The module docstring ("Pair orientation") shows that this never
    gets stuck and that a_vertex, when in a pair, is its gate.
    """
    if len(path) == 1:
        return list(pairs[path[0]])
    seq = [pairs[i] for i in path]
    held = [a_vertex in pair for pair in seq]
    if any(held[1:-1]):
        raise InternalInvariantError("anchored pair is not at a path end")
    if held[-1]:
        seq.reverse()
    out = list(seq[0])
    for u, w in seq[1:]:
        if _within_two(view, out[-1], u):
            out += (u, w)
        elif _within_two(view, out[-1], w):
            out += (w, u)
        else:
            raise InternalInvariantError("consecutive pairs are not within distance 2")
    return out


class _View(dict):
    """The graph of one level: the neighbour lists of the shared
    adjacency restricted to the vertices marked ``mark``, each built on
    first use."""

    __slots__ = ("shared", "label", "mark")

    def __init__(self, shared: list[list[int]], label: list[int], mark: int):
        self.shared, self.label, self.mark = shared, label, mark

    def __missing__(self, v: int) -> list[int]:
        label, mark = self.label, self.mark
        nbrs = self[v] = [w for w in self.shared[v] if label[w] == mark]
        return nbrs


class _SetView(_View):
    """``_View`` with neighbour sets, which ``_within_two`` reads."""

    __slots__ = ()

    def __missing__(self, v: int) -> set[int]:
        label, mark = self.label, self.mark
        nbrs = self[v] = {w for w in self.shared[v] if label[w] == mark}
        return nbrs


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
        # (pair count, contracted edges, anchor) -> linear forest paths
        # of each contracted pair graph met
        self.joins: dict[tuple, tuple[tuple[int, ...], ...]] = {}

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

    def build(self, cuts: set[int]) -> set[tuple[int, int]]:
        """The result edges: the level tree, rooted at the host with its
        cutvertices ``cuts`` (not empty), solved in post-order."""
        # every label is 0, so the root's lists are the host's
        view = _View(self.adj, self.label, 0)
        view.update(enumerate(map(list, self.g.adj)))
        root = _Level(list(range(self.g.n)), view, _wide(view.values()), cuts)
        # one generator per open cut, innermost last; each yields the
        # generator of each branch that it cuts, to run to its end first
        cut = self.split(root, 0)
        open_cuts = [] if cut is None else [cut.solve()]
        while open_cuts:
            inner = next(open_cuts[-1], None)
            if inner is None:
                open_cuts.pop()
            else:
                open_cuts.append(inner)
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
        k = len(nc)

        # the components of the level minus c, searched from every gate in
        # rounds, each search expanding up to ``budget`` vertices, which
        # doubles per round, until a single group of searches that met
        # is left with vertices to expand: a lone search stops there, a
        # group runs to its end.  ``alive`` counts the unfinished searches
        # of each group at its root, the running one among them, and
        # ``groups`` the groups with any
        owner = {gate: i for i, gate in enumerate(nc)}
        owner[c] = -1
        owned = owner.get
        stacks = [[gate] for gate in nc]
        parts = [[gate] for gate in nc]
        group, alive, merged = list(range(k)), [1] * k, set()
        live, groups, budget, last = list(range(k)), k, 1, -1
        while live:
            if groups == 1:
                if len(live) == 1 and live[0] not in merged:
                    # the last component holds one gate: it stays unsearched
                    last = live[0]
                    break
                budget = -1
            for i in live:
                stack, part, todo = stacks[i], parts[i], budget
                while stack and todo:
                    todo -= 1
                    for w in view[stack.pop()]:
                        o = owned(w)
                        if o is None:
                            owner[w] = i
                            part.append(w)
                            stack.append(w)
                        elif o != i and o >= 0:
                            ro, ri = _find(group, o), _find(group, i)
                            if ro != ri:
                                group[ro] = ri
                                merged.update((o, i))
                                if alive[ro]:
                                    groups -= 1
                                alive[ri] += alive[ro]
                if not stack:
                    ri = _find(group, i)
                    alive[ri] -= 1
                    if not alive[ri]:
                        groups -= 1
            live = [i for i in live if stacks[i]]
            budget *= 2

        # a search that met no other found a component with one gate;
        # searches that met are grouped into one component
        branches = []
        parked: list[int] = []
        members: dict[int, list[int]] = {}
        for i in range(k):
            if i in merged:
                members.setdefault(_find(group, i), []).append(i)
            elif i != last:
                part = sorted(parts[i])
                parked += part
                if len(part) >= 2:
                    branches.append((part[0], part, []))
        for searches in members.values():
            part = sorted(v for i in searches for v in parts[i])
            parked += part
            found = self._tree_parts(part, view, c, set(nc))
            branches += [(comp[0], comp, ends) for comp, ends in found if len(comp) >= 2]
        heavy = None
        if last >= 0:
            # the largest branch's lowest vertex: the lowest of the level
            # after c and the other components
            first = next(v for v in level.ascending() if v != c and owner.get(v, last) == last)
            branches.append((first, None, []))
            heavy = (nc[last], parked, _wide(map(view.__getitem__, parked)))
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
        gated = {v for v in part if v in nc}
        for u in part:
            v = partner.get(u)
            if v is None or u > v or (u in nc and (v in nc or v == c)):
                continue
            ru, rv = _find(parent, u), _find(parent, v)
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
                ru, rv = _find(parent, u), _find(parent, v)
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
            comps.setdefault(_find(parent, v), []).append(v)
        ends: dict[int, list[int]] = {}
        for v in dropped:
            ends.setdefault(_find(parent, v), []).append(v)
        return [(comp, ends.get(r, [])) for r, comp in comps.items()]


class _Level:
    """A level as the split reads it.

    ``view`` is its graph, and ``wide`` counts its vertices of degree
    >= 3.  Every level is connected and has a cutvertex, so it is a
    path exactly when ``wide`` is 0.  Its vertices are those of ``vs``,
    ascending, that carry its mark; the vertices before ``start`` have
    all left.  ``cuts`` holds its cutvertices, None until known, and
    ``heap`` those of degree >= 3 as (-degree, id), stale entries
    dropped when met.  ``narrow`` turns the level into its largest
    branch in place, at the cost of the vertices that leave it.
    """

    def __init__(self, vs: list[int], view: _View, wide: int, cuts: set[int] | None = None):
        self.vs = vs
        self.start = 0
        self.view = view
        self.mark = view.mark
        self.wide = wide
        self.cuts = cuts
        self.heap: list[tuple[int, int]] | None = None

    def ascending(self):
        vs, label, mark = self.vs, self.view.label, self.mark
        while label[vs[self.start]] != mark:
            self.start += 1
        return (v for v in islice(vs, self.start, None) if label[v] == mark)

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

    def narrow(self, c: int, gate: int, lost: int, y: int) -> None:
        """Become the branch at ``gate``: the rest of the level but c, with
        ``lost`` vertices of degree >= 3, has left (its mark is off), and
        the dummy ``y`` hangs at c, whose degree drops to 2.

        The branch is a whole component of the level minus c, so every
        other vertex keeps its neighbours, its degree and, as the module
        docstring shows, its cutvertex status; c, a cutvertex of the
        level, stays one through the dummy.
        """
        self.vs.append(y)
        self.wide -= lost + 1
        self.view[c] = [gate, y]
        self.view[y] = [c]


class _Cut:
    """A level split at cutvertex ``c``, collecting its branch solutions.

    ``branches`` holds, for each component with at least two vertices of
    a spanning tree minus ``c``, in order of their lowest vertex: that
    vertex, the vertex list (ascending) and the ends of dropped edges in
    it.  The largest component, when the search left it unsearched, has
    no list; ``heavy`` then holds its gate, the rest of the level but c,
    and how many of those have degree at least 3.
    ``solve`` opens each branch as a level in turn, reads its solution
    into a contracted pair and closes it, and spans the theta graph once
    every branch is in; a path branch is solved and closed at once.
    """

    def __init__(self, levels: _Levels, level: _Level, depth: int, c: int, nc: list[int], branches, heavy):
        self.levels = levels
        # the level's state, which its largest branch takes over; the
        # other branches take their neighbour lists along when opened
        self.level = level
        self.mark = level.mark
        self.depth = depth
        self.c = c
        self.nc = set(nc)
        self.branches = branches
        self.heavy = heavy
        # the level's graph, read only while every branch is back in the
        # level: by ``enter`` and the join
        self.view = _SetView(levels.adj, levels.label, self.mark)
        self.view[c] = self.nc
        self.pairs: list[tuple[int, int]] = []
        # engagement edges; they join the result with the theta graph
        self.extra_edges: list[tuple[int, int]] = []

    def solve(self):
        """Solve the branches in order and join after the last.  A path
        branch is closed in place; any other opens as a level that
        ``_Levels.split`` solves or cuts, yielding the cut's ``solve`` to
        run first, and is taken back."""
        depth = self.depth + 1
        degree = self.level.view.__getitem__
        for _, comp, ends in self.branches:
            if comp is None:
                # narrowing would leave no vertex of degree >= 3
                path = self.level.wide == self.heavy[2] + 1
            else:
                path = not ends and max(map(len, map(degree, comp))) <= 2
            if path:
                self.close(comp)
                continue
            level, opened = self.open(comp, ends, depth)
            cut = self.levels.split(level, depth)
            if cut is not None:
                yield cut.solve()
            self.take(*opened)
        self.join()

    def _gate(self, comp: list[int]) -> int:
        gates = self.nc.intersection(comp)
        if len(gates) != 1:
            raise InternalInvariantError("branch meets the neighbourhood more than once")
        return gates.pop()

    def close(self, comp: list[int]) -> None:
        """Solve a path branch without opening it: the Hamilton cycle of
        the square of the path dummy, c, gate .. far end, whose edges at
        c and the dummy give the entry pair and whose others go to the
        result.  The branch has no dropped edge, and no vertex of degree
        3 or more, so it has no centre either.  It opens no level, so it
        takes no dummy.  ``comp`` is None for the largest branch."""
        lv = self.levels
        u_i = self.heavy[0] if comp is None else self._gate(comp)
        path = _walk([self.c, u_i], self.level.view.__getitem__)[1:]
        if any(map(lv.centre.__getitem__, path)):
            raise InternalInvariantError("centre on a path branch")
        lv.add(_path_branch_edges(path))
        self.pairs.append((u_i, path[1]))

    def open(self, comp: list[int] | None, ends: list[int], depth: int) -> tuple[_Level, tuple]:
        """Open a branch plus the cutvertex and a pendant dummy as a
        level.  Its centres are the level's, re-tested near c and near
        dropped edges, and its matching is the level's, restricted to
        the branch.  Returns the level and what ``take`` needs: the
        vertices whose mark it restores, the gate, the vertex the gate
        is engaged to if any, the dummy, and the changes to undo."""
        lv, c, nc = self.levels, self.c, self.nc
        y = lv.dummy(depth)
        label = lv.label
        lv.adj[c].append(y)
        lv.adj[y] = [c]
        if comp is None:
            # the largest branch keeps the level's mark and state; the
            # rest of the level is unmarked while it is open
            u_i, parked, lost = self.heavy
            for v in parked:
                label[v] = -1
            label[y] = self.mark
            level = self.level
            level.narrow(c, u_i, lost, y)
            restore = parked
        else:
            u_i = self._gate(comp)
            lv.marks += 1
            mark = label[c] = label[y] = lv.marks
            for v in comp:
                label[v] = mark
            # a vertex off the dropped edges has the same neighbours in the
            # branch as in the level, so its list moves over; the others,
            # c and the dummy are read afresh
            view = _View(lv.adj, label, mark)
            view.update(zip(comp, map(self.level.view.pop, comp)))
            for v in ends:
                view.pop(v, None)
            wide = _wide(map(view.__getitem__, comp))
            insort(comp, c)
            comp.append(y)
            # with no dropped edge, comp is a component of the level minus c
            level = _Level(comp, view, wide, None if ends else self.level.cuts.intersection(comp))
            restore = comp
        view, mark = level.view, level.mark

        centre, partner = lv.centre, lv.partner
        # (store, key, previous value); None stands for no partner
        undo: list = [(centre, c, centre[c])]
        centre[c] = False
        near = {u_i, *ends}
        for a in ends:
            near.update(view[a])
        for v in near:
            if centre[v] and not has_spider3(view, v, NeighbourSets(view)):
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
                if t_i != c and t_i not in nc:
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
        for v in near if comp is None else compress(comp, map(centre.__getitem__, comp)):
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
        self.enter(u_i, o_i, engaged_to)

    def enter(self, u_i: int, o_i: set[int], engaged_to: int | None) -> None:
        """Contract a branch's entry set ``o_i``, its solution's ends at
        c and the dummy, into the pair (gate, lowest other entry); a third
        entry takes an engagement edge to the gate's old partner."""
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
            if not _within_two(self.view, *e_i):
                raise InternalInvariantError("engagement edge is not in the square")
            self.extra_edges.append(e_i)

    def join(self) -> None:
        """Add the theta graph over the contracted pairs, minus the pair
        edges, and the engagement edges to the result."""
        lv, view = self.levels, self.view
        c, nc, pairs = self.c, self.nc, self.pairs
        k = len(pairs)
        # two pairs are joined when they meet in the level: one pass over
        # the shared neighbour lists of the pairs' vertices, which are all
        # in the level
        at = {v: i for i, pair in enumerate(pairs) for v in pair}
        adj = lv.adj
        met = set()
        for v, i in at.items():
            for w in adj[v]:
                j = at.get(w, -1)
                if j > i:
                    met.add((i, j))
        edges = tuple(sorted(met))
        # c's partner is a gate, so it leads its pair if it is in one
        a_vertex = lv.partner.get(c)
        anchor = (at[a_vertex],) if a_vertex in at else ()
        key = (k, edges, anchor)
        paths = lv.joins.get(key)
        if paths is None:
            paths = lv.joins[key] = linear_forest_for(Graph(k, edges), set(anchor))
        if len(paths) > 3:
            raise InternalInvariantError("linear forest over the pairs has more than three paths")
        expanded = [_expand_pairs(p, pairs, view, a_vertex) for p in paths]

        p_rest = sorted(nc.difference(at))
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
            if not _within_two(view, comp[-1], tail[-1]):
                raise InternalInvariantError("leftover path cannot attach in the square")
            expanded[host_idx] = comp + tail[::-1]

        # each path is led by its end at c's partner, else by its lowest
        # end in the neighbourhood (c's partner is in it); c joins the
        # other ends
        ell: list[int] = []
        theta: set[tuple[int, int]] = set()
        for comp in expanded:
            theta.update(map(_norm, comp, comp[1:]))
            lead, far = comp[0], comp[-1]
            if lead != a_vertex and (far == a_vertex or far in nc and (lead not in nc or far < lead)):
                lead, far = far, lead
            if lead not in nc:
                raise InternalInvariantError("path has no end in the neighbourhood")
            ell.append(lead)
            theta.add(_norm(c, far))
        if len(ell) == 1:
            theta.add(_norm(c, ell[0]))
        elif len(ell) == 2:
            theta.add(_norm(*ell))
        elif a_vertex not in ell:
            raise InternalInvariantError("three paths but none is anchored")
        else:
            theta.update(_norm(a_vertex, v) for v in ell if v != a_vertex)

        for u, v in theta:
            if not _within_two(view, u, v):
                raise InternalInvariantError(f"theta edge {(u, v)} is not in the square")

        pair_edges = set(map(_norm, *zip(*pairs)))
        if not pair_edges <= theta:
            raise InternalInvariantError("pair edge missing from the theta graph")
        theta -= pair_edges
        theta.update(self.extra_edges)
        lv.add(theta)


def build_general_trestle(g: Graph, matching_edges) -> TrestleCertificate:
    """3-trestle certificate with unmatched vertices of degree exactly 2.

    The host must have at least 3 vertices, and one DFS settles whether
    it is connected (Disconnected if not) and has a cutvertex.  A
    2-connected host gets the Hamilton cycle of its square (Fleischner's
    theorem), whatever its centres; ``matching_edges``, a matching of the host or None, is then
    only carried into the certificate.  A host with a cutvertex is built
    by the inductive proof, whose hypotheses are that the host is
    S(K_{1,4})-free and that the matching pairs each centre of an
    induced S(K_{1,3}) with a non-centre neighbour, one centre per edge.
    An induced S(K_{1,4}), or no matching (None), leaves the host outside
    them with no verdict (Undetermined); a matching that breaks the
    pairing is a DomainError.
    """
    if g.n < 3:
        raise DomainError("need at least 3 vertices")
    cuts = connected_cutvertices(g)
    if cuts is None:
        raise Disconnected("host graph is not connected")
    edges = None
    if matching_edges is not None:
        edges = tuple(sorted({_norm(u, v) for u, v in matching_edges}))
        m = Matching(g, edges)
    if not cuts:
        from .oracle import fleischner_hamilton

        trestle = _cycle_edges(fleischner_hamilton(g))
    else:
        x = centres(g, 3)
        # the centre of an induced S(K_{1,4}) is the centre of an induced
        # S(K_{1,3}) too, so only the centres need testing
        if any(centre_witness(g, v, 4) is not None for v in x):
            raise Undetermined("undetermined: the host has a cutvertex and an induced S(K_{1,4})")
        if edges is None:
            raise Undetermined("undetermined: the host has a cutvertex and no saturating centre matching")
        for u, v in edges:
            if (u in x) == (v in x):
                raise DomainError(f"matching edge ({u},{v}) must have exactly one centre end")
        if not x <= m.covered():
            raise DomainError("matching does not saturate the centre set")
        partner = {}
        for u, v in edges:
            partner[u] = v
            partner[v] = u
        trestle = _Levels(g, partner, x).build(cuts)
    cert = TrestleCertificate.of(g, trestle, 3, matching_edges=edges)
    report = verify_trestle(cert)
    if not report.passed():
        raise InternalInvariantError(
            f"built trestle failed verification: {report.failed_checks()}"
        )
    return cert
