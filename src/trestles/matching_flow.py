"""Bipartite matching, minimal Hall violators, and tree arc assignments.

Three decision engines live here:

* the one-end-in-X matching used by the general 3-trestle condition,
* inclusion-minimal Hall violators in the red-black bipartite subgraph,
  read off Kuhn's matching of it, which stops at the first red whose
  search fails: the red vertices that alternating paths reach from
  that red; every deficient subset of them holds that vertex and is
  closed under taking mates, so it is the whole set,
* the leaf-to-root feasibility pass for arc assignments on trees (the
  i(v)/o(v) demand system), over the BFS that the tree keeps from its
  check, together with assignment extraction from a known trestle.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from .graphs import DomainError, Graph, InternalInvariantError, Tree, tree_bfs
from .patterns import tree_profile


@dataclass(frozen=True, slots=True)
class Matching:
    """Vertex-disjoint edge set of a host graph."""

    host: Graph
    edge_list: tuple[tuple[int, int], ...]

    def __post_init__(self):
        used = set()
        for u, v in self.edge_list:
            if not self.host.has_edge(u, v):
                raise DomainError(f"({u},{v}) is not a host edge")
            if u in used or v in used:
                raise DomainError(f"({u},{v}) reuses a matched vertex")
            used.add(u)
            used.add(v)

    def covered(self) -> set[int]:
        return {v for e in self.edge_list for v in e}

    def size(self) -> int:
        return len(self.edge_list)


@dataclass(frozen=True, slots=True)
class HallViolator:
    """A red set R with |N(R)| < |R| in the red-black bipartite graph."""

    red_set: frozenset[int]
    neighbourhood: frozenset[int]


@dataclass(slots=True)
class ArcAssignment:
    """Non-negative integers on the arcs of a tree's symmetric orientation.

    ``values`` holds the non-zero values, on tree arcs only:
    ``set_value`` keeps it so, and values given to the constructor pass
    through it.
    """

    tree: Tree
    values: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        given, self.values = self.values, {}
        for (u, v), a in given.items():
            self.set_value(u, v, a)

    def set_value(self, u: int, v: int, a: int) -> None:
        if not self.tree.has_edge(u, v):
            raise DomainError(f"({u},{v}) is not a tree edge")
        if a < 0:
            raise DomainError("arc values are non-negative")
        if a:
            self.values[(u, v)] = a
        else:
            self.values.pop((u, v), None)

    # u runs over tree neighbours, so no per-arc edge check is needed;
    # one would scan adj[v] again and make a star quadratic
    def in_sum(self, v: int) -> int:
        return sum(self.values.get((u, v), 0) for u in self.tree.adj[v])

    def out_sum(self, v: int) -> int:
        return sum(self.values.get((v, u), 0) for u in self.tree.adj[v])

    def arc_sums(self) -> tuple[list[int], list[int]]:
        """Every vertex's in-sum and out-sum, from one pass over ``values``."""
        ins = [0] * self.tree.n
        outs = [0] * self.tree.n
        for (u, v), a in self.values.items():
            outs[u] += a
            ins[v] += a
        return ins, outs

    def satisfies_demands(self, k: int) -> bool:
        """The exact in-demand / out-cap system for parameter ``k``."""
        return demands_met(k, tree_profile(self.tree).non_leaf_neighbours, *self.arc_sums())

    def to_jsonable(self) -> dict[str, int]:
        return {
            f"{u}->{v}": a
            for (u, v), a in sorted(self.values.items())
        }


def demands_met(k: int, counts, ins: list[int], outs: list[int]) -> bool:
    """Whether every vertex v, with n(v) = ``counts[v]``, in-sum
    ``ins[v]`` and out-sum ``outs[v]``, has n(v) <= k, takes in exactly
    max{0, n(v) - 2} and sends out at most k - n(v)."""
    for nv, i, o in zip(counts, ins, outs):
        if nv > k or i != (nv - 2 if nv > 2 else 0) or o > k - nv:
            return False
    return True


def _augment(adjacency: dict[int, list[int]], free: int, match_of: dict[int, int]) -> bool:
    """One round of Kuhn's augmenting-path search from ``free``.

    Depth-first with an explicit stack, in the order of the recursive
    formulation: left vertices scan their neighbours in list order and
    descend into the partner of the first unvisited matched neighbour.
    ``via[i]`` is the right vertex whose partner is ``lefts[i]``.
    """
    visited: set[int] = set()
    lefts = [free]
    scans = [iter(adjacency[free])]
    via: list[int] = [-1]
    while scans:
        for y in scans[-1]:
            if y in visited:
                continue
            visited.add(y)
            if y not in match_of:
                # flip the path: y to the deepest left vertex, then each
                # descended-through right vertex to the left one above it
                match_of[y] = lefts[-1]
                for i in range(len(lefts) - 1, 0, -1):
                    match_of[via[i]] = lefts[i - 1]
                return True
            x = match_of[y]
            lefts.append(x)
            scans.append(iter(adjacency[x]))
            via.append(y)
            break
        else:
            lefts.pop()
            scans.pop()
            via.pop()
    return False


def _kuhn(
    rows: Iterable[tuple[int, list[int]]],
    adjacency: dict[int, list[int]],
    match_of: dict[int, int],
) -> Iterator[int]:
    """Kuhn's algorithm over ``rows``; yields each left vertex whose
    search fails, when it fails.

    ``rows`` gives each left vertex with its right neighbours, in the
    order they are processed; a row is read only when its vertex is,
    and stored in ``adjacency``.  A search descends only into the mate
    of a matched right vertex, a left vertex processed earlier, so
    every list it reads is stored.  ``match_of`` maps right to left.
    When a vertex's first neighbour is free it is matched directly: that
    is the search's first step, without its stack and visited set.
    """
    for x, nbrs in rows:
        adjacency[x] = nbrs
        if nbrs and nbrs[0] not in match_of:
            match_of[nbrs[0]] = x
        elif not _augment(adjacency, x, match_of):
            yield x


def max_bipartite_matching(left: list[int], adjacency: dict[int, list[int]]) -> dict[int, int]:
    """Maximum matching; returns left -> right assignment.

    ``adjacency`` maps each left vertex to its (sorted) right
    neighbours.  Deterministic: left vertices are processed in the given
    order and neighbours in list order.  A left vertex whose first
    neighbour is free takes it without a search, as the search would.
    """
    match_of: dict[int, int] = {}
    for _ in _kuhn(((x, adjacency.get(x, ())) for x in left), {}, match_of):
        pass
    return {x: y for y, x in match_of.items()}


def _one_end_rows(
    g: Graph, side: set[int] | frozenset[int], what: str
) -> Iterator[tuple[int, list[int]]]:
    """The rows of the bipartite graph of host edges with exactly one
    end in ``side``: each side vertex in id order with its (sorted)
    neighbours off the side, each list built when its row is read."""
    for v in side:
        if not 0 <= v < g.n:
            raise DomainError(f"{what} {v} out of range")
    adj = g.adj
    return ((x, [y for y in adj[x] if y not in side]) for x in sorted(side))


def theorem1_matching(g: Graph, centre_set: set[int]) -> Matching | None:
    """A matching of size |X| whose edges have exactly one end in X.

    X is the given centre set; pairs are drawn from the host edges with
    exactly one end in X.  Returns None iff no saturating matching
    exists, as soon as one centre's search fails.
    """
    match_of: dict[int, int] = {}
    if next(_kuhn(_one_end_rows(g, centre_set, "centre"), {}, match_of), None) is not None:
        return None
    edges = tuple(sorted((x, y) if x < y else (y, x) for y, x in match_of.items()))
    return Matching(g, edges)


def minimal_hall_violator(g: Graph, red: set[int] | frozenset[int]) -> HallViolator | None:
    """Inclusion-minimal Hall violator of the red side, or None.

    The bipartite graph consists of the host edges with exactly one red
    end.  Under one maximum matching M, the violator is the set R of
    red vertices reachable by alternating paths from the lowest
    unmatched red vertex x.  Every y in N(R) is matched (else M would
    augment) and its mate lies in R, so |N(R)| = |R| - 1.

    R is inclusion-minimal.  A deficient S inside R must contain x,
    since M matches a set of matched vertices injectively into its
    neighbourhood.  S must also hold the mate of every y in N(S), since
    otherwise the mates of S - {x} plus y already give |N(S)| >= |S|.
    A set that contains x and is closed under y -> mate(y) contains
    everything alternating paths reach from x, so S = R.

    Kuhn's search runs over the reds in id order and stops at the first
    red x whose search fails.  That x is the lowest unmatched red of the
    full run: Kuhn never unmatches a matched left vertex and never
    retries a failed one.  The rest of the run would not change x's
    alternating tree T either.  Every black of T is matched inside T,
    since x's search failed, and every neighbour of a red of T is a
    black of T.  An augmenting path that enters T at a black therefore
    goes on to that black's mate in T and never leaves T, so it never
    reaches a free black: no later augmentation touches T, and R and
    N(R) are those of the full run.  A red's black list is built only
    when the red is processed; every red a search reaches is matched,
    so it was processed earlier.
    """
    return _violator(_one_end_rows(g, red, "red vertex"))


def tree_hall_violator(t: Graph, counts: Sequence[int]) -> HallViolator | None:
    """``minimal_hall_violator`` of a tree and its own red set, the
    vertices v with counts[v] = n(v) >= 3 (``tree_profile``).

    The reds come in id order from the counts, read only as far as
    Kuhn's search goes, and a neighbour is black when its count is
    below 3, so no red set is built or sorted.
    """
    adj = t.adj
    return _violator((x, [y for y in adj[x] if counts[y] < 3]) for x, c in enumerate(counts) if c >= 3)


def _violator(rows: Iterable[tuple[int, list[int]]]) -> HallViolator | None:
    """The violator of ``minimal_hall_violator``, from the rows of its
    bipartite graph, reds in id order."""
    adjacency: dict[int, list[int]] = {}
    partner: dict[int, int] = {}
    root = next(_kuhn(rows, adjacency, partner), None)
    if root is None:
        return None
    violator = {root}
    neighbourhood: set[int] = set()
    frontier = [root]
    for x in frontier:
        for y in adjacency[x]:
            if y in neighbourhood:
                continue
            neighbourhood.add(y)
            x2 = partner.get(y)
            if x2 is not None and x2 not in violator:
                violator.add(x2)
                frontier.append(x2)
    if {partner.get(y) for y in neighbourhood} != violator - {root}:
        raise InternalInvariantError("the matching does not pair N(R) with R minus its root")
    if len(neighbourhood) >= len(violator):
        raise InternalInvariantError("alternating reachability produced a non-violator")
    return HallViolator(frozenset(violator), frozenset(neighbourhood))


# ---------------------------------------------------------------------------
# Feasibility of arc assignments on trees.
# ---------------------------------------------------------------------------


def feasible_assignment(t: Tree, k: int) -> ArcAssignment | None:
    """An integral assignment meeting the i/o demand system, or None.

    Every vertex v must take in exactly max{0, n(v) - 2} and may send
    out at most k - n(v).  One pass from the leaves to the root (vertex
    0) decides it: once a child's subtree is settled, the child's
    remaining in-demand can only come from its parent, and its
    remaining out-capacity is of use only to its parent.  So the parent
    sends the child exactly its remaining demand and takes as much of
    its own demand from the child as the child can spare; taking more
    from a child never hurts.  Infeasible iff some capacity goes
    negative or the root's demand is left unmet.
    """
    if k < 2:
        raise DomainError("trestle parameter k must be at least 2")
    if t.n < 3:
        raise DomainError("trees on fewer than 3 vertices are out of domain")
    counts = tree_profile(t).non_leaf_neighbours
    if max(counts) > k:
        return None
    need = [c - 2 if c > 2 else 0 for c in counts]
    spare = [k - c for c in counts]
    parent, order = tree_bfs(t)
    result = ArcAssignment(t)
    for c in reversed(order[1:]):
        if spare[c] < 0:
            return None
        p = parent[c]
        up = min(spare[c], need[p])
        if up:
            result.set_value(c, p, up)
            need[p] -= up
        if need[c]:
            result.set_value(p, c, need[c])
            spare[p] -= need[c]
    if spare[0] < 0 or need[0] > 0:
        return None
    if not result.satisfies_demands(k):
        raise InternalInvariantError("leaf-to-root pass violates the demand system")
    return result


def assignment_from_trestle(t: Tree, trestle_edges: tuple[tuple[int, int], ...]) -> ArcAssignment:
    """Extract an arc assignment from a k-trestle of the tree square.

    For every vertex x with neighbour set U, the value max{0, n(x) - 2}
    is distributed over the arcs u -> x with per-arc cap deg_N(u) - 1,
    where N is the trestle-induced graph on U.
    """
    profile = tree_profile(t)
    in_trestle = {(min(a, b), max(a, b)) for a, b in trestle_edges}
    result = ArcAssignment(t)
    for x in range(t.n):
        nbrs = t.adj[x]
        need = max(0, profile.n(x) - 2)
        if len(nbrs) <= 1:
            continue  # leaf: its single in-arc stays 0
        deg_in_n = {
            u: sum(
                1
                for w in nbrs
                if w != u and (min(u, w), max(u, w)) in in_trestle
            )
            for u in nbrs
        }
        for u in nbrs:
            if need == 0:
                break
            give = min(need, deg_in_n[u] - 1)
            if give > 0:
                result.set_value(u, x, give)
                need -= give
        if need:
            raise InternalInvariantError(
                f"cannot distribute in-demand at vertex {x}; certificate is not a trestle?"
            )
    return result
