"""Deterministic instance generators shared by unit and acceptance tests."""

import bisect
import functools
import heapq
import random
import sys

from trestles.graphs import Graph, Tree, is_two_connected
from trestles.matching_flow import max_bipartite_matching, theorem1_matching
from trestles.patterns import centres, is_spider_free


# 2-connected hosts outside the theorem's hypotheses: the ear host of 17
# vertices has no saturating centre matching, and the 13-vertex host is
# an induced S(K_{1,4}) whose four leaves are joined in a cycle through
# four new vertices
EAR_HOST_17 = Graph(17, [
    (0, 7), (0, 11), (0, 16), (1, 7), (1, 9), (2, 3), (2, 13), (2, 15), (3, 14), (4, 8), (4, 9),
    (4, 11), (5, 6), (5, 7), (5, 16), (6, 8), (8, 14), (10, 12), (10, 14), (11, 13), (12, 13),
    (15, 16),
])
RINGED_SPIDER_13 = Graph(13, [(0, v) for v in range(1, 5)] + [(v, v + 4) for v in range(1, 5)] + [
    (5, 9), (9, 6), (6, 10), (10, 7), (7, 11), (11, 8), (8, 12), (12, 5),
])


@functools.lru_cache(maxsize=1)
def base_patterns():
    """Derived base obstruction patterns, computed once per test run."""
    from trestles.obstruction import derive_base_patterns

    return derive_base_patterns(max_n=16)


@functools.lru_cache(maxsize=1)
def two_connected_graphs() -> tuple[Graph, ...]:
    """All 2-connected graphs with 3 <= n <= 8 up to isomorphism,
    enumerated once per test run."""
    from trestles.oracle import enumerate_two_connected

    return tuple(enumerate_two_connected(8))


def frame_depth() -> int:
    """The number of frames on the stack, this call's own included."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def out_masks(n: int, arcs) -> list[int]:
    """Out-neighbour bitmasks of the digraph on 0..n-1 with these arcs."""
    out = [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
    return out


def cover_faults(out: list[int], paths, transversal) -> list[str]:
    """What keeps ``paths`` from covering the digraph with out-neighbour
    bitmasks ``out`` by disjoint directed paths, with ``transversal`` an
    independent set of one vertex per path; empty when nothing does."""
    faults = []
    covered = [v for p in paths for v in p]
    if len(covered) != len(set(covered)):
        faults.append("paths are not vertex-disjoint")
    if set(covered) != set(range(len(out))):
        faults.append("cover misses vertices")
    if any(not out[a] >> b & 1 for p in paths for a, b in zip(p, p[1:])):
        faults.append("a path step is not an arc")
    if len(transversal) != len(paths) or any(v not in p for v, p in zip(transversal, paths)):
        faults.append("transversal is not one vertex per path")
    if any(out[u] >> v & 1 for u in transversal for v in transversal):
        faults.append("transversal is not independent")
    return faults


def random_bounded_tree(rng: random.Random, n: int, maxdeg: int = 4) -> Tree:
    """Random labelled tree with all degrees at most maxdeg.

    Vertex v joins a uniform choice among the earlier vertices with
    degree below maxdeg; ``open_ids`` keeps those vertices sorted, so
    the draws match a fresh scan of range(v) in linear time per tree.
    """
    while True:
        edges = []
        deg = [0] * n
        open_ids: list[int] = []
        ok = True
        for v in range(1, n):
            if deg[v - 1] < maxdeg:
                open_ids.append(v - 1)
            if not open_ids:
                ok = False
                break
            u = rng.choice(open_ids)
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
            if deg[u] == maxdeg:
                del open_ids[bisect.bisect_left(open_ids, u)]
        if ok:
            return Tree(n, edges)


def prufer_tree(seq: list[int]) -> Tree:
    """The labelled tree on len(seq) + 2 vertices with Prüfer sequence seq."""
    n = len(seq) + 2
    remaining = [0] * n
    for v in seq:
        remaining[v] += 1
    leaves = [v for v in range(n) if remaining[v] == 0]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        remaining[v] -= 1
        if remaining[v] == 0:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree(n, edges)


def prufer_trees():
    """Hypothesis strategy: uniform labelled trees on 3..40 vertices."""
    from hypothesis import strategies as st

    return (
        st.integers(min_value=3, max_value=40)
        .flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        .map(prufer_tree)
    )


def path_ordered_comb(spine: int) -> Tree:
    """Spine 0..spine-1 in path order with a pendant P2 at every spine
    vertex, leg vertices numbered after the spine: every inner spine
    vertex is a pivot, chained one after another."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        leg = spine + 2 * i
        edges += [(i, leg), (leg, leg + 1)]
    return Tree(3 * spine, edges)


def random_caterpillar(rng: random.Random, n: int) -> Tree:
    """Spine plus randomly attached legs; always S(K_{1,3})-free."""
    spine_len = rng.randint(max(1, n // 3), n)
    spine_len = min(spine_len, n)
    edges = [(i, i + 1) for i in range(spine_len - 1)]
    for v in range(spine_len, n):
        edges.append((rng.randrange(spine_len), v))
    return Tree(n, edges)


def distance_two_pairs(g: Graph) -> list[tuple[int, int]]:
    """The pairs u < x at distance exactly two in ``g``, in lexicographic
    order: for each u, the neighbours of its neighbours above u that are
    not its neighbours, so the work follows the edges, not all pairs."""
    pairs = []
    for u in range(g.n):
        near = {x for w in g.adj[u] for x in g.adj[w] if x > u}
        near.difference_update(g.adj[u])
        pairs += [(u, x) for x in sorted(near)]
    return pairs


def sprinkle_chords(rng: random.Random, g: Graph, count: int) -> Graph:
    """Add up to count extra edges between vertices at distance two."""
    edges = set(g.edges())
    candidates = distance_two_pairs(g)
    rng.shuffle(candidates)
    edges.update(candidates[:count])
    return Graph(g.n, edges)


def subdivided_tree(rng: random.Random, branch: int) -> Tree:
    """A random max-degree-3 tree on ``branch`` vertices, every edge
    subdivided; subdivision vertices are numbered after the branch
    vertices, in edge order."""
    base = random_bounded_tree(rng, branch, maxdeg=3)
    edges = []
    for i, (u, v) in enumerate(base.edges()):
        mid = branch + i
        edges += [(u, mid), (v, mid)]
    return Tree(2 * branch - 1, edges)


def builder_matching(g: Graph):
    """The centre matching of a host meeting the general builder's
    precondition, or None.

    The host must be S(K_{1,4})-free, not 2-connected beyond oracle
    reach (n > 8), and have a saturating one-end-per-centre matching.
    """
    if not is_spider_free(g, 4):
        return None
    if g.n > 8 and is_two_connected(g):
        return None
    return theorem1_matching(g, centres(g, 3))


def matched_spider_free_instances(seed: int, count: int, max_n: int = 40):
    """Yield (graph, matching) pairs meeting the builder's precondition.

    Hosts are S(K_{1,4})-free, connected, not 2-connected beyond oracle
    reach, and come with a saturating one-end-per-centre matching.  A
    mix of trees, caterpillars, and lightly chorded trees.
    """
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        n = rng.randint(5, max_n)
        style = rng.randrange(3)
        if style == 0:
            g: Graph = random_bounded_tree(rng, n)
        elif style == 1:
            g = random_caterpillar(rng, n)
        else:
            g = sprinkle_chords(rng, random_bounded_tree(rng, n), rng.randint(1, 3))
        matching = builder_matching(g)
        if matching is None:
            continue
        produced += 1
        yield g, matching


def chorded_host_corpus(seed: int):
    """Yield (graph, matching) pairs: three chorded subdivided trees and
    three chorded caterpillars of about each size 50, 100, 200 and 400,
    with one chord per 50 vertices at most, as in the benchmark's host
    families."""
    rng = random.Random(seed)
    for size in (50, 100, 200, 400):
        for family in ("subdivided", "caterpillar"):
            produced = 0
            while produced < 3:
                if family == "subdivided":
                    base = subdivided_tree(rng, size // 2 + 1)
                else:
                    base = random_caterpillar(rng, size)
                g = sprinkle_chords(rng, base, rng.randint(1, max(1, base.n // 50)))
                matching = builder_matching(g)
                if matching is None:
                    continue
                produced += 1
                yield g, matching


def three_clique_hub(m: int, bare: int = 0) -> Graph:
    """A hub 0 adjacent to every vertex of three disjoint K_m (clique j
    on 1 + j*m .. (j+1)*m), with a pendant leaf on each clique vertex
    but the first ``bare`` of each clique.

    While each clique keeps at least one leaf, the hub is the only
    centre of an induced S(K_{1,3}), and no host of this kind has an
    induced S(K_{1,4}); vertex 1, bare whenever ``bare`` > 0, is the
    hub's partner in the matching [(0, 1)].
    """
    edges = []
    for j in range(3):
        clique = range(1 + j * m, 1 + (j + 1) * m)
        edges += [(0, v) for v in clique]
        edges += [(u, v) for u in clique for v in clique if u < v]
    n = 3 * m + 1
    for j in range(3):
        for v in range(1 + j * m + bare, 1 + (j + 1) * m):
            edges.append((v, n))
            n += 1
    return Graph(n, edges)


def random_red_graphs(seed: int, count: int, max_n: int = 10):
    """Yield (graph, red set) pairs: ``count`` seeded random graphs on
    1..max_n vertices, each edge present with one per-graph probability,
    and each vertex red with probability one half."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        yield Graph(n, edges), {v for v in range(n) if rng.random() < 0.5}


def reference_hall_violator(g: Graph, red) -> tuple[frozenset, frozenset] | None:
    """The minimal Hall violator read off a full maximum matching, or None.

    The bipartite graph holds the host edges with exactly one red end.
    All reds are matched in id order, then the reds that alternating
    paths reach from the lowest unmatched red give the red set, and
    their black neighbours the neighbourhood.
    """
    left = sorted(red)
    adjacency = {x: [y for y in g.adj[x] if y not in red] for x in left}
    assignment = max_bipartite_matching(left, adjacency)
    root = next((x for x in left if x not in assignment), None)
    if root is None:
        return None
    partner = {y: x for x, y in assignment.items()}
    reds, blacks = {root}, set()
    frontier = [root]
    for x in frontier:
        for y in adjacency[x]:
            if y not in blacks:
                blacks.add(y)
                # a free y here would make the matching augmentable
                if partner[y] not in reds:
                    reds.add(partner[y])
                    frontier.append(partner[y])
    return frozenset(reds), frozenset(blacks)


def f_family_chain(base, attachments: int):
    """T_0 with ``attachments`` copies of the attachment pattern A
    chained on, each one at the special vertex the previous one made.

    Every step is ``f_family``'s own attach step at the newest special,
    so the chain has attachments + 1 specials and
    16 + attachments * (|A| - 6) vertices.
    """
    from trestles.obstruction import _grow, _pendant_branches

    member, newest = base.t0, min(base.t0.special)
    for _ in range(attachments):
        branch = next(_pendant_branches(member.tree, newest, 5, set(member.special)))
        member, amap = _grow(member, newest, branch, base.attachment)
        newest = amap[base.attachment.w]
    return member
