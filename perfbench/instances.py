"""Seeded instance families for the benchmark workloads.

Every generator returns a plain edge list on vertices ``0..n-1``, and
all but the fixed ``path_ordered_comb`` draw from a ``random.Random``;
nothing here reads the clock or global state, so one seed always yields
byte-identical instance sets.  The first three
generators start from the test suite's ``tests/helpers.py`` versions and
keep their output for a given random state; the bookkeeping is linear
instead of quadratic so that setup stays cheap at n in the thousands.

Preconditions (tree, S(K_{1,4})-free, 2-connected or not, saturating
centre matching) are checked once per instance while the set is built,
and ``accept_ratio`` records how many drawn hosts survived them.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass, field

from trestles.graphs import Graph, Tree, cutvertices, is_two_connected
from trestles.matching_flow import theorem1_matching
from trestles.patterns import centres, is_spider_free, tree_profile

Edges = list[tuple[int, int]]


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------


MAX_DEGREE = 3
EAR_MAX_INNER = 4


def random_bounded_tree(rng: random.Random, n: int) -> Edges:
    """Random labelled tree with all degrees at most MAX_DEGREE.

    Same draws as the test helper with ``maxdeg=3``: vertex v attaches to
    a uniform choice among the earlier vertices that still have room, in
    id order.
    """
    edges: Edges = []
    deg = [0] * n
    open_ids = [0]  # earlier vertices with deg < MAX_DEGREE, ascending
    for v in range(1, n):
        u = rng.choice(open_ids)
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
        if deg[u] == MAX_DEGREE:
            del open_ids[bisect.bisect_left(open_ids, u)]
        open_ids.append(v)
    return edges


def random_caterpillar(rng: random.Random, n: int) -> Edges:
    """Spine plus randomly attached legs; always S(K_{1,3})-free."""
    spine_len = min(rng.randint(max(1, n // 3), n), n)
    edges = [(i, i + 1) for i in range(spine_len - 1)]
    for v in range(spine_len, n):
        edges.append((rng.randrange(spine_len), v))
    return edges


def sprinkle_chords(rng: random.Random, n: int, edges: Edges, count: int) -> Edges:
    """Add up to count extra edges between vertices at distance two.

    Candidates are taken in the same sorted order as the test helper
    before the shuffle, so the draws agree with it.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    candidates = set()
    for w in range(n):
        nbrs = sorted(adj[w])
        for i, u in enumerate(nbrs):
            for v in nbrs[i + 1 :]:
                if v not in adj[u]:
                    candidates.add((u, v))
    ordered = sorted(candidates)
    rng.shuffle(ordered)
    return sorted(set(edges) | set(ordered[:count]))


def subdivided_tree(rng: random.Random, branch: int) -> Edges:
    """A random max-degree-3 tree on ``branch`` vertices, every edge subdivided.

    Every vertex of degree 3 then has three non-leaf neighbours (red),
    no two red vertices are adjacent, and each subdivision vertex touches
    at most two reds, so Hall's condition holds by degree counting and the
    square has a 3-trestle.
    """
    base = random_bounded_tree(rng, branch)
    edges: Edges = []
    for i, (u, v) in enumerate(base):
        mid = branch + i
        edges.append((u, mid))
        edges.append((v, mid))
    return relabel(rng, branch + len(base), edges)


def path_ordered_comb(spine: int) -> Edges:
    """Spine 0..spine-1 in path order, a pendant path of length 2 at every
    spine vertex.

    Leg vertices are numbered after the spine, leg by leg, so the lowest-id
    pivot is always the next spine vertex: both builders recurse once per
    spine vertex.
    """
    edges = [(i, i + 1) for i in range(spine - 1)]
    for i in range(spine):
        leg = spine + 2 * i
        edges += [(i, leg), (leg, leg + 1)]
    return edges


def ear_host(rng: random.Random, n: int) -> Edges:
    """Max-degree-3 2-connected graph built from a cycle by open ears.

    Each ear joins two distinct degree-2 vertices by a new path with one
    to EAR_MAX_INNER inner vertices, which keeps the graph 2-connected and
    every degree at most 3.  Labels are shuffled at the end.
    """
    start = rng.randint(4, 6)
    edges = [(i, (i + 1) % start) for i in range(start)]
    deg = [2] * start
    size = start
    while size < n:
        twos = [v for v in range(size) if deg[v] == 2]
        a, b = rng.sample(twos, 2)
        # a one-vertex ear uses up a degree-2 vertex; keep at least two
        inner = min(rng.randint(1 if len(twos) >= 4 else 2, EAR_MAX_INNER), n - size)
        path = [a] + list(range(size, size + inner)) + [b]
        edges.extend(zip(path, path[1:]))
        deg[a] += 1
        deg[b] += 1
        deg.extend([2] * inner)
        size += inner
    return relabel(rng, n, edges)


def relabel(rng: random.Random, n: int, edges: Edges) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def edgelist_bytes(n: int, edges: Edges) -> bytes:
    """The CLI's edgelist format: an ``n=`` header, then one edge per line."""
    lines = [f"n={n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(edges))
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# Preconditions.
# ---------------------------------------------------------------------------


def is_tree(n: int, edges: Edges) -> bool:
    """n-1 edges and no cycle, by union-find (independent of the package)."""
    if len(edges) != n - 1:
        return False
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


# ---------------------------------------------------------------------------
# Instance sets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One op's input: the edgelist bytes the program sees, plus labels.

    ``meta`` holds counts computed at setup (pivots, cutvertices), so
    the timed pass makes no extra calls to produce them.
    """

    family: str
    n: int
    k: int
    data: bytes
    two_connected: bool = False
    meta: dict = field(default_factory=dict)


@dataclass
class InstanceSet:
    workload: str
    instances: list[Instance]
    drawn: int
    accepted: int

    @property
    def accept_ratio(self) -> float:
        return self.accepted / self.drawn

    def digest(self) -> str:
        h = hashlib.sha256()
        for inst in self.instances:
            h.update(f"{inst.family} {inst.k}\n".encode())
            h.update(inst.data)
        return h.hexdigest()


def spread_out(instances: list[Instance]) -> list[Instance]:
    """The same instances, each (family, n, k) group spread evenly over
    the pass instead of run in one stretch.

    The machine's speed flips between levels within a second, so a group
    run in one stretch meets one level as a block and its median op
    jumps between levels from run to run.
    """
    groups: dict[tuple, list[Instance]] = {}
    for inst in instances:
        groups.setdefault((inst.family, inst.n, inst.k), []).append(inst)
    placed = [
        ((i + 0.5) / len(group), g, inst)
        for g, group in enumerate(groups.values())
        for i, inst in enumerate(group)
    ]
    return [inst for _, _, inst in sorted(placed, key=lambda p: p[:2])]


def tree_pivots(t: Tree) -> int:
    """Red vertices of the tree, n(v) >= 3: where the tree builder pivots."""
    profile = tree_profile(t)
    return sum(1 for v in range(t.n) if profile.n(v) >= 3)


def _tree_meta(n: int, edges: Edges) -> dict:
    t = Tree(n, edges)
    return {"pivots": tree_pivots(t), "cutvertices": len(cutvertices(t))}


def checked_tree(family: str, n: int, edges: Edges) -> tuple[bytes, dict]:
    if not is_tree(n, edges):
        raise AssertionError(f"{family} generator produced a non-tree")
    return edgelist_bytes(n, edges), _tree_meta(n, edges)


# tree-scale rungs: (family, n, copies, k values).  Random max-degree-3
# trees are k = 3-infeasible from n ~ 100 on, so each of them gives a
# decision that is nearly all flow, followed by an obstruction op; the
# subdivided trees and the k = 4 random trees give the feasible builds.
# At these sizes a feasible build costs about three times its decision,
# so the flow has the largest share only on the infeasible decisions,
# and the n = 800 ones carry most of the pass.  The ladder stops there:
# above it one op takes a large part of a second, and at n = 1600 its
# cost varied by half from seed to seed.  Sorted by latency, the ops fall into blocks:
# the 20 witnesses below 10 ms, the 28 subdivided builds and n = 400
# decisions around 25 ms, the four k = 4 builds around 60 ms and the 16
# n = 800 decisions around 75 ms.  The median lies in the middle of the
# 25 ms block and the tail (the 11th largest) inside the n = 800 block,
# so neither sits at an edge between families.
TREE_LADDER = (
    ("subdivided-tree", 100, 24, (3,)),
    ("random-tree", 200, 4, (4,)),
    ("random-tree", 400, 4, (3,)),
    ("random-tree", 800, 16, (3,)),
)


def tree_scale(seed: int) -> InstanceSet:
    rng = random.Random(seed)
    out: list[Instance] = []
    drawn = 0
    for family, n, copies, ks in TREE_LADDER:
        for _ in range(copies):
            if family == "random-tree":
                size, edges = n, random_bounded_tree(rng, n)
            else:
                branch = n // 2 + 1
                size, edges = 2 * branch - 1, subdivided_tree(rng, branch)
            drawn += 1
            data, meta = checked_tree(family, size, edges)
            out.extend(Instance(family, size, k, data, meta=meta) for k in ks)
    return InstanceSet("tree-scale", spread_out(out), drawn, drawn)


def matched_host_meta(n: int, edges: Edges, want_two_connected: bool) -> dict | None:
    """Setup-time meta for a host meeting the builder's precondition, or None."""
    g = Graph(n, edges)
    if len(g.edges()) == n - 1:
        return None  # trees take the CLI's tree path
    if not is_spider_free(g, 4):
        return None
    if is_two_connected(g) != want_two_connected:
        return None
    if theorem1_matching(g, centres(g, 3)) is None:
        return None
    return {"cutvertices": len(cutvertices(g))}


# host-matched rungs: (family, n, copies), then the 2-connected
# ear-built hosts.  Sorted by latency, the ops fall into blocks: the ear
# hosts around 1 ms, the 40 chorded n = 101 hosts around 15 ms, the
# n = 200 hosts around 40 ms, and four larger hosts above them.  The
# median lies inside the n = 101 block and the tail (the 11th largest)
# inside the n = 200 block.  The ladder stops at n = 400: a chorded
# caterpillar's cost depends on its drawn spine length and chords, and
# at n = 800 it varied threefold from seed to seed.  The general
# builder's memory on chorded subdivided trees also grows with its
# recursion depth, which varies a lot from host to host at n = 800.  The
# Hamilton search behind the Fleischner fallback sometimes needs many
# thousands of nodes from n = 16 on and millions by n = 44 (see
# perfbench/README.md), so the ear hosts stay at n <= 14.
HOST_LADDER = (
    ("chorded-subdivided", 100, 40),
    ("chorded-subdivided", 200, 16),
    ("chorded-caterpillar", 200, 4),
    ("chorded-subdivided", 400, 2),
    ("chorded-caterpillar", 400, 2),
)
EAR_SIZES = (12, 14) * 6


def host_matched(seed: int) -> InstanceSet:
    rng = random.Random(seed)
    out = []
    drawn = 0

    def take(family: str, n: int, edges: Edges, two_connected: bool) -> bool:
        nonlocal drawn
        drawn += 1
        meta = matched_host_meta(n, edges, two_connected)
        if meta is None:
            return False
        out.append(Instance(family, n, 3, edgelist_bytes(n, edges), two_connected, meta))
        return True

    for family, n, copies in HOST_LADDER:
        for _ in range(copies):
            while True:
                if family == "chorded-subdivided":
                    branch = n // 2 + 1
                    base = subdivided_tree(rng, branch)
                    size = 2 * branch - 1
                else:
                    base = relabel(rng, n, random_caterpillar(rng, n))
                    size = n
                edges = sprinkle_chords(rng, size, base, rng.randint(1, max(1, size // 50)))
                if take(family, size, edges, False):
                    break
    for n in EAR_SIZES:
        while not take("ear-2conn", n, ear_host(rng, n), True):
            pass
    return InstanceSet("host-matched", spread_out(out), drawn, len(out))


WORKLOADS = {
    "tree-scale": tree_scale,
    "host-matched": host_matched,
}
