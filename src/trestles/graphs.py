"""Basic graph types, graph squares, connectivity primitives and I/O.

Vertices are dense integers 0..n-1.  All adjacency lists are kept sorted
and all derived values are deterministic; nothing in this module uses
randomness.
"""

from __future__ import annotations

from typing import Iterable


class DomainError(ValueError):
    """An operation was called outside its stated domain."""


class FormatError(ValueError):
    """Malformed serialized graph data.

    ``offset`` is the byte offset of the first offending byte.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class InternalInvariantError(RuntimeError):
    """A construction violated an invariant its theory guarantees.

    Raised only for implementation bugs, never for bad user input.
    """


def _normalize_edges(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    seen = set()
    out = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise DomainError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            continue
        seen.add(e)
        out.append(e)
    out.sort()
    return out


class Graph:
    """Simple undirected graph with sorted adjacency lists."""

    __slots__ = ("n", "adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError("vertex count must be non-negative")
        es = _normalize_edges(n, edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in es:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        # es is sorted, so each list gets its lower neighbours (as the
        # second end, in order of the first) and then its higher ones (as
        # the first end, in order of the second): already ascending
        self.adj = tuple(tuple(a) for a in adj)
        self._edges = tuple(es)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def num_edges(self) -> int:
        return len(self._edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def adjacency_masks(self) -> list[int]:
        """Neighbourhoods as bitmasks, for search-heavy callers."""
        masks = [0] * self.n
        for u, v in self._edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self._edges)})"


def _require_tree(g: Graph) -> None:
    if g.num_edges() != g.n - 1 or not is_connected(g):
        raise DomainError("not a tree: need connectivity and exactly n-1 edges")


class Tree(Graph):
    """A connected acyclic :class:`Graph`.

    ``_profile`` holds the tree's ``patterns.TreeProfile``, which
    ``patterns.tree_profile`` counts on first use; a tree never changes,
    so its profile never goes stale.
    """

    __slots__ = ("_profile",)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        super().__init__(n, edges)
        _require_tree(self)
        self._profile = None

    @classmethod
    def _from_graph(cls, g: Graph) -> "Tree":
        """``g`` as a tree that shares every :class:`Graph` slot (the
        normalised edges and sorted adjacency) instead of rebuilding
        them; DomainError if ``g`` is not a tree."""
        _require_tree(g)
        t = object.__new__(cls)
        for name in Graph.__slots__:
            setattr(t, name, getattr(g, name))
        t._profile = None
        return t


class Digraph:
    """Simple digraph; antiparallel arc pairs are allowed."""

    __slots__ = ("n", "out")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError("vertex count must be non-negative")
        seen = set()
        out: list[list[int]] = [[] for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if (u, v) in seen:
                continue
            seen.add((u, v))
            out[u].append(v)
        self.n = n
        self.out = tuple(tuple(sorted(a)) for a in out)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.out[u]]

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arcs()})"


def square(g: Graph) -> Graph:
    """The square of ``g``: join vertices at distance 1 or 2."""
    edges = set(g.edges())
    for v in range(g.n):
        nbrs = g.adj[v]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                edges.add((nbrs[i], nbrs[j]))
    return Graph(g.n, edges)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n


def cutvertices(g: Graph) -> set[int]:
    """Articulation points, by iterative lowpoint DFS."""
    return articulation_points(range(g.n), g.adj, [-1] * g.n, [0] * g.n)


def articulation_points(vertices, adj, disc, low) -> set[int]:
    """Articulation points of the graph on ``vertices`` whose neighbour
    lists ``adj`` gives, by iterative lowpoint DFS.

    ``disc[v]`` must start at -1 for every vertex and ``low`` needs a
    slot for each.  Lists indexed by id and dicts keyed by the vertices
    both serve, so the search can run on part of a larger id space.
    """
    result: set[int] = set()
    timer = 0
    for root in vertices:
        if disc[root] != -1:
            continue
        root_children = 0
        # stack frames: (vertex, parent, neighbour index)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, idx = stack.pop()
            if idx < len(adj[v]):
                stack.append((v, parent, idx + 1))
                w = adj[v][idx]
                if disc[w] == -1:
                    if v == root:
                        root_children += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, 0))
                elif w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            elif parent != -1:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if parent != root and low[v] >= disc[parent]:
                    result.add(parent)
        if root_children >= 2:
            result.add(root)
    return result


def is_two_connected(g: Graph) -> bool:
    if g.n < 3:
        raise DomainError("2-connectivity is only defined here for n >= 3")
    return is_connected(g) and not cutvertices(g)


def is_path_graph(g: Graph) -> bool:
    """True iff ``g`` is a (possibly trivial) path on all its vertices."""
    if g.n == 0:
        return False
    if g.n == 1:
        return True
    degs = [g.degree(v) for v in range(g.n)]
    return (
        is_connected(g)
        and max(degs) <= 2
        and sum(1 for d in degs if d == 1) == 2
    )


# ---------------------------------------------------------------------------
# Serialization: graph6, edge list, DOT.
# ---------------------------------------------------------------------------


def _g6_encode_n(n: int) -> bytes:
    if n < 0:
        raise DomainError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise DomainError("graph too large for this graph6 writer")


def _g6_decode_n(data: bytes) -> tuple[int, int]:
    if not data:
        raise FormatError("empty graph6 input", 0)
    if data[0] != 126:
        n = data[0] - 63
        if n < 0 or n > 62:
            raise FormatError("bad graph6 size byte", 0)
        return n, 1
    if len(data) < 4 or data[1] == 126:
        raise FormatError("unsupported graph6 long size form", 1)
    vals = []
    for i in (1, 2, 3):
        b = data[i] - 63
        if b < 0 or b > 63:
            raise FormatError("bad graph6 size byte", i)
        vals.append(b)
    return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4


def write_graph6(g: Graph) -> bytes:
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = bytearray()
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        body.append(val + 63)
    return _g6_encode_n(g.n) + bytes(body)


def read_graph6(data: bytes) -> Graph:
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    n, pos = _g6_decode_n(data)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - pos < need:
        raise FormatError("graph6 body too short", len(data))
    bits = []
    for i in range(need):
        b = data[pos + i] - 63
        if b < 0 or b > 63:
            raise FormatError("bad graph6 body byte", pos + i)
        for shift in range(5, -1, -1):
            bits.append((b >> shift) & 1)
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return Graph(n, edges)


def write_edgelist(g: Graph) -> bytes:
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return ("\n".join(lines) + "\n").encode()


def read_edgelist(data: bytes) -> Graph:
    # a byte outside ASCII decodes to one U+FFFD, so each character is
    # one byte and offsets into the text are byte offsets
    text = data.decode("ascii", errors="replace")
    n = -1
    edges = []
    offset = 0
    # the largest id, and the offset of the first line that holds it
    max_seen, max_at = -1, 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            if stripped.startswith("n="):
                try:
                    n = int(stripped[2:])
                except ValueError:
                    n = -1
                if n < 0:
                    raise FormatError("bad vertex-count header", offset)
            else:
                parts = stripped.split()
                if len(parts) != 2:
                    raise FormatError("edge line needs two vertex ids", offset)
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError:
                    raise FormatError("non-integer vertex id", offset) from None
                if u < 0 or v < 0:
                    raise FormatError("negative vertex id", offset)
                edges.append((u, v))
                if u > max_seen or v > max_seen:
                    max_seen, max_at = max(u, v), offset
        offset += len(line)
    if n < 0:
        n = max_seen + 1
    if max_seen >= n:
        raise FormatError(f"vertex id {max_seen} exceeds declared n={n}", max_at)
    return Graph(n, edges)


def write_dot(g: Graph, highlight: Iterable[int] = ()) -> bytes:
    hi = set(highlight)
    lines = ["graph G {"]
    for v in range(g.n):
        style = ' [style=filled, fillcolor=white, shape=doublecircle]' if v in hi else ""
        lines.append(f"  {v}{style};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def read_graph(data: bytes, fmt: str) -> Graph:
    if fmt == "graph6":
        return read_graph6(data)
    if fmt == "edgelist":
        return read_edgelist(data)
    raise DomainError(f"unknown input format {fmt!r}")


def write_graph(g: Graph, fmt: str) -> bytes:
    if fmt == "graph6":
        return write_graph6(g) + b"\n"
    if fmt == "edgelist":
        return write_edgelist(g)
    if fmt == "dot":
        return write_dot(g)
    raise DomainError(f"unknown output format {fmt!r}")


def as_tree(g: Graph) -> Tree:
    """``g`` itself if it is a :class:`Tree`, else a tree sharing its
    edges and adjacency; DomainError if ``g`` is not a tree."""
    return g if isinstance(g, Tree) else Tree._from_graph(g)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def spider(k: int) -> Tree:
    """S(K_{1,k}): a star with every edge subdivided once.

    Vertex 0 is the centre, 1..k the mid vertices, k+1..2k the leaves
    (leaf k+i attached to mid i).
    """
    if k < 1:
        raise DomainError("spider needs k >= 1")
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(i, k + i) for i in range(1, k + 1)]
    return Tree(2 * k + 1, edges)


def components(g: Graph, removed: Iterable[int] = ()) -> list[list[int]]:
    """Connected components of ``g`` minus ``removed``, sorted by minimum id."""
    banned = set(removed)
    seen = set(banned)
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps
