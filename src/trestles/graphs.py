"""Basic graph types, graph squares, connectivity primitives and I/O.

Vertices are dense integers 0..n-1.  All adjacency lists are kept sorted
and all derived values are deterministic; nothing in this module uses
randomness.

``read_edgelist`` reads the form ``write_edgelist`` writes (an ``n=``
header, then ``u v`` lines with u < v < n, one space and a newline, the
pairs strictly ascending) in bulk, with checks over the whole text and
every id converted by one ``json.loads`` of the body with its spaces
and newlines read as commas.  Every other accepted form goes through
the line loop, which gives the same graphs and raises every
FormatError: JSON refuses an id with a leading zero, which ``int()``
takes, so such an input is read line by line.  Neither reader accepts
more than ``MAX_VERTICES`` vertices, graph6's largest n, since the
vertex count alone sets how many adjacency lists a graph allocates.

A :class:`Tree` is checked by one BFS from vertex 0 (n - 1 edges, and
every vertex reached), and keeps that BFS: ``tree_bfs`` hands its
parent array and visiting order to ``matching_flow.feasible_assignment``'s
leaf-to-root pass, so a tree read, checked and decided is traversed
once.
"""

from __future__ import annotations

import json
import re
from itertools import combinations, islice
from math import isqrt
from operator import ge, lt
from typing import Iterable, Sequence

# graph6's largest vertex count, and the most that either edgelist
# reader accepts
MAX_VERTICES = 258047


class DomainError(ValueError):
    """An operation was called outside its stated domain."""


class FormatError(ValueError):
    """Malformed serialized graph data.

    ``offset`` is the byte offset of the first offending byte.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Undetermined(DomainError):
    """No verdict either way: an exhaustive search found none within the
    range it was given, or the input lies outside a theorem's hypotheses."""


class Disconnected(DomainError):
    """The host graph is not connected.  The square of a disconnected
    graph has no 2-connected spanning subgraph, so ``build`` answers it
    with a verdict."""


class SearchBudgetExhausted(DomainError):
    """A search ran out of its node budget before a verdict."""


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
    """Simple undirected graph with sorted adjacency lists.

    ``_centres`` holds (k, centres of induced S(K_{1,k})) once
    ``patterns.centres`` has searched for one k; a graph never changes,
    so the set never goes stale.
    """

    __slots__ = ("n", "adj", "_edges", "_centres")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise DomainError("vertex count must be non-negative")
        self._fill(n, tuple(_normalize_edges(n, edges)))

    @classmethod
    def _from_sorted(cls, n: int, edges: tuple[tuple[int, int], ...], adj=None) -> "Graph":
        """The graph on 0..n-1 with ``edges``, which must be distinct
        pairs (u, v) with 0 <= u < v < n in ascending order; nothing here
        checks that.  ``adj``, if given, must be the sorted neighbour
        tuples those edges make."""
        g = object.__new__(cls)
        g._fill(n, edges, adj)
        return g

    def _fill(self, n: int, edges: tuple[tuple[int, int], ...], adj=None) -> None:
        if adj is None:
            lists: list[list[int]] = [[] for _ in range(n)]
            for u, v in edges:
                lists[u].append(v)
                lists[v].append(u)
            # edges are sorted, so each list gets its lower neighbours (as
            # the second end, in order of the first) and then its higher
            # ones (as the first end, in order of the second): already
            # ascending
            adj = tuple(map(tuple, lists))
        self.n = n
        self.adj = adj
        self._edges = edges
        self._centres = None

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


def _bfs(g: Graph) -> tuple[list[int], list[int]]:
    """The BFS of ``g`` from vertex 0, neighbours in list order: each
    reached vertex's parent (0 for vertex 0, -1 if unreached) and the
    reached vertices in visiting order."""
    parent = [-1] * g.n
    parent[0] = 0
    order = [0]
    adj = g.adj
    for v in order:
        for w in adj[v]:
            if parent[w] == -1:
                parent[w] = v
                order.append(w)
    return parent, order


def _require_tree(g: Graph) -> tuple[list[int], list[int]]:
    """``g``'s BFS from vertex 0, as ``_bfs`` gives it; DomainError
    unless ``g`` has n - 1 edges, Disconnected unless the BFS reaches
    every vertex."""
    if g.num_edges() != g.n - 1:
        raise DomainError("not a tree: need connectivity and exactly n-1 edges")
    bfs = _bfs(g)
    if len(bfs[1]) != g.n:
        raise Disconnected("not a tree: need connectivity and exactly n-1 edges")
    return bfs


class Tree(Graph):
    """A connected acyclic :class:`Graph`.

    ``_profile`` holds the tree's ``patterns.TreeProfile``, which
    ``patterns.tree_profile`` counts on first use, and ``_bfs`` the BFS
    from vertex 0 that checked it was a tree (``from_parents`` needs no
    check, so there ``tree_bfs`` runs it on first use); a tree never
    changes, so neither goes stale.
    """

    __slots__ = ("_profile", "_bfs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        super().__init__(n, edges)
        self._bfs = _require_tree(self)

    def _fill(self, n: int, edges: tuple[tuple[int, int], ...], adj=None) -> None:
        super()._fill(n, edges, adj)
        self._profile = None
        self._bfs = None

    @classmethod
    def _from_graph(cls, g: Graph) -> "Tree":
        """``g`` as a tree that shares its normalised edges and sorted
        adjacency instead of rebuilding them; DomainError if ``g`` is not
        a tree."""
        bfs = _require_tree(g)
        t = cls._from_sorted(g.n, g._edges, g.adj)
        t._bfs = bfs
        return t

    @classmethod
    def from_parents(cls, parent: Sequence[int]) -> "Tree":
        """The tree on 0..len(parent)-1 that joins each v >= 1 to
        ``parent[v]``, which must be a smaller id (``parent[0]`` is not
        read).  Each vertex then leads down to 0 and there are n - 1
        edges, so the edges and sorted adjacency are written directly:
        v's list is its parent, then its children in the order of their
        ids."""
        n = len(parent)
        if n == 0:
            raise DomainError("a tree needs a vertex")
        ups = parent[1:]
        if any(map(ge, ups, range(1, n))) or (ups and min(ups) < 0):
            raise DomainError("each parent must be a smaller vertex id")
        adj: list[list[int]] = [[p] for p in parent]
        adj[0] = []
        for v in range(1, n):
            adj[parent[v]].append(v)
        return cls._from_sorted(n, tuple(sorted(zip(ups, range(1, n)))), tuple(map(tuple, adj)))


def tree_bfs(t: Graph) -> tuple[list[int], list[int]]:
    """The parent array and visiting order of the BFS from vertex 0
    (see ``_bfs``), which the caller must not change.

    A :class:`Tree` keeps the BFS that checked it, so a decision after
    ``as_tree`` traverses nothing again; a plain :class:`Graph` gets a
    fresh BFS on each call, with no tree check.
    """
    if not isinstance(t, Tree):
        return _bfs(t)
    if t._bfs is None:
        t._bfs = _bfs(t)
    return t._bfs


def square(g: Graph) -> Graph:
    """The square of ``g``: join vertices at distance 1 or 2."""
    edges = set(g.edges())
    # each neighbour tuple is ascending, so its pairs come out as (low, high)
    for nbrs in g.adj:
        edges.update(combinations(nbrs, 2))
    return Graph._from_sorted(g.n, tuple(sorted(edges)))


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


def connected_cutvertices(g: Graph) -> set[int] | None:
    """The articulation points of a connected ``g``, or None if ``g`` is
    not connected: one lowpoint DFS from vertex 0 settles both."""
    if g.n == 0:
        return set()
    disc = [-1] * g.n
    cuts = articulation_points([0], g.adj, disc, [0] * g.n)
    return None if -1 in disc else cuts


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
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        # stack frames: (vertex, parent, iterator over its neighbours)
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for w in nbrs:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent == root:
                    root_children += 1
                elif parent != -1:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= disc[parent]:
                        result.add(parent)
        if root_children >= 2:
            result.add(root)
    return result


def is_two_connected(g: Graph) -> bool:
    if g.n < 3:
        raise DomainError("2-connectivity is only defined here for n >= 3")
    return connected_cutvertices(g) == set()


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
    if n <= MAX_VERTICES:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise DomainError("graph too large for this graph6 writer")


def _g6_decode_n(data: bytes, at: int) -> tuple[int, int]:
    """The vertex count of the graph6 string that starts at ``data[at]``,
    and the offset of its body."""
    if at >= len(data):
        raise FormatError("empty graph6 input", at)
    if data[at] != 126:
        n = data[at] - 63
        if n < 0 or n > 62:
            raise FormatError("bad graph6 size byte", at)
        return n, at + 1
    # three size bytes above MAX_VERTICES start with 126, which marks the
    # six-byte form: both are refused here
    if len(data) < at + 4 or data[at + 1] == 126:
        raise FormatError("unsupported graph6 long size form", at + 1)
    vals = []
    for i in range(at + 1, at + 4):
        b = data[i] - 63
        if b < 0 or b > 63:
            raise FormatError("bad graph6 size byte", i)
        vals.append(b)
    return (vals[0] << 12) | (vals[1] << 6) | vals[2], at + 4


# graph6 body bytes carry 6 bits each, plus 63
_G6_BAD_BYTE = re.compile(rb"[^?-~]")
_G6_SET_BYTE = re.compile(rb"[^?]")
_G6_PLUS_63 = bytes((b + 63) & 255 for b in range(256))


def write_graph6(g: Graph) -> bytes:
    """The graph6 string of ``g``: bit p of the body, most significant
    first in each byte, is set for the edge uv, u < v, with
    p = v(v-1)/2 + u."""
    head = _g6_encode_n(g.n)
    body = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    for u, v in g.edges():
        p = v * (v - 1) // 2 + u
        body[p // 6] |= 32 >> p % 6
    return head + body.translate(_G6_PLUS_63)


def read_graph6(data: bytes) -> Graph:
    """One graph in graph6, with optional leading whitespace and
    ``>>graph6<<`` header; only whitespace may follow it.  Error offsets
    count from the first byte of ``data``.

    Only the body bytes with a bit set are visited: bit p belongs to
    the edge uv with v = (1 + isqrt(8p + 1)) // 2 and u = p - v(v-1)/2.
    """
    start = len(data) - len(data.lstrip())
    if data.startswith(b">>graph6<<", start):
        start += 10
    n, pos = _g6_decode_n(data, start)
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    stop = len(data.rstrip())
    if stop - pos < need:
        raise FormatError("graph6 body too short", stop)
    body = data[pos : pos + need]
    bad = _G6_BAD_BYTE.search(body)
    if bad:
        raise FormatError("bad graph6 body byte", pos + bad.start())
    after = data[pos + need : stop]
    if after:
        raise FormatError("bytes after the graph6 body", stop - len(after.lstrip()))
    edges = []
    for found in _G6_SET_BYTE.finditer(body):
        i = found.start()
        b = body[i] - 63
        for j in range(6):
            p = 6 * i + j
            if b & 32 >> j and p < pairs:
                v = (1 + isqrt(8 * p + 1)) // 2
                edges.append((p - v * (v - 1) // 2, v))
    edges.sort()
    return Graph._from_sorted(n, tuple(edges))


def write_edgelist(g: Graph) -> bytes:
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return ("\n".join(lines) + "\n").encode()


def read_edgelist(data: bytes) -> Graph:
    """The graph of an edge list: an optional ``n=<count>`` header, one
    ``<u> <v>`` line per edge, blank lines and ``#`` comments.  The form
    :func:`write_edgelist` writes is read in bulk; every other input goes
    through the line loop, which gives the same graph and raises every
    FormatError, at the offset of the line at fault."""
    g = _read_sorted_edgelist(data)
    return g if g is not None else _read_edgelist_lines(data)


# the body's separators as JSON's, so that one json.loads reads every id
_COMMAS = bytes.maketrans(b" \n", b",,")


def _read_sorted_edgelist(data: bytes) -> Graph | None:
    """The graph of ``data`` if it is exactly an ``n=<digits>`` line and
    then ``<u> <v>`` lines, each with one space and a newline, no id with
    a leading zero, u < v < n <= MAX_VERTICES on every line and the
    pairs strictly ascending; None otherwise.  Every check runs over the
    whole text at once."""
    head, _, body = data.partition(b"\n")
    if not (data.endswith(b"\n") and head.startswith(b"n=") and head[2:].isdigit()):
        return None
    # one space and one newline per line, in turn, nothing else between
    # the digits, and a newline last: with both read as commas the body
    # is a JSON list of two ids a line unless one is empty, which JSON
    # refuses, as it does a leading zero
    m = body.count(b"\n")
    if body.translate(None, b"0123456789") != b" \n" * m:
        return None
    try:
        n = int(head[2:])
        ids = json.loads(b"[" + body[:-1].translate(_COMMAS) + b"]")
    except ValueError:
        # a leading zero, or more digits than int() takes: the line loop
        # reads the first and names the line of the second
        return None
    if n > MAX_VERTICES:
        return None
    us, vs = ids[0::2], ids[1::2]
    edges = tuple(zip(us, vs))
    if not (
        all(map(lt, us, vs))
        and all(map(lt, edges, islice(edges, 1, None)))
        and max(vs, default=-1) < n
    ):
        return None
    return Graph._from_sorted(n, edges)


def _read_edgelist_lines(data: bytes) -> Graph:
    # a byte outside ASCII decodes to one U+FFFD, so each character is
    # one byte and offsets into the text are byte offsets; on this text
    # isdigit() holds only for runs of 0-9, so a count or id has no sign,
    # digit separator or space
    lines = data.decode("ascii", errors="replace").splitlines(keepends=True)

    def error(message: str, i: int) -> FormatError:
        return FormatError(message, sum(map(len, lines[:i])))

    n = -1
    edges = []
    # the largest id, and the first line that holds it
    max_seen, max_at = -1, 0
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                # longer than the interpreter's int-string limit
                raise error("vertex id has too many digits", i) from None
            if u == v:
                raise error(f"self-loop at vertex {u}", i)
            edges.append((u, v))
            if u > max_seen or v > max_seen:
                max_seen, max_at = max(u, v), i
        elif not parts or parts[0].startswith("#"):
            continue
        elif parts[0].startswith("n="):
            if n >= 0:
                raise error("second vertex-count header", i)
            if len(parts) != 1 or not parts[0][2:].isdigit():
                raise error("bad vertex-count header", i)
            try:
                n = int(parts[0][2:])
            except ValueError:
                raise error("vertex count has too many digits", i) from None
            if n > MAX_VERTICES:
                raise error(f"vertex count {n} exceeds the limit {MAX_VERTICES}", i)
        elif len(parts) != 2:
            raise error("edge line needs two vertex ids", i)
        else:
            bad = parts[1] if parts[0].isdigit() else parts[0]
            negative = bad[:1] == "-" and bad[1:].isdigit()
            raise error("negative vertex id" if negative else "non-integer vertex id", i)
    if n < 0:
        if max_seen >= MAX_VERTICES:
            raise error(f"vertex id {max_seen} exceeds the largest id {MAX_VERTICES - 1}", max_at)
        n = max_seen + 1
    if max_seen >= n:
        raise error(f"vertex id {max_seen} exceeds declared n={n}", max_at)
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
