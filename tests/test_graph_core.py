import re
import tracemalloc
from collections import deque

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import prufer_trees
from trestles import graphs
from trestles.graphs import (
    MAX_VERTICES,
    DomainError,
    FormatError,
    Graph,
    Tree,
    as_tree,
    complete_graph,
    components,
    cutvertices,
    cycle_graph,
    is_connected,
    is_path_graph,
    is_two_connected,
    path_graph,
    read_edgelist,
    read_graph6,
    spider,
    square,
    tree_bfs,
    write_edgelist,
    write_graph6,
)
from trestles.obstruction import AttachmentPattern, compose


def test_square_of_path():
    sq = square(path_graph(5))
    assert sq.edges() == ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4))


def test_square_of_spider():
    sq = square(spider(3))
    # centre sees everything, mids see each other, leaves see their mid and 0
    assert set(sq.adj[0]) == {1, 2, 3, 4, 5, 6}
    assert set(sq.adj[1]) == {0, 2, 3, 4}
    assert set(sq.adj[4]) == {0, 1}


def test_square_idempotent_on_complete():
    g = complete_graph(5)
    assert square(g).edges() == g.edges()


def test_tree_validation():
    with pytest.raises(DomainError):
        Tree(4, [(0, 1), (2, 3)])  # disconnected
    with pytest.raises(DomainError):
        Tree(3, [(0, 1), (1, 2), (0, 2)])  # cycle


def test_cutvertices_path_and_cycle():
    assert cutvertices(path_graph(5)) == {1, 2, 3}
    assert cutvertices(cycle_graph(5)) == set()


@given(
    st.integers(0, 14).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))),
            st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True),
        )
    )
)
def test_cutvertices_are_the_vertices_whose_removal_adds_a_component(case):
    n, pairs, ids = case
    g = Graph(n, [e for e in pairs if e[0] != e[1]])
    parts = len(components(g))
    expected = {v for v in range(n) if len(components(g, removed={v})) > parts}
    assert cutvertices(g) == expected
    # the same graph on part of a larger id space, keyed by dicts, as a
    # level of the general builder searches it
    adj = {ids[v]: [ids[w] for w in g.adj[v]] for v in range(n)}
    found = graphs.articulation_points(ids, adj, dict.fromkeys(ids, -1), dict.fromkeys(ids, 0))
    assert found == {ids[v] for v in expected}


def test_two_connected():
    assert is_two_connected(cycle_graph(4))
    assert not is_two_connected(path_graph(4))
    with pytest.raises(DomainError):
        is_two_connected(path_graph(2))


def test_path_recognition():
    assert is_path_graph(path_graph(7))
    assert not is_path_graph(cycle_graph(7))
    assert not is_path_graph(spider(3))


def test_components_with_removal():
    comps = components(spider(3), removed={0})
    assert sorted(sorted(c) for c in comps) == [[1, 4], [2, 5], [3, 6]]


def test_graph6_roundtrip():
    # from n = 63 on, the size takes the long form: 126, then 18 bits
    for g in (path_graph(5), cycle_graph(6), spider(4), complete_graph(7), cycle_graph(63), complete_graph(64)):
        assert read_graph6(write_graph6(g)).edges() == g.edges()
    assert write_graph6(cycle_graph(63))[:4] == b"~??~"
    assert write_graph6(complete_graph(64))[:4] == b"~?@?"
    # n = 4097 = 1 << 12 | 1 sets the first and last size bytes; the body
    # is written by the format's definition (bit v(v-1)/2 + u for u < v,
    # six bits per byte from the high end), since the writer's pair scan
    # would take as long as the read
    n, edges = 4097, ((0, 1), (0, 4096), (62, 63), (4095, 4096))
    body = bytearray(b"?" * ((n * (n - 1) // 2 + 5) // 6))
    for u, v in edges:
        bit = v * (v - 1) // 2 + u
        body[bit // 6] += 1 << 5 - bit % 6
    g = read_graph6(b"~@?@" + bytes(body) + b"\n")
    assert g.n == n and g.edges() == edges


@st.composite
def _graphs_up_to_200(draw):
    n = draw(st.integers(0, 200))
    ids = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=2 * n))
    return Graph(n, [(u, v) for u, v in pairs if u != v])


@settings(max_examples=80)
@given(_graphs_up_to_200())
@example(Graph(63, [(0, 62)]))
@example(Graph(200, [(u, v) for u in range(200) for v in range(u + 1, 200)]))
def test_graph6_roundtrip_property(g):
    data = write_graph6(g)
    # from n = 63 on, the size takes the long form
    assert (data[:1] == b"~") == (g.n >= 63)
    assert len(data) == (4 if g.n >= 63 else 1) + (g.n * (g.n - 1) // 2 + 5) // 6
    assert read_graph6(data) == g


def test_graph6_read_memory_is_linear():
    # the n = 4097 path: 1.4 MB of body, read without a per-bit list
    data = write_graph6(path_graph(4097))
    tracemalloc.start()
    try:
        g = read_graph6(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == path_graph(4097)
    assert peak < 10 * 2**20


def test_graph6_header_and_errors():
    g = cycle_graph(5)
    assert read_graph6(b">>graph6<<" + write_graph6(g)).edges() == g.edges()
    with pytest.raises(FormatError):
        read_graph6(b"\x01\x02")


@pytest.mark.parametrize(
    "data, offset, message",
    [
        # a second graph, or any byte after the body, is not read past
        (b"Dhczzz", 3, "bytes after the graph6 body"),
        (b"Dhc\nDhc", 4, "bytes after the graph6 body"),
        (b"Dhc \t x\n", 6, "bytes after the graph6 body"),
        # offsets count from the first byte, whitespace and header included
        (b"  D!c", 3, "bad graph6 body byte"),
        (b">>graph6<<D!c", 11, "bad graph6 body byte"),
        (b"\n>>graph6<<Dh\n", 13, "graph6 body too short"),
        (b"\t\x01", 1, "bad graph6 size byte"),
        (b" ~~", 2, "unsupported graph6 long size form"),
        # a bad body byte comes before the bytes after the body
        (b"D!czzz", 1, "bad graph6 body byte"),
        # the long form, n = 70: 403 body bytes after the 4 size bytes
        (b"~?@E" + b"?" * 402 + b" ", 406, "graph6 body too short"),
        (b"~?@E" + b"?" * 200 + b"\x7f" + b"?" * 202, 204, "bad graph6 body byte"),
        (b"~?@E" + b"?" * 403 + b"\n?", 408, "bytes after the graph6 body"),
        # three size bytes above 258047 start with 126, the mark of the
        # six-byte form, which is refused at that byte
        (b"~~??" + b"?" * 8, 1, "unsupported graph6 long size form"),
    ],
)
def test_graph6_errors_report_the_offending_byte(data, offset, message):
    with pytest.raises(FormatError, match=message) as info:
        read_graph6(data)
    assert info.value.offset == offset


def test_graph6_takes_surrounding_whitespace():
    g = cycle_graph(5)
    for data in (b"Dhc\n", b"  >>graph6<<Dhc \r\n", b"\nDhc\n\n"):
        assert read_graph6(data).edges() == g.edges()


def test_edgelist_roundtrip_and_errors():
    g = spider(3)
    assert read_edgelist(write_edgelist(g)).edges() == g.edges()
    with pytest.raises(FormatError):
        read_edgelist(b"n=3\n0 5\n")
    with pytest.raises(FormatError):
        read_edgelist(b"nonsense\n")


@pytest.mark.parametrize(
    "data, offset",
    [
        # a byte outside ASCII counts once, however it decodes
        (b"# caf\xe9 comment\n0 1\nx y\n", 19),
        (b"# \xe9\xe9\xe9\n0 1 2\n", 6),
        # a negative vertex count is refused where it stands
        (b"0 1\nn=-3\n1 2\n", 4),
        # the offset is that of the first line holding the id named
        (b"n=3\n0 1\n1 5\n2 5\n", 8),
        (b"0 7\n1 2\nn=4\n", 0),
    ],
)
def test_edgelist_errors_report_the_offending_line(data, offset):
    with pytest.raises(FormatError) as info:
        read_edgelist(data)
    assert info.value.offset == offset


@pytest.mark.parametrize(
    "data, offset, message",
    [
        # Python's int would read these as 10, the edge 0-1 and 1-2
        (b"n=1_0\n0 1\n", 0, "bad vertex-count header"),
        (b"n=3\n+0 +1\n", 4, "non-integer vertex id"),
        (b"n=3\n0 1\n1 2_0\n", 8, "non-integer vertex id"),
        (b"n=3\n0 1\n-1 2\n", 8, "negative vertex id"),
        (b"n= 3\n0 1\n", 0, "bad vertex-count header"),
        # a second header no longer replaces the first
        (b"n=3\n0 1\nn=5\n3 4\n", 8, "second vertex-count header"),
        (b"n=3\n0 1\nn=3\n", 8, "second vertex-count header"),
        # more digits than int() takes (4300 by default) is bad input too
        (b"n=3\n0 " + b"1" * 5000 + b"\n", 4, "vertex id has too many digits"),
        (b"n=" + b"1" * 5000 + b"\n0 1\n", 0, "vertex count has too many digits"),
        # a self-loop is refused at its line, not by the graph
        (b"n=3\n0 1\n1 1\n", 8, "self-loop at vertex 1"),
        (b"0 1\n 2  2 \n", 4, "self-loop at vertex 2"),
    ],
)
def test_edgelist_takes_only_ascii_digits_and_one_header(data, offset, message):
    with pytest.raises(FormatError, match=message) as info:
        read_edgelist(data)
    assert info.value.offset == offset


@pytest.mark.parametrize(
    "data, canonical",
    [
        # JSON refuses a leading zero, which the line loop reads
        (b"n=5\n0 1\n1 2\n1 03\n3 4\n", b"n=5\n0 1\n1 2\n1 3\n3 4\n"),
        (b"n=3\n00 1\n", b"n=3\n0 1\n"),
        # more digits than int() takes, in the written form: an error
        (b"n=3\n0 " + b"1" * 5000 + b"\n", None),
    ],
)
def test_written_form_that_json_refuses_reads_as_the_line_loop_does(data, canonical):
    outcome = read_outcome(read_edgelist, data)
    assert outcome == read_outcome(graphs._read_edgelist_lines, data)
    if canonical is not None:
        assert outcome == read_outcome(read_edgelist, canonical)


@pytest.mark.parametrize(
    "data, offset, message",
    [
        (b"n=4000000\n", 0, "vertex count 4000000 exceeds the limit 258047"),
        (b"n=258048\n0 1\n", 0, "vertex count 258048 exceeds the limit"),
        (b"# big\nn=258048\n", 6, "vertex count 258048 exceeds the limit"),
        (b"0 300000\n", 0, "vertex id 300000 exceeds the largest id 258046"),
        (b"0 1\n2 258047\n1 2\n", 4, "vertex id 258047 exceeds the largest id"),
    ],
)
def test_edgelist_vertex_count_is_capped(data, offset, message):
    with pytest.raises(FormatError, match=message) as info:
        read_edgelist(data)
    assert info.value.offset == offset


def test_edgelist_vertex_limit_is_inclusive():
    assert read_edgelist(b"n=%d\n0 1\n" % MAX_VERTICES).n == MAX_VERTICES
    assert read_edgelist(b"0 %d\n" % (MAX_VERTICES - 1)).n == MAX_VERTICES


def test_edgelist_error_messages():
    with pytest.raises(FormatError, match="bad vertex-count header"):
        read_edgelist(b"n=-3\n0 1\n")
    with pytest.raises(FormatError, match="vertex id 5 exceeds declared n=3"):
        read_edgelist(b"n=3\n0 1\n1 5\n")


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=40,
            ),
        )
    )
)
def test_graph_adjacency_is_sorted_without_a_sort(case):
    n, edges = case
    # every edge once more, the other way round
    g = Graph(n, edges + [(v, u) for u, v in edges])
    expected = sorted({(min(e), max(e)) for e in edges})
    assert list(g.edges()) == expected
    for v in range(n):
        assert list(g.adj[v]) == sorted(
            {u for e in expected for u in e if v in e and u != v}
        )
    assert read_edgelist(write_edgelist(g)) == g


def small_graphs(max_n=12):
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=40 if n > 1 else 0,
            ),
        )
    ).map(lambda case: Graph(*case))


def read_outcome(read, data):
    """The graph ``read`` makes of ``data``, or the error it raises."""
    try:
        g = read(data)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return g.n, g.edges(), g.adj


EDGELIST_BYTES = [bytes([b]) for b in b"0123456789 \t\n\r\x0b\x1f#n=-x\xff"]


def mutated_edgelist(g, at, how, byte):
    data = write_edgelist(g)
    at %= len(data)
    if how == "replace":
        return data[:at] + byte + data[at + 1 :]
    if how == "insert":
        return data[:at] + byte + data[at:]
    return data[:at] + data[at + 1 :]


def edgelist_lines():
    """Text near the written form: an optional header, then lines of two
    ids, either of which may be missing, with a few kinds of separator
    and line end, in any order."""
    vertex_id = st.one_of(st.just(b""), st.integers(0, 12).map(b"%d".__mod__))
    # the written form's separator and line end, four times as likely as
    # any other, so many texts keep it on every line but one or none
    line = st.tuples(
        vertex_id,
        st.sampled_from([b" "] * 4 + [b"  ", b"\t", b""]),
        vertex_id,
        st.sampled_from([b"\n"] * 4 + [b"\r\n", b" \n", b"\x0b", b""]),
    ).map(b"".join)
    header = st.one_of(st.just(b""), st.integers(0, 14).map(b"n=%d\n".__mod__))
    return st.tuples(header, st.lists(line, max_size=8).map(b"".join)).map(b"".join)


def unsorted_edgelist(n, pairs):
    """The written form of ``pairs`` as given: in any order, repeated,
    either way round, self-loops and ids past n included."""
    return b"".join([b"n=%d\n" % n] + [b"%d %d\n" % e for e in pairs])


@settings(max_examples=400)
@given(
    st.one_of(
        st.lists(st.sampled_from(EDGELIST_BYTES), max_size=40).map(b"".join),
        edgelist_lines(),
        st.builds(
            unsorted_edgelist,
            st.integers(0, 10),
            st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=8),
        ),
        st.builds(
            mutated_edgelist,
            small_graphs(),
            st.integers(0, 10**6),
            st.sampled_from(["replace", "insert", "delete"]),
            st.sampled_from(EDGELIST_BYTES),
        ),
    )
)
# one id short on a line, and a digit after the last newline
@example(b"n=5\n0 \n1")
def test_edgelist_reads_as_the_line_loop_does(data):
    # a five-digit count or id would only allocate a larger graph
    assume(re.search(rb"[0-9]{5}", data) is None)
    assert read_outcome(read_edgelist, data) == read_outcome(graphs._read_edgelist_lines, data)


@given(small_graphs())
def test_written_edgelists_are_read_in_bulk(g):
    assume(g.num_edges() > 0)

    def no_line_loop(data):
        raise AssertionError("read by the line loop")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_read_edgelist_lines", no_line_loop)
        back = read_edgelist(write_edgelist(g))
    assert back == g and back.adj == g.adj


def square_by_bfs(g):
    """Sorted neighbour lists of the square: every vertex at distance 1
    or 2 by a breadth-first search cut off at depth 2."""
    rows = []
    for s in range(g.n):
        depth = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            if depth[v] < 2:
                for w in g.adj[v]:
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        queue.append(w)
        rows.append(tuple(sorted(w for w in depth if w != s)))
    return rows


@given(st.one_of(small_graphs(), st.integers(0, 9).map(complete_graph)))
def test_square_matches_breadth_first_search(g):
    rows = square_by_bfs(g)
    sq = square(g)
    assert sq.n == g.n
    assert sq.adj == tuple(rows)
    assert sq.edges() == tuple((v, w) for v in range(g.n) for w in rows[v] if v < w)


def test_as_tree_rejects_non_tree():
    with pytest.raises(DomainError):
        as_tree(cycle_graph(4))
    assert isinstance(as_tree(Graph(3, [(0, 1), (1, 2)])), Tree)


def test_as_tree_shares_the_graph():
    g = Graph(4, [(2, 1), (0, 1), (1, 3)])
    t = as_tree(g)
    assert t == g and t.adj is g.adj and t.edges() is g.edges()
    assert as_tree(t) is t


def fresh_bfs(g):
    """Parents and visiting order of a queue BFS from vertex 0 over the
    sorted neighbour lists."""
    parent = {0: 0}
    queue = deque([0])
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in sorted(g.adj[v]):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return [parent.get(v, -1) for v in range(g.n)], order


@given(prufer_trees(), prufer_trees(), st.data())
def test_trees_keep_the_bfs_that_checked_them(t, glue, data):
    assert t._bfs == fresh_bfs(t) == tree_bfs(t)
    back = as_tree(Graph(t.n, t.edges()))
    assert back._bfs == fresh_bfs(t)
    # renumbered in BFS order, every parent is a smaller id
    parent, order = fresh_bfs(t)
    rank = {v: i for i, v in enumerate(order)}
    built = Tree.from_parents([0] + [rank[parent[v]] for v in order[1:]])
    assert built._bfs is None
    assert tree_bfs(built) == fresh_bfs(built) and built._bfs is not None
    v, w = data.draw(st.permutations(range(glue.n)))[:2]
    joined, *_ = compose(t, data.draw(st.integers(0, t.n - 1)), AttachmentPattern(glue, v, w))
    assert joined._bfs == fresh_bfs(joined)


def test_plain_graphs_get_a_fresh_bfs():
    g = path_graph(4)
    assert tree_bfs(g) == ([0, 0, 1, 2], [0, 1, 2, 3])
    assert tree_bfs(g) is not tree_bfs(g)


def test_is_connected():
    assert is_connected(path_graph(3))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
