import pytest
from hypothesis import given, strategies as st

from trestles.graphs import (
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
    write_edgelist,
    write_graph6,
)


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
    for g in (path_graph(5), cycle_graph(6), spider(4), complete_graph(7)):
        assert read_graph6(write_graph6(g)).edges() == g.edges()


def test_graph6_header_and_errors():
    g = cycle_graph(5)
    assert read_graph6(b">>graph6<<" + write_graph6(g)).edges() == g.edges()
    with pytest.raises(FormatError):
        read_graph6(b"\x01\x02")


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


def test_as_tree_rejects_non_tree():
    with pytest.raises(DomainError):
        as_tree(cycle_graph(4))
    assert isinstance(as_tree(Graph(3, [(0, 1), (1, 2)])), Tree)


def test_as_tree_shares_the_graph():
    g = Graph(4, [(2, 1), (0, 1), (1, 3)])
    t = as_tree(g)
    assert t == g and t.adj is g.adj and t.edges() is g.edges()
    assert as_tree(t) is t


def test_is_connected():
    assert is_connected(path_graph(3))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
