import pytest

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


def test_as_tree_rejects_non_tree():
    with pytest.raises(DomainError):
        as_tree(cycle_graph(4))
    assert isinstance(as_tree(Graph(3, [(0, 1), (1, 2)])), Tree)


def test_is_connected():
    assert is_connected(path_graph(3))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
