from trestles.graphs import Graph, Tree, path_graph, spider, square
from trestles.patterns import (
    centre_witness,
    centres,
    is_caterpillar,
    is_spider_free,
    tree_profile,
)


def test_spider_centre_found():
    s = spider(3)
    emb = centre_witness(s, 0, 3)
    assert emb is not None
    assert emb.centre == 0
    assert emb.is_induced_in(s)
    assert centres(s, 3) == {0}


def test_spider4_centres():
    s = spider(4)
    assert centres(s, 4) == {0}
    assert not is_spider_free(s, 4)
    assert is_spider_free(s, 5)


def test_paths_are_spider_free():
    assert is_spider_free(path_graph(9), 3)
    assert centres(path_graph(9), 3) == set()


def test_square_has_no_induced_spider_witness_by_accident():
    # the square of a spider is not the spider; centre check must use
    # induced embeddings, and the square's centre is no longer a 3-centre
    assert centres(square(spider(3)), 3) == set()


def test_tree_profile_counts():
    t = Tree(7, [(0, 1), (0, 3), (0, 5), (1, 2), (3, 4), (5, 6)])
    p = tree_profile(t)
    assert p.n(0) == 3
    assert p.n(1) == p.n(3) == p.n(5) == 1
    assert p.n(2) == p.n(4) == p.n(6) == 1  # their mid is a non-leaf
    assert p.red_set() == {0}


def test_tree_centres_match_general_search():
    trees = [
        spider(3),
        Tree(8, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7)]),
        Tree(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    ]
    for t in trees:
        profile = tree_profile(t)
        assert centres(t, 3) == {v for v in range(t.n) if profile.n(v) >= 3}


def test_caterpillar_detection():
    assert is_caterpillar(path_graph(6))
    star = Tree(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert is_caterpillar(star)
    assert not is_caterpillar(spider(3))


def test_non_tree_centre():
    # a triangle with three pendant paths of length 2 has three centres
    g = Graph(
        9,
        [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (1, 5), (5, 6), (2, 7), (7, 8)],
    )
    assert centres(g, 3) == set()  # triangle neighbours are adjacent
