import hashlib
import json

from hypothesis import example, given, settings, strategies as st

from helpers import chorded_host_corpus, random_red_graphs, three_clique_hub

from trestles import patterns
from trestles.general_trestle import build_general_trestle
from trestles.graphs import Graph, Tree, path_graph, spider, square
from trestles.patterns import (
    NeighbourSets,
    centre_witness,
    centres,
    has_spider3,
    is_caterpillar,
    is_spider_free,
    spider_witness,
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


def test_centres_are_searched_once_per_graph(monkeypatch):
    # the CLI's centre search, then the general builder's, on one host:
    # only the first runs a spider test over the host's adjacency
    host, matching = next(iter(chorded_host_corpus(seed=11)))
    g = Graph(host.n, host.edges())  # the corpus searched the host already
    searched = {3: [], 4: []}
    test3, witness = patterns.has_spider3, patterns.spider_witness

    def counting3(adj, v, sets):
        if adj is g.adj:
            searched[3].append(v)
        return test3(adj, v, sets)

    def counting(adj, v, k, sets):
        if adj is g.adj:
            searched[k].append(v)
        return witness(adj, v, k, sets)

    monkeypatch.setattr(patterns, "has_spider3", counting3)
    monkeypatch.setattr(patterns, "spider_witness", counting)
    x = centres(g, 3)
    assert len(searched[3]) == g.n and x
    assert centres(g, 3) is x
    build_general_trestle(g, matching.edge_list)
    assert len(searched[3]) == g.n
    # the build's S(K_{1,4}) test searches each centre for a witness
    assert sorted(searched[4]) == sorted(x)
    # the set is kept for its k only: the host is S(K_{1,4})-free
    assert centres(g, 4) == set()
    assert len(searched[4]) == len(x) + g.n


def test_tree_profile_counts():
    t = Tree(7, [(0, 1), (0, 3), (0, 5), (1, 2), (3, 4), (5, 6)])
    p = tree_profile(t)
    assert p.n(0) == 3
    assert p.n(1) == p.n(3) == p.n(5) == 1
    assert p.n(2) == p.n(4) == p.n(6) == 1  # their mid is a non-leaf
    assert p.red_set() == {0}


def test_tree_profile_is_counted_once_per_tree():
    t = Tree(7, [(0, 1), (0, 3), (0, 5), (1, 2), (3, 4), (5, 6)])
    p = tree_profile(t)
    assert tree_profile(t) is p
    assert p == tree_profile(Graph(t.n, t.edges()))
    # a plain Graph keeps nothing, so it is counted on every call
    g = path_graph(5)
    assert tree_profile(g) is not tree_profile(g)
    assert tree_profile(g).non_leaf_neighbours == (1, 1, 2, 1, 1)


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


# SHA-256 of centres(g, k) and of every centre_witness(g, v, k), k = 2, 3,
# 4, on the hosts below, as the search over tuple adjacency found them;
# the search over neighbour sets must keep every witness
CENTRE_DIGEST = "8dc9246e1a4126fc48d5e95f89c33e361deb6e520ae5464bac925be933e2f29d"


def _centre_lines():
    hosts = [g for g, _ in chorded_host_corpus(seed=11)]
    hosts += [g for g, _ in random_red_graphs(seed=23, count=2000)]
    hosts += [g for g, _ in random_red_graphs(seed=29, count=300, max_n=24)]
    for g in hosts:
        for k in (2, 3, 4):
            yield sorted(centres(g, k))
            for v in range(g.n):
                w = centre_witness(g, v, k)
                yield None if w is None else [w.centre, list(w.mids), list(w.leaves)]


def test_centres_and_witnesses_match_golden_digest():
    h = hashlib.sha256()
    for line in _centre_lines():
        h.update(json.dumps(line).encode() + b"\n")
    assert h.hexdigest() == CENTRE_DIGEST


@st.composite
def spider_test_graphs(draw):
    """Dense random graphs, or chains of triangles with pendant paths,
    with isolated vertices added and the ids shuffled."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        n = draw(st.integers(1, 16))
        p = draw(st.floats(0.1, 0.9))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    else:
        triangles = draw(st.integers(1, 4))
        n = 3 * triangles
        edges = []
        for t in range(triangles):
            a = 3 * t
            edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
            if t:
                edges.append((rng.randrange(a), a + rng.randrange(3)))
        for _ in range(draw(st.integers(0, 6))):
            # a pendant path of 1 to 3 vertices at a random vertex
            at = rng.randrange(n)
            for _ in range(rng.randint(1, 3)):
                edges.append((at, n))
                at, n = n, n + 1
    n += draw(st.integers(0, 3))
    ids = list(range(n))
    rng.shuffle(ids)
    return Graph(n, [(ids[u], ids[v]) for u, v in edges])


@settings(max_examples=300)
@given(spider_test_graphs())
# the only leaf of mid 1 is adjacent to mid 3 as well: 0 is no centre
@example(Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (3, 4), (2, 5), (3, 6)]))
def test_spider3_test_matches_witness_search(g):
    # branch views are checked by the level hook in test_general_trestle
    sets = [set(a) for a in g.adj]
    for v in range(g.n):
        assert has_spider3(g.adj, v, sets) == (spider_witness(g.adj, v, 3, sets) is not None)
    assert centres(g, 3) == {v for v in range(g.n) if centre_witness(g, v, 3) is not None}


class _CountingSets(NeighbourSets):
    __slots__ = ("reads",)

    def __init__(self, adj):
        super().__init__(adj)
        self.reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_clique_cover_bounds_the_hub_spider4_search():
    # the hub's 3m arms lie in three cliques, so no S(K_{1,4}) is tried:
    # the centre's set and one set per arm, where trying every triple of
    # mids read about m^3
    for m in (5, 10, 20, 40):
        g = three_clique_hub(m)
        sets = _CountingSets(g.adj)
        assert spider_witness(g.adj, 0, 4, sets) is None
        assert sets.reads == 3 * m + 1
        # the bound leaves k = 3 alone
        w = centre_witness(g, 0, 3)
        assert w is not None and w.is_induced_in(g)
