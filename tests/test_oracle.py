import pytest

from helpers import two_connected_graphs

from trestles.graphs import (
    DomainError,
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    spider,
    square,
)
from trestles.oracle import (
    EXHAUSTED,
    FOUND,
    NONE,
    SearchBudget,
    SearchBudgetExhausted,
    brute_force_trestle,
    brute_force_trestle_by_degrees,
    enumerate_trees,
    fleischner_hamilton,
    hamilton_cycle,
    independence_number,
    tree_canonical_form,
)


def test_brute_force_finds_cycle():
    r = brute_force_trestle(cycle_graph(5), 2)
    assert r.status == FOUND
    assert len(r.edges) == 5


def test_brute_force_none_on_tree():
    r = brute_force_trestle(path_graph(5), 3)
    assert r.status == NONE  # trees are never 2-connected


def test_brute_force_spider_squares():
    assert brute_force_trestle(square(spider(4)), 3).status == NONE
    assert brute_force_trestle(square(spider(3)), 2).status == NONE
    assert brute_force_trestle(square(spider(3)), 3).status == FOUND


def test_two_strategies_agree_on_small_squares():
    for n in range(3, 9):
        for t in enumerate_trees(n):
            sq = square(t)
            for k in (2, 3):
                a = brute_force_trestle(sq, k).status
                b = brute_force_trestle_by_degrees(sq, k).status
                assert a == b


def test_budget_exhaustion():
    g = square(complete_graph(9))
    r = brute_force_trestle(g, 3, SearchBudget(node_limit=5))
    assert r.status == EXHAUSTED


def test_hamilton_budget_exhaustion_is_a_domain_error_naming_the_budget():
    with pytest.raises(SearchBudgetExhausted, match="budget") as info:
        hamilton_cycle(cycle_graph(6), SearchBudget(node_limit=3))
    assert isinstance(info.value, DomainError)


def test_found_certificates_are_trestles():
    from trestles.verify import TrestleCertificate, verify_trestle

    for t in enumerate_trees(7):
        sq = square(t)
        r = brute_force_trestle(sq, 3)
        if r.status != FOUND:
            continue
        cert = TrestleCertificate.of(sq, r.edges, 3)
        # host here is the square itself; its square only adds edges
        assert verify_trestle(cert).passed()


def test_hamilton_cycle_on_cycle_and_path():
    assert hamilton_cycle(cycle_graph(6)) is not None
    assert hamilton_cycle(path_graph(6)) is None


def test_fleischner_requires_two_connected():
    with pytest.raises(DomainError):
        fleischner_hamilton(path_graph(5))
    cycle = fleischner_hamilton(cycle_graph(7))
    assert sorted(cycle) == list(range(7))


def test_independence_number():
    assert independence_number(complete_graph(5)) == 1
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(Graph(4, [])) == 4


def test_tree_counts():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}
    for n, count in expected.items():
        assert sum(1 for _ in enumerate_trees(n)) == count


def test_tree_canonical_form_identifies_isomorphs():
    from trestles.graphs import Tree, write_graph6

    a = Tree(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    b = Tree(5, [(4, 2), (2, 0), (0, 1), (1, 3)])
    assert write_graph6(tree_canonical_form(a)) == write_graph6(tree_canonical_form(b))


def test_two_connected_counts():
    expected = {3: 1, 4: 3, 5: 10, 6: 56, 7: 468, 8: 7123}
    counts: dict[int, int] = {}
    for g in two_connected_graphs():
        counts[g.n] = counts.get(g.n, 0) + 1
    assert counts == expected
