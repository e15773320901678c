import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest

from helpers import frame_depth, prufer_tree, random_bounded_tree, two_connected_graphs

from trestles.graphs import (
    DomainError,
    Graph,
    Tree,
    complete_graph,
    cycle_graph,
    path_graph,
    spider,
    square,
    write_graph6,
)
from trestles.oracle import (
    EXHAUSTED,
    FOUND,
    NONE,
    SearchBudget,
    SearchBudgetExhausted,
    _canonical_masks,
    brute_force_trestle,
    brute_force_trestle_by_degrees,
    enumerate_trees,
    fleischner_hamilton,
    hamilton_cycle,
    independence_number,
    tree_canonical_form,
)

# SHA-256 of the graph6 lines of enumerate_trees(n) for n = 1..14 in
# order, and of tree_canonical_form over the seeded relabelled corpus
# below, both pinned from the recursive subtree-code implementation
FREE_TREE_DIGEST = "2eeb67202b064141c75307272a01b40425a2353895516945571c2b267430bdfe"
RANDOM_TREE_DIGEST = "6e45a6fdd44fb2cd49e3cf14722bf3a66cdf7ce5b2b256e212eeb67755b79041"


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


def _petersen() -> Graph:
    return Graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )


# (search, least node_limit that reaches a verdict, that verdict); the
# limits were read off the searches as they stood before their budgets
# lost the tracker object, and must not move
@pytest.mark.parametrize(
    "search, least, verdict",
    [
        (lambda b: hamilton_cycle(cycle_graph(8), b), 8, "cycle"),
        (lambda b: hamilton_cycle(_petersen(), b), 202, None),
        (lambda b: brute_force_trestle(square(path_graph(6)), 3, b).status, 7, FOUND),
        (lambda b: brute_force_trestle(square(spider(3)), 3, b).status, 8, FOUND),
        (lambda b: brute_force_trestle_by_degrees(square(path_graph(6)), 3, b).status, 16, FOUND),
        (lambda b: brute_force_trestle_by_degrees(square(spider(3)), 2, b).status, 178, NONE),
    ],
)
def test_budget_cutoffs_are_pinned(search, least, verdict):
    def outcome(limit):
        try:
            r = search(SearchBudget(node_limit=limit))
        except SearchBudgetExhausted:
            return EXHAUSTED
        return "cycle" if isinstance(r, list) else r

    assert outcome(least - 1) == EXHAUSTED
    assert outcome(least) == verdict


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


def _relabelled_random_trees(seed: int, count: int, max_n: int):
    """Seeded random trees on 1..max_n vertices, half Prüfer-uniform and
    half degree-bounded, each under a random relabelling."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        if n >= 2 and rng.random() < 0.5:
            t: Tree = prufer_tree([rng.randrange(n) for _ in range(n - 2)])
        else:
            t = random_bounded_tree(rng, n, maxdeg=rng.randint(2, 5))
        perm = list(range(n))
        rng.shuffle(perm)
        yield Tree(n, [(perm[u], perm[v]) for u, v in t.edges()])


def test_free_tree_stream_matches_golden_digest():
    h = hashlib.sha256()
    for n in range(1, 15):
        for t in enumerate_trees(n):
            h.update(write_graph6(t) + b"\n")
    assert h.hexdigest() == FREE_TREE_DIGEST


def test_tree_canonical_forms_match_golden_digest():
    h = hashlib.sha256()
    for t in _relabelled_random_trees(seed=2020, count=400, max_n=200):
        h.update(write_graph6(tree_canonical_form(t)) + b"\n")
    assert h.hexdigest() == RANDOM_TREE_DIGEST


def test_tree_canonical_form_of_a_long_path_does_not_recurse():
    n = 10_000
    perm = list(range(n))
    random.Random(3).shuffle(perm)
    t = Tree(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 100)
    try:
        canon = tree_canonical_form(t)
    finally:
        sys.setrecursionlimit(limit)
    # rooted at a centroid: the longer arm takes ids 1..n/2, the shorter the rest
    assert canon.edges() == tuple(sorted(
        [(i, i + 1) for i in range(n // 2)]
        + [(0, n // 2 + 1)]
        + [(i, i + 1) for i in range(n // 2 + 1, n - 1)]
    ))


def _masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _isomorphic_by_permutation(n: int, a: set, b: set) -> bool:
    return len(a) == len(b) and any(
        all((min(p[u], p[v]), max(p[u], p[v])) in b for u, v in a)
        for p in itertools.permutations(range(n))
    )


def _random_edges(rng: random.Random, n: int) -> set:
    p = rng.random()
    return {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}


def test_canonical_form_agrees_with_permutation_isomorphism():
    rng = random.Random(5)
    agree = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 7)
        a = _random_edges(rng, n)
        if rng.random() < 0.5:
            # an isomorphic copy, perturbed by one edge half of the time
            perm = list(range(n))
            rng.shuffle(perm)
            b = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in a}
            if n >= 2 and rng.random() < 0.5:
                b ^= {tuple(sorted(rng.sample(range(n), 2)))}
        else:
            b = _random_edges(rng, n)
        same = _canonical_masks(_masks(n, a)) == _canonical_masks(_masks(n, b))
        assert same == _isomorphic_by_permutation(n, a, b), (n, sorted(a), sorted(b))
        agree[same] += 1
    assert min(agree.values()) >= 50


def test_canonical_form_is_invariant_under_relabelling_at_n8():
    rng = random.Random(8)
    graphs = [_random_edges(rng, 8) for _ in range(200)]
    graphs += [set(complete_graph(8).edges()), set(cycle_graph(8).edges()), set()]
    graphs.append({(u, v) for u in range(4) for v in range(4, 8)})  # K_{4,4}
    graphs.append({(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b})  # the 3-cube
    for edges in graphs:
        canon = _canonical_masks(_masks(8, edges))
        for _ in range(5):
            perm = list(range(8))
            rng.shuffle(perm)
            assert _canonical_masks(_masks(8, [(perm[u], perm[v]) for u, v in edges])) == canon


def test_two_connected_enumeration_needs_no_third_party_package():
    # only the standard library and this package may be imported
    script = """
import sys


class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "trestles" and top not in sys.stdlib_module_names:
            raise ImportError("third-party import blocked: " + name)
        return None


sys.meta_path.insert(0, StdlibOnly())
from trestles.oracle import enumerate_two_connected

print(sum(1 for g in enumerate_two_connected(6) if g.n == 6))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "56\n"
