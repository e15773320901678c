"""Property tests of the tree decision on random labelled trees.

Trees are drawn uniformly by Prüfer sequence; the hypothesis profile in
``conftest.py`` makes the draws the same on every run.
"""

from hypothesis import given, strategies as st

from helpers import prufer_trees
from trestles.matching_flow import ArcAssignment
from trestles.obstruction import check_obstruction
from trestles.patterns import is_caterpillar, tree_profile
from trestles.tree_trestle import build_tree_trestle, decide_tree_trestle
from trestles.verify import TrestleCertificate, verify_trestle

trees = prufer_trees()


@given(trees)
def test_k2_feasible_iff_caterpillar(t):
    assert (decide_tree_trestle(t, 2) is not None) == is_caterpillar(t)


@given(trees)
def test_k3_feasible_iff_no_obstruction(t):
    assert (decide_tree_trestle(t, 3) is not None) == (check_obstruction(t) is None)


@given(trees)
def test_feasibility_is_monotone_in_k(t):
    verdicts = [decide_tree_trestle(t, k) is not None for k in range(2, 8)]
    assert verdicts == sorted(verdicts)


@given(trees, st.integers(min_value=2, max_value=6))
def test_feasible_assignment_builds_certificate_with_exact_degrees(t, k):
    a = decide_tree_trestle(t, k)
    if a is None:
        return
    profile = tree_profile(t)
    expected = [a.out_sum(v) + max(2, profile.n(v)) for v in range(t.n)]
    cert = build_tree_trestle(t, k, a)
    report = verify_trestle(TrestleCertificate.of(t, cert.edge_list, k, expected_degrees=expected))
    assert report.passed(), report.failed_checks()
    assert "exact_degrees" in {c.check for c in report.checks}


def _meets_demands_per_vertex(a: ArcAssignment, k: int) -> bool:
    """The demand system vertex by vertex, from in_sum, out_sum and a
    fresh count of n(v)."""
    adj = a.tree.adj
    for v in range(a.tree.n):
        nv = sum(1 for w in adj[v] if len(adj[w]) > 1)
        if nv > k or a.in_sum(v) != max(0, nv - 2) or a.out_sum(v) > k - nv:
            return False
    return True


@given(trees, st.integers(min_value=2, max_value=4), st.data())
def test_demand_check_matches_per_vertex_reference(t, k, data):
    arcs = [(u, v) for u, v in t.edges()] + [(v, u) for u, v in t.edges()]
    drawn = data.draw(st.lists(st.integers(0, 3), min_size=len(arcs), max_size=len(arcs)))
    a = ArcAssignment(t, dict(zip(arcs, drawn)))
    assert a.satisfies_demands(k) == _meets_demands_per_vertex(a, k)

    feasible = decide_tree_trestle(t, k)
    if feasible is None:
        return
    assert feasible.satisfies_demands(k) and _meets_demands_per_vertex(feasible, k)
    # one arc moved by one changes the in-sum of its head, which is exact
    u, v = data.draw(st.sampled_from(arcs))
    value = feasible.values.get((u, v), 0)
    step = data.draw(st.sampled_from((-1, 1) if value else (1,)))
    perturbed = ArcAssignment(t, dict(feasible.values))
    perturbed.set_value(u, v, value + step)
    assert not perturbed.satisfies_demands(k)
    assert not _meets_demands_per_vertex(perturbed, k)
