"""Property tests of the tree decision on random labelled trees.

Trees are drawn uniformly by Prüfer sequence; the hypothesis profile in
``conftest.py`` makes the draws the same on every run.
"""

from hypothesis import given, strategies as st

from helpers import prufer_trees
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
