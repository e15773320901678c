import dataclasses
import hashlib
import json
import random

import pytest

from helpers import base_patterns, f_family_chain, random_bounded_tree

from trestles import obstruction
from trestles.graphs import (
    DomainError,
    InternalInvariantError,
    SearchBudgetExhausted,
    Tree,
    path_graph,
    spider,
    square,
)
from trestles.obstruction import check_obstruction, compose, f_family
from trestles.oracle import brute_force_trestle, enumerate_trees
from trestles.patterns import is_caterpillar
from trestles.tree_trestle import decide_tree_trestle


def test_caterpillars_have_no_obstruction():
    for n in range(3, 10):
        for t in enumerate_trees(n):
            if is_caterpillar(t):
                assert check_obstruction(t) is None


def test_spider4_gives_spider_witness():
    w = check_obstruction(spider(4))
    assert w is not None and w.kind == "spider"
    assert w.special == (0,)
    w.check(spider(4))


def test_agreement_with_decision_small():
    for n in range(3, 11):
        for t in enumerate_trees(n):
            absent = check_obstruction(t) is None
            feasible = decide_tree_trestle(t, 3) is not None
            assert absent == feasible


def test_witness_invariants_small():
    for n in range(3, 12):
        for t in enumerate_trees(n):
            w = check_obstruction(t)
            if w is not None:
                w.check(t)  # raises on any invariant violation


def test_t0_shape():
    base = base_patterns()
    t0 = base.t0
    assert t0.tree.n == 16
    assert len(t0.special) == 1
    (u,) = t0.special
    assert t0.tree.degree(u) == 3
    w = check_obstruction(t0.tree)
    assert w is not None and w.kind == "hall"
    assert w.special == t0.special
    assert w.black_neighbourhood == ()


def _t0_witness_with(change):
    """The T_0 witness, a copy of it with ``change(witness)`` as fields,
    and T_0."""
    t = base_patterns().t0.tree
    w = check_obstruction(t)
    return w, dataclasses.replace(w, **change(w)), t


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda w: {"redness": {}}, "bad redness marks"),
        (lambda w: {"special": (w.special[0], 16)}, "special vertex outside the subtree"),
        (lambda w: {"kind": "spider", "special": w.subtree[:2]}, "does not have one special vertex"),
    ],
    ids=["no-redness", "special-outside", "spider-two-specials"],
)
def test_malformed_witness_is_an_internal_fault(change, message):
    # each used to escape as a KeyError or a ValueError
    w, bad, t = _t0_witness_with(change)
    w.check(t)
    assert t.n == 16 and 16 not in w.subtree
    with pytest.raises(InternalInvariantError, match=message):
        bad.check(t)


def test_everything_below_t0_is_feasible():
    base = base_patterns()
    threshold = base.t0.tree.n
    # spot-check the sizes just below the threshold
    for n in (threshold - 2, threshold - 1):
        for t in enumerate_trees(n):
            if check_obstruction(t) is not None:
                w = check_obstruction(t)
                assert w.kind == "spider"  # only S(K_{1,4}) obstructions below T_0


def test_composition_arithmetic():
    base = base_patterns()
    members = f_family(40, base)
    sizes = sorted({m.tree.n for m in members})
    a_n = base.attachment.tree.n
    for prev, nxt in zip(sizes, sizes[1:]):
        assert nxt == prev - 5 + a_n - 1


def test_family_members_are_obstructions():
    base = base_patterns()
    for m in f_family(30, base):
        assert decide_tree_trestle(m.tree, 3) is None
        w = check_obstruction(m.tree)
        assert w is not None
        assert set(w.special) == set(m.special)


def test_family_dedup():
    base = base_patterns()
    from trestles.graphs import write_graph6
    from trestles.oracle import tree_canonical_form

    members = f_family(37, base)
    keys = [write_graph6(tree_canonical_form(m.tree)) for m in members]
    assert len(keys) == len(set(keys))


def test_t0_confirmation_out_of_budget_raises():
    with pytest.raises(SearchBudgetExhausted):
        obstruction.derive_base_patterns(confirm_budget=3)


def test_t0_confirmed_by_brute_force():
    base = base_patterns()
    assert brute_force_trestle(square(base.t0.tree), 3, node_limit=50_000_000) is None


def test_rescue_clause():
    # attaching a leaf to the special vertex of T_0 gives it a black
    # neighbour, so the matching saturates and the obstruction vanishes
    base = base_patterns()
    t0 = base.t0.tree
    (u,) = base.t0.special
    edges = list(t0.edges()) + [(u, t0.n)]
    rescued = Tree(t0.n + 1, edges)
    assert check_obstruction(rescued) is None
    assert decide_tree_trestle(rescued, 3) is not None


def test_compose_identifies_vertices():
    base = base_patterns()
    reduced = path_graph(3)
    composed, ident, w_id, amap = compose(Tree(3, reduced.edges()), 2, base.attachment)
    assert composed.n == 3 + base.attachment.tree.n - 1
    assert ident == 2
    assert amap[base.attachment.v] == 2


def test_small_tree_guard():
    with pytest.raises(DomainError):
        check_obstruction(Tree(2, [(0, 1)]))


# SHA-256 of the witnesses that the earlier violator search, which
# re-matched every co-singleton of the reachable set until none was
# deficient, gave: every f_family(40) member, then the first 40
# infeasible trees of a seeded random bounded-degree stream
WITNESS_DIGEST = "a019e93bc7a70d30999c852b509fd177f3b66bfc160e8d5be8ee1cad5790d0af"


def _infeasible_random_trees():
    rng = random.Random(31)
    found = 0
    while found < 40:
        t = random_bounded_tree(rng, rng.randint(16, 300), maxdeg=rng.choice((3, 4)))
        if decide_tree_trestle(t, 3) is None:
            found += 1
            yield t


def test_witnesses_match_golden_digest():
    trees = [m.tree for m in f_family(40, base_patterns())]
    trees += _infeasible_random_trees()
    h = hashlib.sha256()
    for t in trees:
        h.update(json.dumps(check_obstruction(t).to_jsonable(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == WITNESS_DIGEST


def test_long_family_chain_gets_its_specials():
    # 401 specials: a search that re-matched every co-singleton of the
    # violator would take cubic time here
    chain = f_family_chain(base_patterns(), 400)
    assert chain.tree.n == 2816 and len(chain.special) == 401
    w = check_obstruction(chain.tree)
    assert w is not None and w.kind == "hall"
    assert w.special == chain.special


# SHA-256 of derive_base_patterns(16) (T_0 with its specials, A with v
# and w, t0_confirmed) and of every f_family(40) member in order, both
# taken from the search that composed each (A, v) once per w
BASE_PATTERNS_DIGEST = "c89ce56bfb3e898a49f633145aa63edd5f330f9cb0f4623cb7a49125e836306f"
FAMILY_DIGEST = "46774f5278a75530e0e04f5aec228762b21f15eacbc95ddc6994808494dc7275"


def test_base_patterns_match_golden_digest():
    base = base_patterns()
    a = base.attachment
    payload = {
        "t0": base.t0.to_jsonable(),
        "attachment": {
            "n": a.tree.n,
            "edges": [list(e) for e in a.tree.edges()],
            "v": a.v,
            "w": a.w,
        },
        "t0_confirmed": base.t0_confirmed,
    }
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == (
        BASE_PATTERNS_DIGEST
    )


def test_family_matches_golden_digest():
    h = hashlib.sha256()
    for m in f_family(40, base_patterns()):
        h.update(json.dumps(m.to_jsonable(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == FAMILY_DIGEST


def test_attachment_search_composes_each_a_v_once(monkeypatch):
    base = base_patterns()
    composed = []

    def counting(reduced, special, pattern):
        composed.append((pattern.tree.edges(), pattern.v))
        return compose(reduced, special, pattern)

    monkeypatch.setattr(obstruction, "compose", counting)
    small = {m: list(enumerate_trees(m)) for m in range(3, obstruction._MAX_ATTACHMENT + 1)}
    found = obstruction._derive_attachment(base.t0, small)
    assert len(composed) == len(set(composed))
    assert (found.tree.edges(), found.v, found.w) == (
        base.attachment.tree.edges(),
        base.attachment.v,
        base.attachment.w,
    )
