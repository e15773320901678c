"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with plain pytest; the per-criterion verdict lines are written
straight to the terminal so they survive output capture.
"""

import functools
import itertools
import random
import time

import pytest

from helpers import (
    base_patterns,
    cover_faults,
    matched_spider_free_instances,
    out_masks,
    two_connected_graphs,
)

from trestles.general_trestle import build_general_trestle
from trestles.graphs import Graph, spider, square
from trestles.obstruction import check_obstruction, f_family
from trestles.oracle import (
    brute_force_trestle,
    enumerate_trees,
    fleischner_hamilton,
    independence_number,
)
from trestles.path_cover import gallai_milgram_cover, linear_forest_for
from trestles.patterns import is_caterpillar, is_spider_free, tree_profile
from trestles.tree_trestle import build_tree_trestle, decide_tree_trestle
from trestles.verify import verify_trestle


def report(capsys, criterion: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


@functools.lru_cache(maxsize=1)
def exhaustive_sweep():
    """Shared sweep for criteria 1, 2, 3, 6: all trees 3 <= n <= 12."""
    disagreements = []
    degree_law_failures = []
    k2_mismatches = []
    obstruction_mismatches = []
    witness_failures = []
    cases = 0
    started = time.time()
    for n in range(3, 13):
        for t in enumerate_trees(n):
            profile = tree_profile(t)
            verdicts = {}
            for k in (2, 3, 4):
                cases += 1
                assignment = decide_tree_trestle(t, k)
                oracle = brute_force_trestle(square(t), k)
                feasible = assignment is not None
                verdicts[k] = feasible
                if feasible != (oracle is not None):
                    disagreements.append((n, k, t.edges()))
                    continue
                if assignment is not None:
                    cert = build_tree_trestle(t, k, assignment)
                    degs = cert.degrees()
                    expected = [
                        assignment.out_sum(v) + max(2, profile.n(v))
                        for v in range(t.n)
                    ]
                    if degs != expected or not verify_trestle(cert).passed():
                        degree_law_failures.append((n, k, t.edges()))
            if verdicts[2] != is_caterpillar(t):
                k2_mismatches.append((n, t.edges()))
            witness = check_obstruction(t)
            if (witness is None) != verdicts[3]:
                obstruction_mismatches.append((n, t.edges()))
            if witness is not None:
                try:
                    witness.check(t)
                except Exception:
                    witness_failures.append((n, t.edges()))
    elapsed = time.time() - started
    return {
        "cases": cases,
        "elapsed": elapsed,
        "disagreements": disagreements,
        "degree_law_failures": degree_law_failures,
        "k2_mismatches": k2_mismatches,
        "obstruction_mismatches": obstruction_mismatches,
        "witness_failures": witness_failures,
    }


def test_criterion_1_exhaustive_agreement(capsys):
    sweep = exhaustive_sweep()
    ok = not sweep["disagreements"] and sweep["elapsed"] <= 900
    report(
        capsys,
        "criterion 1 (exhaustive decide vs oracle, n<=12, k in {2,3,4})",
        ok,
        f"{sweep['cases']} cases, {len(sweep['disagreements'])} disagreements, "
        f"{sweep['elapsed']:.1f}s (limit 900s single-threaded)",
    )


def test_criterion_2_degree_law(capsys):
    sweep = exhaustive_sweep()
    ok = not sweep["degree_law_failures"]
    report(
        capsys,
        "criterion 2 (constructive exact degrees o(v)+max(2,n(v)))",
        ok,
        f"{len(sweep['degree_law_failures'])} failures across all feasible cases",
    )


def test_criterion_3_k2_caterpillar(capsys):
    sweep = exhaustive_sweep()
    ok = not sweep["k2_mismatches"]
    report(
        capsys,
        "criterion 3 (k=2 feasibility iff caterpillar, n<=12)",
        ok,
        f"{len(sweep['k2_mismatches'])} mismatches",
    )


def test_criterion_4_impossibility_anchors(capsys):
    t0 = time.time()
    r1 = brute_force_trestle(square(spider(4)), 3)
    t1 = time.time() - t0
    t0 = time.time()
    r2 = brute_force_trestle(square(spider(3)), 2)
    t2 = time.time() - t0
    ok = r1 is None and t1 <= 10 and r2 is None and t2 <= 10
    report(
        capsys,
        "criterion 4 (spider squares have no trestle)",
        ok,
        f"S(K_1,4)@k=3: {r1} in {t1:.2f}s; S(K_1,3)@k=2: {r2} in {t2:.2f}s",
    )


def test_criterion_5_theorem1_at_scale(capsys):
    failures = []
    hamilton_failures = []
    built = 0
    free_subset = 0
    for g, matching in matched_spider_free_instances(seed=2024, count=220, max_n=40):
        try:
            cert = build_general_trestle(g, matching.edge_list)
        except Exception as exc:
            failures.append((g.n, repr(exc)))
            continue
        built += 1
        degs = cert.degrees()
        matched = matching.covered()
        if not verify_trestle(cert).passed():
            failures.append((g.n, "verification"))
        if any(degs[v] != 2 for v in range(g.n) if v not in matched):
            failures.append((g.n, "unmatched degree"))
        if is_spider_free(g, 3):
            free_subset += 1
            if len(cert.edge_list) != g.n or any(d != 2 for d in degs):
                hamilton_failures.append(g.n)
    ok = built >= 200 and not failures and not hamilton_failures and free_subset >= 20
    report(
        capsys,
        "criterion 5 (matched S(K_1,4)-free hosts up to n=40)",
        ok,
        f"{built} builds, {len(failures)} failures, "
        f"{free_subset} S(K_1,3)-free hosts all Hamilton ({len(hamilton_failures)} not)",
    )


def test_criterion_6_corollary_equivalence(capsys):
    sweep = exhaustive_sweep()
    ok = not sweep["obstruction_mismatches"] and not sweep["witness_failures"]
    report(
        capsys,
        "criterion 6 (obstruction verdicts and witness invariants, n<=12)",
        ok,
        f"{len(sweep['obstruction_mismatches'])} verdict mismatches, "
        f"{len(sweep['witness_failures'])} invariant failures",
    )


@pytest.mark.slow
def test_criterion_7_base_patterns(capsys):
    base = base_patterns()
    t0 = base.t0
    problems = []
    if t0.tree.n != 16:
        problems.append(f"minimum obstruction has {t0.tree.n} vertices, predicted 16")
    if len(t0.special) != 1:
        problems.append("special set of the base is not a single vertex")
    # oracle confirmation that the derived base really has no 3-trestle
    confirm = brute_force_trestle(square(t0.tree), 3, node_limit=50_000_000)
    if confirm is not None:
        problems.append(f"brute force on square(T_0) found a trestle: {confirm}")
    # composition rule: members grow by |A| - 6 and stay obstructions
    members = f_family(40, base)
    sizes = sorted({m.tree.n for m in members})
    step = base.attachment.tree.n - 6
    if any(b - a != step for a, b in zip(sizes, sizes[1:])):
        problems.append(f"member sizes {sizes} do not grow by {step}")
    for m in members:
        if decide_tree_trestle(m.tree, 3) is not None:
            problems.append(f"composed member with {m.tree.n} vertices is feasible")
        w = check_obstruction(m.tree)
        if w is None or set(w.special) != set(m.special):
            problems.append(f"special set mismatch at n={m.tree.n}")
    report(
        capsys,
        "criterion 7 (base pattern derivation and composition rule)",
        not problems,
        f"T_0 n={t0.tree.n} unique, A n={base.attachment.tree.n}, "
        f"{len(members)} members to n=40" + ("; " + "; ".join(problems) if problems else ""),
    )


def _every_cover_has_dependent_starts(out: list[int]) -> bool:
    """Exhaustively check a small digraph, given by out-neighbour
    bitmasks: no path cover has an independent start-vertex set
    (demonstrates that property is unattainable in general; the cover
    guarantee is the independent transversal instead)."""
    n = len(out)
    vertices = list(range(n))
    for perm in itertools.permutations(vertices):
        for cuts in itertools.product([0, 1], repeat=n - 1):
            paths = []
            cur = [perm[0]]
            for i, cut in enumerate(cuts):
                if cut:
                    paths.append(cur)
                    cur = []
                cur.append(perm[i + 1])
            paths.append(cur)
            if any(
                not out[a] >> b & 1 for p in paths for a, b in zip(p, p[1:])
            ):
                continue
            starts = [p[0] for p in paths]
            if all(
                not out[s1] >> s2 & 1
                for s1 in starts
                for s2 in starts
                if s1 != s2
            ):
                return False
    return True


def test_criterion_8_gallai_milgram(capsys):
    # the start-vertex form of the postcondition is unattainable: the
    # out-star below has no path cover with independent starts, so the
    # classical guarantee checked here is the independent one-vertex-
    # per-path transversal (which also bounds the cover by alpha)
    out_star = out_masks(4, [(0, 1), (0, 2), (0, 3)])
    start_form_impossible = _every_cover_has_dependent_starts(out_star)

    rng = random.Random(515)
    violations = []
    digraph_runs = 0
    forest_runs = 0
    while digraph_runs < 250:
        n = rng.randint(1, 12)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.3
        ]
        out = out_masks(n, arcs)
        paths, transversal = gallai_milgram_cover(out)
        digraph_runs += 1
        if cover_faults(out, paths, transversal):
            violations.append(("cover-check", n, arcs))
            continue
        und = Graph(n, {(min(u, v), max(u, v)) for u, v in arcs})
        if len(paths) > independence_number(und):
            violations.append(("cover-size", n, arcs))
    while forest_runs < 250:
        n = rng.randint(2, 12)
        g = Graph(
            n,
            {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.3
            },
        )
        independent: set[int] = set()
        for v in range(n):
            if all(not g.has_edge(v, u) for u in independent):
                independent.add(v)
                if len(independent) >= 2:
                    break
        paths = linear_forest_for(g, independent)
        forest_runs += 1
        covered = set()
        for p in paths:
            covered.update(p)
            if any(not g.has_edge(a, b) for a, b in zip(p, p[1:])):
                violations.append(("forest-edge", n, g.edges()))
            if len(independent.intersection(p)) > 1:
                violations.append(("forest-share", n, g.edges()))
        if covered != set(range(n)):
            violations.append(("forest-span", n, g.edges()))
        # degree above 1 on a path: an inner vertex
        if any(v in independent for p in paths for v in p[1:-1]):
            violations.append(("forest-degree", n, g.edges()))
        if len(paths) > independence_number(g):
            violations.append(("forest-count", n, g.edges()))
    ok = start_form_impossible and not violations
    report(
        capsys,
        "criterion 8 (path covers and linear forests, 500 instances)",
        ok,
        f"{digraph_runs + forest_runs} instances, {len(violations)} violations; "
        "start-vertex independence is unattainable (out-star counterexample "
        "verified exhaustively), transversal independence checked instead",
    )


@pytest.mark.slow
def test_criterion_9_fleischner(capsys):
    checked = 0
    failures = []
    started = time.time()
    for g in two_connected_graphs():
        try:
            cycle = fleischner_hamilton(g)
        except Exception as exc:
            failures.append((g.n, repr(exc)))
            continue
        checked += 1
        sq = square(g)
        if sorted(cycle) != list(range(g.n)) or any(
            not sq.has_edge(cycle[i], cycle[(i + 1) % g.n])
            for i in range(g.n)
        ):
            failures.append((g.n, "bad cycle"))
    ok = not failures and checked == 1 + 3 + 10 + 56 + 468 + 7123
    report(
        capsys,
        "criterion 9 (Hamilton cycles in squares of all 2-connected n<=8)",
        ok,
        f"{checked} graphs, {len(failures)} failures, {time.time()-started:.1f}s",
    )
