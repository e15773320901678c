import hashlib
import random
import sys

import pytest

from helpers import cover_faults, frame_depth, out_masks

from trestles.graphs import DomainError, Graph
from trestles.oracle import independence_number
from trestles.path_cover import gallai_milgram_cover, linear_forest_for

# sha256 over the covers of ``_seeded_digraphs`` and the forests of
# ``_seeded_forest_inputs``, as computed by the recursive construction
GALLAI_MILGRAM_DIGEST = "9952b1b132bf14170eaef82228cdbacaba5bbe51cad38bdd1a0391d598825ebe"


def _underlying(n, arcs):
    return Graph(n, {(min(u, v), max(u, v)) for u, v in arcs})


def _forest_faults(g, independent, paths) -> list[str]:
    """What keeps ``paths`` from being a spanning linear forest of ``g``
    in which each member of ``independent`` ends a path of its own."""
    faults = []
    covered = [v for p in paths for v in p]
    if sorted(covered) != list(range(g.n)):
        faults.append("forest does not span")
    if any(not g.has_edge(a, b) for p in paths for a, b in zip(p, p[1:])):
        faults.append("a path step is not an edge")
    for p in paths:
        if len(independent.intersection(p)) > 1:
            faults.append("two independent vertices share a path")
        # degree at most 1: an end of its path
        if any(v in independent for v in p[1:-1]):
            faults.append("an independent vertex has degree 2")
    return faults


def test_cover_of_arcless_digraph():
    paths, transversal = gallai_milgram_cover(out_masks(3, []))
    assert len(paths) == 3
    assert sorted(transversal) == [0, 1, 2]


def test_cover_of_directed_path():
    paths, _ = gallai_milgram_cover(out_masks(4, [(0, 1), (1, 2), (2, 3)]))
    assert len(paths) == 1
    assert paths == ((0, 1, 2, 3),)


def test_cover_of_directed_cycle():
    paths, _ = gallai_milgram_cover(out_masks(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert len(paths) == 1


def test_out_star_cover():
    # the out-star shows why the transversal matters: the path starts
    # can never be made independent, but one vertex per path can
    out = out_masks(4, [(0, 1), (0, 2), (0, 3)])
    paths, transversal = gallai_milgram_cover(out)
    assert len(paths) == 3
    starts = {p[0] for p in paths}
    assert 0 in starts  # 0 must start some path
    assert cover_faults(out, paths, transversal) == []


def test_cover_bound_random():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 11)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.35
        ]
        out = out_masks(n, arcs)
        paths, transversal = gallai_milgram_cover(out)
        assert cover_faults(out, paths, transversal) == []
        alpha = independence_number(_underlying(n, arcs))
        assert len(paths) <= alpha


def test_linear_forest_rejects_dependent_set():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(DomainError):
        linear_forest_for(g, {0, 1})


def test_linear_forest_properties_random():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.randint(2, 11)
        g = Graph(
            n,
            {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.35
            },
        )
        independent: set[int] = set()
        for v in range(n):
            if all(not g.has_edge(v, u) for u in independent):
                independent.add(v)
                if len(independent) == 2:
                    break
        paths = linear_forest_for(g, independent)
        assert _forest_faults(g, independent, paths) == []
        assert len(paths) <= independence_number(g)


def _seeded_digraphs():
    """Random digraphs with n <= 14 at four arc densities."""
    rng = random.Random(1960)
    for density in (0.1, 0.3, 0.5, 0.8):
        for _ in range(150):
            n = rng.randint(0, 14)
            yield n, [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and rng.random() < density
            ]


def _seeded_forest_inputs():
    """Random graphs with n <= 14 and an independent set of up to 0, 1
    or 2 vertices, drawn greedily from a shuffled vertex order."""
    rng = random.Random(1961)
    for size in (0, 1, 2):
        for density in (0.2, 0.5, 0.8):
            for _ in range(60):
                n = rng.randint(1, 14)
                g = Graph(
                    n,
                    [
                        (u, v)
                        for u in range(n)
                        for v in range(u + 1, n)
                        if rng.random() < density
                    ],
                )
                order = list(range(n))
                rng.shuffle(order)
                independent: set[int] = set()
                for v in order:
                    if len(independent) == size:
                        break
                    if all(not g.has_edge(v, u) for u in independent):
                        independent.add(v)
                yield g, independent


def test_covers_and_forests_match_golden_digest():
    h = hashlib.sha256()
    for n, arcs in _seeded_digraphs():
        h.update(repr((n, gallai_milgram_cover(out_masks(n, arcs)))).encode() + b"\n")
    for g, independent in _seeded_forest_inputs():
        paths = linear_forest_for(g, independent)
        h.update(repr((g.n, sorted(independent), paths)).encode() + b"\n")
    assert h.hexdigest() == GALLAI_MILGRAM_DIGEST


def test_large_forest_under_a_low_recursion_limit():
    # two cliques, the even and the odd vertices, with random edges
    # between them: alpha <= 2, and a recursive Gallai-Milgram descent
    # would nest about one level per vertex of a path
    n = 300
    rng = random.Random(3)
    g = Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if u % 2 == v % 2 or rng.random() < 0.3
        ],
    )
    independent = next({u, v} for u in range(n) for v in range(n) if u % 2 < v % 2 and not g.has_edge(u, v))
    for chosen in (set(), independent):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 100)
        try:
            paths = linear_forest_for(g, chosen)
        finally:
            sys.setrecursionlimit(limit)
        assert len(paths) <= 2
        assert _forest_faults(g, chosen, paths) == []
