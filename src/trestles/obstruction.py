"""Forbidden-subtree obstructions for 3-trestles in tree squares.

A tree square has no 3-trestle for exactly two reasons: a vertex with
four non-leaf neighbours, or a deficient set in the bipartite graph of
tree edges with exactly one red end (red = three or more non-leaf
neighbours).  Minimal deficient sets are the special vertex sets of a
recursive family of subtrees; the base patterns of the family are not
hard-coded but re-derived here by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    DomainError,
    InternalInvariantError,
    Tree,
    Undetermined,
    components,
    square,
    write_graph6,
)
from .matching_flow import feasible_assignment, minimal_hall_violator
from .patterns import centre_witness, tree_profile


@dataclass(frozen=True)
class ObstructionWitness:
    """Subtree certifying that the host tree square has no 3-trestle.

    kind "hall": the special set is a deficient red set; kind "spider":
    a single vertex with four non-leaf neighbours (degenerate case).
    """

    kind: str
    subtree: tuple[int, ...]
    special: tuple[int, ...]
    black_neighbourhood: tuple[int, ...]
    redness: dict[int, tuple[int, ...]]

    def check(self, t: Tree) -> None:
        """Raise InternalInvariantError unless the witness holds in ``t``.

        The subtree's edges are read from its own vertices' neighbour
        lists, so the check costs about the witness's size, not the
        tree's.
        """
        s = set(self.subtree)
        n, adj = t.n, t.adj
        adj_in_s = {v: [u for u in adj[v] if u in s] for v in s if 0 <= v < n}
        # each edge inside s is seen from both ends; a vertex out of range
        # has no edges, so the count falls short
        if sum(map(len, adj_in_s.values())) != 2 * (len(s) - 1):
            raise InternalInvariantError("witness vertex set does not induce a subtree")

        def non_leaf_within(v: int) -> int:
            return sum(1 for u in adj_in_s[v] if len(adj_in_s[u]) >= 2)

        if self.kind == "spider":
            (centre,) = self.special
            if non_leaf_within(centre) < 4:
                raise InternalInvariantError("spider witness centre is not a 4-centre")
            return
        if self.kind != "hall":
            raise InternalInvariantError(f"unknown witness kind {self.kind!r}")
        profile = tree_profile(t)
        red = profile.red_set()
        for r in self.special:
            if non_leaf_within(r) < 3:
                raise InternalInvariantError(f"special vertex {r} is not red within the subtree")
            if t.degree(r) > 3:
                raise InternalInvariantError(f"special vertex {r} has degree > 3 in the host")
        expected_black = {
            u
            for r in self.special
            for u in t.adj[r]
            if u not in red
        }
        if set(self.black_neighbourhood) != expected_black:
            raise InternalInvariantError("black neighbourhood mismatch")
        if len(self.black_neighbourhood) != len(self.special) - 1:
            raise InternalInvariantError("deficiency is not exactly 1")
        for r in self.special:
            marks = self.redness[r]
            if len(marks) != 3 or any(u not in t.adj[r] or u not in s for u in marks):
                raise InternalInvariantError(f"bad redness marks at {r}")

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "subtree": list(self.subtree),
            "special": list(self.special),
            "black_neighbourhood": list(self.black_neighbourhood),
            "redness": {str(r): list(v) for r, v in sorted(self.redness.items())},
        }


@dataclass(frozen=True)
class FFamilyMember:
    tree: Tree
    special: tuple[int, ...]

    def to_jsonable(self) -> dict:
        return {
            "n": self.tree.n,
            "edges": [list(e) for e in self.tree.edges()],
            "special": list(self.special),
        }


@dataclass(frozen=True)
class AttachmentPattern:
    """The glue tree A: v is identified with a special, w becomes special."""

    tree: Tree
    v: int
    w: int


@dataclass(frozen=True)
class BasePatterns:
    t0: FFamilyMember
    attachment: AttachmentPattern
    t0_confirmed: bool


def check_obstruction(t: Tree) -> ObstructionWitness | None:
    """Witness iff square(t) has no 3-trestle; None otherwise."""
    if t.n < 3:
        raise DomainError("trees on fewer than 3 vertices are out of domain")
    profile = tree_profile(t)
    counts = profile.non_leaf_neighbours
    if max(counts) >= 4:
        # the first vertex with four non-leaf neighbours
        v = list(map((4).__le__, counts)).index(True)
        emb = centre_witness(t, v, 4)
        if emb is None:
            raise InternalInvariantError("4 non-leaf neighbours but no spider embedding")
        witness = ObstructionWitness(
            kind="spider",
            subtree=tuple(sorted(emb.vertices())),
            special=(v,),
            black_neighbourhood=(),
            redness={v: tuple(sorted(emb.mids)[:3])},
        )
        witness.check(t)
        return witness
    red = profile.red_set()
    violator = minimal_hall_violator(t, red)
    if violator is None:
        return None
    special = tuple(sorted(violator.red_set))
    s: set[int] = set(special)
    redness: dict[int, tuple[int, ...]] = {}
    for r in special:
        s.update(t.adj[r])
        supports = [u for u in t.adj[r] if t.degree(u) >= 2]
        if len(supports) != 3:
            raise InternalInvariantError(
                f"special vertex {r} does not have exactly 3 non-leaf neighbours"
            )
        redness[r] = tuple(supports)
        for u in supports:
            extra = min(x for x in t.adj[u] if x != r)
            s.add(extra)
    witness = ObstructionWitness(
        kind="hall",
        subtree=tuple(sorted(s)),
        special=special,
        black_neighbourhood=tuple(sorted(violator.neighbourhood)),
        redness=redness,
    )
    witness.check(t)
    return witness


def _is_obstruction(t: Tree) -> bool:
    """S(K_{1,4})-free, and square(t) has no 3-trestle."""
    return max(tree_profile(t).non_leaf_neighbours) <= 3 and feasible_assignment(t, 3) is None


def compose(
    reduced: Tree, special: int, pattern: AttachmentPattern
) -> tuple[Tree, int, int, dict[int, int]]:
    """Identify ``special`` with the pattern's v.

    Returns (tree, id of the identified vertex, id of w, map from
    pattern vertices to new ids).
    """
    others = sorted(x for x in range(pattern.tree.n) if x != pattern.v)
    amap = {x: reduced.n + i for i, x in enumerate(others)}
    amap[pattern.v] = special
    edges = list(reduced.edges())
    edges.extend(
        (amap[x], amap[y]) for x, y in pattern.tree.edges()
    )
    return (
        Tree(reduced.n + pattern.tree.n - 1, edges),
        special,
        amap[pattern.w],
        amap,
    )


def _pendant_branches(t: Tree, pivot: int, size: int, forbidden: set[int]):
    """Components of t - pivot of the given size avoiding forbidden ids."""
    for comp in components(t, removed={pivot}):
        if len(comp) == size and not (set(comp) & forbidden):
            yield sorted(comp)


def _grow(
    member: FFamilyMember, s: int, branch: list[int], pattern: AttachmentPattern
) -> tuple[FFamilyMember, dict[int, int]]:
    """Remove the pendant ``branch`` at the special vertex s, renumber
    the rest in order and identify s with the pattern's v; w joins the
    specials.  Returns the grown member and the map from pattern
    vertices to its ids.
    """
    t, gone = member.tree, set(branch)
    index = {v: i for i, v in enumerate(v for v in range(t.n) if v not in gone)}
    edges = [(index[u], index[v]) for u, v in t.edges() if u in index and v in index]
    reduced = Tree(len(index), edges)
    tree, ident, w_id, amap = compose(reduced, index[s], pattern)
    special = {index[x] for x in member.special} | {ident, w_id}
    return FFamilyMember(tree, tuple(sorted(special))), amap


# Largest attachment pattern the derivation tries; A has 13 vertices.
_MAX_ATTACHMENT = 13


def derive_base_patterns(max_n: int = 16, confirm_budget: int | None = None) -> BasePatterns:
    """Re-derive the base obstruction tree and the attachment pattern.

    T_0 is found by exhaustive enumeration of S(K_{1,4})-free trees in
    increasing order; A is the smallest marked tree whose composition
    with the reduced T_0 yields the expected next obstruction.  With a
    ``confirm_budget``, the absence of a trestle in square(T_0) is also
    confirmed by a brute-force search of at most that many nodes, which
    raises SearchBudgetExhausted if it runs out of them.
    """
    from .oracle import brute_force_trestle, enumerate_trees

    hits: list[Tree] = []
    found_n = None
    # the scan's trees small enough to be A, for the attachment search
    small: dict[int, list[Tree]] = {}
    for n in range(3, max_n + 1):
        trees = enumerate_trees(n)
        if n <= _MAX_ATTACHMENT:
            trees = small[n] = list(trees)
        hits = [t for t in trees if _is_obstruction(t)]
        if hits:
            found_n = n
            break
    if found_n is None:
        raise Undetermined(
            f"undetermined: no S(K_1,4)-free obstruction tree with at most {max_n} vertices"
        )
    if len(hits) != 1:
        raise InternalInvariantError(
            f"expected a unique minimum obstruction at n={found_n}, found {len(hits)}"
        )
    t0 = hits[0]
    witness = check_obstruction(t0)
    if witness is None or witness.kind != "hall":
        raise InternalInvariantError("minimum obstruction has no hall witness")
    t0_member = FFamilyMember(t0, witness.special)

    confirmed = False
    if confirm_budget is not None:
        if brute_force_trestle(square(t0), 3, confirm_budget) is not None:
            raise InternalInvariantError(
                "oracle found a trestle in the derived minimum obstruction"
            )
        confirmed = True

    attachment = _derive_attachment(t0_member, small)
    return BasePatterns(t0_member, attachment, confirmed)


def _derive_attachment(t0: FFamilyMember, small: dict[int, list[Tree]]) -> AttachmentPattern:
    """The first (A, v, w), by |A|, then A, leaf v, then w, whose
    composition with T_0 has the grown specials (T_0's kept specials
    and the identified vertex) plus w as its minimal Hall violator.
    ``small[m]`` lists the free trees on m vertices in ``enumerate_trees``
    order, for every m from 3 to ``_MAX_ATTACHMENT``.

    ``compose`` never reads w, so the tree, its verdict and its
    violator depend on (A, v) alone: each (A, v) is composed once, with
    w = v standing in.  The map amap from A's vertices is injective and
    sends only v into the grown specials, so at most one w != v can
    match, the violator's one vertex outside them, read back through
    amap.  The first match in (A, v, w) order is thus the first (A, v)
    that has one.
    """
    pivot = min(t0.special)
    branch = next(_pendant_branches(t0.tree, pivot, 5, set(t0.special)), None)
    if branch is None:
        raise InternalInvariantError("base obstruction has no removable 5-vertex branch")

    for m in range(3, _MAX_ATTACHMENT + 1):
        for a in small[m]:
            for v in range(a.n):
                if a.degree(v) != 1:
                    continue
                grown, amap = _grow(t0, pivot, branch, AttachmentPattern(a, v, v))
                if not _is_obstruction(grown.tree):
                    continue
                violator = minimal_hall_violator(grown.tree, tree_profile(grown.tree).red_set())
                specials = set(grown.special)
                if violator is None or not specials < violator.red_set:
                    continue
                x, *more = violator.red_set - specials
                inverse = {new: old for old, new in amap.items()}
                if not more and x in inverse:
                    return AttachmentPattern(a, v, inverse[x])
    raise Undetermined(
        f"undetermined: no attachment pattern with at most {_MAX_ATTACHMENT} vertices"
    )


def f_family(max_n: int, base: BasePatterns | None = None) -> list[FFamilyMember]:
    """All family members with at most max_n vertices, smallest first.

    Members are produced by repeatedly removing a pendant 5-vertex
    branch at a special vertex and identifying that vertex with v of
    the attachment pattern; duplicates are removed by canonical form.
    """
    from .oracle import tree_canonical_form

    if base is None:
        base = derive_base_patterns()
    if base.t0.tree.n > max_n:
        return []
    seen = {write_graph6(tree_canonical_form(base.t0.tree)): base.t0}
    frontier = [base.t0]
    grow = base.attachment.tree.n - 1 - 5
    while frontier:
        nxt: list[FFamilyMember] = []
        for member in frontier:
            if member.tree.n + grow > max_n:
                continue
            for s in member.special:
                forbidden = set(member.special)
                for branch in _pendant_branches(member.tree, s, 5, forbidden):
                    grown, _ = _grow(member, s, branch, base.attachment)
                    if not _is_obstruction(grown.tree):
                        raise InternalInvariantError(
                            "composition produced a non-obstruction"
                        )
                    key = write_graph6(tree_canonical_form(grown.tree))
                    if key in seen:
                        continue
                    seen[key] = grown
                    nxt.append(grown)
        frontier = nxt
    return [seen[key] for key in sorted(seen, key=lambda key: (seen[key].tree.n, key))]
