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
    components,
    square,
    write_graph6,
)
from .matching_flow import feasible_assignment, minimal_hall_violator
from .oracle import (
    EXHAUSTED,
    FOUND,
    SearchBudget,
    SearchBudgetExhausted,
    brute_force_trestle,
    enumerate_trees,
    tree_canonical_form,
)
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
        s = set(self.subtree)
        inner = [
            (u, v) for u, v in t.edges() if u in s and v in s
        ]
        if len(inner) != len(s) - 1:
            raise InternalInvariantError("witness vertex set does not induce a subtree")
        adj_in_s = {v: [] for v in s}
        for u, v in inner:
            adj_in_s[u].append(v)
            adj_in_s[v].append(u)

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
    for v in range(t.n):
        if profile.n(v) >= 4:
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


def _is_spider_free_tree(profile) -> bool:
    return all(c <= 3 for c in profile.non_leaf_neighbours)


def _infeasible(t: Tree) -> bool:
    return feasible_assignment(t, 3) is None


def _remove_branch(t: Tree, pivot: int, branch: list[int]) -> tuple[Tree, int]:
    """Tree minus a pendant branch; returns the relabelled tree and pivot."""
    keep = sorted(set(range(t.n)) - set(branch))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v]) for u, v in t.edges() if u in index and v in index
    ]
    return Tree(len(keep), edges), index[pivot]


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


def derive_base_patterns(
    max_n: int = 16,
    confirm_budget: SearchBudget | None = None,
    max_attachment: int = 13,
) -> BasePatterns:
    """Re-derive the base obstruction tree and the attachment pattern.

    T_0 is found by exhaustive enumeration of S(K_{1,4})-free trees in
    increasing order; A is the smallest marked tree whose composition
    with the reduced T_0 yields the expected next obstruction.  With a
    search budget, the absence of a trestle in square(T_0) is also
    confirmed by brute force.
    """
    hits: list[Tree] = []
    found_n = None
    for n in range(3, max_n + 1):
        for t in enumerate_trees(n):
            profile = tree_profile(t)
            if not _is_spider_free_tree(profile):
                continue
            if _infeasible(t):
                hits.append(t)
        if hits:
            found_n = n
            break
    if found_n is None:
        raise DomainError(
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
        result = brute_force_trestle(square(t0), 3, confirm_budget)
        if result.status == EXHAUSTED:
            raise SearchBudgetExhausted(
                "undetermined: brute-force confirmation did not finish within budget"
            )
        if result.status == FOUND:
            raise InternalInvariantError(
                "oracle found a trestle in the derived minimum obstruction"
            )
        confirmed = True

    attachment = _derive_attachment(t0_member, max_attachment)
    return BasePatterns(t0_member, attachment, confirmed)


def _derive_attachment(t0: FFamilyMember, max_attachment: int) -> AttachmentPattern:
    specials = set(t0.special)
    pivot = min(t0.special)
    branches = list(_pendant_branches(t0.tree, pivot, 5, specials))
    if not branches:
        raise InternalInvariantError("base obstruction has no removable 5-vertex branch")
    reduced, r_pivot = _remove_branch(t0.tree, pivot, branches[0])
    kept_specials = {r_pivot}

    for m in range(3, max_attachment + 1):
        for a in enumerate_trees(m):
            leaves = [v for v in range(a.n) if a.degree(v) == 1]
            for v in leaves:
                for w in range(a.n):
                    if w == v:
                        continue
                    pattern = AttachmentPattern(a, v, w)
                    composed, ident, w_id, _ = compose(reduced, r_pivot, pattern)
                    profile = tree_profile(composed)
                    if not _is_spider_free_tree(profile):
                        continue
                    if not _infeasible(composed):
                        continue
                    violator = minimal_hall_violator(composed, profile.red_set())
                    if violator is None:
                        continue
                    if violator.red_set == kept_specials | {ident, w_id}:
                        return pattern
    raise DomainError(
        f"undetermined: no attachment pattern with at most {max_attachment} vertices"
    )


def f_family(max_n: int, base: BasePatterns | None = None) -> list[FFamilyMember]:
    """All family members with at most max_n vertices, smallest first.

    Members are produced by repeatedly removing a pendant 5-vertex
    branch at a special vertex and identifying that vertex with v of
    the attachment pattern; duplicates are removed by canonical form.
    """
    if base is None:
        base = derive_base_patterns()
    if base.t0.tree.n > max_n:
        return []
    members = [base.t0]
    seen = {write_graph6(tree_canonical_form(base.t0.tree))}
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
                    reduced, r_pivot = _remove_branch(member.tree, s, branch)
                    keep = sorted(set(range(member.tree.n)) - set(branch))
                    index = {v: i for i, v in enumerate(keep)}
                    new_specials = {index[x] for x in member.special}
                    composed, ident, w_id, _ = compose(
                        reduced, r_pivot, base.attachment
                    )
                    special = tuple(sorted(new_specials | {ident, w_id}))
                    profile = tree_profile(composed)
                    if not _is_spider_free_tree(profile) or not _infeasible(composed):
                        raise InternalInvariantError(
                            "composition produced a non-obstruction"
                        )
                    key = write_graph6(tree_canonical_form(composed))
                    if key in seen:
                        continue
                    seen.add(key)
                    candidate = FFamilyMember(composed, special)
                    nxt.append(candidate)
        members.extend(nxt)
        frontier = nxt
    members.sort(key=lambda m: (m.tree.n, write_graph6(tree_canonical_form(m.tree))))
    return members
