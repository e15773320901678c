"""Command-line surface for batch use.

Exit codes: 0 success or feasible, 1 infeasible / obstruction found (a
verdict, with the witness on stdout, or with the reason ``host graph
is not connected`` from ``build`` at any k: a disconnected square has
no 2-connected spanning subgraph), a failed ``verify`` check or a
``validate`` disagreement, 2 usage or format error (a certificate that
is not UTF-8 JSON too, ``validate`` with a ``--max-n`` below 3, which
would check no tree, or a ``--jobs`` below 1, and an option that the
command does not read: ``--k`` on ``obstruction``, which checks k = 3
only, and on ``verify``, which checks the k that the certificate names
(one without an integer ``k`` is a format error), or ``--dot`` on
``decide`` and ``verify``), 3 internal fault
(an invariant violation, or any other unexpected exception, reported
on stderr with its traceback), 4 no verdict (a search budget exhausted, a
``derive-patterns`` search undetermined within its ``--max-n``, or a
non-tree ``build`` host with a cutvertex outside the theorem's
hypotheses: an induced S(K_{1,4}) or no saturating centre matching).
``build`` on a 2-connected host gives the Hamilton cycle of its square
(exit 0, or 4 if the search budget runs out), with the centre matching
in the certificate when one exists.  Identical invocations produce
byte-identical output.

Each process runs one command, so importing this module loads only
``argparse``, ``gc``, ``json``, ``sys`` and ``trestles.graphs``; any
other module is imported inside the function that calls it, so the
commands load (each that prints JSON also ``jsontext``, to write it):

- ``square``: nothing more;
- ``centres``: ``patterns``;
- ``decide``, and ``build`` on a tree: ``tree_trestle``, with
  ``patterns``, ``matching_flow`` and ``verify``;
- ``build`` on a non-tree host: ``matching_flow``, ``patterns``,
  ``general_trestle``, ``path_cover`` and ``verify``, and ``oracle``
  only when a 2-connected host reaches the Hamilton search;
- ``verify``: ``verify``;
- ``obstruction``: ``obstruction``, with ``patterns`` and
  ``matching_flow``;
- ``derive-patterns`` and ``gen-family``: the same and ``oracle``;
- ``validate``: ``oracle``, ``tree_trestle`` and ``obstruction``, and
  ``multiprocessing`` only with ``--jobs`` above 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .graphs import (
    Disconnected,
    DomainError,
    FormatError,
    Graph,
    InternalInvariantError,
    SearchBudgetExhausted,
    Undetermined,
    as_tree,
    is_connected,
    read_graph,
    read_graph6,
    square,
    write_dot,
    write_graph,
    write_graph6,
)


def _read_input(path: str | None, fmt: str) -> Graph:
    if path is None or path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return read_graph(data, fmt)


def _emit(payload) -> None:
    from .jsontext import indented

    sys.stdout.write(indented(payload) + "\n")


def _write_dot(path: str | None, g: Graph, highlight=()) -> None:
    if path:
        with open(path, "wb") as fh:
            fh.write(write_dot(g, highlight))


def _cmd_square(args) -> int:
    g = _read_input(args.input, args.format)
    sq = square(g)
    sys.stdout.buffer.write(write_graph(sq, args.format))
    _write_dot(args.dot, sq)
    return 0


def _cmd_centres(args) -> int:
    from .patterns import centres

    g = _read_input(args.input, args.format)
    found = sorted(centres(g, args.k))
    _emit({"k": args.k, "centres": found})
    _write_dot(args.dot, g, highlight=found)
    return 0


def _cmd_decide(args) -> int:
    from .patterns import tree_profile
    from .tree_trestle import decide_tree_trestle

    g = _read_input(args.input, args.format)
    t = as_tree(g)
    assignment = decide_tree_trestle(t, args.k)
    if assignment is None:
        profile = tree_profile(t)
        worst = max(profile.n(v) for v in range(t.n))
        reason = f"n(v)={worst} > k" if worst > args.k else "no feasible arc assignment"
        _emit({"feasible": False, "reason": reason})
        return 1
    _emit({"feasible": True, "assignment": assignment.to_jsonable()})
    return 0


def _cmd_build(args) -> int:
    g = _read_input(args.input, args.format)
    try:
        if len(g.edges()) == g.n - 1:
            t = as_tree(g)
            from .tree_trestle import build_tree_trestle, decide_tree_trestle

            assignment = decide_tree_trestle(t, args.k)
            if assignment is None:
                _emit({"feasible": False, "reason": "no feasible arc assignment"})
                return 1
            cert = build_tree_trestle(t, args.k, assignment)
        else:
            if args.k != 3:
                # a disconnected host is a verdict at every k
                if not is_connected(g):
                    raise Disconnected("host graph is not connected")
                raise DomainError("non-tree hosts are built with --k 3")
            # the builder settles 2-connectivity first: a 2-connected host
            # is built with or without the matching, and one with a
            # cutvertex and no matching has no verdict
            from .general_trestle import build_general_trestle
            from .matching_flow import theorem1_matching
            from .patterns import centres

            matching = theorem1_matching(g, centres(g, 3))
            cert = build_general_trestle(g, None if matching is None else matching.edge_list)
    except Disconnected:
        # from the connectivity test that as_tree or the builder's DFS
        # runs in any case
        _emit({"feasible": False, "reason": "host graph is not connected"})
        return 1
    _emit({"feasible": True, "certificate": cert.to_jsonable()})
    if args.dot:
        _write_dot(args.dot, square(g))
    return 0


def _vertex_pairs(payload: dict, key: str, n: int) -> list[tuple[int, int]]:
    """``payload[key]`` as pairs of vertex ids of an n-vertex host."""
    pairs = payload[key]
    if not isinstance(pairs, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(v) is int and 0 <= v < n for v in e)
        for e in pairs
    ):
        raise DomainError(f"certificate {key!r} must be a list of pairs of vertex ids below n={n}")
    return [tuple(e) for e in pairs]


def _cmd_verify(args) -> int:
    from .verify import TrestleCertificate, verify_trestle

    g = _read_input(args.input, args.format)
    with open(args.certificate, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad bytes, bad or too deep JSON
            raise DomainError(f"certificate is not UTF-8 JSON: {exc}") from None
    if isinstance(payload, dict) and "certificate" in payload:
        payload = payload["certificate"]
    if not isinstance(payload, dict) or "edges" not in payload:
        raise DomainError("certificate must be a JSON object with an 'edges' list")
    k = payload.get("k")
    if type(k) is not int:
        raise DomainError("certificate 'k' must be an integer")
    cert = TrestleCertificate.of(
        g,
        _vertex_pairs(payload, "edges", g.n),
        k,
        matching_edges=(
            _vertex_pairs(payload, "matching", g.n) if "matching" in payload else None
        ),
    )
    report = verify_trestle(cert)
    _emit({"pass": report.passed(), "checks": report.to_jsonable()})
    return 0 if report.passed() else 1


def _cmd_obstruction(args) -> int:
    from .obstruction import check_obstruction

    g = _read_input(args.input, args.format)
    t = as_tree(g)
    witness = check_obstruction(t)
    if witness is None:
        _emit({"obstruction": False})
        return 0
    _emit({"obstruction": True, "witness": witness.to_jsonable()})
    _write_dot(args.dot, t, highlight=witness.special)
    return 1


def _cmd_derive_patterns(args) -> int:
    from .obstruction import derive_base_patterns

    base = derive_base_patterns(max_n=args.max_n, confirm_budget=args.budget_nodes)
    _emit(
        {
            "t0": base.t0.to_jsonable(),
            "t0_confirmed": base.t0_confirmed,
            "attachment": {
                "n": base.attachment.tree.n,
                "edges": [list(e) for e in base.attachment.tree.edges()],
                "v": base.attachment.v,
                "w": base.attachment.w,
            },
        }
    )
    _write_dot(args.dot, base.t0.tree, highlight=base.t0.special)
    return 0


def _cmd_gen_family(args) -> int:
    from .obstruction import f_family

    members = f_family(args.max_n)
    _emit({"members": [m.to_jsonable() for m in members]})
    return 0


def _validate_one(task: tuple[bytes, int, int]) -> tuple[int, bool, bool, bool]:
    from .obstruction import check_obstruction
    from .oracle import brute_force_trestle
    from .tree_trestle import decide_tree_trestle

    g6, k, budget_nodes = task
    t = as_tree(read_graph6(g6))
    decide_ok = decide_tree_trestle(t, k) is not None
    # a cutoff raises SearchBudgetExhausted: no ground truth for this tree
    brute_ok = brute_force_trestle(square(t), k, budget_nodes) is not None
    agree = decide_ok == brute_ok
    if k == 3:
        agree = agree and (check_obstruction(t) is None) == decide_ok
    return t.n, decide_ok, brute_ok, agree


def _cmd_validate(args) -> int:
    from .oracle import enumerate_trees

    if args.max_n < 3:
        raise DomainError("--max-n must be at least 3: validate checks trees on 3 to --max-n vertices")
    tasks = []
    for n in range(3, args.max_n + 1):
        for t in enumerate_trees(n):
            tasks.append((write_graph6(t), args.k, args.budget_nodes))
    if args.jobs > 1:
        from multiprocessing import Pool

        with Pool(args.jobs) as pool:
            results = pool.map(_validate_one, tasks, chunksize=16)
    else:
        results = [_validate_one(task) for task in tasks]
    by_n: dict[int, list[tuple[bool, bool, bool]]] = {}
    for n, decide_ok, brute_ok, agree in results:
        by_n.setdefault(n, []).append((decide_ok, brute_ok, agree))
    agreed = 0
    for n in sorted(by_n):
        rows = by_n[n]
        ok = sum(1 for _, _, a in rows if a)
        feas = sum(1 for f, _, _ in rows if f)
        agreed += ok
        print(f"n={n:2d}  trees={len(rows):5d}  feasible={feas:5d}  agree={ok:5d}")
    total = len(results)
    print(f"agree: {agreed}/{total}")
    return 0 if agreed == total else 1


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="trestles",
        description="k-trestles in squares of graphs: decide, build, verify.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    # each command takes only the options it reads
    def common(p, k=False, dot=False):
        p.add_argument("input", nargs="?", help="input path, or - for stdin")
        p.add_argument(
            "--format", choices=("graph6", "edgelist"), default="edgelist"
        )
        if dot:
            p.add_argument("--dot", help="also write DOT to this path")
        if k:
            p.add_argument("--k", type=int, default=3)

    common(sub.add_parser("square", help="square of the input graph"), dot=True)
    common(sub.add_parser("centres", help="centres of induced S(K_{1,k})"), k=True, dot=True)
    common(sub.add_parser("decide", help="k-trestle feasibility for a tree"), k=True)
    common(sub.add_parser("build", help="build and verify a trestle certificate"), k=True, dot=True)
    verify_p = sub.add_parser("verify", help="re-check a certificate")
    common(verify_p)
    verify_p.add_argument("--certificate", required=True, help="JSON certificate path")
    common(sub.add_parser("obstruction", help="obstruction witness for a tree at k = 3"), dot=True)

    derive_p = sub.add_parser("derive-patterns", help="re-derive base obstruction patterns")
    derive_p.add_argument("--max-n", type=int, default=16)
    derive_p.add_argument("--budget-nodes", type=_positive_int)
    derive_p.add_argument("--dot", help="also write T_0 as DOT to this path")

    family_p = sub.add_parser("gen-family", help="obstruction family members")
    family_p.add_argument("--max-n", type=int, required=True)

    validate_p = sub.add_parser("validate", help="three-way agreement suite over all trees")
    validate_p.add_argument("--max-n", type=int, required=True)
    validate_p.add_argument("--k", type=int, default=3)
    validate_p.add_argument("--jobs", type=_positive_int, default=1)
    validate_p.add_argument("--budget-nodes", type=_positive_int, default=2_000_000)
    return top


_COMMANDS = {
    "square": _cmd_square,
    "centres": _cmd_centres,
    "decide": _cmd_decide,
    "build": _cmd_build,
    "verify": _cmd_verify,
    "obstruction": _cmd_obstruction,
    "derive-patterns": _cmd_derive_patterns,
    "gen-family": _cmd_gen_family,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # reference counting frees a command's objects; the cyclic collector
    # would only sweep its millions of tuples again and again
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except SearchBudgetExhausted:
        print("error: search budget exhausted", file=sys.stderr)
        return 4
    except Undetermined as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        import traceback  # only this path uses it: kept off the import path

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
