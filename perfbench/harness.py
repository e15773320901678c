"""Workload passes, tracing, and the correctness gate.

An op is one user-visible command, made of the same package calls in
the same order as the CLI: ``trestles build`` for trees and for non-tree
hosts (``--k 3``), ``trestles obstruction`` for infeasible k = 3 trees.
Every package call goes through :meth:`Tracer.call`, which runs the call
unchanged when tracing is off and records a span when it is on, so the
traced and the untraced pass make exactly the same calls.

The gate runs after the timed passes and re-checks every output from
scratch: certificates through ``verify_trestle``, obstruction witnesses
through ``ObstructionWitness.check``, verdicts against an independent
cross-check, and census counts against OEIS A000055.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from trestles import cli
from trestles.graphs import DomainError, InternalInvariantError, Tree, as_tree, read_graph, square
from trestles.general_trestle import build_general_trestle
from trestles.matching_flow import theorem1_matching
from trestles.obstruction import ObstructionWitness, check_obstruction
from trestles.oracle import enumerate_trees
from trestles.patterns import centres, is_caterpillar, tree_profile
from trestles.tree_trestle import build_tree_trestle, decide_tree_trestle
from trestles.verify import TrestleCertificate, verify_trestle

from calibrate import SpeedProbe, trimmed_mean
from instances import Instance, InstanceSet, tree_pivots

# OEIS A000055: free trees on n = 1..14 vertices.
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159)
CENSUS_NS = range(3, 13)

# Layer metrics reported as self time per pass; the span of the same
# name without the ``_s`` suffix feeds each one.
TIMED_LAYERS = (
    "graphs.parse",
    "graphs.as_tree",
    "graphs.square",
    "matching_flow.decide",
    "matching_flow.matching",
    "patterns.centres",
    "tree_trestle.build",
    "general_trestle.build",
    "general_trestle.build_2conn",
    "obstruction.witness",
    "oracle.enumerate",
    "cli.emit",
)
COUNTS = (
    "matching_flow.decide_calls",
    "matching_flow.demand_total",
    "patterns.centres_found",
    "tree_trestle.pivots",
    "general_trestle.cutvertices",
    "obstruction.witness_special",
    "oracle.trees_enumerated",
    "cli.emit_bytes",
)


# ---------------------------------------------------------------------------
# Tracing.
# ---------------------------------------------------------------------------


SPAN_COLUMNS = ("name", "start", "end", "parent", "pass", "op_id")


class Tracer:
    """Spans (name, start, end, parent, pass, op id) and counts, in memory.

    A pass is a sequence of units: its ops and, in ``census``, the tree
    enumeration for each n.  ``op_id`` is a unit's position in its pass,
    so the same id names the same work in every pass; the pass's own span
    has op id -1.  With ``enabled`` false, :meth:`call` is a plain call
    and nothing is recorded.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self.pass_no = -1
        self.op_id = -1

    def begin(self, name: str) -> None:
        if self.enabled:
            parent = self._open[-1] if self._open else -1
            self._open.append(len(self.spans))
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_no, self.op_id])

    def end(self) -> None:
        if self.enabled:
            self.spans[self._open.pop()][2] = time.perf_counter()

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()

    def count(self, name: str, value: int = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def unit_self_times(self) -> dict[tuple[int, int], dict[str, float]]:
        """Per unit (pass, op id): span duration minus the part its children
        cover, summed by span name.  A unit's self times add up to its span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        units: dict[tuple[int, int], Counter] = {}
        for i, (name, start, end, _, pass_no, op_id) in enumerate(self.spans):
            if op_id >= 0:
                units.setdefault((pass_no, op_id), Counter())[name] += (end - start) - covered[i]
        return {key: dict(times) for key, times in units.items()}


# ---------------------------------------------------------------------------
# Ops.  Each returns an OpResult; a raise is classified by run_op.
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    kind: str
    inst: Instance | None
    stdout: bytes = b""
    exit_code: int = 0
    feasible: bool | None = None
    assignment: object = None
    tree: Tree | None = None
    witness: ObstructionWitness | None = None
    verdicts: dict = field(default_factory=dict)
    certs: dict = field(default_factory=dict)
    assignments: dict = field(default_factory=dict)
    failure: str | None = None
    latency: float = 0.0
    index: int = 0

    def fingerprint(self) -> str:
        """Digest of what must repeat exactly from pass to pass."""
        if self.kind == "census":
            edges = [self.certs[k].edge_list for k in sorted(self.certs)]
            special = self.witness.special if self.witness else None
            what = repr((sorted(self.verdicts.items()), edges, special, self.failure)).encode()
        else:
            what = repr((self.exit_code, self.failure)).encode() + self.stdout
        return hashlib.sha256(what).hexdigest()


@dataclass
class PassRecord:
    """What a pass leaves behind; full results are kept for the first only.

    ``units`` holds the time of every unit of the pass, in order;
    ``latencies`` that of every op.
    """

    traced: bool
    seconds: float
    units: list[float]
    latencies: list[float]
    fingerprints: list[str]
    failures: list[str]


def emit(payload: dict) -> bytes:
    """What the CLI prints: sorted, indented JSON and a newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def emit_certificate(cert) -> bytes:
    if cert is None:
        return emit({"feasible": False, "reason": "no feasible arc assignment"})
    return emit({"feasible": True, "certificate": cert.to_jsonable()})


def emit_witness(witness) -> bytes:
    if witness is None:
        return emit({"obstruction": False})
    return emit({"obstruction": True, "witness": witness.to_jsonable()})


def _decide(tr: Tracer, t: Tree, k: int):
    a = tr.call("matching_flow.decide", decide_tree_trestle, t, k)
    if tr.enabled:
        tr.count("matching_flow.decide_calls")
        if a is not None:
            tr.count("matching_flow.demand_total", sum(a.values.values()))
    return a


def op_build_tree(tr: Tracer, inst: Instance) -> OpResult:
    """``trestles build --k K`` on a tree."""
    g = tr.call("graphs.parse", read_graph, inst.data, "edgelist")
    if len(g.edges()) != g.n - 1:
        raise DomainError("tree op got a non-tree")
    t = tr.call("graphs.as_tree", as_tree, g)
    a = _decide(tr, t, inst.k)
    cert = None
    if a is not None:
        cert = tr.call("tree_trestle.build", build_tree_trestle, t, inst.k, a)
        tr.count("tree_trestle.pivots", inst.meta["pivots"])
    out = tr.call("cli.emit", emit_certificate, cert)
    tr.count("cli.emit_bytes", len(out))
    feasible = cert is not None
    if feasible:
        # the CLI squares the host for its --dot output even without --dot
        tr.call("graphs.square", square, g)
    return OpResult("build", inst, out, 0 if feasible else 1, feasible, assignment=a, tree=t)


def op_obstruction(tr: Tracer, inst: Instance) -> OpResult:
    """``trestles obstruction`` on a tree."""
    g = tr.call("graphs.parse", read_graph, inst.data, "edgelist")
    t = tr.call("graphs.as_tree", as_tree, g)
    w = tr.call("obstruction.witness", check_obstruction, t)
    if w is not None:
        tr.count("obstruction.witness_special", len(w.special))
    out = tr.call("cli.emit", emit_witness, w)
    tr.count("cli.emit_bytes", len(out))
    return OpResult("obstruction", inst, out, 0 if w is None else 1, tree=t, witness=w)


def op_build_general(tr: Tracer, inst: Instance) -> OpResult:
    """Centres, centre matching, general builder: ``trestles build --k 3``
    on a non-tree host, and the same library sequence on a comb."""
    g = tr.call("graphs.parse", read_graph, inst.data, "edgelist")
    x = tr.call("patterns.centres", centres, g, 3)
    tr.count("patterns.centres_found", len(x))
    m = tr.call("matching_flow.matching", theorem1_matching, g, x)
    if m is None:
        out = tr.call("cli.emit", emit, {"feasible": False, "reason": "no saturating centre matching"})
        return OpResult("general", inst, out, 1, False)
    layer = "general_trestle.build_2conn" if inst.two_connected else "general_trestle.build"
    tr.count("general_trestle.cutvertices", inst.meta["cutvertices"])
    cert = tr.call(layer, build_general_trestle, g, m.edge_list)
    out = tr.call("cli.emit", emit_certificate, cert)
    tr.count("cli.emit_bytes", len(out))
    tr.call("graphs.square", square, g)
    return OpResult("general", inst, out, 0, True)


def op_census(tr: Tracer, t: Tree) -> OpResult:
    """Decide k = 2, 3, 4, build each feasible k, and look for a witness."""
    res = OpResult("census", None, tree=t)
    for k in (2, 3, 4):
        a = _decide(tr, t, k)
        res.verdicts[k] = a is not None
        if a is not None:
            res.certs[k] = tr.call("tree_trestle.build", build_tree_trestle, t, k, a)
            res.assignments[k] = a
    if tr.enabled and res.certs:
        tr.count("tree_trestle.pivots", tree_pivots(t) * len(res.certs))
    res.witness = tr.call("obstruction.witness", check_obstruction, t)
    if res.witness is not None:
        tr.count("obstruction.witness_special", len(res.witness.special))
    return res


def run_op(tr: Tracer, fn, arg) -> OpResult:
    """Run one op, timing it; a failure is recorded with its time to failure."""
    tr.begin("harness.op")
    start = time.perf_counter()
    failure = None
    try:
        res = fn(tr, arg)
    except RecursionError:
        failure = "recursion"
    except InternalInvariantError:
        failure = "invariant"
    except DomainError as exc:
        failure = "budget" if "budget" in str(exc) else "domain"
    latency = time.perf_counter() - start
    tr.end()
    if failure is not None:
        if isinstance(arg, Instance):
            res = OpResult(fn.__name__, arg, failure=failure)
        else:
            res = OpResult(fn.__name__, None, tree=arg, failure=failure)
    res.latency = latency
    return res


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


# The ops run on each instance of a generated workload, in order.
WORKLOAD_OPS = {
    "tree-scale": (op_build_tree,),
    "host-matched": (op_build_general,),
}


def run_pass(
    tr: Tracer, workload: str, iset: InstanceSet | None, probe: SpeedProbe | None = None
) -> tuple[float, list[float], list[OpResult]]:
    """One closed-loop pass: each op starts when the previous one ends.

    With a ``probe``, the calibration kernel is sampled between units,
    outside their timing.  Returns the pass's wall time, the time of each
    unit, and the ops' results.
    """
    results: list[OpResult] = []
    units: list[float] = []
    tick = probe.tick if probe else lambda: None

    def op(fn, arg) -> OpResult:
        tick()
        tr.op_id = len(units)
        res = run_op(tr, fn, arg)
        tr.op_id = -1
        units.append(res.latency)
        res.index = len(results)
        results.append(res)
        return res

    tr.pass_no += 1
    tr.begin("harness.pass")
    start = time.perf_counter()
    if workload == "census":
        for n in CENSUS_NS:
            tick()
            tr.op_id = len(units)
            began = time.perf_counter()
            trees = tr.call("oracle.enumerate", _all_trees, n)
            units.append(time.perf_counter() - began)
            tr.op_id = -1
            tr.count("oracle.trees_enumerated", len(trees))
            for t in trees:
                op(op_census, t)
    else:
        for inst in iset.instances:
            for fn in WORKLOAD_OPS[workload]:
                # an infeasible k = 3 tree is followed by `trestles obstruction`
                if op(fn, inst).feasible is False and fn is op_build_tree and inst.k == 3:
                    op(op_obstruction, inst)
    elapsed = time.perf_counter() - start
    tr.end()
    return elapsed, units, results


def record(traced: bool, elapsed: float, units: list[float], results: list[OpResult]) -> PassRecord:
    return PassRecord(
        traced,
        elapsed,
        units,
        [res.latency for res in results],
        [res.fingerprint() for res in results],
        [res.failure for res in results if res.failure],
    )


def _all_trees(n: int) -> list[Tree]:
    return list(enumerate_trees(n))


# ---------------------------------------------------------------------------
# Correctness gate.
# ---------------------------------------------------------------------------


@dataclass
class Gate:
    """Check tallies; ``bad_ops`` holds the pass positions of rejected outputs."""

    checks: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    bad_ops: set[int] = field(default_factory=set)
    verify_s: float = 0.0
    verify_checks: int = 0

    def require(self, what: str, ok: bool, detail: str = "", res: OpResult | None = None) -> None:
        self.checks[what] += 1
        if not ok:
            self.failures[what] += 1
            if res is not None:
                self.bad_ops.add(res.index)
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {detail}")

    def verify(self, cert: TrestleCertificate) -> bool:
        start = time.perf_counter()
        report = verify_trestle(cert)
        self.verify_s += time.perf_counter() - start
        self.verify_checks += len(report.checks)
        return report.passed()

    @property
    def ok(self) -> bool:
        return not self.failures


def _expected_degrees(t: Tree, a) -> list[int]:
    profile = tree_profile(t)
    return [a.out_sum(v) + max(2, profile.n(v)) for v in range(t.n)]


def _check_tree_build(gate: Gate, res: OpResult) -> None:
    t, inst = res.tree, res.inst
    payload = json.loads(res.stdout)
    gate.require("exit_code", res.exit_code == (0 if payload["feasible"] else 1), inst.family, res)
    if not payload["feasible"]:
        return
    cert = payload["certificate"]
    claimed = TrestleCertificate.of(
        t, [tuple(e) for e in cert["edges"]], cert["k"],
        expected_degrees=_expected_degrees(t, res.assignment),
    )
    gate.require("certificate_header", cert["k"] == inst.k and cert["n"] == t.n, inst.family, res)
    gate.require("certificate_degrees", cert["degrees"] == claimed.degrees(), inst.family, res)
    gate.require("verify_trestle", gate.verify(claimed), f"{inst.family} n={t.n}", res)


def _witness_from(payload: dict) -> ObstructionWitness:
    w = payload["witness"]
    return ObstructionWitness(
        kind=w["kind"],
        subtree=tuple(w["subtree"]),
        special=tuple(w["special"]),
        black_neighbourhood=tuple(w["black_neighbourhood"]),
        redness={int(r): tuple(v) for r, v in w["redness"].items()},
    )


def _check_witness(gate: Gate, witness: ObstructionWitness, res: OpResult) -> None:
    try:
        witness.check(res.tree)
        ok, why = True, ""
    except InternalInvariantError as exc:
        ok, why = False, str(exc)
    gate.require("witness_check", ok, why, res)


def check_trees(gate: Gate, results: list[OpResult]) -> None:
    """tree-scale: certificates, witnesses, k = 3 cross-check."""
    builds: dict[tuple[bytes, int], OpResult] = {}
    witnessed: set[bytes] = set()
    for res in results:
        if res.failure or res.kind not in ("build", "obstruction"):
            continue
        inst = res.inst
        if res.kind == "build":
            _check_tree_build(gate, res)
            builds[(inst.data, inst.k)] = res
            if inst.family == "subdivided-tree":
                # Hall's condition holds by construction in these families
                gate.require("family_feasible", res.feasible, f"{inst.family} n={inst.n} k={inst.k}", res)
        else:
            payload = json.loads(res.stdout)
            gate.require("obstruction_found", payload["obstruction"] and res.exit_code == 1, f"n={inst.n}", res)
            if payload["obstruction"]:
                _check_witness(gate, _witness_from(payload), res)
                witnessed.add(inst.data)
    for (data, k), res in builds.items():
        if k != 3:
            continue
        if res.feasible:
            none = check_obstruction(res.tree) is None
            gate.require("k3_vs_obstruction", none, f"n={res.inst.n} feasible but obstructed", res)
        else:
            gate.require("k3_vs_obstruction", data in witnessed, f"n={res.inst.n} infeasible, no witness", res)
        k4 = builds.get((data, 4))
        if k4 is not None:
            gate.require("k_monotone", k4.feasible or not res.feasible, "k=3 feasible but k=4 not", k4)


def check_general(gate: Gate, results: list[OpResult]) -> None:
    """host-matched: matched certificates."""
    for res in results:
        if res.failure or res.kind != "general":
            continue
        family = res.inst.family
        # every host was drawn with a saturating centre matching
        gate.require("matching_found", res.feasible and res.exit_code == 0, family, res)
        if not res.feasible:
            continue
        payload = json.loads(res.stdout)["certificate"]
        g = read_graph(res.inst.data, "edgelist")
        claimed = TrestleCertificate.of(
            g, [tuple(e) for e in payload["edges"]], payload["k"],
            matching_edges=[tuple(e) for e in payload["matching"]],
        )
        gate.require("certificate_header", payload["k"] == 3 and payload["n"] == g.n, family, res)
        gate.require("certificate_degrees", payload["degrees"] == claimed.degrees(), family, res)
        gate.require("verify_trestle", gate.verify(claimed), f"{family} n={g.n}", res)


def check_census(gate: Gate, results: list[OpResult]) -> None:
    """Counts against A000055; certificates, witnesses, k = 2 and k = 3 cross-checks."""
    counts = Counter(res.tree.n for res in results)
    for n in CENSUS_NS:
        gate.require("a000055", counts[n] == A000055[n - 1], f"n={n}: {counts[n]} trees")
    for res in results:
        if res.failure:
            continue
        t = res.tree
        for k, cert in res.certs.items():
            degrees = _expected_degrees(t, res.assignments[k])
            claimed = TrestleCertificate.of(t, cert.edge_list, k, expected_degrees=degrees)
            gate.require("verify_trestle", gate.verify(claimed), f"n={t.n} k={k}", res)
        gate.require("k3_vs_obstruction", res.verdicts[3] == (res.witness is None), f"n={t.n}", res)
        gate.require("k2_vs_caterpillar", res.verdicts[2] == is_caterpillar(t), f"n={t.n}", res)
        if res.witness is not None:
            _check_witness(gate, res.witness, res)


def cli_output(argv: list[str], data: bytes) -> tuple[bytes, int]:
    """Run ``trestles.cli.main`` in-process with ``data`` on stdin."""
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.TextIOWrapper(io.BytesIO(data))
    sys.stdout = io.StringIO()
    try:
        code = cli.main(argv)
        return sys.stdout.getvalue().encode(), code
    finally:
        sys.stdin, sys.stdout = old_in, old_out


PARITY_SAMPLE = 4


def check_parity(gate: Gate, results: list[OpResult]) -> None:
    """The CLI prints exactly the op's bytes and exit code, for a sample."""
    taken: Counter = Counter()
    for res in results:
        if res.failure or res.inst is None or taken[(res.kind, res.inst.family)] >= PARITY_SAMPLE:
            continue
        if res.kind == "build":
            argv = ["build", "-", "--k", str(res.inst.k)]
        elif res.kind == "obstruction":
            argv = ["obstruction", "-"]
        elif res.kind == "general":
            argv = ["build", "-", "--k", "3"]
        else:
            continue
        taken[(res.kind, res.inst.family)] += 1
        out, code = cli_output(argv, res.inst.data)
        gate.require("cli_parity", (out, code) == (res.stdout, res.exit_code), f"{argv} {res.inst.family}", res)


def run_gate(workload: str, first: list[OpResult], records: list[PassRecord]) -> Gate:
    """Check the first pass's outputs; every later pass must match them."""
    gate = Gate()
    for rec in records[1:]:
        gate.require("same_every_pass", rec.fingerprints == records[0].fingerprints, "outputs differ between passes")
    if workload == "census":
        check_census(gate, first)
    else:
        check_trees(gate, first)
        check_general(gate, first)
    if workload in ("tree-scale", "host-matched"):
        check_parity(gate, first)
    return gate


# ---------------------------------------------------------------------------
# Summary statistics.
# ---------------------------------------------------------------------------


def column_means(rows: list[list[float]]) -> list[float]:
    """Column-wise trimmed mean: each unit's or op's time over the passes."""
    return [trimmed_mean(list(col)) for col in zip(*rows)]


def latency_summary(records: list[PassRecord], speed: float) -> dict:
    """Pass time, median and tail, in reference seconds.

    Each unit and op takes its trimmed mean time over the passes, scaled
    by the run's ``speed`` factor (see ``calibrate``).  ``pass_s`` is the
    sum over the units.

    The tail is the highest percentile with at least ten ops beyond it:
    the eleventh-largest per-op latency, at percentile 100 (N - 10) / N.
    """
    per_op = sorted(speed * t for t in column_means([r.latencies for r in records]))
    n = len(per_op)
    out = {
        "pass_s": speed * sum(column_means([r.units for r in records])),
        "raw_pass_s": statistics.median(sum(r.units) for r in records),
        "ops_per_pass": n,
        "op_p50_s": statistics.median(per_op),
    }
    if n > 10:
        out["op_tail_s"] = per_op[n - 11]
        out["op_tail_percentile"] = round(100 * (n - 10) / n, 2)
    return out
