"""Self-tests for the benchmark harness, on cut-down instance sets.

Run with the rest of the suite (``PYTHONPATH=src python -m pytest``);
they take a few seconds.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import harness  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402

SMALL_N = 410
PER_FAMILY = 2


def small(iset: instances.InstanceSet) -> instances.InstanceSet:
    """The first few instances of each family and k with n <= SMALL_N."""
    seen = {}
    kept = []
    for inst in iset.instances:
        key = (inst.family, inst.k)
        if inst.n <= SMALL_N and seen.get(key, 0) < PER_FAMILY:
            seen[key] = seen.get(key, 0) + 1
            kept.append(inst)
    return instances.InstanceSet(iset.workload, kept, iset.drawn, iset.accepted)


def test_same_seed_same_bytes_and_other_seed_differs():
    for make in instances.WORKLOADS.values():
        assert make(7).digest() == make(7).digest()
        assert make(7).digest() != make(8).digest()


def test_preconditions_hold():
    for inst in instances.tree_scale(3).instances:
        edges = [tuple(map(int, line.split())) for line in inst.data.decode().splitlines()[1:]]
        assert instances.is_tree(inst.n, edges)
    hosts = instances.host_matched(3)
    assert {inst.two_connected for inst in hosts.instances} == {False, True}
    assert 0 < hosts.accept_ratio <= 1


def _pass(workload, iset, traced):
    tr = harness.Tracer(traced)
    elapsed, units, results = harness.run_pass(tr, workload, iset)
    return tr, harness.record(traced, elapsed, units, results), results


def test_repeat_and_traced_passes_agree_and_pass_the_gate():
    for workload, make in (("tree-scale", instances.tree_scale), ("host-matched", instances.host_matched)):
        iset = small(make(5))
        _, plain, first = _pass(workload, iset, False)
        tr, traced, _ = _pass(workload, iset, True)
        _, again, _ = _pass(workload, small(make(5)), False)
        assert plain.fingerprints == traced.fingerprints == again.fingerprints
        assert plain.failures == traced.failures == again.failures == []
        gate = harness.run_gate(workload, first, [plain, traced, again])
        assert gate.ok, gate.problems
        assert gate.checks["verify_trestle"] > 0 and gate.checks["cli_parity"] > 0
        # self times of each unit's spans add up to the unit's time
        units = tr.unit_self_times()
        assert sorted(units) == [(0, i) for i in range(len(traced.units))]
        for (_, i), times in units.items():
            assert abs(sum(times.values()) - traced.units[i]) < 0.05 * traced.units[i] + 1e-4


def test_counts_repeat_exactly():
    iset = small(instances.tree_scale(9))
    first, _, _ = _pass("tree-scale", iset, True)
    second, _, _ = _pass("tree-scale", iset, True)
    assert first.counts == second.counts
    assert first.counts["matching_flow.decide_calls"] == len(iset.instances)


def test_gate_rejects_a_broken_certificate():
    iset = small(instances.host_matched(4))
    _, rec, results = _pass("host-matched", iset, False)
    victim = next(res for res in results if res.feasible)
    payload = json.loads(victim.stdout)
    payload["certificate"]["edges"] = payload["certificate"]["edges"][1:]
    victim.stdout = harness.emit(payload)
    gate = harness.run_gate("host-matched", results, [rec])
    assert not gate.ok
    assert victim.index in gate.bad_ops
    assert gate.failures["verify_trestle"] == 1


def test_gate_rejects_a_wrong_verdict():
    iset = small(instances.tree_scale(4))
    _, rec, results = _pass("tree-scale", iset, False)
    victim = next(res for res in results if res.kind == "obstruction")
    victim.stdout = harness.emit({"obstruction": False})
    victim.exit_code = 0
    gate = harness.run_gate("tree-scale", results, [rec])
    assert gate.failures["obstruction_found"] == 1
    assert gate.failures["k3_vs_obstruction"] == 1


def test_tail_has_ten_samples_beyond_it_and_times_are_scaled():
    rec = harness.PassRecord(False, 1.0, [1.0, 2.0], [float(i) for i in range(40)], [], [])
    slower = harness.PassRecord(False, 2.0, [2.0, 4.0], [2.0 * i for i in range(40)], [], [])
    # with five passes the trimmed mean drops the lowest and the highest
    summary = harness.latency_summary([rec, rec, slower, slower, rec], 0.5)
    assert summary["raw_pass_s"] == 3.0
    assert summary["pass_s"] == pytest.approx(0.5 * (4.0 / 3 + 8.0 / 3))
    assert summary["op_tail_s"] == pytest.approx(0.5 * 29.0 * 4 / 3)
    assert summary["op_tail_percentile"] == 75.0
    assert summary["op_p50_s"] == pytest.approx(0.5 * 19.5 * 4 / 3)


def test_calibration_kernel_is_fixed_and_scales_to_reference_seconds():
    assert calibrate.kernel() == (197, 12984)
    assert calibrate.trimmed_mean([9.0, 1.0, 2.0, 3.0, -5.0]) == 2.0
    assert calibrate.speed([calibrate.REFERENCE_S * 2] * 3) == pytest.approx(0.5)
    probe = calibrate.SpeedProbe()
    probe.tick()
    probe.tick()  # within MIN_GAP_S of the first: no sample
    assert len(probe.samples) == 1 and probe.samples[0] > 0


def test_traced_run_reports_every_declared_layer_metric():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    iset = small(instances.tree_scale(2))
    _, plain, first = _pass("tree-scale", iset, False)
    tr, traced, _ = _pass("tree-scale", iset, True)
    gate = harness.run_gate("tree-scale", first, [plain, traced])
    metrics = run._layer_metrics(harness, tr, 1.0, plain.seconds, gate, iset)
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])
    assert {unit for _, unit in metrics.values()} <= {m["unit"] for m in declared["per_layer"]}
