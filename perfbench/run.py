"""Benchmark entry point: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload tree-scale --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
of that checkout.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  The
line before it is a JSON summary with sample counts, the tail
percentile, the failure ratio and kinds, and the gate's checks.  A
traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_ROUNDS = 7
# calibration samples before and after each set-up round
SETUP_SAMPLES = 2
WORKLOAD_NAMES = ("tree-scale", "host-matched", "census")


def _import_package():
    """Import the package from this checkout's ``src`` only."""
    if not (SRC / "trestles" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import trestles

    if Path(trestles.__file__).resolve().parent != SRC / "trestles":
        raise SystemExit(f"error: imported trestles from {trestles.__file__}, not {SRC}")


def _setup(workload: str, seed: int):
    """Import the package and build the instance set, SETUP_ROUNDS times.

    Each round first drops the package and the generators from
    ``sys.modules``, so it pays their module-level work again; only the
    first round also loads the standard-library modules they use.
    Calibration samples taken just before and after each round scale
    the rounds' times to reference seconds.  Returns the last set, the
    median scaled round time, and the set's digest, which every round
    must reproduce.
    """
    times, samples, digests, iset = [], [], set(), None
    for _ in range(SETUP_ROUNDS):
        for name in [m for m in sys.modules if m.partition(".")[0] in ("trestles", "instances")]:
            del sys.modules[name]
        samples += [calibrate.sample() for _ in range(SETUP_SAMPLES)]
        start = time.perf_counter()
        importlib.import_module("trestles.cli")
        make = importlib.import_module("instances").WORKLOADS.get(workload)
        iset = make(seed) if make else None
        times.append(time.perf_counter() - start)
        samples += [calibrate.sample() for _ in range(SETUP_SAMPLES)]
        digests.add(iset.digest() if iset else "")
    if len(digests) != 1:
        raise SystemExit("error: instance generation is not deterministic")
    return iset, statistics.median(times) * calibrate.speed(samples), digests.pop()


def _measure(harness, workload, iset, seconds, traced_too):
    """Passes until the next one would overrun ``seconds``.

    Returns the first pass's results, a record per pass, the tracer,
    and the run's speed factor from the calibration samples taken
    between units.  Untraced passes time the end-to-end metrics; with
    ``traced_too``, untraced and traced passes alternate.
    """
    plain, traced = harness.Tracer(False), harness.Tracer(True)
    probe = calibrate.SpeedProbe()
    first, records = None, []
    start = time.perf_counter()
    while True:
        use_trace = traced_too and len(records) % 2 == 1
        elapsed, units, results = harness.run_pass(traced if use_trace else plain, workload, iset, probe)
        records.append(harness.record(use_trace, elapsed, units, results))
        first = first or results
        typical = statistics.median(r.seconds for r in records if not r.traced)
        enough = len(records) >= (2 if traced_too else 1)
        if enough and time.perf_counter() - start + typical > seconds:
            return first, records, traced, calibrate.speed(probe.samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    calibrate.warm_up()
    iset, setup_s, digest = _setup(args.workload, args.seed)
    import harness

    first, records, tracer, speed = _measure(harness, args.workload, iset, args.seconds, args.trace == 1)
    untraced = [r for r in records if not r.traced]

    gate_start = time.perf_counter()
    gate = harness.run_gate(args.workload, first, records)
    gate_s = time.perf_counter() - gate_start

    # an op fails by raising (counted in every pass) or by an output the
    # gate rejects (outputs repeat exactly, so that counts in every pass)
    kinds = Counter(kind for r in records for kind in r.failures)
    kinds.update(gate.failures)
    attempted = sum(len(r.latencies) for r in records)
    failed = sum(len(r.failures) for r in records) + len(gate.bad_ops) * len(records)
    latency = harness.latency_summary(untraced, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "instances_sha256": digest,
        "passes": {"untraced": len(untraced), "traced": len(records) - len(untraced)},
        "raw_pass_s": latency["raw_pass_s"],
        "speed": speed,
        "ops_attempted": attempted,
        "fail_ratio": failed / attempted,
        "failures": dict(kinds),
        "op_samples": latency["ops_per_pass"],
        "op_tail_percentile": latency.get("op_tail_percentile"),
        "gate_s": gate_s,
        "gate_checks": dict(gate.checks),
        "gate_failures": dict(gate.failures),
        "gate_problems": gate.problems,
    }
    if args.trace:
        metrics = _layer_metrics(harness, tracer, speed, latency["pass_s"], gate, iset)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"columns": harness.SPAN_COLUMNS, "spans": tracer.spans}, fh)
        summary["spans_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (latency["pass_s"], "s"),
            "op_p50_s": (latency["op_p50_s"], "s"),
            "op_tail_s": (latency["op_tail_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": gate.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    # wrong outputs or raising ops fail the run, after the result is printed
    return 0 if gate.ok and failed == 0 else 1


def _layer_metrics(harness, tracer, speed, untraced_pass_s, gate, iset):
    """Self time per layer, counts per pass, and the gate's verifier work.

    Like ``pass_s``, layer times are trimmed means over the traced passes
    in reference seconds: for each unit, the passes whose unit time the
    trimmed mean keeps give the mean of each layer's self time, so the
    layers add up to ``trace.pass_traced_s``.  A layer the workload never
    reaches reads 0.
    """
    per_unit: dict[int, list[dict]] = {}
    for (_, op_id), times in sorted(tracer.unit_self_times().items()):
        per_unit.setdefault(op_id, []).append(times)
    layers: Counter = Counter()
    for passes in per_unit.values():
        kept = calibrate.kept([sum(times.values()) for times in passes])
        for i in kept:
            for layer, t in passes[i].items():
                layers[layer] += speed * t / len(kept)
    traced_s = sum(layers.values())
    metrics = {}
    for layer in harness.TIMED_LAYERS:
        metrics[f"{layer}_s"] = (layers[layer], "s")
    for name in harness.COUNTS:
        metrics[name] = (tracer.counts[name] // (tracer.pass_no + 1), "count")
    metrics["harness.self_s"] = (layers["harness.op"], "s")
    metrics["verify.verify_s"] = (gate.verify_s * speed, "s")
    metrics["verify.checks_run"] = (gate.verify_checks, "count")
    metrics["setup.accept_ratio"] = (iset.accept_ratio if iset else 1.0, "ratio")
    metrics["trace.pass_traced_s"] = (traced_s, "s")
    metrics["trace.pass_untraced_s"] = (untraced_pass_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_pass_s, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
