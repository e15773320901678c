"""Reproduce the known failure regimes that the timed workloads leave out.

    python3 perfbench/regimes.py --seed 1

The timed workloads hold only ops that succeed, so that each run stays
short and its numbers compare from run to run.  This script runs the two
regimes where ops are known to fail, through the same ops and failure
classes as the workloads, and prints one JSON line per op:

* a path-ordered comb with spine 1000 and a pendant path of length 2 at
  every spine vertex (n = 3000): both builders recurse once per spine
  vertex and raise ``RecursionError`` (kind ``recursion``);
* max-degree-3 ear-built 2-connected hosts with n = 44: the Hamilton
  search behind the Fleischner fallback can run out of its node budget
  (kind ``budget``); the CLI then exits with 2, its usage-error code.

Expect about ten minutes: each failing op runs for tens of seconds
first, and a host that exhausts the budget is run again through the CLI.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMB_SPINE = 1000
EAR_N = 44
EAR_HOSTS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import harness
    import instances

    rng = random.Random(args.seed)
    tr = harness.Tracer(False)

    def report(res, **extra):
        print(json.dumps({
            "family": res.inst.family, "n": res.inst.n, "op": res.kind,
            "failure": res.failure, "seconds": round(res.latency, 3), **extra,
        }), flush=True)

    # legs of length 2 make every spine vertex a pivot of the tree builder
    edges = instances.path_ordered_comb(COMB_SPINE)
    n = len(edges) + 1
    data, meta = instances.checked_tree("comb", n, edges)
    comb = instances.Instance("comb", n, 3, data, meta=meta)
    for op in (harness.op_build_tree, harness.op_build_general):
        report(harness.run_op(tr, op, comb))

    hosts = 0
    while hosts < EAR_HOSTS:
        edges = instances.ear_host(rng, EAR_N)
        meta = instances.matched_host_meta(EAR_N, edges, True)
        if meta is None:
            continue
        hosts += 1
        data = instances.edgelist_bytes(EAR_N, edges)
        host = instances.Instance("ear-2conn", EAR_N, 3, data, True, meta)
        res = harness.run_op(tr, harness.op_build_general, host)
        extra = {}
        if res.failure == "budget":
            extra["cli_exit"] = harness.cli_output(["build", "-", "--k", "3"], data)[1]
        report(res, **extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
