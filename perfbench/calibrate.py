"""Machine-speed probe: a fixed pure-Python kernel, timed between units.

On a shared virtual machine the same pass runs at a fast level and, for
stretches of seconds to minutes, at levels up to about twice as slow,
every op family alike, while the work done stays exactly the same.  The
benchmark therefore times this kernel, which is the benchmark's own code
and never calls the package, every few tenths of a second between
units, and scales the run's times by ``REFERENCE_S`` over the kernel's
trimmed mean time: a time reads in seconds of a machine on which one
kernel run takes ``REFERENCE_S``.  A change to the package moves the
unit times but not the kernel, so it shows in full.

The machine also flips between its levels within a second, so one op
family run in one stretch of a pass can meet either level, and a median
over passes then jumps between the levels from run to run.  Trimmed
means move in proportion to the share of time spent at each level, for
the ops and the kernel alike, so their ratio stays put.

The kernel does the same kind of work, in the same idiom, as the
package: breadth-first augmenting paths over linked edge arrays
(Edmonds-Karp on a unit bipartite network, written as ``matching_flow``
writes its flow) and a recursive walk over a rooted tree, as the
builders recurse.  A kernel of dict-of-dict capacities and an iterative
walk tracked the machine less well: scaled by it, the ``pass_s`` of five
``tree-scale`` runs on one seed at different machine speeds spread by
0.07, against 0.04 with this one.  The garbage collector is off while the kernel runs, so the
package's heap cannot slow it.
"""

from __future__ import annotations

import gc
import statistics
import time

# One kernel run on the reference machine (the 2-vCPU Xeon of
# ``baseline.json``), about its time at that machine's fast level.
REFERENCE_S = 0.024
# Least time between two samples within a pass.
MIN_GAP_S = 0.3
WARMUP_RUNS = 5
# Share of the lowest and of the highest values that a trimmed mean drops.
TRIM = 0.2


def _fixed_inputs() -> tuple[list[list[int]], list[int]]:
    """A bipartite graph (SIDE + SIDE vertices, FAN distinct right
    neighbours per left vertex) and a rooted tree (TREE_N vertices, as
    parent ids), drawn from a fixed linear congruential sequence."""
    state = 20200228

    def draw(bound: int) -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (state >> 33) % bound

    adj = []
    for _ in range(SIDE):
        row: list[int] = []
        while len(row) < FAN:
            v = draw(SIDE)
            if v not in row:
                row.append(v)
        adj.append(row)
    parent = [draw(v) if v else -1 for v in range(TREE_N)]
    return adj, parent


SIDE, FAN, TREE_N = 200, 4, 2000
ADJ, PARENT = _fixed_inputs()


def kernel() -> tuple[int, int]:
    """Maximum matching size of the fixed bipartite graph, by unit-capacity
    Edmonds-Karp on linked edge arrays, and the sum of depths of the
    fixed tree, by recursion: (197, 12984)."""
    n = 2 * SIDE + 2
    source, sink = n - 2, n - 1
    first = [-1] * n
    head: list[int] = []
    nxt: list[int] = []
    cap: list[int] = []

    def add_edge(u: int, v: int) -> None:
        for a, b, c in ((u, v, 1), (v, u, 0)):
            head.append(b)
            cap.append(c)
            nxt.append(first[a])
            first[a] = len(head) - 1

    for u in range(SIDE):
        add_edge(source, u)
        for v in ADJ[u]:
            add_edge(u, SIDE + v)
        add_edge(SIDE + u, sink)
    flow = 0
    while True:
        parent_edge = [-1] * n
        parent_edge[source] = -2
        queue = [source]
        while queue and parent_edge[sink] == -1:
            level = []
            for u in queue:
                e = first[u]
                while e != -1:
                    v = head[e]
                    if cap[e] > 0 and parent_edge[v] == -1:
                        parent_edge[v] = e
                        level.append(v)
                    e = nxt[e]
            queue = level
        if parent_edge[sink] == -1:
            break
        v = sink
        while v != source:
            e = parent_edge[v]
            cap[e] -= 1
            cap[e ^ 1] += 1
            v = head[e ^ 1]
        flow += 1
    children: list[list[int]] = [[] for _ in PARENT]
    for v, p in enumerate(PARENT):
        if p >= 0:
            children[p].append(v)

    def depth_sum(x: int, depth: int) -> int:
        return depth + sum(depth_sum(c, depth + 1) for c in children[x])

    return flow, depth_sum(0, 0)


def sample() -> float:
    """Time of one kernel run, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def warm_up() -> None:
    if kernel() != (197, 12984):
        raise SystemExit("error: the calibration kernel gives a wrong result")
    for _ in range(WARMUP_RUNS):
        sample()


def kept(values: list[float]) -> list[int]:
    """Indices of the values left after dropping the TRIM share at each end."""
    order = sorted(range(len(values)), key=values.__getitem__)
    cut = int(len(values) * TRIM)
    return order[cut : len(values) - cut]


def trimmed_mean(values: list[float]) -> float:
    idx = kept(values)
    return sum(values[i] for i in idx) / len(idx)


def speed(samples: list[float]) -> float:
    """Factor that turns this machine's seconds into reference seconds."""
    return REFERENCE_S / trimmed_mean(samples)


class SpeedProbe:
    """Kernel samples, at most one per ``MIN_GAP_S``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last >= MIN_GAP_S:
            self.samples.append(sample())
            self._last = time.perf_counter()
