"""A fixed probe kernel that measures the host's current speed.

The benchmark runs on a host shared with other machines' work.  While it
was calibrated on a 2-core machine, that load slowed every op by up to
2.5x, in spells from seconds to minutes, and raw medians moved by up to
half from one run to the next.  No statistic taken inside a 15-second run
can remove a spell that covers the whole run.

So the worker times the probe kernel right before and right after every
op, and each op's latency is scaled to the speed at which the kernel takes
its reference time: ``latency * PROBE_REF_S / mean(probe before, probe
after)``.  The kernel does a little of each kind of work the workloads do
(big-integer products accumulated in a dict, log-sum-exp in floats,
breadth-first closures over a multiplication table), so that a slowdown of
the host slows it about as much as an op of any workload.  The kernel is
benchmark code: changes to repgrowth never change it, so scaled figures of
two commits compare like raw ones.  It builds its data on every call and
drops it on return, so between probes the worker holds none of it.
"""
from __future__ import annotations

import math
import time

# About the kernel's fastest time on the 2-core machine that defined the
# benchmark; scaled timings read as seconds at that speed.
PROBE_REF_S = 0.022


def _kernel():
    # big-integer products accumulated in a dict, as in convolve
    a = {d: 3 ** (1200 + d % 400) for d in range(1, 1001)}
    b = {d: 7 ** (300 + d) for d in (1, 2, 3, 5, 7, 11)}
    acc = {}
    for d1, m1 in a.items():
        for d2, m2 in b.items():
            p = d1 * d2
            if p > 1000:
                break
            acc[p] = acc.get(p, 0) + m1 * m2
    tuple(acc[d] for d in sorted(acc))

    # log-sum-exp accumulation, as on the log backend
    s = -math.inf
    for k in range(1, 15000):
        v = math.log(k)
        s = v if s == -math.inf else max(s, v) + math.log1p(math.exp(-abs(s - v)))

    # breadth-first closures over a multiplication table, as in finite_groups
    table = [[(i * 17 + j * 31 + i * j) % 168 for j in range(168)] for i in range(168)]
    for g in list(range(1, 168)) * 2:
        seen, queue, i = {0}, [0], 0
        while i < len(queue):
            row = table[queue[i]]
            i += 1
            for y in (row[g], row[g - 1]):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)


def probe() -> float:
    """Seconds the fixed probe work takes right now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scaled(latencies: list, probes: list) -> list:
    """Each latency at reference speed; ``probes`` has one more entry than
    ``latencies``: probe i ran right before op i and right after op i-1."""
    return [x * PROBE_REF_S / ((probes[i] + probes[i + 1]) / 2) for i, x in enumerate(latencies)]
