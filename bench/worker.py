"""One workload run in a fresh process; started by run.py, not by hand.

Protocol on stdout: the line ``READY`` once repgrowth is imported and the
inputs are built (run.py times set-up up to that line), then, unless
``--setup-only``, one JSON line with the raw results.  Everything else the
program prints goes to in-memory buffers.

The loop is closed with one client: each op starts when the previous one
has returned and been checked.  A failed op (it raised, exited nonzero or
gave output that differs from the reference) is recorded and the run goes
on.  Untraced, the host probe (hostspeed.py) runs before every
op and after the last one, outside the timed region.  With ``--trace 1``
every op runs twice, untraced and traced, in alternating order; the traced
copies give the per-layer numbers and the pair gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _run_op(w, state, key, inp, ref, tracer=None, op_id=None):
    """(latency in s, failure reason or None).

    Installing the wrappers and checking the output are not timed.
    """
    err = None
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            with tracer.op(op_id) if tracer else contextlib.nullcontext():
                out = w.run(state, inp)
        except Exception as e:  # a raising op is a failed op, not a failed run
            err = f"raised {type(e).__name__}: {e}"
        latency = time.perf_counter() - t0
    if err is None:
        try:
            err = w.check(state, key, inp, out, ref)
        except Exception as e:
            err = f"check raised {type(e).__name__}: {e}"
    return latency, err


def _write_spans(path: str, spans) -> None:
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0].start if spans else 0
    with gzip.open(path, "wt") as fh:
        json.dump(
            {
                "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "names": names,
                "spans": [
                    [index[s.name], s.start - t0, s.end - t0, s.parent, s.op] for s in spans
                ],
            },
            fh,
            separators=(",", ":"),
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import workloads

    w = workloads.WORKLOADS[args.workload]
    state = w.setup()
    if not state["repgrowth"].__file__.startswith(SRC + os.sep):
        print(f"repgrowth imported from {state['repgrowth'].__file__}, not {SRC}", file=sys.stderr)
        return 3
    # a traced run runs every op twice, so it takes half the plan
    seconds = args.seconds / 2 if args.trace else args.seconds
    plan = w.plan(seconds, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import hostspeed
    import tracing

    refs = workloads.load_refs(w.name)
    tracer = tracing.Tracer() if args.trace else None
    latencies, traced_latencies, failures = [], [], []
    probes = None if tracer else []
    for op_id, (key, inp) in enumerate(plan):
        runs = [None] if tracer is None else [None, tracer]
        if op_id % 2:
            runs.reverse()
        for t in runs:
            # Collect the cyclic garbage of earlier ops (argparse parsers,
            # group tables) so that no op pays for its predecessor's cycles
            # and peak RSS does not depend on when the collector ran.
            gc.collect()
            if probes is not None:
                probes.append(hostspeed.probe())
            ref = refs.get(w.ref_key(key, inp))
            latency, err = _run_op(w, state, key, inp, ref, t, op_id)
            (latencies if t is None else traced_latencies).append(latency)
            if err is not None:
                failures.append({"op": op_id, "key": key, "traced": t is not None, "why": err})

    result = {
        "repgrowth_file": os.path.relpath(state["repgrowth"].__file__, ROOT),
        "python": sys.version.split()[0],
        "grid": sorted(w.grid()),
        "rounds": w.rounds(seconds),
        "plan": [key for key, _ in plan],
        "latencies": latencies,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is None:
        result["probes"] = probes + [hostspeed.probe()]
    else:
        result["traced_latencies"] = traced_latencies
        result["layers"] = tracing.summarize(tracer.spans)
        result["counts"] = dict(tracer.counts)
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            _write_spans(args.spans_out, tracer.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
