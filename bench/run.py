"""The repgrowth benchmark: four seeded workloads, end to end and per layer.

    python3 bench/run.py --workload all --seed 1 --seconds 15
    python3 bench/run.py --workload zeta_primes_exact --seed 1 --seconds 15 --trace 1

Workloads (see workloads.py and README.md for why each is there):
zeta_primes_exact, slope_primes_log, diagonal_certificate, group_oracles.

Each run starts a fresh worker process (worker.py) that imports repgrowth
from this checkout's ``src/``, with ``REPGROWTH_THREADS`` and
``PYTHONPATH`` removed from its environment, and runs the workload's plan
in a closed loop with one client.  Every op's output is checked against
``refs/<workload>.json``; a mismatch counts as a failed op.

``--trace 0`` reports the end-to-end metrics.  Each op's latency is
scaled to a reference host speed, which a probe kernel measures around
every op (hostspeed.py), and then taken at its input's median over the
rounds.  throughput_ops_s is the number of grid inputs over the sum of
their median latencies, times the share of ops that passed their check;
op_p50_s is the median of the ops so taken; op_tail_s is the median
latency of the slowest input (the 100th percentile of the ops so taken).
peak_rss_mb is the worker's ``ru_maxrss``, and setup_s the median over
nine fresh workers of the time from spawning one until its first op is
ready.  The run record keeps the timings unscaled too, and the busy-time
throughput (passed ops over the sum of all latencies), which sees costs
paid in only some rounds.  ``--trace 1`` runs every op of half the plan
untraced and traced and reports the per-layer metrics from the spans.

Each run prints its metrics by name with units, writes a run record (and,
traced, the spans) under ``out/``, and prints one JSON object as its last
line.  It exits nonzero without a result when the checkout has no
``src/repgrowth`` or no references.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads  # imports no repgrowth code

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_PKG = os.path.join(ROOT, "src", "repgrowth")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

SETUP_SAMPLES = 9  # set-up-only workers per untraced run
RUN_DEADLINE_S = 170.0

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# span name -> whether its call count is reported next to its self time
LAYER_SPANS = (
    ("dirichlet.convolve", True),
    ("dirichlet.series_init", True),
    ("dirichlet.power_one_plus", True),
    ("char_tables.prime_power", True),
    ("char_tables.primes_from", False),
    ("char_tables.tables", True),
    ("growth.truncated_zeta", True),
    ("growth.unit_series", True),
    ("growth.empirical_slope", False),
    ("lie_data.model_xi", True),
    ("constructor.make_schedule", True),
    ("constructor.build_diagonal", False),
    ("finite_groups.group_build", True),
    ("finite_groups.closure", True),
    ("finite_groups.generating_tuple_count", False),
    ("finite_groups.automorphism_count", False),
    ("cli.load_spec", False),
    ("cli.emit", False),
    ("op", False),  # op time outside every wrapped layer
)


class HarnessError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# worker processes


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("REPGROWTH_THREADS", None)  # switches truncated_zeta onto a thread pool
    env.pop("PYTHONPATH", None)  # the worker imports repgrowth from src/ only
    return env


class _Lines:
    """Line reader on a pipe with a deadline."""

    def __init__(self, pipe):
        self.fd = pipe.fileno()
        self.buf = bytearray()

    def next(self, deadline: float) -> str:
        while b"\n" not in self.buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise HarnessError("worker timed out")
            ready, _, _ = select.select([self.fd], [], [], remaining)
            if ready:
                chunk = os.read(self.fd, 1 << 16)
                if not chunk:
                    raise HarnessError("worker exited early")
                self.buf += chunk
        line, _, rest = bytes(self.buf).partition(b"\n")
        self.buf = bytearray(rest)
        return line.decode()


def _spawn(args: list, deadline: float, setup_only: bool = False):
    """(set-up seconds, result dict or None) of one worker."""
    argv = [sys.executable, WORKER] + args + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT)
    try:
        lines = _Lines(proc.stdout)
        if lines.next(deadline) != "READY":
            raise HarnessError("worker did not report READY")
        setup_s = time.perf_counter() - t0
        result = None if setup_only else json.loads(lines.next(deadline))
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0:
            raise HarnessError(f"worker exited with code {code}")
        return setup_s, result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


# ---------------------------------------------------------------------------
# metrics


def median_by_input(plan: list, latencies: list) -> dict:
    """Grid key -> its median latency over the run's rounds."""
    by_key = {}
    for key, x in zip(plan, latencies):
        by_key.setdefault(key, []).append(x)
    return {key: statistics.median(xs) for key, xs in by_key.items()}


def end_to_end_metrics(result: dict, setup_raw: list, setup_scaled: list):
    """(metrics, the same timings unscaled) of an untraced worker result.

    Latencies are scaled to the host's reference speed (hostspeed.py).
    Each op then counts at its input's median over the rounds, so that the
    median and the tail fall on the same inputs in every run.  Both dicts
    also hold the busy-time throughput and the slowest input.
    """
    plan, raw_lat = result["plan"], result["latencies"]
    passed = len(raw_lat) - len(result["failures"])
    out = []
    for lat, setup_s in (
        (hostspeed.scaled(raw_lat, result["probes"]), setup_scaled),
        (raw_lat, setup_raw),
    ):
        by_input = median_by_input(plan, lat)
        slowest = max(by_input, key=by_input.get)
        out.append({
            "throughput_ops_s": passed / len(raw_lat) * len(by_input) / sum(by_input.values()),
            "op_p50_s": statistics.median(by_input[key] for key in plan),
            "op_tail_s": by_input[slowest],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setup_s),
            "busy_throughput_ops_s": passed / sum(lat),
            "op_tail_input": slowest,
        })
    return out[0], out[1]


def layer_metrics(result: dict) -> dict:
    """Per-layer metric name -> (value, unit), from a traced worker result."""
    layers, counts = result["layers"], result["counts"]
    out = {}
    for span, with_calls in LAYER_SPANS:
        row = layers.get(span, {"calls": 0, "self_ns": 0})
        if with_calls:
            out[f"{span}.calls"] = (row["calls"], "count")
        out[f"{span}.self_s"] = (row["self_ns"] / 1e9, "s")
    built = counts.get("dirichlet.series_init.entries", 0)
    returned = counts.get("growth.truncated_zeta.entries", 0)
    out["dirichlet.series_init.entries"] = (built, "count")
    out["dirichlet.entries_useful_ratio"] = (returned / built if built else 0.0, "ratio")
    out["char_tables.primes_from.primes"] = (
        counts.get("char_tables.primes_from.yields", 0), "count")
    out["cli.emit.bytes"] = (counts.get("cli.emit.bytes", 0), "B")
    untraced, traced = sum(result["latencies"]), sum(result["traced_latencies"])
    n = len(result["latencies"])
    out["trace.ops"] = (n, "count")
    out["trace.spans"] = (result["spans"], "count")
    out["trace.op_s"] = (layers["op"]["total_ns"] / 1e9, "s")
    out["trace.untraced_throughput_ops_s"] = (n / untraced, "1/s")
    out["trace.traced_throughput_ops_s"] = (n / traced, "1/s")
    out["trace.overhead_ratio"] = (traced / untraced - 1.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# run record


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # not a git checkout; src_sha256 identifies the code
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PKG)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(SRC_PKG, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}.seed{seed}.trace{trace}")

    setup_raw, setup_scaled = [], []

    def sample_setup(count):
        """Time set-up-only workers, each between two host probes."""
        probes, times = [hostspeed.probe()], []
        for _ in range(count):
            times.append(_spawn(args, deadline, setup_only=True)[0])
            probes.append(hostspeed.probe())
        setup_raw.extend(times)
        setup_scaled.extend(hostspeed.scaled(times, probes))

    # set-up samples before and after the measured worker, so that no one
    # spell of load decides their median
    if not trace:
        sample_setup(SETUP_SAMPLES // 2)
    extra = ["--trace", "1", "--spans-out", stem + ".spans.json.gz"] if trace else []
    worker_setup_s, result = _spawn(args + extra, deadline)
    if not trace:
        sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    failed = len(result["failures"])
    attempted = len(result["latencies"]) + len(result.get("traced_latencies", ()))
    e2e = raw = op_tail = None
    if trace:
        metrics = layer_metrics(result)
    else:
        e2e, raw = end_to_end_metrics(result, setup_raw, setup_scaled)
        metrics = {m: (e2e[m], unit) for m, unit in END_TO_END}
        op_tail = {
            "percentile": 100.0,
            "ops": len(result["latencies"]),
            "input": e2e["op_tail_input"],
            "samples": result["rounds"],
        }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": result["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "repgrowth_file": result["repgrowth_file"],
        "grid": result["grid"],
        "rounds": result["rounds"],
        "plan": result["plan"],
        "latencies_s": result["latencies"],
        "probes_s": result.get("probes"),
        "op_tail": op_tail,
        "busy_throughput_ops_s": e2e and e2e["busy_throughput_ops_s"],
        "tracing_overhead": metrics["trace.overhead_ratio"][0] if trace else None,
        "setup_s_raw": setup_raw,
        "setup_s_scaled": setup_scaled,
        "worker_setup_s": worker_setup_s,
        "unscaled": raw,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": result["failures"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2)
    record["record_path"] = os.path.relpath(stem + ".json", ROOT)
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  repgrowth from {record['repgrowth_file']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<42} {record['fail_ratio']:>14.6g} "
          f"({record['failed']} of {record['attempted']} ops)")
    tail_info = record["op_tail"]
    if tail_info is not None:
        print(f"  op_tail_s is p{tail_info['percentile']:.0f} of {tail_info['ops']} ops "
              f"taken at their input's median: {tail_info['input']}, "
              f"median of {tail_info['samples']}")
    print(f"  {record['rounds']} rounds over {len(record['grid'])} inputs")
    if record["tracing_overhead"] is not None:
        print(f"  tracing overhead {100 * record['tracing_overhead']:.1f}% of untraced op time")
    for f in record["failures"][:5]:
        print(f"  FAILED op {f['op']} {f['key']}: {f['why']}")
    print(f"  run record: {record['record_path']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not os.path.isfile(os.path.join(SRC_PKG, "__init__.py")):
        print(f"error: no repgrowth package at {os.path.relpath(SRC_PKG)}", file=sys.stderr)
        return 2
    missing = [n for n in names if not os.path.isfile(workloads.refs_path(n))]
    if missing:
        print(f"error: no references for {missing}; run bench/make_refs.py", file=sys.stderr)
        return 2
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except (HarnessError, subprocess.TimeoutExpired) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
