"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/tests
"""
import json
import os
import statistics
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import repgrowth  # noqa: E402
# cli too, so that installing the tracer imports no module the snapshot misses
from repgrowth import char_tables, cli, constructor, dirichlet, finite_groups, growth  # noqa: E402,F401

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def _bindings():
    """Every attribute of every repgrowth module and traced class, by identity."""
    out = {}
    for m in tracing._package_modules():
        for attr, value in vars(m).items():
            out[(m.__name__, attr)] = value
    for cls in (dirichlet.DirichletSeries, growth.FactorSpec, finite_groups.ConcreteGroup):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def test_wrappers_cover_from_imports_and_restore_cleanly():
    before = _bindings()
    originals = {
        "prime_power": char_tables.prime_power,
        "convolve": dirichlet.convolve,
        "power_one_plus": dirichlet.power_one_plus,
        "primes_from": char_tables.primes_from,
    }
    tracer = Tracer()
    with tracer.installed():
        for owner in (char_tables, growth, constructor):
            assert owner.prime_power is not originals["prime_power"]
        assert growth.prime_power is char_tables.prime_power is constructor.prime_power
        for name in ("convolve", "power_one_plus"):
            assert getattr(growth, name) is getattr(dirichlet, name) is getattr(repgrowth, name)
            assert getattr(growth, name) is not originals[name]
        assert growth.primes_from is char_tables.primes_from is not originals["primes_from"]
        assert dirichlet.DirichletSeries.__init__ is not before[("DirichletSeries", "__init__")]
        with pytest.raises(RuntimeError):
            tracer.install()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_call_records_layers_and_keeps_output():
    spec = growth.sl2_over_primes_spec(3)
    want = growth.truncated_zeta(spec, 60)
    tracer = Tracer()
    with tracer.installed(), tracer.op(7):
        got = growth.truncated_zeta(spec, 60)
    assert got == want
    summary = tracing.summarize(tracer.spans)
    assert summary["growth.truncated_zeta"]["calls"] == 1
    assert summary["dirichlet.convolve"]["calls"] >= 1
    assert summary["char_tables.prime_power"]["calls"] >= 1
    assert tracer.counts["char_tables.primes_from.yields"] == summary["char_tables.primes_from"]["calls"]
    assert tracer.counts["growth.truncated_zeta.entries"] == len(want)
    assert all(s.op == 7 for s in tracer.spans)
    roots = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in roots] == [tracing.OP]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 40, 0, 0),
        Span("leaf", 15, 20, 1, 0),
        Span("b", 30, 60, 0, 0),   # overlaps a: the union covers [10, 60]
        Span("c", 90, 120, 0, 0),  # runs past the root: clipped to [90, 100]
        Span("a", 70, 80, 0, 0),
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10 - 10, 25, 5, 30, 30, 10]
    summary = tracing.summarize(spans)
    assert summary["a"] == {"calls": 2, "self_ns": 35, "total_ns": 40}
    assert summary["root"]["self_ns"] == 30


def test_corrupted_output_counts_as_failed_without_aborting(monkeypatch, capsys):
    w = workloads.WORKLOADS["diagonal_certificate"]
    refs = workloads.load_refs(w.name)
    bad_key = sorted(refs)[0]
    corrupted = dict(refs, **{bad_key: {"sha256": "0" * 64, "complete": True}})
    monkeypatch.setattr(workloads, "load_refs", lambda name: corrupted)
    assert worker.main(["--workload", w.name, "--seed", "3", "--seconds", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "READY"
    result = json.loads(lines[-1])
    assert len(result["latencies"]) == len(w.grid())
    assert [f["key"] for f in result["failures"]] == [bad_key]
    assert "differs from the reference" in result["failures"][0]["why"]


def test_raising_op_is_a_failed_op():
    w = workloads.WORKLOADS["group_oracles"]
    state = w.setup()
    latency, err = worker._run_op(w, state, "A5,d=3", ("A5", 0), None)
    assert latency >= 0
    assert err.startswith("raised PreconditionError")


def test_plan_is_seeded_and_balanced():
    w = workloads.WORKLOADS["group_oracles"]
    a, b = w.plan(30, seed=5), w.plan(30, seed=5)
    assert a == b
    assert a != w.plan(30, seed=6)
    keys = [key for key, _ in a]
    grid = sorted(w.grid())
    assert sorted(keys) == sorted(grid * w.rounds(30))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tail_is_the_slowest_input_on_a_plan_of_the_real_size(name):
    w = workloads.WORKLOADS[name]
    plan = [key for key, _ in w.plan(_benchmark_json()["run_seconds"], seed=11)]
    # every op at a latency of its own: slower inputs, jitter, one outlier
    speed = {key: 1.0 + i for i, key in enumerate(sorted(w.grid()))}
    latencies = [speed[key] * (1 + 0.05 * (i % 3)) for i, key in enumerate(plan)]
    latencies[0] *= 20
    result = {
        "plan": plan,
        "latencies": latencies,
        "probes": [hostspeed.PROBE_REF_S] * (len(plan) + 1),
        "failures": [],
        "peak_rss_kb": 1024,
    }
    e2e, raw = run.end_to_end_metrics(result, [1.0], [1.0])
    assert e2e == pytest.approx(raw)
    slowest = max(speed, key=speed.get)
    assert e2e["op_tail_input"] == slowest
    own = [x for key, x in zip(plan, latencies) if key == slowest]
    assert e2e["op_tail_s"] == pytest.approx(statistics.median(own))
    assert e2e["op_tail_s"] > e2e["op_p50_s"]
    assert e2e["busy_throughput_ops_s"] < e2e["throughput_ops_s"]


def test_benchmark_json_names_every_printed_metric():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    fake = {
        "layers": {"op": {"calls": 1, "self_ns": 1, "total_ns": 2}},
        "counts": {},
        "latencies": [1.0],
        "traced_latencies": [1.5],
        "spans": 1,
    }
    printed = [(name, unit) for name, (_, unit) in run.layer_metrics(fake).items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == printed


def test_scaling_divides_by_the_probes_around_each_op():
    ref = hostspeed.PROBE_REF_S
    got = hostspeed.scaled([1.0, 3.0], [ref, 3 * ref, ref])
    assert got == pytest.approx([0.5, 1.5])
    assert hostspeed.probe() > 0
