"""Span tracing at repgrowth's layer boundaries, installed from outside.

The traced mode replaces the layer-boundary functions of each repgrowth
module with wrappers that record one span per call (name, start, end,
parent span, op id) and restores the originals afterwards; no code under
``src/`` knows about it.  A module function is replaced under every name
that binds it in any repgrowth module, so the from-imports (``prime_power``
in ``char_tables``, ``growth`` and ``constructor``; ``convolve`` and
``power_one_plus`` in ``dirichlet`` and ``growth``; everything re-exported
by the package) are traced too.  ``primes_from`` is a generator: each
``next()`` on it is one span.

Spans stay in memory; the worker writes them out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from typing import Dict, List, NamedTuple, Optional


def _count_series_entries(counts, args, result):
    counts["dirichlet.series_init.entries"] += len(args[0])


def _count_result_entries(counts, args, result):
    counts["growth.truncated_zeta.entries"] += len(result)


def _count_emit_bytes(counts, args, result):
    counts["cli.emit.bytes"] += len(args[1].encode())


class Target(NamedTuple):
    span: str
    module: str
    attr: str
    owner: Optional[str] = None  # class name for a method
    generator: bool = False
    hook: Optional[object] = None  # hook(counts, args, result) after the call


TARGETS = (
    Target("dirichlet.series_init", "repgrowth.dirichlet", "__init__", "DirichletSeries",
           hook=_count_series_entries),
    Target("dirichlet.convolve", "repgrowth.dirichlet", "convolve"),
    Target("dirichlet.power_one_plus", "repgrowth.dirichlet", "power_one_plus"),
    Target("char_tables.prime_power", "repgrowth.char_tables", "prime_power"),
    Target("char_tables.primes_from", "repgrowth.char_tables", "primes_from", generator=True),
    Target("char_tables.tables", "repgrowth.char_tables", "sl2_table"),
    Target("char_tables.tables", "repgrowth.char_tables", "psl2_table"),
    Target("char_tables.tables", "repgrowth.char_tables", "zeta_series"),
    Target("lie_data.model_xi", "repgrowth.lie_data", "model_xi"),
    Target("growth.truncated_zeta", "repgrowth.growth", "truncated_zeta",
           hook=_count_result_entries),
    Target("growth.unit_series", "repgrowth.growth", "unit_series", "FactorSpec"),
    Target("growth.empirical_slope", "repgrowth.growth", "empirical_slope"),
    Target("constructor.make_schedule", "repgrowth.constructor", "make_schedule"),
    Target("constructor.build_diagonal", "repgrowth.constructor", "build_diagonal"),
    Target("finite_groups.group_build", "repgrowth.finite_groups", "alternating_group_5"),
    Target("finite_groups.group_build", "repgrowth.finite_groups", "sl2_group"),
    Target("finite_groups.group_build", "repgrowth.finite_groups", "psl2_group"),
    Target("finite_groups.closure", "repgrowth.finite_groups", "closure", "ConcreteGroup"),
    Target("finite_groups.generating_tuple_count", "repgrowth.finite_groups",
           "generating_tuple_count"),
    Target("finite_groups.automorphism_count", "repgrowth.finite_groups",
           "automorphism_count"),
    Target("cli.load_spec", "repgrowth.cli", "_load_spec"),
    # _emit_json serializes and calls _emit, which writes: both are emit
    Target("cli.emit", "repgrowth.cli", "_emit_json"),
    Target("cli.emit", "repgrowth.cli", "_emit", hook=_count_emit_bytes),
)

OP = "op"  # the root span of each op


class Span(NamedTuple):
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into the span list, -1 for a root
    op: Optional[int]


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repgrowth" or name.startswith("repgrowth."))
    ]


class Tracer:
    """Records spans while installed; ``restore`` puts every original back."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._open: List[list] = []  # [index, name, start, parent] of open spans
        self._op: Optional[int] = None
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _begin(self, name: str) -> list:
        parent = self._open[-1][0] if self._open else -1
        rec = [len(self.spans), name, 0, parent]
        self.spans.append(None)  # keeps span indices in start order
        self._open.append(rec)
        rec[2] = time.perf_counter_ns()
        return rec

    def _end(self, rec: list) -> None:
        end = time.perf_counter_ns()
        self._open.pop()
        self.spans[rec[0]] = Span(rec[1], rec[2], end, rec[3], self._op)

    @contextlib.contextmanager
    def op(self, op_id: int):
        self._op = op_id
        rec = self._begin(OP)
        try:
            yield
        finally:
            self._end(rec)
            self._op = None

    def wrap(self, name: str, fn, hook=None):
        begin, end, counts = self._begin, self._end, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(rec)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        begin, end, counts = self._begin, self._end, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = begin(name)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    end(rec)
                counts[name + ".yields"] += 1
                yield value

        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for t in TARGETS:
                module = importlib.import_module(t.module)
                if t.owner is not None:
                    cls = getattr(module, t.owner)
                    original = cls.__dict__[t.attr]
                    setattr(cls, t.attr, self.wrap(t.span, original, t.hook))
                    self._patches.append((cls, t.attr, original))
                    continue
                original = getattr(module, t.attr)
                if t.generator:
                    wrapper = self.wrap_generator(t.span, original)
                else:
                    wrapper = self.wrap(t.span, original, t.hook)
                for m in _package_modules():
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def self_times(spans: List[Span]) -> List[int]:
    """Per span: its duration minus the part of it that its children cover.

    Children are merged as intervals, clipped to the parent, so overlapping
    or out-of-range children never count twice or below zero.
    """
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def summarize(spans: List[Span]) -> Dict[str, dict]:
    """Span name -> {"calls": n, "self_ns": total self time, "total_ns": ...}."""
    out: Dict[str, dict] = {}
    for s, self_ns in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "self_ns": 0, "total_ns": 0})
        row["calls"] += 1
        row["self_ns"] += self_ns
        row["total_ns"] += s.end - s.start
    return out
