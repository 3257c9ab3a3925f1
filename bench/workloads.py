"""The four benchmark workloads.

Each workload has a grid of inputs, a nominal round time, a set-up step
that imports repgrowth and builds the inputs, the op itself, and a check
of the op's output against the stored reference in ``refs/<name>.json``.

A run executes a fixed plan: whole rounds, each round one pass over the
grid in an order shuffled by the seed.  Whole rounds keep the input mix
identical on every seed, so the seed moves the order (and, in
``group_oracles``, the exact k) but not the amount of work.  The number of
rounds is ``--seconds / round_s``, so a run lasts about ``--seconds`` at the
commit that defined the benchmark; a faster program finishes the same plan
sooner.  Keeping the plan fixed keeps the op count and the number of
samples behind each input's median the same on every commit.

repgrowth is imported inside ``setup`` only, so the parent process can
name the workloads without importing the program.  Ops look up every
repgrowth function through its module at call time, which is what lets
the traced mode swap in its wrappers.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(BENCH_DIR, "refs")

SLOPE_REL_TOL = 1e-9  # the log backend's documented agreement tolerance


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    round_s = 1.0  # one pass over the grid, host probes included: typical, 2-core machine

    def grid(self) -> Dict[str, tuple]:
        """Grid key -> the parameters of that input."""
        raise NotImplementedError

    def setup(self) -> dict:
        """Import repgrowth and build whatever the ops share."""
        raise NotImplementedError

    def draw(self, key: str, rng: random.Random):
        """The op input for one grid key; only draws from ``rng``."""
        return self.grid()[key]

    def run(self, state: dict, inp):
        raise NotImplementedError

    def check(self, state: dict, key: str, inp, out, ref) -> Optional[str]:
        """None when ``out`` matches the reference, else why it does not."""
        raise NotImplementedError

    def ref_key(self, key: str, inp) -> str:
        """The key of the stored reference that checks this op."""
        return key

    def reference(self, state: dict, key: str):
        """The stored reference for one grid key."""
        raise NotImplementedError

    def references(self, state: dict) -> dict:
        """Every stored reference, by ref_key (written by make_refs.py)."""
        return {key: self.reference(state, key) for key in sorted(self.grid())}

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def plan(self, seconds: float, seed: int) -> List[Tuple[str, object]]:
        rng = random.Random(seed)
        keys = sorted(self.grid())
        out = []
        for _ in range(self.rounds(seconds)):
            order = keys[:]
            rng.shuffle(order)
            out.extend((key, self.draw(key, rng)) for key in order)
        return out


def _import_repgrowth() -> dict:
    import repgrowth
    from repgrowth import cli, constructor, finite_groups, growth

    return {
        "repgrowth": repgrowth,
        "cli": cli,
        "constructor": constructor,
        "finite_groups": finite_groups,
        "growth": growth,
    }


class ZetaPrimesExact(Workload):
    name = "zeta_primes_exact"
    round_s = 5.2
    NS = (1000, 1500, 2000, 2500, 3000)
    # Emit is about 1% of an op, so the format is drawn per op instead of
    # doubling the round; each (N, format) pair has its own reference.
    FORMATS = ("json", "csv")

    def grid(self):
        return {f"N={n}": n for n in self.NS}

    def setup(self):
        state = _import_repgrowth()
        spec = state["growth"].sl2_over_primes_spec(3)
        state["spec_json"] = json.dumps(spec.to_jsonable())
        return state

    def draw(self, key, rng):
        return self.grid()[key], rng.choice(self.FORMATS)

    def ref_key(self, key, inp):
        return f"{key},format={inp[1]}"

    def run(self, state, inp):
        n, fmt = inp
        argv = ["zeta", "--spec", state["spec_json"], "--N", str(n), "--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = state["cli"].main(argv)
        return code, out.getvalue().encode()

    def check(self, state, key, inp, out, ref):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        if sha256(stdout) != ref["stdout_sha256"]:
            return "stdout differs from the reference bytes"
        return None

    def references(self, state):
        refs = {}
        for key, n in sorted(self.grid().items()):
            for fmt in self.FORMATS:
                code, stdout = self.run(state, (n, fmt))
                if code != 0:
                    raise RuntimeError(f"{key} {fmt}: exit code {code}")
                refs[self.ref_key(key, (n, fmt))] = {
                    "stdout_sha256": sha256(stdout),
                    "stdout_bytes": len(stdout),
                }
        return refs


class SlopePrimesLog(Workload):
    name = "slope_primes_log"
    round_s = 5.8
    DS = (4, 5)
    NS = (1000, 1500, 2000, 2500)

    def grid(self):
        return {f"d={d},N={n}": (d, n) for d in self.DS for n in self.NS}

    def setup(self):
        state = _import_repgrowth()
        state["specs"] = {d: state["growth"].sl2_over_primes_spec(d) for d in self.DS}
        return state

    def run(self, state, inp):
        d, n = inp
        return state["growth"].empirical_slope(state["specs"][d], n)

    @staticmethod
    def _dims_digest(report) -> str:
        return sha256(",".join(str(p.n) for p in report.points).encode())

    def check(self, state, key, inp, out, ref):
        if list(out.window) != ref["window"]:
            return f"window {out.window} != {ref['window']}"
        if self._dims_digest(out) != ref["dims_sha256"]:
            return "slope points sit at other dimensions"
        for p, want in zip(out.points, ref["slopes"]):
            if not math.isclose(p.slope, want, rel_tol=SLOPE_REL_TOL):
                return f"slope at n={p.n}: {p.slope!r} != {want!r}"
        if not math.isclose(out.windowed_max, ref["windowed_max"], rel_tol=SLOPE_REL_TOL):
            return f"windowed_max {out.windowed_max!r} != {ref['windowed_max']!r}"
        return None

    def reference(self, state, key):
        report = self.run(state, self.grid()[key])
        return {
            "window": list(report.window),
            "dims_sha256": self._dims_digest(report),
            "slopes": [p.slope for p in report.points],
            "windowed_max": report.windowed_max,
        }


class DiagonalCertificate(Workload):
    name = "diagonal_certificate"
    round_s = 1.26
    CASES = (
        (Fraction(2), 7, 5),
        (Fraction(3), 7, 5),
        (Fraction(5, 2), 6, 7),
        (Fraction(2), 6, 7),
    )

    def grid(self):
        return {f"rho={r},stages={s},p={p}": (r, s, p) for r, s, p in self.CASES}

    def setup(self):
        return _import_repgrowth()

    def run(self, state, inp):
        rho, stages, p = inp
        constructor = state["constructor"]
        return constructor.build_diagonal(
            rho, constructor.default_diagonal_targets(rho, stages, p)
        )

    @staticmethod
    def _digest(spec, cert) -> str:
        # the bytes `repgrowth construct diagonal` prints for this result
        obj = {"spec": spec.to_jsonable(), "certificate": cert.to_jsonable()}
        return sha256(json.dumps(obj, indent=2, sort_keys=True).encode())

    def check(self, state, key, inp, out, ref):
        spec, cert = out
        if not cert.complete:
            return "certificate is not complete"
        abscissa = state["growth"].exact_abscissa(spec).abscissa
        if abscissa != inp[0]:
            return f"exact_abscissa {abscissa} != rho {inp[0]}"
        if self._digest(spec, cert) != ref["sha256"]:
            return "spec or certificate JSON differs from the reference"
        return None

    def reference(self, state, key):
        spec, cert = self.run(state, self.grid()[key])
        return {"sha256": self._digest(spec, cert), "complete": cert.complete}


class GroupOracles(Workload):
    name = "group_oracles"
    round_s = 3.5
    DS = (2, 3)
    # k ranges with d(G^k) = 3, namely (phi_2/|Aut|, phi_3/|Aut|], and with
    # d(G^k) = 4, up to twice phi_3/|Aut|; make_refs.py checks both ends.
    CASES = {
        "A5,d=3": ("A5", (20, 1668), 3),
        "A5,d=4": ("A5", (1669, 3336), 4),
        "SL2_5": ("SL2_5", None, None),
        "PSL2_7,d=3": ("PSL2_7", (58, 13368), 3),
        "PSL2_7,d=4": ("PSL2_7", (13369, 26736), 4),
    }

    def grid(self):
        return {key: (group, k_range) for key, (group, k_range, _) in self.CASES.items()}

    def setup(self):
        return _import_repgrowth()

    def draw(self, key, rng):
        group, k_range = self.grid()[key]
        return group, None if k_range is None else rng.randint(*k_range)

    @staticmethod
    def build(state, group: str):
        # the public constructors, never get_group: it memoizes instances
        # for the process, and each instance caches its phi values
        fg = state["finite_groups"]
        if group == "A5":
            return fg.alternating_group_5()
        if group == "SL2_5":
            return fg.sl2_group(5)
        return fg.psl2_group(7)

    def run(self, state, inp):
        group, k = inp
        fg = state["finite_groups"]
        G = self.build(state, group)
        counts = fg.counts_jsonable(G, list(self.DS))
        d = None if k is None else fg.min_generators_power(G, k)
        return counts, d

    def check(self, state, key, inp, out, ref):
        counts, d = out
        want = {"group": ref["group"], "phi": ref["phi"], "aut": ref["aut"]}
        if counts != want:
            return f"counts {counts} != {want}"
        if d != ref["d"]:
            return f"d(G^{inp[1]}) = {d} != {ref['d']}"
        return None

    def reference(self, state, key):
        group, k_range, d_want = self.CASES[key]
        fg = state["finite_groups"]
        counts, _ = self.run(state, (group, None))
        if k_range is not None:
            for k in k_range:
                d = fg.min_generators_power(self.build(state, group), k)
                if d != d_want:
                    raise RuntimeError(f"{key}: d(G^{k}) = {d}, grid expects {d_want}")
        return {**counts, "d": d_want}


WORKLOADS = {
    w.name: w
    for w in (ZetaPrimesExact(), SlopePrimesLog(), DiagonalCertificate(), GroupOracles())
}


def refs_path(name: str) -> str:
    return os.path.join(REFS_DIR, f"{name}.json")


def load_refs(name: str) -> dict:
    with open(refs_path(name)) as fh:
        return json.load(fh)
