"""Regenerate the stored references in refs/ from the current src/.

    python3 bench/make_refs.py [workload ...]

Run it only when the benchmark's grids change: the references pin the
outputs of the commit that defined them, and a later change to repgrowth
must reproduce them (bit for bit on the exact backend, within 1e-9
relative error for slopes).
"""
from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    os.makedirs(workloads.REFS_DIR, exist_ok=True)
    for name in names:
        w = workloads.WORKLOADS[name]
        state = w.setup()
        refs = w.references(state)
        with open(workloads.refs_path(name), "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(refs)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
