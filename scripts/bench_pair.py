"""Alternated benchmark runs of a base revision and the working tree.

    python3 scripts/bench_pair.py --pr 12 --pairs 5 --seconds 10

The base revision (``--base``, default HEAD) is checked out in a temporary
``git worktree``, or taken from ``--base-dir`` when a checkout of it is at
hand.  For each workload, ``bench/run.py --workload W --seed S --seconds T``
runs N times in each tree, one process at a time, in N pairs; the base runs
first in even pairs and second in odd ones, so that any effect of running
first falls on both sides.  Before each run the tree's ``__pycache__``
directories are removed, so that both sides start, as a fresh checkout
would, without bytecode of their own files: bytecode left in one tree
would shorten its imports, and so its ``setup_s``, by the modules it
covers.  The median and interquartile range of every end-to-end metric of
``BENCHMARK.json``, on both sides, and in how many pairs the working tree
did better, go to ``BENCH_<pr>.json`` at the root of the working tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import numpy as np

from base_tree import ROOT, base_tree


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``, without the tree's bytecode:
    its last line, the harness's JSON summary."""
    for top, dirs, _ in os.walk(tree):
        dirs[:] = [d for d in dirs if d != ".git"]
        if "__pycache__" in dirs:
            dirs.remove("__pycache__")
            shutil.rmtree(os.path.join(top, "__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds)],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": values}


def bench_pairs(base_dir: str, workloads, metrics: dict, seed: int, seconds: float,
                pairs: int) -> dict:
    out = {}
    for workload in workloads:
        runs = {"base": [], "change": []}
        for n in range(pairs):
            sides = (("base", base_dir), ("change", ROOT))
            for side, tree in sides if n % 2 == 0 else sides[::-1]:
                result = _run(tree, workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{side} run {n} of {workload} failed its checks")
                runs[side].append({name: m["value"] for name, m in result["metrics"].items()})
                print(f"{workload} pair {n} {side}: " + ", ".join(
                    f"{name}={runs[side][-1][name]:.6g}" for name in metrics), flush=True)
        entry = {}
        for name, better in metrics.items():
            base = [r[name] for r in runs["base"]]
            change = [r[name] for r in runs["change"]]
            wins = sum((c > b) if better == "higher" else (c < b) for b, c in zip(base, change))
            entry[name] = {"base": _summary(base), "change": _summary(change),
                           "change_better_pairs": wins}
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--base-dir", help="an existing checkout of the base revision")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    base = subprocess.run(["git", "rev-parse", "--short", args.base], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()
    with base_tree(base, args.base_dir) as base_dir:
        results = bench_pairs(base_dir, workloads, metrics, args.seed, args.seconds,
                              args.pairs)
    doc = {"base": base, "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
           "order": "base first in even pairs, change first in odd", "workloads": results}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
