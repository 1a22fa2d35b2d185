"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 bench/sweep.py                         # every workload, seed 1
    python3 bench/sweep.py --seeds 1-10 --write bench/baseline.json
    python3 bench/sweep.py --seeds 1-3 --trace 1

Each run is ``bench/run.py`` in its own process, one after another, for
every workload of BENCHMARK.json at its ``run_seconds``; its table is
passed through.  The summary gives, per workload and metric, the
median over seeds and the spread (third minus first quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median) next to
the bound from BENCHMARK.json.  Exits 1 when any run fails or any output
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description="benchmark sweep over seeds")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    ok, report = True, {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            results.append(result)
        if not results:
            continue
        metrics = {}
        for name, first in results[0]["metrics"].items():
            metrics[name] = {"unit": first["unit"], **summarise(
                [r["metrics"][name]["value"] for r in results])}
        report[workload] = {
            "runs": len(results), "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results), "metrics": metrics}

    print(f"\nsummary over seeds {args.seeds} ({seconds} s runs, "
          f"trace={args.trace})")
    print(f"{'workload':16s} {'metric':42s} {'median':>12s} {'unit':10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for workload, rep in report.items():
        for name, m in rep["metrics"].items():
            spread = m.get("spread")
            bound = bounds.get(name)
            flag = " !" if spread is not None and bound and spread > bound / 3 else ""
            print(f"{workload:16s} {name:42s} {m['median']:12.6g} {m['unit']:10s} "
                  f"{'-' if spread is None else format(spread, '7.4f'):>7s} "
                  f"{'-' if bound is None else format(bound, '6.3f'):>6s}{flag}")
    if args.write:
        import run  # the machine record needs the package's numpy and scipy
        with open(args.write, "w") as fh:
            json.dump({"machine": run.machine(), "seeds": args.seeds,
                       "seconds": seconds, "trace": args.trace,
                       "workloads": report}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
