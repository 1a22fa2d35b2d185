"""arclink benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload optical-survey --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: set-up time of
a fresh interpreter, CLI batch throughput and peak memory, per-pair latency
through the library API, and the accuracy of the CLI's output on the
workload's fixed accuracy panel against the generator's truth.  The three
timed metrics are stated at reference speed (see pace.py): the machine
runs the same work up to twice slower in spells, and wall times spread
more between runs than the bounds allow.  Their wall-clock values are
printed in the table as ``*_wall``.  With
``--trace 1`` it alternates untraced and traced passes of the CLI over the
same batches and reports per-layer metrics, their times at reference speed
too.

Every run checks the CLI's documents (schema, exit codes).  The untraced
run also requires the CLI's solutions to equal the library loop's.  A
table of every metric, with unit and sample count, is printed first; the
last line of standard output is one JSON object for the harness:
``{"correct", "attempted", "failed", "metrics"}``.

All files go under ``.bench_run/`` at the root of the checkout.  Load is
one process at a time, single BLAS thread, no pool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checkout
import generate
import numpy as np
import scipy

import check
import pace
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# name -> unit, in print order; names match BENCHMARK.json
END_TO_END = {
    "pairs_per_s": "pairs/s", "pair_ms_mean": "ms", "setup_s": "s",
    "peak_rss_mb": "MiB", "link_recall": "fraction",
    "range_digits_p50": "digits", "range_digits_mean": "digits",
}
# Printed and recorded but not gated.  A pair's cost is close to a step
# function of its number of solutions, and pair_ms_p50/p95 sit on the steps
# between pairs with one, two and three of them: across seeds a few pairs
# changing step move them by a quarter, so pair_ms_mean is gated instead.
# The worst digits of a run (p10, min) hang on one or two ill-conditioned
# geometries of the panel (6-7 digits at baseline, against a median of
# 13-15); range_digits_mean carries the tail.
# false_links_per_kpair and pair_fail_frac read 0 on the baseline, and no
# bound can be set relative to a median of 0 (pair_fail_frac is also the
# harness's failed/attempted).
REPORTED = {"pairs_per_s_wall": "pairs/s", "pair_ms_mean_wall": "ms",
            "setup_s_wall": "s", "pair_ms_p50": "ms", "pair_ms_p95": "ms",
            "range_digits_p10": "digits", "range_digits_min": "digits",
            "false_links_per_kpair": "count/1000", "pair_fail_frac": "fraction"}
# Metrics of the traced run; names match BENCHMARK.json's per_layer.
LAYER_UNITS = {
    **{name: "ms" for name in tracing.LAYER_TIMES},
    **{name: "ms" for name in tracing.BATCH_TIMES},
    "polynomials.det_evals_per_pair": "count",
    "polynomials.real_positive_roots_per_pair": "count",
    "optical.coefficients_per_pair": "count",
    "optical.candidates_per_pair": "count",
    "optical.accept_ratio": "fraction",
    "radar.roots_per_pair": "count",
    "kepler.elements_calls_per_solution": "count",
    "covariance.jacobians_per_solution": "count",
    "covariance.ill_conditioned_frac": "fraction",
    "selection.scored_per_pair": "count",
    "selection.selected_ratio": "fraction",
    "selection.unselectable_frac": "fraction",
    "geometry.basis_calls_per_pair": "count",
    "attributables.ephemeris_calls_per_pair": "count",
    "trace.overhead_frac": "fraction",
}


class RunError(Exception):
    """A phase of the run could not produce a result."""


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "blas_threads": BLAS_ENV, "processes": 1}


class Phases:
    """Runs the timed phases as child interpreters under one deadline."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {**os.environ, **BLAS_ENV}

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunError("out of time")
        return left

    def worker(self, phase: str, budget: float = 0.0) -> dict:
        log = os.path.join(self.workdir, f"{phase}.log")
        with open(log, "w") as fh:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"), phase,
                     self.workdir, "--budget", repr(budget)],
                    stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                    timeout=self._remaining())
            except subprocess.TimeoutExpired:
                raise RunError(f"{phase} phase timed out") from None
        if proc.returncode != 0:
            with open(log) as fh:
                tail = fh.read()[-2000:]
            raise RunError(f"{phase} phase exited {proc.returncode}:\n{tail}")
        with open(os.path.join(self.workdir, f"{phase}.json")) as fh:
            return json.load(fh)


def _documents(workdir, batches, passes, method, where="cli", label="batch"):
    """Load and check the first pass's CLI documents; count failed pairs."""
    problems, docs, failed = [], [], 0
    first = passes[0]
    for b, (batch, res) in enumerate(zip(batches, first)):
        if res["crash"] is not None:
            problems.append(f"{label} {b}: CLI crashed:\n{res['crash']}")
            failed += res["pairs"]
            docs.append({"solutions": [], "errors": []})
            continue
        with open(os.path.join(workdir, where, f"batch{b}.json")) as fh:
            doc = json.load(fh)
        problems += [f"{label} {b}: {p}" for p in check.check_document(
            doc, res["exit"], batch["n1"], batch["n2"], method)]
        failed += len(doc.get("errors", []))
        docs.append(doc)
    for k, other in enumerate(passes[1:], 1):
        if [r["exit"] for r in other] != [r["exit"] for r in first]:
            problems.append(f"pass {k}: exit codes differ from the first pass")
    return docs, failed, problems


def _accuracy_metrics(panel_docs, batch_docs, manifest, truth) -> tuple[dict, dict]:
    """Recall and range digits on the accuracy panel; false links on the
    timed batches, whose non-link pairs are the bulk of the traffic."""
    acc = check.accuracy(panel_docs, truth["panel"], [1] * len(panel_docs))
    recalled = acc["recalled_digits"]
    values = {
        "link_recall": acc["recalled"] / acc["true_pairs"],
        "range_digits_p50": float(np.median(acc["all_digits"])),
        "range_digits_mean": float(np.mean(recalled)) if recalled else 0.0,
        "range_digits_p10": float(np.percentile(recalled, 10)) if recalled else 0.0,
        "range_digits_min": min(recalled) if recalled else 0.0,
    }
    samples = {"link_recall": acc["true_pairs"], "range_digits_p50": acc["true_pairs"],
               "range_digits_mean": len(recalled), "range_digits_p10": len(recalled),
               "range_digits_min": len(recalled)}
    if manifest["covariances"]:
        acc = check.accuracy(batch_docs, truth["links"],
                             [b["n1"] * b["n2"] for b in manifest["batches"]])
        values["false_links_per_kpair"] = 1e3 * acc["false_links"] / acc["nonlink_pairs"]
        samples["false_links_per_kpair"] = acc["nonlink_pairs"]
    return values, samples


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Run one benchmark; return (values, units, samples, result, problems,
    pass walls)."""
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = os.path.join(workdir, "inputs")
    manifest = generate.generate(workload, seed, inputs)
    with open(os.path.join(inputs, "truth.json")) as fh:
        truth = json.load(fh)
    method = "radar-optical" if manifest["command"] == "link-radar-optical" else "optical"
    batch_pairs = sum(b["n1"] * b["n2"] for b in manifest["batches"])
    attempted = batch_pairs if trace else batch_pairs + len(manifest["panel"])
    phases = Phases(workdir)
    values, samples = {}, {}

    if trace:
        traced = phases.worker("trace", seconds)
        passes = traced["traced"]
        docs, failed, problems = _documents(workdir, manifest["batches"], passes, method)
        values.update(traced["layers"])
        # Each traced pass against the untraced pass just before it, both
        # at reference speed; the median over the rounds.
        walls = {kind: [sum(pace.reference_seconds(r["wall_s"], r["spent_s"], r["slices"])
                            for r in p) for p in traced[kind]]
                 for kind in ("untraced", "traced")}
        ratios = [t / u for u, t in zip(walls["untraced"], walls["traced"])]
        values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        units = LAYER_UNITS
        pairs = sum(r["pairs"] for r in passes[0])
        samples = {name: pairs * len(passes) for name in values}
        samples.update({name: len(passes[0]) * len(passes) for name in tracing.BATCH_TIMES})
        pass_walls = {"untraced_ref_s": walls["untraced"], "traced_ref_s": walls["traced"]}
    else:
        measured = phases.worker("measure", seconds)
        passes = measured["cli"]
        docs, failed, problems = _documents(workdir, manifest["batches"], passes, method)
        panel_docs, panel_failed, panel_problems = _documents(
            workdir, manifest["panel"], [measured["panel"]], method, "panel", "panel")
        failed += panel_failed
        problems += panel_problems
        for b, (doc, lib) in enumerate(zip(docs, measured["batches"])):
            problems += [f"batch {b}: {p}" for p in check.compare(doc, lib)]
        # Every pass counts: the panel run before them called every code
        # path of the pair loop.  Each wall time is brought to reference
        # speed by the slices that fell into it.
        cli_wall = [sum(r["wall_s"] - r["spent_s"] for r in p) for p in passes]
        cli_ref = [sum(pace.reference_seconds(r["wall_s"], r["spent_s"], r["slices"])
                       for r in p) for p in passes]
        pair_wall, pair_ms = [], []
        for lib in (batch for pass_ in measured["library"] for batch in pass_):
            lat = np.asarray(lib["latencies_s"])
            pair_wall.append(1e3 * lat)
            pair_ms.append(1e3 * lat * pace.speed_factor(lib["spent_s"], lib["slices"]))
        pair_wall, pair_ms = np.concatenate(pair_wall), np.concatenate(pair_ms)
        setup = measured["setup"]
        values.update({
            "pairs_per_s": batch_pairs * len(passes) / sum(cli_ref),
            "pair_ms_mean": float(np.mean(pair_ms)),
            "pair_ms_p50": float(np.percentile(pair_ms, 50)),
            "pair_ms_p95": float(np.percentile(pair_ms, 95)),
            "setup_s": statistics.median(
                pace.reference_seconds(p["wall_s"], p["spent_s"], p["slices"])
                for p in setup),
            "pairs_per_s_wall": batch_pairs * len(passes) / sum(cli_wall),
            "pair_ms_mean_wall": float(np.mean(pair_wall)),
            "setup_s_wall": statistics.median(p["wall_s"] - p["spent_s"] for p in setup),
            "peak_rss_mb": measured["peak_rss_kib"] / 1024.0,
        })
        pass_walls = {"cli_s": cli_wall, "cli_ref_s": cli_ref,
                      "library_s": [sum(sum(b["latencies_s"]) for b in pass_)
                                    for pass_ in measured["library"]]}
        samples.update({"pairs_per_s": len(passes) * len(passes[0]),
                        "pairs_per_s_wall": len(passes) * len(passes[0]),
                        "pair_ms_mean": pair_ms.size, "pair_ms_mean_wall": pair_ms.size,
                        "pair_ms_p50": pair_ms.size, "pair_ms_p95": pair_ms.size,
                        "setup_s": len(setup), "setup_s_wall": len(setup),
                        "peak_rss_mb": 1})
        acc_values, acc_samples = _accuracy_metrics(panel_docs, docs, manifest, truth)
        values.update(acc_values)
        samples.update(acc_samples)
        units = {**END_TO_END, **REPORTED}

    if not trace:
        values["pair_fail_frac"] = failed / attempted
        samples["pair_fail_frac"] = attempted
    gated = LAYER_UNITS if trace else END_TO_END
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": gated[name]}
                          for name in gated}}
    return values, units, samples, result, problems, pass_walls


def print_table(workload, seed, seconds, trace, env, values, units, samples, problems):
    print(f"arclink benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={int(trace)}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':44s} {'value':>14s}  {'unit':10s} {'samples':>7s}")
    for name, unit in units.items():
        if name in values:
            print(f"{name:44s} {values[name]:14.6g}  {unit:10s} {samples[name]:7d}")
        else:
            print(f"{name:44s} {'n/a':>14s}  {unit:10s} {0:7d}")
    if problems:
        print(f"output checks FAILED ({len(problems)} problem(s)):")
        for p in problems[:20]:
            print(f"  {p}")
    else:
        print("output checks passed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="arclink benchmark, one run")
    parser.add_argument("--workload", choices=sorted(generate.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time, shared by CLI and library passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    workdir = os.path.join(str(checkout.ROOT), ".bench_run",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = machine()
    try:
        values, units, samples, result, problems, pass_walls = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print_table(args.workload, args.seed, args.seconds, args.trace, env,
                values, units, samples, problems)
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"machine": env, "values": values, "samples": samples,
                   "passes": pass_walls, "problems": problems, "result": result},
                  fh, indent=1)
    for bulky in ("cli", "cli_repeat", "cli_untraced", "panel", "measure.json"):
        path = os.path.join(workdir, bulky)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
