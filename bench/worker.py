"""Timed phases of one benchmark run, each in a fresh interpreter.

    python3 bench/worker.py measure WORKDIR --budget S   # CLI and library, untraced
    python3 bench/worker.py trace   WORKDIR --budget S   # untraced and traced CLI

WORKDIR holds ``inputs/`` from generate.py.  ``measure`` runs the accuracy
panel through the CLI once, then alternates whole CLI passes, library
passes and set-up probes over the workload's batches, up to PASSES of each
within the time budget (always at least one pass and SETUP_PROBES probes).
``trace`` runs the panel once too, then alternates untraced and traced CLI
passes, up to TRACE_PASSES of each.  Every timed pass runs under a
pace.Pacer and records with each wall time the reference slices that fell
into it, so that times can be stated at reference speed.  Each phase
writes its result as JSON in WORKDIR.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import checkout  # noqa: F401  (puts src/ on sys.path)
import pace
import arclink.cli
from arclink.cli import parse_ephemeris, read_attributables
from arclink.config import RunConfig
from arclink.covariance import AttributablePair, attach_covariances
from arclink.errors import (
    DegenerateConfigurationError,
    LinkageError,
    NumericalError,
)
from arclink.kepler import CartesianState
from arclink.optical import link_optical
from arclink.radar import link_radar_optical
from arclink.selection import select_solutions

import tracing

PASSES = 6
SETUP_PROBES = 5
TRACE_PASSES = 5
HERE = os.path.dirname(os.path.abspath(__file__))


def _load(workdir):
    with open(os.path.join(workdir, "inputs", "workload.json")) as fh:
        return json.load(fh)


def _paths(workdir, batch):
    return [os.path.join(workdir, "inputs", f) for f in batch["files"]]


def _cli_pass(workdir, manifest, out_dir, main=arclink.cli.main, on_batch=None,
              pacer=None):
    """One in-process ``arclink.cli.main`` call per batch; wall seconds
    and exit code of each, and the slices of ``pacer`` (if active) that
    fell into it."""
    os.makedirs(out_dir, exist_ok=True)
    results = []
    for b, batch in enumerate(manifest["batches"]):
        if on_batch is not None:
            on_batch(b)
        argv = [manifest["command"], *_paths(workdir, batch),
                "--ephemeris", manifest["ephemeris"],
                "--out", os.path.join(out_dir, f"batch{b}.json")]
        crash = None
        before = pacer.reading() if pacer else {"spent_s": 0.0, "slices": 0}
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crashed batch is a result, not the end of the run
            code, crash = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        after = pacer.reading() if pacer else before
        results.append({"wall_s": wall, "exit": code, "crash": crash,
                        "pairs": batch["n1"] * batch["n2"],
                        "spent_s": after["spent_s"] - before["spent_s"],
                        "slices": after["slices"] - before["slices"]})
    return results


def setup_probe(workdir) -> dict:
    """Seconds from starting setup_probe.py until it could begin its pair
    loop, with the probe's own pacer reading."""
    t0 = time.time()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workdir],
                          capture_output=True, text=True, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"wall_s": probe["end"] - t0, "spent_s": probe["spent_s"],
            "slices": probe["slices"]}


def run_measure(workdir, budget):
    """The panel once, then CLI pass, library pass and set-up probe, again
    and again, while the next round still fits in ``budget`` seconds.

    The panel run calls every code path of the pair loop, so the first
    timed pass is already warm.  CLI and library passes run under one
    pacer each; the set-up probe paces itself.
    """
    manifest = _load(workdir)
    start = time.perf_counter()
    panel = _cli_pass(workdir, {**manifest, "batches": manifest["panel"]},
                      os.path.join(workdir, "panel"))
    cli, library, setup = [], [], []
    while len(cli) < PASSES:
        t0 = time.perf_counter()
        # Only the first pass's documents are checked; later passes write
        # the same files into a second directory.
        with pace.Pacer() as pacer:
            cli.append(_cli_pass(workdir, manifest, os.path.join(
                workdir, "cli_repeat" if cli else "cli"), pacer=pacer))
        with pace.Pacer() as pacer:
            library.append(_library_pass(workdir, manifest, pacer,
                                         keep=len(library) == 0))
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(workdir))
        now = time.perf_counter()
        if (now - start) + (now - t0) > budget:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workdir))
    return {"cli": cli, "panel": panel, "setup": setup,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "library": [lib for lib, _ in library], "batches": library[0][1]}


def solution_dict(sol, pair) -> dict:
    """A library solution in the shape of the README's solutions records
    (au-day, so internal epochs are already MJD)."""
    def state(s):
        return {"epoch_mjd": float(s.epoch), "r": [float(x) for x in s.r],
                "v": [float(x) for x in s.v]}

    def elements(el):
        if el is None:
            return None
        return {"a": el.a, "e": el.e, "i": el.i, "Omega": el.Omega,
                "omega": el.omega, "ell": el.ell, "epoch_mjd": float(el.epoch)}

    def matrix(m):
        return None if m is None else [float(x) for x in m.ravel()]

    return {
        "pair": list(pair), "method": sol.method,
        "rho1": sol.rho1, "rhodot1": sol.rhodot1,
        "rho2": sol.rho2, "rhodot2": sol.rhodot2,
        "state1": state(sol.state1), "state2": state(sol.state2),
        "elements1": elements(sol.elements1), "elements2": elements(sol.elements2),
        "elliptic": sol.elliptic, "lenz_residual": sol.lenz_residual,
        "compat_lenz": sol.compat_lenz, "compat_anomaly": sol.compat_anomaly,
        "energy_offset": sol.energy_offset,
        "covariance1": matrix(sol.covariance1), "covariance2": matrix(sol.covariance2),
        "chi4": sol.chi4, "selected": sol.selected,
        "unselectable": sol.unselectable, "flags": list(sol.flags),
    }


def _library_pass(workdir, manifest, pacer, keep):
    """The README quickstart user, one pair at a time: observer states,
    link, then covariances and selection when both records carry one.
    Each pair's latency leaves out the slices of the active ``pacer`` that
    fell into it; each batch records the slices of its pair loop."""
    config = RunConfig()
    units = config.units
    eph = parse_ephemeris(manifest["ephemeris"], units, config.mu_value)
    link = (link_radar_optical if manifest["command"] == "link-radar-optical"
            else link_optical)
    timed, batches = [], []
    for batch in manifest["batches"]:
        atts1, atts2 = (read_attributables(p, units) for p in _paths(workdir, batch))
        solutions, errors, latencies = [], [], []
        start = pacer.reading()
        for i, a1 in enumerate(atts1):
            for j, a2 in enumerate(atts2):
                spent = pacer.spent
                t0 = time.perf_counter()
                try:
                    obs1 = CartesianState(*eph.state(a1.tbar), a1.tbar)
                    obs2 = CartesianState(*eph.state(a2.tbar), a2.tbar)
                    sols = link(a1, a2, obs1, obs2, config)
                    if a1.cov is not None and a2.cov is not None:
                        pair = AttributablePair(a1, a2)
                        for s in sols:
                            attach_covariances(pair, s, obs1, obs2, config)
                        select_solutions(sols, a2, obs2, config=config)
                    code = None
                except DegenerateConfigurationError:
                    code = "degenerate"
                except NumericalError:
                    code = "numerical"
                except LinkageError:
                    code = "input"
                except Exception:  # recorded, so the comparison reports it
                    code = "crash"
                latencies.append(time.perf_counter() - t0 - (pacer.spent - spent))
                if not keep:
                    continue
                if code is None:
                    solutions.extend(solution_dict(s, (i, j)) for s in sols)
                else:
                    errors.append({"pair": [i, j], "code": code})
        end = pacer.reading()
        timed.append({"latencies_s": latencies,
                      "spent_s": end["spent_s"] - start["spent_s"],
                      "slices": end["slices"] - start["slices"]})
        batches.append({"solutions": solutions, "errors": errors})
    return timed, batches


def _reference_scale(results) -> float:
    """Factor from the spans' times in a pass to reference time.  The
    pacer's slices fall into whichever spans are open, evenly in time, so
    they take the same share out of every layer's self time."""
    wall = sum(r["wall_s"] for r in results)
    spent = sum(r["spent_s"] for r in results)
    return (1.0 - spent / wall) * pace.speed_factor(
        spent, sum(r["slices"] for r in results))


def run_trace(workdir, budget):
    """The panel once (warm-up), then untraced pass, traced pass, untraced
    pass, ... while the next round still fits in ``budget`` seconds; layer
    metrics are medians over the traced passes, at reference speed."""
    manifest = _load(workdir)
    _cli_pass(workdir, {**manifest, "batches": manifest["panel"]},
              os.path.join(workdir, "panel"))
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    with open(os.path.join(workdir, "spans.jsonl"), "w") as fh:
        while len(traced) < TRACE_PASSES:
            t0 = time.perf_counter()
            with pace.Pacer() as pacer:
                untraced.append(_cli_pass(workdir, manifest,
                                          os.path.join(workdir, "cli_untraced"),
                                          pacer=pacer))
            tracer = tracing.Tracer()
            uninstall = tracer.install()
            try:
                with pace.Pacer() as pacer:
                    traced.append(_cli_pass(
                        workdir, manifest,
                        os.path.join(workdir, "cli_repeat" if traced else "cli"),
                        main=tracer.wrap(tracing.ROOT_SPAN, arclink.cli.main),
                        on_batch=tracer.start_batch, pacer=pacer))
            finally:
                uninstall()
            tracer.finish()
            for s in tracer.spans:
                fh.write(json.dumps({"pass": len(layers), "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "pair": s.pair,
                                     "counts": s.counts}) + "\n")
            pairs = sum(r["pairs"] for r in traced[-1])
            layer = tracing.layer_metrics(tracer.spans, pairs, len(traced[-1]))
            scale = _reference_scale(traced[-1])
            for name in (*tracing.LAYER_TIMES, *tracing.BATCH_TIMES):
                layer[name] *= scale
            layers.append(layer)
            # Free this pass's spans, so that the garbage collector does not
            # walk them during the next untraced pass.
            del tracer, uninstall
            gc.collect()
            now = time.perf_counter()
            if (now - start) + (now - t0) > budget:
                break
    return {"untraced": untraced, "traced": traced,
            "layers": {name: statistics.median(pass_[name] for pass_ in layers)
                       for name in layers[0]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one timed benchmark phase")
    parser.add_argument("phase", choices=["measure", "trace"])
    parser.add_argument("workdir")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of repeated passes (at least one of each)")
    args = parser.parse_args(argv)
    if args.phase == "measure":
        result = run_measure(args.workdir, args.budget)
    else:
        result = run_trace(args.workdir, args.budget)
    with open(os.path.join(args.workdir, f"{args.phase}.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
