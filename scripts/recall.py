"""Timed recall of the workloads: true links found, non-links selected.

    python3 scripts/recall.py [--tree DIR] [--seeds 1 2 3] [--workloads W ...]

For each seed and each workload (by default the three of ``BENCHMARK.json``:
``optical-survey``, ``optical-screen`` and ``radar-followup``), the tree's
``bench/generate.py`` writes the inputs to a temporary directory and the
tree's command line links the timed batches, in this interpreter, as the
benchmark does.  A true link is recalled when one of its pair's solutions
matches both ranges of the truth to 1e-6 relative and is not unselected
(``selected`` true, or null where selection did not run).  Per seed and
workload it prints the links recalled out of all, and the solutions of
non-link pairs that were selected.  ``--tree`` (default: this checkout)
names the tree whose ``src`` and ``bench`` run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MATCH_REL = 1e-6
WORKLOADS = ("optical-survey", "optical-screen", "radar-followup")


def _matches(sol: dict, link: dict) -> bool:
    return sol["selected"] is not False and all(
        abs(sol[key] - link[key]) <= MATCH_REL * link[key] for key in ("rho1", "rho2"))


def recall(main, generate, workload: str, seed: int, scratch: str) -> tuple[int, int, int]:
    """(links recalled, links, non-link solutions selected) of one workload
    and seed, its documents and inputs written under ``scratch``."""
    inputs = os.path.join(scratch, "inputs")
    manifest = generate.generate(workload, seed, inputs)
    with open(os.path.join(inputs, "truth.json")) as fh:
        truth = json.load(fh)
    recalled, total, selected = set(), 0, 0
    for b, (batch, links) in enumerate(zip(manifest["batches"], truth["links"])):
        out = os.path.join(scratch, f"batch{b}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            main([manifest["command"], *(os.path.join(inputs, f) for f in batch["files"]),
                  "--ephemeris", manifest["ephemeris"], "--out", out])
        with open(out) as fh:
            solutions = json.load(fh)["solutions"]
        links = {tuple(link["pair"]): link for link in links}
        total += len(links)
        for sol in solutions:
            pair = tuple(sol["pair"])
            if pair not in links:
                selected += sol["selected"] is True
            elif _matches(sol, links[pair]):
                recalled.add((b, pair))
    return len(recalled), total, selected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=ROOT)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import generate
    from arclink.cli import main as cli_main

    for seed in args.seeds:
        for workload in args.workloads:
            with tempfile.TemporaryDirectory() as scratch:
                found, total, selected = recall(cli_main, generate, workload, seed, scratch)
            print(f"seed {seed} {workload}: {found}/{total} links recalled, "
                  f"{selected} non-link solution(s) selected", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
