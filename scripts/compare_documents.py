"""Compare the outputs of every subcommand of a base revision and the
working tree, the solutions documents in detail.

    python3 scripts/compare_documents.py --base REV [--seeds 1 2] [--workloads W ...]

The base revision is checked out in a temporary ``git worktree``, or taken
from ``--base-dir`` when a checkout of it is at hand.  For each seed and
workload, both trees' ``bench/generate.py`` write the inputs, which are
compared byte for byte.  Then each tree's command line links the timed
batches and the accuracy panel, as the benchmark does, in one interpreter
per tree.  The same interpreter runs ``synth`` on fixed elements with the
noise of the seed (its first record of the kind the workload links) and,
for an optical workload, ``curves --grid 17`` on panel pair 0; their files
are compared byte for byte.  For each workload it prints:

- how many documents are byte-identical, how many are equal after
  ``json.load`` (the same values, whatever the notation of the numbers),
  and whether the exit codes are;
- which ``synth`` and ``curves`` files differ;
- the structural mismatches of each document: its top-level fields, the
  pairs and their solution counts, the errors and their codes, and the
  ``selected``, ``unselectable``, ``elliptic`` and ``flags`` of the
  solutions both documents have;
- each solution that only one side has, with the distance of its rho1 to
  the nearest rho1 of its pair on the other side, relative to max(1, rho1)
  as the linker's deduplication measures it, its ``lenz_residual``
  relative to |L1| + |L2| (the dimensionless Laplace-Lenz vectors of its
  two states, as the optical screen measures it), and whether it is
  elliptic and selected;
- the largest relative move of each numeric field over the solutions both
  sides have (list fields relative to the largest entry of the list).

Solutions of a pair are matched in order when both sides have as many,
and otherwise each to the nearest rho1 on the other side.

Last, each tree runs each of its ``demos/*.py`` scripts and its README's
library quickstart (the first ``python`` block after "Library
quickstart"), each in its own interpreter with the tree's ``src`` on
``PYTHONPATH`` and an empty temporary directory as working directory and
``TMPDIR``.  Their standard outputs are compared byte for byte, after the
paths of what a script made in that directory are replaced by
``$TMPDIR/<k>`` (k in sorted order), and so are their exit codes.

Everything is written under a temporary directory.  The exit status is 0
when, for every seed and workload, the inputs, all documents and the
``synth`` and ``curves`` files are byte-identical and every exit code is
equal, and the scripts' outputs and exit codes are too, and 1 otherwise,
so that byte identity can be checked from it alone.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile

from base_tree import ROOT, base_tree

STRUCTURAL = ("method", "elliptic", "selected", "unselectable", "flags")
# The elements and epochs that ``synth`` runs on.
SYNTH_ELEMENTS = {"a": 0.92, "e": 0.19, "i_deg": 3.44, "Omega_deg": 68.8,
                  "omega_deg": 31.4, "ell_deg": 22.9, "epoch_mjd": 53100.0}
SYNTH_EPOCHS = "53105.0,53287.0"
CURVES = ("q", "p", "lenz", "energy_sq")

# Runs one tree's command line on a list of argument vectors, in-process as
# the benchmark does, and prints the exit codes as the last line.
_DRIVER = """
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from arclink.cli import main
codes = []
for argv in json.load(open(sys.argv[2])):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv))
    except Exception:
        codes.append("crash: " + traceback.format_exc().splitlines()[-1])
print(json.dumps(codes))
"""


def _generate(tree: str, workload: str, seed: int, out: str) -> dict:
    subprocess.run([sys.executable, os.path.join("bench", "generate.py"), "--workload",
                    workload, "--seed", str(seed), "--out", out],
                   cwd=tree, check=True, capture_output=True)
    with open(os.path.join(out, "workload.json")) as fh:
        return json.load(fh)


def _differing(base: str, change: str, names: list[str] | None = None) -> list[str]:
    """Of the files ``names`` (by default all) of two directories, those
    that differ or exist on one side only."""
    if names is None:
        names = sorted(set(os.listdir(base)) | set(os.listdir(change)))
    _, mismatch, errors = filecmp.cmpfiles(base, change, names, shallow=False)
    return mismatch + errors


def _plan(manifest: dict, inputs: str, out: str, seed: int) -> tuple[list, list]:
    """The runs of one tree, each (name, argument vector), writing under
    ``out``: every batch and panel pair linked into ``batch<k>.json`` and
    ``panel<k>.json``, then ``synth`` and, for an optical workload,
    ``curves``; and the files of those two, relative to ``out``."""
    runs = []
    for label in ("batches", "panel"):
        for k, batch in enumerate(manifest[label]):
            name = f"{'batch' if label == 'batches' else 'panel'}{k}"
            runs.append((name, [manifest["command"],
                                *(os.path.join(inputs, f) for f in batch["files"]),
                                "--ephemeris", manifest["ephemeris"],
                                "--out", os.path.join(out, f"{name}.json")]))
    elements = os.path.join(out, "elements.json")
    with open(elements, "w") as fh:
        json.dump(SYNTH_ELEMENTS, fh)
    radar = manifest["command"] == "link-radar-optical"
    runs.append(("synth", ["synth", elements, "--ephemeris", manifest["ephemeris"],
                           "--epochs", SYNTH_EPOCHS, "--apply-noise", "--seed", str(seed),
                           *(["--kind", "radar", "--sigma-rho", "1e-8",
                              "--sigma-rhodot", "1e-9"] if radar else []),
                           "--out", os.path.join(out, "synth.jsonl"),
                           "--truth", os.path.join(out, "synth_truth.json")]))
    files = ["synth.jsonl", "synth_truth.json"]
    if not radar:
        runs.append(("curves", ["curves", *(os.path.join(inputs, f)
                                            for f in manifest["panel"][0]["files"]),
                                "--ephemeris", manifest["ephemeris"], "--grid", "17",
                                "--out-dir", os.path.join(out, "curves")]))
        files += [os.path.join("curves", f"{name}_curve.csv") for name in CURVES]
    return runs, files


def _run_cli(tree: str, runs: list, out: str) -> dict:
    """Each run's exit code, by name, from one interpreter on ``tree``."""
    plan_path = os.path.join(out, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump([argv for _, argv in runs], fh)
    proc = subprocess.run([sys.executable, "-c", _DRIVER, os.path.join(tree, "src"), plan_path],
                          check=True, capture_output=True, text=True)
    return dict(zip([name for name, _ in runs],
                    json.loads(proc.stdout.strip().splitlines()[-1])))


def _numbers(value, path: str, out: dict, scale: float | None = None) -> None:
    """The numeric leaves of a solution record, by path, each with the
    scale its move is relative to: the largest entry of its list, or its
    own magnitude."""
    if value is None or isinstance(value, (bool, str)):
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _numbers(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        numeric = [abs(x) for x in value if isinstance(x, (int, float))
                   and not isinstance(x, bool)]
        top = max(numeric, default=0.0)
        for k, item in enumerate(value):
            _numbers(item, f"{path}[{k}]", out, top)
    else:
        out[path] = (float(value), abs(value) if scale is None else scale)


def _relative_lenz(sol: dict, mu: float) -> float:
    """A solution record's ``lenz_residual`` relative to |L1| + |L2|, each
    L = ((|v|^2 - mu/|r|) r - (r . v) v) / mu from the record's states."""
    total = 0.0
    for key in ("state1", "state2"):
        r, v = sol[key]["r"], sol[key]["v"]
        a = sum(x * x for x in v) - mu / math.sqrt(sum(x * x for x in r))
        b = sum(x * y for x, y in zip(r, v))
        total += math.sqrt(sum(((a * x - b * y) / mu) ** 2 for x, y in zip(r, v)))
    return sol["lenz_residual"] / total


def _match(base: list, change: list) -> tuple[list, list, list]:
    """The matched (base, change) solutions of one pair, and those of the
    base and of the change left without a partner."""
    if len(base) == len(change):
        return list(zip(base, change)), [], []
    swap = len(base) > len(change)
    small, large = (change, base) if swap else (base, change)
    free, pairs = list(range(len(large))), []
    for sol in small:
        k = min(free, key=lambda k: abs(large[k]["rho1"] - sol["rho1"]))
        free.remove(k)
        pairs.append((large[k], sol) if swap else (sol, large[k]))
    left = [large[k] for k in free]
    return pairs, (left if swap else []), ([] if swap else left)


def _compare_documents(base: dict, change: dict, moves: dict) -> list[str]:
    """The structural mismatches of two documents; the numeric moves of
    their matched solutions go into ``moves`` (field -> (move, where))."""
    lines = []
    for key in sorted((set(base) | set(change)) - {"solutions", "errors"}):
        if base.get(key) != change.get(key):
            lines.append(f"{key}: {base.get(key)!r} -> {change.get(key)!r}")
    errors = [[(tuple(e["pair"]), e["code"], tuple(e["flags"])) for e in doc["errors"]]
              for doc in (base, change)]
    if errors[0] != errors[1]:
        lines.append(f"errors: {sorted(set(errors[0]) - set(errors[1]))} -> "
                     f"{sorted(set(errors[1]) - set(errors[0]))}")
    by_pair: dict[tuple, tuple[list, list]] = {}
    for side, doc in enumerate((base, change)):
        for sol in doc["solutions"]:
            by_pair.setdefault(tuple(sol["pair"]), ([], []))[side].append(sol)
    for pair, (old, new) in sorted(by_pair.items()):
        if len(old) != len(new):
            lines.append(f"pair {list(pair)}: {len(old)} -> {len(new)} solutions")
        matched, only_old, only_new = _match(old, new)
        for side, alone, other, mu in (("base", only_old, new, base["mu"]),
                                       ("change", only_new, old, change["mu"])):
            for sol in alone:
                near = min((abs(o["rho1"] - sol["rho1"]) / max(1.0, abs(sol["rho1"]))
                            for o in other), default=float("inf"))
                lines.append(f"pair {list(pair)}: only in {side}: rho1={sol['rho1']!r} "
                             f"rho2={sol['rho2']!r}; to the nearest rho1 on the other "
                             f"side, |d rho1| / max(1, rho1) = {near:.2e}; lenz_residual "
                             f"/ (|L1| + |L2|) = {_relative_lenz(sol, mu):.2e}, elliptic "
                             f"{sol['elliptic']}, selected {sol['selected']}")
        for a, b in matched:
            for key in STRUCTURAL:
                if a.get(key) != b.get(key):
                    lines.append(f"pair {list(pair)} rho1={a['rho1']!r}: {key} "
                                 f"{a.get(key)!r} -> {b.get(key)!r}")
            na, nb = {}, {}
            _numbers(a, "", na)
            _numbers(b, "", nb)
            for path in na.keys() & nb.keys():
                (x, sx), (y, sy) = na[path], nb[path]
                scale = max(sx, sy)
                move = abs(x - y) / scale if scale else 0.0
                field = path.split("[")[0]
                if move > moves.get(field, (0.0, ""))[0]:
                    moves[field] = (move, f"pair {list(pair)} {path}")
    return lines


def compare(base_dir: str, workload: str, seed: int, scratch: str) -> bool:
    """Print the comparison of one workload and seed; whether the inputs
    and all documents are byte-identical and the exit codes equal."""
    print(f"== {workload}, seed {seed}")
    work = os.path.join(scratch, f"{workload}-{seed}")
    trees = {"base": base_dir, "change": ROOT}
    manifests = {side: _generate(tree, workload, seed, os.path.join(work, side, "inputs"))
                 for side, tree in trees.items()}
    differ = _differing(*(os.path.join(work, side, "inputs") for side in trees))
    if differ:
        print(f"inputs differ: {', '.join(differ)}")
        return False
    print(f"inputs: byte-identical ({len(os.listdir(os.path.join(work, 'base', 'inputs')))} "
          "files)")
    inputs = os.path.join(work, "base", "inputs")
    codes = {}
    for side, tree in trees.items():
        out = os.path.join(work, side, "docs")
        os.makedirs(out)
        runs, files = _plan(manifests[side], inputs, out, seed)
        codes[side] = _run_cli(tree, runs, out)
    documents = [name for name, argv in runs if argv[0] == manifests["base"]["command"]]
    identical, equal, moves, lines = 0, 0, {}, []
    for name in documents:
        paths = [os.path.join(work, side, "docs", f"{name}.json") for side in trees]
        written = [side for side, path in zip(trees, paths) if os.path.exists(path)]
        if not written or len(written) == 2 and filecmp.cmp(*paths, shallow=False):
            identical += 1
            equal += 1
            continue
        if len(written) == 1:
            lines.append(f"{name}: document written by the {written[0]} only")
            continue
        docs = []
        for path in paths:
            with open(path) as fh:
                docs.append(json.load(fh))
        if docs[0] == docs[1]:
            equal += 1
            continue
        lines += [f"{name}: {line}" for line in _compare_documents(*docs, moves)]
    print(f"documents: {identical} of {len(documents)} byte-identical, "
          f"{equal} equal after json.load")
    other = _differing(*(os.path.join(work, side, "docs") for side in trees), files)
    print(f"synth and curves files: {len(files) - len(other)} of {len(files)} byte-identical"
          + "".join(f"\n  differs: {name}" for name in other))
    same_codes = codes["base"] == codes["change"]
    print(f"exit codes: {'equal' if same_codes else 'DIFFERENT'}")
    if not same_codes:
        for name in codes["base"]:
            if codes["base"][name] != codes["change"][name]:
                print(f"  {name}: {codes['base'][name]} -> {codes['change'][name]}")
    for line in lines:
        print(f"  {line}")
    for field, (move, where) in sorted(moves.items()):
        if move:
            print(f"  largest relative move of {field}: {move:.3e} ({where})")
    return identical == len(documents) and not other and same_codes


def _quickstart(tree: str) -> str:
    """The README's library quickstart of ``tree``."""
    with open(os.path.join(tree, "README.md")) as fh:
        text = fh.read()
    return text[text.index("Library quickstart"):].split("```python\n", 1)[1].split("```")[0]


def _run_script(tree: str, args: list, tmp: str) -> tuple[int, bytes]:
    """The exit code and standard output of ``python ARGS`` on ``tree``,
    run in the empty directory ``tmp``, with the paths of what it made
    there masked."""
    os.makedirs(tmp)
    proc = subprocess.run([sys.executable, *args], cwd=tmp, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), TMPDIR=tmp))
    out = proc.stdout
    for k, name in enumerate(sorted(os.listdir(tmp))):
        out = out.replace(os.path.join(tmp, name).encode(), f"$TMPDIR/{k}".encode())
    return proc.returncode, out.replace(tmp.encode(), b"$TMPDIR")


def compare_scripts(base_dir: str, scratch: str) -> bool:
    """Print the comparison of the demos and the quickstart; whether every
    output and exit code is equal."""
    print("== demos and README quickstart")
    trees = {"base": base_dir, "change": ROOT}
    names = sorted(set().union(*(os.listdir(os.path.join(tree, "demos")) for tree in
                                 trees.values())))
    scripts = [name for name in names if name.endswith(".py")] + ["quickstart"]
    differ = []
    for name in scripts:
        runs = []
        for side, tree in trees.items():
            tmp = os.path.join(scratch, "scripts", side, name)
            args = (["-c", _quickstart(tree)] if name == "quickstart"
                    else [os.path.join(tree, "demos", name)])
            runs.append(_run_script(tree, args, tmp))
        if runs[0] != runs[1]:
            differ.append(f"{name} (exit {runs[0][0]} -> {runs[1][0]}"
                          f"{', output differs' if runs[0][1] != runs[1][1] else ''})")
    print(f"outputs and exit codes: {len(scripts) - len(differ)} of {len(scripts)} equal"
          + "".join(f"\n  differs: {line}" for line in differ))
    return not differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--base-dir", help="an existing checkout of the base revision")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = args.workloads or [w["name"] for w in json.load(fh)["workloads"]]
    ok = True
    with base_tree(args.base, args.base_dir) as base_dir, \
            tempfile.TemporaryDirectory() as scratch:
        for seed in args.seeds:
            for workload in workloads:
                ok &= compare(base_dir, workload, seed, scratch)
        ok &= compare_scripts(base_dir, scratch)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
