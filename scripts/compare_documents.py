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

Then, for each workload, an edge-case panel runs in both trees: batches of
good records of batch 0 with one bad record each (a polar declination, an
epoch equal to its partner's, an epoch outside the ephemeris table, an
asymmetric covariance, one that is not positive semidefinite, two whose
smallest eigenvalues sit at half and at twice the floor of the PSD check of
the joint covariance (the first passes, the second fails), none at all,
a radar record in an optical file, a non-finite value), linked against a
table of the workload's observer, and the good batch with one file that
does not decode as text (an attributables file, the table, ``kepler:``
elements).  Documents, exit codes and standard error are compared; a run
where the base crashed is reported as fixed when the change exits with a
documented code.

Last, each tree runs each of its ``demos/*.py`` scripts and its README's
library quickstart (the first ``python`` block after "Library
quickstart"), each in its own interpreter with the tree's ``src`` on
``PYTHONPATH`` and an empty temporary directory as working directory and
``TMPDIR``.  Their standard outputs are compared byte for byte, after the
paths of what a script made in that directory are replaced by
``$TMPDIR/<k>`` (k in sorted order), and so are their exit codes.

Everything is written under a temporary directory.  The exit status is 0
when, for every seed and workload, the inputs, all documents and the
``synth`` and ``curves`` files are byte-identical, every exit code and
standard error is equal, every edge-case run matches, and the scripts'
outputs and exit codes are equal too, and 1 otherwise,
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

import numpy as np
from base_tree import ROOT, base_tree

STRUCTURAL = ("method", "elliptic", "selected", "unselectable", "flags")
# The elements and epochs that ``synth`` runs on.
SYNTH_ELEMENTS = {"a": 0.92, "e": 0.19, "i_deg": 3.44, "Omega_deg": 68.8,
                  "omega_deg": 31.4, "ell_deg": 22.9, "epoch_mjd": 53100.0}
SYNTH_EPOCHS = "53105.0,53287.0"
CURVES = ("q", "p", "lenz", "energy_sq")

# Runs one tree's command line on a list of argument vectors, in-process as
# the benchmark does, and prints each run's exit code and standard error as
# the last line.
_DRIVER = """
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from arclink.cli import main
codes = []
for argv in json.load(open(sys.argv[2])):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes.append([main(argv), err.getvalue()])
    except Exception:
        codes.append(["crash: " + traceback.format_exc().splitlines()[-1], err.getvalue()])
print(json.dumps(codes))
"""
# The edge-case panel: for each kind of bad record, a batch of the good
# records of batch 0 (at most EDGE_GOOD of each file) and one bad record,
# linked against a table of the workload's circular observer; then the
# same good batch with one file that does not decode as text (first
# attributables file, ephemeris table, kepler: elements).
EDGE_GOOD = 4
GM_SUN = 2.9591220828559115e-04  # au^3/day^2, the au-day mu of circular:radius=1.0
EDGE_KINDS = ("polar", "same-epoch", "out-of-span", "asymmetric-cov", "not-psd-cov",
              "cov-at-half-floor", "cov-at-twice-floor", "no-cov", "radar-in-optical",
              "non-finite")
# The psd_tol of covariance.joint_covariance_rows: a joint covariance fails
# when an eigenvalue is below -JOINT_PSD_TOL times its trace.
JOINT_PSD_TOL = 1e-12
UNDECODABLE = ("undecodable-attributables", "undecodable-table", "undecodable-kepler")


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
    """Each run's exit code and standard error (``out`` written as
    ``$OUT``), by name, from one interpreter on ``tree``."""
    plan_path = os.path.join(out, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump([argv for _, argv in runs], fh)
    proc = subprocess.run([sys.executable, "-c", _DRIVER, os.path.join(tree, "src"), plan_path],
                          check=True, capture_output=True, text=True)
    return {name: (code, err.replace(out, "$OUT")) for (name, _), (code, err) in
            zip(runs, json.loads(proc.stdout.strip().splitlines()[-1]))}


def _at_psd_floor(record: dict, partners: list, factor: float) -> dict:
    """``record`` with the smallest eigenvalue of its covariance moved to
    ``factor`` times the PSD floor of the joint covariance that it makes
    with a covariance of ``partners``: the partner of the smallest trace
    when factor < 1, so that the record passes with each partner, and of
    the largest when factor > 1, so that it fails with each."""
    lam, vec = np.linalg.eigh(np.reshape(record["cov"] or [1e-12] * 16, (4, 4)))
    traces = [np.trace(np.reshape(p["cov"], (4, 4))) for p in partners if p["cov"]] or [0.0]
    rest = (min if factor < 1.0 else max)(traces) + lam[1:].sum()
    tol = factor * JOINT_PSD_TOL
    lam[0] = -tol * rest / (1.0 + tol)  # factor times -JOINT_PSD_TOL * (rest + lam[0])
    cov = (vec * lam) @ vec.T
    return {**record, "cov": (0.5 * (cov + cov.T)).ravel().tolist()}


def _edge_inputs(manifest: dict, inputs: str, edge: str) -> list:
    """The edge-case panel's batches, written under ``edge``: (name, first
    file, second file, ephemeris) of each."""
    os.makedirs(edge)
    good = []
    for name in manifest["batches"][0]["files"]:
        with open(os.path.join(inputs, name)) as fh:
            good.append([json.loads(line) for line in fh if line.strip()][:EDGE_GOOD])
    epochs = [rec["tbar_mjd"] for records in good for rec in records]
    table = os.path.join(edge, "observer.csv")
    n = math.sqrt(GM_SUN)
    with open(table, "w") as fh:
        fh.write("mjd,qx,qy,qz,vx,vy,vz\n")
        for k in range(int(4 * (max(epochs) - min(epochs))) + 9):
            t = math.floor(min(epochs)) - 1.0 + 0.25 * k
            c, s = math.cos(n * t), math.sin(n * t)
            fh.write(",".join(repr(x) for x in (t, c, s, 0.0, -n * s, n * c, 0.0)) + "\n")
    radar = manifest["command"] == "link-radar-optical"
    first, second = good[0][0], good[1][0]
    scale = max(map(abs, second["cov"] or [1e-12]))
    bad = {
        "polar": (0, {**first, "values": [first["values"][0], math.pi / 2,
                                          *first["values"][2:]]}),
        "same-epoch": (0, {**first, "tbar_mjd": second["tbar_mjd"]}),
        "out-of-span": (0, {**first, "tbar_mjd": max(epochs) + 30.0}),
        "asymmetric-cov": (1, {**second, "cov": [x + 1e-6 * scale * (k == 1) for k, x in
                                                 enumerate(second["cov"] or [scale] * 16)]}),
        "not-psd-cov": (1, {**second, "cov": [-x if k == 15 else x for k, x in
                                              enumerate(second["cov"] or [scale] * 16)]}),
        "cov-at-half-floor": (1, _at_psd_floor(second, good[0], 0.5)),
        "cov-at-twice-floor": (1, _at_psd_floor(second, good[0], 2.0)),
        "no-cov": (1, {**second, "cov": None}),
        "radar-in-optical": (1 if radar else 0, {**first, "kind": "radar",
                                                 "values": [*first["values"][:2], 1.2, 0.01]}),
        "non-finite": (0, {**first, "values": [math.nan, *first["values"][1:]]}),
    }
    batches = []
    for kind in EDGE_KINDS:
        side, record = bad[kind]
        files = []
        for k, records in enumerate(good):
            path = os.path.join(edge, f"{kind}_{k + 1}.jsonl")
            with open(path, "w") as fh:
                fh.writelines(json.dumps(rec) + "\n" for rec in
                              records + ([record] if k == side else []))
            files.append(path)
        batches.append((kind, *files, table))
    undecodable = os.path.join(edge, "undecodable.bin")
    with open(undecodable, "wb") as fh:
        fh.write(b"\xff\xfe" + json.dumps(SYNTH_ELEMENTS).encode() + b"\n")
    good_files = [os.path.join(edge, f"no-cov_{k}.jsonl") for k in (1, 2)]
    batches += [("undecodable-attributables", undecodable, good_files[1], table),
                ("undecodable-table", *good_files, undecodable),
                ("undecodable-kepler", *good_files, f"kepler:{undecodable}")]
    return batches


def compare_edges(base_dir: str, workload: str, seed: int, scratch: str) -> bool:
    """Print the comparison of one workload's edge-case panel; whether
    every run matches: the same document bytes (or none on both sides),
    exit code and standard error, or a base that crashed where the change
    exits with a documented code."""
    work = os.path.join(scratch, f"{workload}-{seed}")
    manifest = _generate(base_dir, workload, seed, os.path.join(work, "edge-base-inputs"))
    batches = _edge_inputs(manifest, os.path.join(work, "edge-base-inputs"),
                           os.path.join(work, "edge-inputs"))
    results = {}
    for side, tree in (("base", base_dir), ("change", ROOT)):
        out = os.path.join(work, side, "edge")
        os.makedirs(out)
        runs = [(name, [manifest["command"], first, second, "--ephemeris", eph,
                        "--out", os.path.join(out, f"{name}.json")])
                for name, first, second, eph in batches]
        results[side] = _run_cli(tree, runs, out)
    lines, fixed = [], []
    for name, *_ in batches:
        (code, err), (new_code, new_err) = results["base"][name], results["change"][name]
        docs = [os.path.join(work, side, "edge", f"{name}.json") for side in results]
        written = [os.path.exists(path) for path in docs]
        same_doc = written == [False, False] or all(written) and filecmp.cmp(*docs,
                                                                             shallow=False)
        if same_doc and (code, err) == (new_code, new_err):
            continue
        if str(code).startswith("crash") and new_code in (0, 2, 3, 4):
            fixed.append(f"{name}: base {code}; change exit {new_code}: {new_err.strip()}")
            continue
        lines.append(f"{name}: exit {code} -> {new_code}"
                     f"{'' if same_doc else ', documents differ'}"
                     f"{'' if err == new_err else f', stderr {err!r} -> {new_err!r}'}")
    print(f"edge-case panel: {len(batches) - len(lines) - len(fixed)} of {len(batches)} runs "
          f"match, {len(fixed)} fixed where the base crashed, {len(lines)} differ"
          + "".join(f"\n  fixed: {line}" for line in fixed)
          + "".join(f"\n  differs: {line}" for line in lines))
    return not lines


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
    print(f"exit codes and stderr: {'equal' if same_codes else 'DIFFERENT'}")
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
                ok &= compare_edges(base_dir, workload, seed, scratch)
        ok &= compare_scripts(base_dir, scratch)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
