#!/usr/bin/env python3
"""Drive the whole linkage from the command line, file to file.

The `arclink` command line (`python -m arclink.cli`, or the `arclink`
script that installing the package puts on PATH) wraps the library for
batch work: synthesize attributables from known elements, link files of
attributables pairwise, and dump curve samples.  Everything speaks JSON/JSONL on disk, so the
steps chain in a shell pipeline.  Exit codes tell a scheduler what
happened: 0 success, 2 bad input, 3 degenerate geometry, 4 numerical
failure (for a batch, the worst class wins: input > numerical >
degenerate).
"""

import json
import pathlib
import subprocess
import sys
import tempfile

work = pathlib.Path(tempfile.mkdtemp(prefix="arclink_demo_"))
print(f"working in {work}\n")


def run(*args):
    print("$ arclink", " ".join(args))
    proc = subprocess.run([sys.executable, "-m", "arclink.cli", *args],
                          capture_output=True, text=True)
    if proc.stdout:
        print(proc.stdout, end="")
    print(f"(exit {proc.returncode})\n")
    return proc.returncode


# --- 1. synthesize a pair of noisy attributables ----------------------------
# Elements file: semi-major axis in au, angles in degrees, epoch in MJD.
elements = {"a": 1.25, "e": 0.21, "i_deg": 8.5, "Omega_deg": 40.0,
            "omega_deg": 110.0, "ell_deg": 65.0, "epoch_mjd": 53000.0}
(work / "elements.json").write_text(json.dumps(elements, indent=2))

run("synth", str(work / "elements.json"),
    "--ephemeris", "circular:radius=1.0",
    "--epochs", "53004,53106",
    "--sigma-angle", "0.5", "--sigma-rate", "0.5",
    "--apply-noise", "--seed", "11",
    "--out", str(work / "atts.jsonl"),
    "--truth", str(work / "truth.json"))

# synth writes both epochs into one JSONL; link-optical crosses FILE1 x FILE2,
# so split the two records into one file per epoch.
lines = (work / "atts.jsonl").read_text().splitlines()
(work / "epoch1.jsonl").write_text(lines[0] + "\n")
(work / "epoch2.jsonl").write_text(lines[1] + "\n")

# --- 2. link them -------------------------------------------------------------
run("link-optical", str(work / "epoch1.jsonl"), str(work / "epoch2.jsonl"),
    "--ephemeris", "circular:radius=1.0",
    "--out", str(work / "solutions.json"))

doc = json.loads((work / "solutions.json").read_text())
print(f"solutions file: format={doc['format']!r}  method={doc['method']!r}  "
      f"units={doc['units']!r}")
for sol in doc["solutions"]:
    # A hyperbolic solution has no elements, and an unscored one no chi4.
    el, chi4 = sol["elements1"], sol["chi4"]
    print(f"  pair {sol['pair']}: rho1={sol['rho1']:.6f}  "
          + (f"a={el['a']:.4f} au  e={el['e']:.4f}  " if el else "hyperbolic  ")
          + (f"chi4={chi4:.3g}  " if chi4 is not None else "")
          + f"selected={sol['selected']}")

truth = json.loads((work / "truth.json").read_text())
print(f"\nground truth for comparison: rho1={truth['epochs'][0]['rho']:.6f} au")

# --- 3. what failure looks like ----------------------------------------------
# Linking a file against itself pairs each attributable with one at the
# very same epoch -- an input error, reported per pair and through the
# exit code (2) rather than an exception.
code = run("link-optical", str(work / "epoch1.jsonl"),
           str(work / "epoch1.jsonl"),
           "--ephemeris", "circular:radius=1.0",
           "--out", str(work / "bad.json"))
bad = json.loads((work / "bad.json").read_text())
print(f"failed-pair record: {bad['errors'][0]}")
print(f"exit code {code} = bad input, as promised")
