"""Tier-1 with the resultant kernels in plain double.

    python3 scripts/plain_double.py

Copies what tier-1 reads of this tree (``src``, ``tests``, ``bench``,
``demos``, ``scripts`` and ``pyproject.toml``) into a temporary directory,
sets the working precision of the resultant kernels there
(``polynomials._WORKING``) from ``np.longdouble`` to ``np.float64``, and
runs tier-1 on the copy.  It prints the tests that fail and pytest's last
line, and exits 0 whatever they are: the list says how far the package is
from running without long double.  Nothing is written into the tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "bench", "demos", "scripts")
KERNELS = os.path.join("src", "arclink", "polynomials.py")
LONG_DOUBLE = "_WORKING = np.longdouble\n"
DOUBLE = "_WORKING = np.float64\n"


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        for name in COPIED:
            shutil.copytree(os.path.join(ROOT, name), os.path.join(scratch, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), scratch)
        path = os.path.join(scratch, KERNELS)
        with open(path) as fh:
            text = fh.read()
        if text.count(LONG_DOUBLE) != 1:
            print(f"{KERNELS} has no single line {LONG_DOUBLE.strip()!r}", file=sys.stderr)
            return 2
        with open(path, "w") as fh:
            fh.write(text.replace(LONG_DOUBLE, DOUBLE))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=scratch, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(scratch, "src"),
                     PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    print(f"with {DOUBLE.strip()}: {len(failed)} failing")
    print("\n".join(failed + lines[-1:]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
