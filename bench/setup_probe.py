"""Set-up of one CLI batch in a fresh interpreter, for the setup_s metric.

Imports ``arclink.cli``, parses the ephemeris and reads both attributable
files of the workload's first batch (everything the CLI does before its
pair loop), then prints ``time.time()`` and the pacer's reading as JSON;
the caller subtracts the moment it started this process.  The pacer runs
pure-Python slices, because importing numpy is part of what is timed.

    python3 bench/setup_probe.py WORKDIR
"""

import json
import os
import sys
import time

import pace

pacer = pace.Pacer(pace.python_slice)
with pacer:
    import checkout  # noqa: F401  (puts src/ on sys.path)
    from arclink.cli import parse_ephemeris, read_attributables
    from arclink.config import RunConfig

    inputs = os.path.join(sys.argv[1], "inputs")
    with open(os.path.join(inputs, "workload.json")) as fh:
        manifest = json.load(fh)
    config = RunConfig()
    parse_ephemeris(manifest["ephemeris"], config.units, config.mu_value)
    for name in manifest["batches"][0]["files"]:
        read_attributables(os.path.join(inputs, name), config.units)
    end = time.time()
print(json.dumps({"end": end, **pacer.reading()}))
