"""The benchmark's output gate, in the test suite: on the seed-1
``optical-screen`` inputs of ``bench/generate.py``, the CLI's document for
batch 0 equals the library loop (``link_optical`` one pair at a time) by
``bench/check.py``'s comparison.  Both bench modules are loaded by path;
``bench/`` is not a package."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from arclink.attributables import read_attributables
from arclink.cli import main, parse_ephemeris, solution_record
from arclink.config import RunConfig
from arclink.errors import DegenerateConfigurationError, LinkageError, NumericalError
from arclink.kepler import CartesianState
from arclink.optical import link_optical

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def library_batch(paths, ephemeris):
    """The batch linked one pair at a time, in the shape check.compare reads."""
    config = RunConfig()
    units = config.units
    eph = parse_ephemeris(ephemeris, units, config.mu_value)
    atts1, atts2 = (read_attributables(p, units) for p in paths)
    solutions, errors = [], []
    for i, a1 in enumerate(atts1):
        for j, a2 in enumerate(atts2):
            try:
                obs1 = CartesianState(*eph.state(a1.tbar), a1.tbar)
                obs2 = CartesianState(*eph.state(a2.tbar), a2.tbar)
                sols = link_optical(a1, a2, obs1, obs2, config)
            except DegenerateConfigurationError:
                errors.append({"pair": [i, j], "code": "degenerate"})
            except NumericalError:
                errors.append({"pair": [i, j], "code": "numerical"})
            except LinkageError:
                errors.append({"pair": [i, j], "code": "input"})
            else:
                solutions += [solution_record(s, (i, j), units) for s in sols]
    return {"solutions": json.loads(json.dumps(solutions)), "errors": errors}


def test_cli_equals_library_loop_on_optical_screen(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # generate.py imports checkout
    generate, check = _load("generate"), _load("check")
    manifest = generate.generate("optical-screen", 1, str(tmp_path))
    batch = manifest["batches"][0]
    paths = [tmp_path / f for f in batch["files"]]
    out = tmp_path / "batch0.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([manifest["command"], *map(str, paths),
                     "--ephemeris", manifest["ephemeris"], "--out", str(out)])
    doc = json.loads(out.read_text())
    assert check.check_document(doc, code, batch["n1"], batch["n2"], "optical") == []
    assert doc["solutions"]
    assert check.compare(doc, library_batch(paths, manifest["ephemeris"])) == []
