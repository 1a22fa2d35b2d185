"""The benchmark's output gate, in the test suite: on the seed-1 inputs of
``bench/generate.py``, the CLI's document for batch 0 of each workload
equals the library loop by ``bench/check.py``'s comparison, and exactly:
the same records, float for float, and the same errors.  The library
loop is that of ``bench/worker.py``: the workload's linker one pair at a
time, then, when both records carry a covariance, ``attach_covariances``
per solution and ``select_solutions`` per pair.  Both bench modules are
loaded by path; ``bench/`` is not a package."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from arclink.attributables import read_attributables
from arclink.cli import main, parse_ephemeris, solution_record
from arclink.config import RunConfig
from arclink.covariance import AttributablePair, attach_covariances
from arclink.errors import DegenerateConfigurationError, LinkageError, NumericalError
from arclink.kepler import CartesianState
from arclink.optical import link_optical
from arclink.radar import link_radar_optical
from arclink.selection import select_solutions

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def library_batch(command, paths, ephemeris):
    """The batch linked one pair at a time, in the shape check.compare reads."""
    config = RunConfig()
    units = config.units
    eph = parse_ephemeris(ephemeris, units, config.mu_value)
    link = link_radar_optical if command == "link-radar-optical" else link_optical
    atts1, atts2 = (read_attributables(p, units) for p in paths)
    solutions, errors = [], []
    for i, a1 in enumerate(atts1):
        for j, a2 in enumerate(atts2):
            try:
                obs1 = CartesianState(*eph.state(a1.tbar), a1.tbar)
                obs2 = CartesianState(*eph.state(a2.tbar), a2.tbar)
                sols = link(a1, a2, obs1, obs2, config)
                if a1.cov is not None and a2.cov is not None:
                    pair = AttributablePair(a1, a2)
                    for s in sols:
                        attach_covariances(pair, s, obs1, obs2, config)
                    select_solutions(sols, a2, obs2, config=config)
            except DegenerateConfigurationError:
                errors.append({"pair": [i, j], "code": "degenerate"})
            except NumericalError:
                errors.append({"pair": [i, j], "code": "numerical"})
            except LinkageError:
                errors.append({"pair": [i, j], "code": "input"})
            else:
                solutions += [solution_record(s, (i, j), units) for s in sols]
    return {"solutions": json.loads(json.dumps(solutions)), "errors": errors}


@pytest.mark.parametrize("workload", ["optical-screen", "optical-survey",
                                      "radar-followup"])
def test_cli_equals_library_loop(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # generate.py imports checkout
    generate, check = _load("generate"), _load("check")
    manifest = generate.generate(workload, 1, str(tmp_path))
    batch = manifest["batches"][0]
    paths = [tmp_path / f for f in batch["files"]]
    out = tmp_path / "batch0.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([manifest["command"], *map(str, paths),
                     "--ephemeris", manifest["ephemeris"], "--out", str(out)])
    method = "radar-optical" if manifest["command"] == "link-radar-optical" else "optical"
    doc = json.loads(out.read_text())
    assert check.check_document(doc, code, batch["n1"], batch["n2"], method) == []
    assert doc["solutions"]
    library = library_batch(manifest["command"], paths, manifest["ephemeris"])
    assert check.compare(doc, library) == []
    assert library == {"solutions": doc["solutions"],
                       "errors": [{"pair": e["pair"], "code": e["code"]} for e in doc["errors"]]}
