"""The paper's identification decision on noisy arcs: the seed-1 timed
batches of ``bench/generate.py`` (noiseless, with covariances), each
record's values moved by L z at 1 sigma, L the Cholesky factor of the
record's own covariance and z standard normal from a fixed seed, then
linked by ``main()`` at the default chi4 threshold of 100.  No non-link may
be selected, and at least a bound of the true links must be: the true
solution of a link is the one nearest the truth in both ranges.
``bench/generate.py`` is loaded by path, as in ``test_bench_gate.py``."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from arclink.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
NOISE_SEED = 11
# The fewest selected true links, of 48 (survey) and 64 (radar), over the
# noise seeds 11-20: survey 45 to 48, radar 64 on every seed.
MIN_SELECTED = {"optical-survey": 45, "radar-followup": 64}


def _generate():
    spec = importlib.util.spec_from_file_location("bench_generate", BENCH / "generate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _perturb(path: Path, rng: np.random.Generator) -> None:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        factor = np.linalg.cholesky(np.reshape(rec["cov"], (4, 4)))
        rec["values"] = (np.array(rec["values"]) + factor @ rng.standard_normal(4)).tolist()
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))


def noisy_outcomes(workload: str, seed: int, out: Path) -> tuple[int, int, list[float]]:
    """Of the seed-1 timed batches perturbed with noise seed ``seed``: the
    true links whose true solution is selected, the selected solutions of
    non-link pairs, and chi4 of each scored true solution."""
    manifest = _generate().generate(workload, 1, str(out))
    truth = json.loads((out / "truth.json").read_text())["links"]
    rng = np.random.default_rng(seed)
    selected, wrong, chi4 = 0, 0, []
    for b, (batch, links) in enumerate(zip(manifest["batches"], truth)):
        paths = [out / name for name in batch["files"]]
        for path in paths:
            _perturb(path, rng)
        doc_path = out / f"noisy{b}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            main([manifest["command"], *map(str, paths), "--ephemeris", manifest["ephemeris"],
                  "--out", str(doc_path)])
        solutions = json.loads(doc_path.read_text())["solutions"]
        ranges = {tuple(link["pair"]): (link["rho1"], link["rho2"]) for link in links}
        wrong += sum(bool(s["selected"]) for s in solutions if tuple(s["pair"]) not in ranges)
        for pair, (rho1, rho2) in ranges.items():
            true = min((s for s in solutions if tuple(s["pair"]) == pair), default=None,
                       key=lambda s: max(abs(s["rho1"] / rho1 - 1), abs(s["rho2"] / rho2 - 1)))
            if true is not None and true["chi4"] is not None:
                chi4.append(true["chi4"])
            selected += bool(true and true["selected"])
    return selected, wrong, chi4


@pytest.mark.parametrize("workload", ["optical-survey", "radar-followup"])
def test_noisy_links_are_identified(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # generate.py imports checkout
    selected, wrong, chi4 = noisy_outcomes(workload, NOISE_SEED, tmp_path)
    q50, q90, q99, top = np.quantile(chi4, [0.5, 0.9, 0.99, 1.0])
    print(f"\n[margin] {workload} at 1 sigma: {selected} true links selected (bound "
          f"{MIN_SELECTED[workload]}); chi4 of the true solutions 50/90/99/100%: "
          f"{q50:.3g} / {q90:.3g} / {q99:.3g} / {top:.3g} (chi2_4: 3.36 / 7.78 / 13.3)")
    assert wrong == 0
    assert selected >= MIN_SELECTED[workload]
