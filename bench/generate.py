"""Seeded synthetic workloads for the arclink benchmark.

A workload is a sequence of batches.  A batch is one pair of attributable
files, first night and second night, that the CLI crosses N x M; every
first-night record has its true partner in the second-night file and
every other pair is a non-link.  Batches are timed; a fixed accuracy
panel of single true pairs (see PANEL_LINKS) is scored.  The inputs come from the package's public
synthesis functions (``arclink.attributables``) and are noiseless, so a
recovered range differs from the truth only by the arithmetic of the
pipeline.  The hidden truth (which pairs link, and their ranges) goes to
``truth.json``, which the program never reads.

The same seed gives byte-identical files::

    python3 bench/generate.py --workload optical-survey --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

import checkout  # noqa: F401  (puts src/ on sys.path)
from arclink.attributables import (
    NoiseSpec,
    circular_observer,
    synthesize_optical_attributable,
    synthesize_radar_attributable,
    synthetic_truth_state,
)
from arclink.config import AU_DAY
from arclink.constants import ARCSEC_RAD
from arclink.errors import DomainError
from arclink.kepler import CartesianState, cartesian_to_keplerian

EPHEMERIS = "circular:radius=1.0"
MU = AU_DAY.mu_default
C_LIGHT = AU_DAY.c_light
EPOCH0 = 53000.0
NIGHT_SPAN = 0.3        # days over which one night's tracklets are spread
MIN_RANGE = 0.05        # au; closer bodies are outside the geometry family


@dataclass(frozen=True)
class Shape:
    """Geometry family and batch shape of one workload."""

    first_kind: str                  # "optical" or "radar"
    batches: int
    n1: int                          # first-night records per batch
    n2: int                          # second-night records per batch (>= n1)
    covariances: bool
    a_range: tuple[float, float]     # semi-major axis, au
    e_max: float
    rho1_range: tuple[float, float]  # first-epoch range bands, au
    gap_range: tuple[float, float]   # days between the two nights


# Why each workload exists is recorded in BENCHMARK.json.  The shapes are
# the large-database traffic of a survey: one batch per CLI call, most
# crossed pairs non-links.  A pass times four batches, each with its own
# gap between the nights (stratified over gap_range): with a single batch,
# one gap and a few first-night orbits set the cost of a whole run, and
# that cost moved by a tenth from seed to seed on optical-screen.
WORKLOADS = {
    "optical-survey": Shape("optical", batches=4, n1=12, n2=12,
                            covariances=True, a_range=(0.8, 3.3), e_max=0.3,
                            rho1_range=(0.1, 3.5), gap_range=(20.0, 120.0)),
    "radar-followup": Shape("radar", batches=4, n1=16, n2=16,
                            covariances=True, a_range=(0.8, 2.2), e_max=0.5,
                            rho1_range=(0.05, 0.8), gap_range=(5.0, 60.0)),
    "optical-screen": Shape("optical", batches=4, n1=4, n2=36,
                            covariances=False, a_range=(0.8, 3.3), e_max=0.3,
                            rho1_range=(0.1, 3.5), gap_range=(20.0, 120.0)),
}

# Accuracy panel: PANEL_LINKS true pairs of the workload's geometry family,
# each a 1 x 1 batch, drawn from PANEL_SEED whatever the run's seed.  A
# fixed panel makes link_recall and range_digits_* the same on every seed,
# so one lost link moves link_recall by a fixed step (1/PANEL_LINKS of the
# true pairs) that a tight bound can catch; with a few dozen links drawn
# afresh per seed, sampling alone spreads recall by a tenth.
PANEL_LINKS = 60
PANEL_SEED = 0

OPTICAL_NOISE = NoiseSpec(sigma_angle=0.5 * ARCSEC_RAD,
                          sigma_rate=0.5 * ARCSEC_RAD)
RADAR_NOISE = NoiseSpec(sigma_angle=0.5 * ARCSEC_RAD,
                        sigma_rate=0.5 * ARCSEC_RAD,
                        sigma_rho=1e-9, sigma_rhodot=1e-9)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _range(elements, att, eph) -> float:
    state = synthetic_truth_state(elements, att, MU, C_LIGHT, eph)
    q, _ = eph.state(att.tbar)
    return float(np.linalg.norm(state.r - q))


def _synthesize(kind, elements, eph, tbar, covariances):
    if kind == "radar":
        return synthesize_radar_attributable(
            elements, eph, tbar, MU, C_LIGHT,
            RADAR_NOISE if covariances else None)
    return synthesize_optical_attributable(
        elements, eph, tbar, MU, C_LIGHT,
        OPTICAL_NOISE if covariances else None)


def _draw_object(rng, shape, eph, t1, t2, rho1):
    """An orbit seen at range ``rho1`` from the observer at t1.

    The body is put at that range along a random line of sight within 0.5
    rad of the ecliptic, with a prograde heliocentric velocity of 0.8-1.2
    times the circular speed, tilted by up to 0.4 rad out of the ecliptic
    and 0.3 rad off the horizontal.  Draws repeat until the orbit lies in
    the workload's (a, e) family and is no closer than MIN_RANGE at t2.
    """
    q1, _ = eph.state(t1)
    z = np.array([0.0, 0.0, 1.0])
    while True:
        lon, lat = rng.uniform(0.0, 2 * math.pi), rng.uniform(-0.5, 0.5)
        los = np.array([math.cos(lat) * math.cos(lon),
                        math.cos(lat) * math.sin(lon), math.sin(lat)])
        r = q1 + rho1 * los
        r_hat = r / np.linalg.norm(r)
        along = np.cross(z, r_hat)
        along /= np.linalg.norm(along)
        tilt, climb = rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)
        heading = math.cos(tilt) * along + math.sin(tilt) * np.cross(r_hat, along)
        direction = math.cos(climb) * heading + math.sin(climb) * r_hat
        speed = math.sqrt(MU / np.linalg.norm(r)) * rng.uniform(0.8, 1.2)
        try:
            el = cartesian_to_keplerian(CartesianState(r, speed * direction, t1),
                                        MU)
        except DomainError:
            continue
        if not (shape.a_range[0] <= el.a <= shape.a_range[1]
                and el.e <= shape.e_max):
            continue
        att1 = _synthesize(shape.first_kind, el, eph, t1, shape.covariances)
        att2 = _synthesize("optical", el, eph, t2, shape.covariances)
        rho2 = _range(el, att2, eph)
        if rho2 >= MIN_RANGE:
            return att1, att2, _range(el, att1, eph), rho2


def _record(att) -> dict:
    """One JSONL attributable record in the README's file format."""
    return {
        "kind": att.kind,
        "tbar_mjd": float(att.tbar),
        "values": [float(v) for v in att.values],
        "cov": None if att.cov is None else [float(x) for x in np.ravel(att.cov)],
        "station": att.station,
        "frame": att.frame,
        "units": AU_DAY.name,
    }


def _write_jsonl(path: str, atts) -> None:
    with open(path, "w") as fh:
        for att in atts:
            fh.write(json.dumps(_record(att)) + "\n")


def _pairs(rng, shape, eph, night1, gap, n1, n2, bands, edges):
    """One batch: n1 first-night records, each linked to one of n2
    second-night records (shuffled), the rest unlinked.  The first-epoch
    range of link k is drawn from band ``bands[k]`` of ``edges``."""
    night2 = night1 + gap
    first, second, links = [], [], []
    for k in range(n2):
        t1 = night1 + NIGHT_SPAN * rng.uniform()
        t2 = night2 + NIGHT_SPAN * rng.uniform()
        if k < n1:
            lo = int(bands[k])
            target = rng.uniform(edges[lo], edges[lo + 1])
        else:
            target = rng.uniform(*shape.rho1_range)
        att1, att2, rho1, rho2 = _draw_object(rng, shape, eph, t1, t2, target)
        if k < n1:
            first.append(att1)
            links.append((k, rho1, rho2))
        second.append(att2)
    order = rng.permutation(n2)
    position = {int(old): new for new, old in enumerate(order)}
    second = [second[int(old)] for old in order]
    return first, second, [{"pair": [i, position[i]], "rho1": rho1, "rho2": rho2}
                           for i, rho1, rho2 in links]


def _write_batch(out_dir, stem, first, second) -> dict:
    files = (f"{stem}_1.jsonl", f"{stem}_2.jsonl")
    _write_jsonl(os.path.join(out_dir, files[0]), first)
    _write_jsonl(os.path.join(out_dir, files[1]), second)
    return {"files": list(files), "n1": len(first), "n2": len(second)}


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's batches, its accuracy panel and the truth of
    both under ``out_dir``; return the manifest (also written as
    ``workload.json``)."""
    shape = WORKLOADS[workload]
    eph = circular_observer(1.0, MU)
    os.makedirs(out_dir, exist_ok=True)
    gap_lo, gap_hi = shape.gap_range

    # Stratify the first-epoch ranges: every seed gets one linked object in
    # each of the equal-width range bands, so seeds differ in orbits but not
    # in how many far (hard) geometries they hold.
    rng = _rng(workload, seed)
    n_linked = shape.batches * shape.n1
    edges = np.linspace(*shape.rho1_range, n_linked + 1)
    bands = rng.permutation(n_linked)
    batches, truth = [], []
    for b in range(shape.batches):
        u = (b + rng.uniform()) / shape.batches
        first, second, links = _pairs(
            rng, shape, eph, EPOCH0 + 1.0 * b, gap_lo + u * (gap_hi - gap_lo),
            shape.n1, shape.n2, bands[b * shape.n1:], edges)
        batches.append(_write_batch(out_dir, f"batch{b}", first, second))
        truth.append(links)

    rng = _rng(f"{workload}/panel", PANEL_SEED)
    edges = np.linspace(*shape.rho1_range, PANEL_LINKS + 1)
    panel, panel_truth = [], []
    for k in range(PANEL_LINKS):
        first, second, links = _pairs(
            rng, shape, eph, EPOCH0 + 0.5 * k, rng.uniform(gap_lo, gap_hi),
            1, 1, [k], edges)
        panel.append(_write_batch(out_dir, f"panel{k}", first, second))
        panel_truth.append(links)

    manifest = {"workload": workload, "seed": seed,
                "command": ("link-radar-optical" if shape.first_kind == "radar"
                            else "link-optical"),
                "ephemeris": EPHEMERIS, "covariances": shape.covariances,
                "batches": batches, "panel": panel}
    with open(os.path.join(out_dir, "workload.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    with open(os.path.join(out_dir, "truth.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "links": truth,
                   "panel": panel_truth}, fh, indent=1)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
