"""Batch command line for linking attributable files.

Subcommands
-----------
link-optical A1.jsonl A2.jsonl
    Link every attributable of the first file against every one of the
    second (cartesian product), attach covariances when both records carry
    one, score acceptance, and write one solutions JSON document.
link-radar-optical RAD.jsonl OPT.jsonl
    Same, first file radar attributables, second file optical.
synth ELEMENTS.json
    Synthesize a pair of attributables (plus a ground-truth JSON with the
    hidden ranges/rates) from known elements, optionally with noise.
curves A1.jsonl A2.jsonl
    Sample the four linkage curves (angular-momentum quadratic, projected
    Lenz polynomial, unsquared Lenz residual, squared energy equality) on a
    range grid and write one CSV per curve.

Exit codes: 0 success (an empty solution set is a success), 2 input error,
3 degenerate observing geometry, 4 numerical failure.  In batch mode,
per-pair failures are recorded in the output document under ``errors`` and
the worst class decides the exit code (input > numerical > degenerate).

Floats are serialized with Python's shortest round-trip representation
(up to 17 significant digits, lossless), so re-ingesting a solutions file
reproduces the numbers exactly.  Output files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .attributables import (
    KeplerianEphemeris,
    NoiseSpec,
    SpinningStationEphemeris,
    TabulatedEphemeris,
    circular_observer,
    read_attributables,
    synthesize_optical_attributable,
    synthesize_radar_attributable,
    synthetic_truth_state,
    write_attributables,
)
from .config import RunConfig, UnitSystem, unit_system
from .constants import ARCSEC_RAD
from .covariance import AttributablePair, attach_covariances
from .errors import (
    DegenerateConfigurationError,
    DomainError,
    EphemerisError,
    LinkageError,
    NumericalError,
)
from .geometry import topocentric_coords
from .kepler import CartesianState, KeplerianElements
from .optical import LinkageSolution, emit_curve_samples, link_optical
from .radar import link_radar_optical
from .selection import select_solutions

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_NUMERICAL = 4

SOLUTIONS_FORMAT = "arclink-solutions"


# ---------------------------------------------------------------------------
# serialization


def _write_json(path: str, doc: dict) -> None:
    """Write JSON atomically: full temp file first, then rename over.

    The text is ``json.dumps(doc)``, one line, written piece by piece: each
    top-level value, and each item of a top-level list, goes through the C
    encoder on its own (``json.dump`` always runs the pure-Python one), so
    at most one item's text is held at a time."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write("{")
        for n, (key, value) in enumerate(doc.items()):
            fh.write(f"{', ' if n else ''}{json.dumps(key)}: ")
            if isinstance(value, list):
                fh.write("[")
                for i, item in enumerate(value):
                    fh.write(f"{', ' if i else ''}{json.dumps(item)}")
                fh.write("]")
            else:
                fh.write(json.dumps(value))
        fh.write("}\n")
    os.replace(tmp, path)


def _state_record(state: CartesianState, units: UnitSystem) -> dict:
    return {
        "epoch_mjd": units.internal_to_mjd(state.epoch),
        "r": [float(x) for x in state.r],
        "v": [float(x) for x in state.v],
    }


def _state_from_record(rec: dict, units: UnitSystem) -> CartesianState:
    return CartesianState(np.array(rec["r"], dtype=float),
                          np.array(rec["v"], dtype=float),
                          units.mjd_to_internal(float(rec["epoch_mjd"])))


def _elements_record(el, units: UnitSystem) -> dict | None:
    """Orbital elements with angles in radians (lossless round trip)."""
    if el is None:
        return None
    return {"a": el.a, "e": el.e, "i": el.i, "Omega": el.Omega,
            "omega": el.omega, "ell": el.ell,
            "epoch_mjd": units.internal_to_mjd(el.epoch)}


def _elements_from_record(rec: dict | None, units: UnitSystem):
    if rec is None:
        return None
    return KeplerianElements(
        a=float(rec["a"]), e=float(rec["e"]), i=float(rec["i"]),
        Omega=float(rec["Omega"]), omega=float(rec["omega"]),
        ell=float(rec["ell"]),
        epoch=units.mjd_to_internal(float(rec["epoch_mjd"])))


def _matrix_record(m) -> list | None:
    return None if m is None else [float(x) for x in np.ravel(m)]


def solution_record(sol: LinkageSolution, pair_index: tuple[int, int],
                    units: UnitSystem) -> dict:
    """One linkage solution as a JSON-ready dict."""
    return {
        "pair": list(pair_index),
        "method": sol.method,
        "rho1": sol.rho1, "rhodot1": sol.rhodot1,
        "rho2": sol.rho2, "rhodot2": sol.rhodot2,
        "state1": _state_record(sol.state1, units),
        "state2": _state_record(sol.state2, units),
        "elements1": _elements_record(sol.elements1, units),
        "elements2": _elements_record(sol.elements2, units),
        "elliptic": sol.elliptic,
        "lenz_residual": sol.lenz_residual,
        "compat_lenz": sol.compat_lenz,
        "compat_anomaly": sol.compat_anomaly,
        "energy_offset": sol.energy_offset,
        "covariance1": _matrix_record(sol.covariance1),
        "covariance2": _matrix_record(sol.covariance2),
        "chi4": sol.chi4,
        "selected": sol.selected,
        "unselectable": sol.unselectable,
        "flags": list(sol.flags),
    }


def solution_from_record(rec: dict, units: UnitSystem) -> LinkageSolution:
    """Rebuild a solution from its serialized record (inverse of
    :func:`solution_record`; the pair index is not part of the solution)."""
    def matrix(key):
        raw = rec.get(key)
        return None if raw is None else np.array(raw, dtype=float).reshape(6, 6)

    return LinkageSolution(
        rho1=float(rec["rho1"]), rho2=float(rec["rho2"]),
        rhodot1=float(rec["rhodot1"]), rhodot2=float(rec["rhodot2"]),
        state1=_state_from_record(rec["state1"], units),
        state2=_state_from_record(rec["state2"], units),
        elements1=_elements_from_record(rec.get("elements1"), units),
        elements2=_elements_from_record(rec.get("elements2"), units),
        elliptic=bool(rec["elliptic"]),
        lenz_residual=float(rec["lenz_residual"]),
        compat_lenz=float(rec["compat_lenz"]),
        compat_anomaly=(None if rec.get("compat_anomaly") is None
                        else float(rec["compat_anomaly"])),
        energy_offset=float(rec["energy_offset"]),
        method=rec.get("method", "optical"),
        flags=list(rec.get("flags", [])),
        covariance1=matrix("covariance1"),
        covariance2=matrix("covariance2"),
        chi4=rec.get("chi4"),
        selected=rec.get("selected"),
        unselectable=bool(rec.get("unselectable", False)),
    )


# ---------------------------------------------------------------------------
# input parsing


def parse_ephemeris(spec: str, units: UnitSystem, mu: float):
    """Observer ephemeris from a CLI spec string.

    Forms: a CSV path (columns mjd,qx,qy,qz,vx,vy,vz), ``kepler:PATH.json``
    (elements file as in :func:`elements_from_file`),
    ``circular:radius=R[,phase=P]``, or
    ``spin:radius=R,rate=W[,phase=P][,z=Z]``.
    """
    kind, sep, rest = spec.partition(":")
    if not sep or kind not in ("kepler", "circular", "spin"):
        return TabulatedEphemeris.from_csv(spec, units)
    if kind == "kepler":
        return KeplerianEphemeris(elements_from_file(rest, units), mu)
    params = {}
    for part in rest.split(","):
        if not part:
            continue
        key, eq, value = part.partition("=")
        if not eq:
            raise EphemerisError(f"bad ephemeris parameter {part!r} in {spec!r}")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise EphemerisError(f"non-numeric ephemeris parameter {part!r}")
        if not math.isfinite(params[key.strip()]):
            raise EphemerisError(f"non-finite ephemeris parameter {part!r}")
    try:
        if kind == "circular":
            radius = params.pop("radius")
            phase = params.pop("phase", 0.0)
            if params:
                raise EphemerisError(f"unknown circular parameters {sorted(params)}")
            if radius <= 0.0:
                raise EphemerisError(f"circular radius must be positive, got {radius}")
            return circular_observer(radius, mu, phase)
        radius = params.pop("radius")
        rate = params.pop("rate")
        eph = SpinningStationEphemeris(radius, rate, params.pop("phase", 0.0),
                                       params.pop("z", 0.0))
        if params:
            raise EphemerisError(f"unknown spin parameters {sorted(params)}")
        return eph
    except KeyError as exc:
        raise EphemerisError(f"ephemeris spec {spec!r} missing parameter {exc}")


def elements_from_file(path: str, units: UnitSystem) -> KeplerianElements:
    """Elements JSON: a, e, i_deg, Omega_deg, omega_deg, ell_deg, epoch_mjd."""
    with open(path) as fh:
        rec = json.load(fh)
    keys = ("a", "e", "i_deg", "Omega_deg", "omega_deg", "ell_deg", "epoch_mjd")
    try:
        a, e, i, Omega, omega, ell, epoch = (float(rec[k]) for k in keys)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed elements file {path}: {exc}") from None
    if not all(map(math.isfinite, (a, e, i, Omega, omega, ell, epoch))):
        raise DomainError(f"non-finite value in elements file {path}")
    if a <= 0.0 or not 0.0 <= e < 1.0:
        raise DomainError(f"elements file {path} is not an ellipse (a={a}, e={e})")
    return KeplerianElements(
        a=a, e=e, i=math.radians(i), Omega=math.radians(Omega),
        omega=math.radians(omega), ell=math.radians(ell),
        epoch=units.mjd_to_internal(epoch))


def _config_from_args(args) -> RunConfig:
    for flag, value, zero_ok in (("--mu", args.mu, False),
                                 ("--spurious-tol", args.spurious_tol, False),
                                 ("--chi4-threshold", args.chi4_threshold, True)):
        if value is not None and not (math.isfinite(value) and (
                value > 0.0 or zero_ok and value == 0.0)):
            raise DomainError(f"{flag} must be finite and "
                              f"{'>= 0' if zero_ok else 'positive'}, got {value}")
    config = RunConfig(units=unit_system(args.units), mu=args.mu,
                       chi4_threshold=args.chi4_threshold, seed=args.seed)
    if args.spurious_tol is not None:
        config = config.with_options(spurious_tol=args.spurious_tol)
    return config


# ---------------------------------------------------------------------------
# subcommands


def _observer(eph, tbar: float) -> CartesianState:
    return CartesianState(*eph.state(tbar), tbar)


def _cmd_link(args, link, first_kind: str) -> int:
    config = _config_from_args(args)
    units = config.units
    atts1 = read_attributables(args.attributables1, units)
    atts2 = read_attributables(args.attributables2, units)
    eph = parse_ephemeris(args.ephemeris, units, config.mu_value)

    # One ephemeris query per distinct epoch; the error of an epoch the
    # ephemeris rejects is kept and fails each pair that uses that epoch.
    observers: dict[float, CartesianState | LinkageError] = {}

    def observer(tbar: float) -> CartesianState:
        if tbar not in observers:
            try:
                observers[tbar] = _observer(eph, tbar)
            except LinkageError as exc:
                observers[tbar] = exc
        if isinstance(observers[tbar], LinkageError):
            raise observers[tbar]
        return observers[tbar]

    # Overflow or NaN in a pair's arithmetic is left to the finiteness
    # checks, which make it that pair's error; numpy's warnings would only
    # repeat it on stderr.
    solutions, errors = [], []
    for i, a1 in enumerate(atts1):
        for j, a2 in enumerate(atts2):
            try:
                with np.errstate(all="ignore"):
                    obs1, obs2 = observer(a1.tbar), observer(a2.tbar)
                    sols = link(a1, a2, obs1, obs2, config)
                    if a1.cov is not None and a2.cov is not None:
                        pair = AttributablePair(a1, a2)
                        for s in sols:
                            attach_covariances(pair, s, obs1, obs2, config)
                        select_solutions(sols, a2, obs2, config=config)
                    solutions.extend(solution_record(s, (i, j), units)
                                     for s in sols)
            except DegenerateConfigurationError as exc:
                errors.append({"pair": [i, j], "code": "degenerate",
                               "flags": exc.flags, "message": str(exc)})
            except NumericalError as exc:
                errors.append({"pair": [i, j], "code": "numerical",
                               "flags": [], "message": str(exc)})
            except LinkageError as exc:
                errors.append({"pair": [i, j], "code": "input",
                               "flags": [], "message": str(exc)})

    doc = {
        "format": SOLUTIONS_FORMAT,
        "method": first_kind,
        "units": units.name,
        "mu": config.mu_value,
        "chi4_threshold": config.chi4_threshold,
        "solutions": solutions,
        "errors": errors,
    }
    _write_json(args.out, doc)
    print(f"{args.out}: {len(solutions)} solution(s), "
          f"{len(errors)} failed pair(s)")
    codes = {e["code"] for e in errors}
    if "input" in codes:
        return EXIT_INPUT
    if "numerical" in codes:
        return EXIT_NUMERICAL
    if "degenerate" in codes:
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_link_optical(args) -> int:
    return _cmd_link(args, link_optical, "optical")


def cmd_link_radar_optical(args) -> int:
    return _cmd_link(args, link_radar_optical, "radar-optical")


def cmd_synth(args) -> int:
    config = _config_from_args(args)
    units = config.units
    mu, c_light = config.mu_value, units.c_light
    elements = elements_from_file(args.elements, units)
    eph = parse_ephemeris(args.ephemeris, units, mu)
    try:
        t1_mjd, t2_mjd = (float(p) for p in args.epochs.split(","))
    except ValueError:
        raise DomainError(f"--epochs wants 'MJD1,MJD2', got {args.epochs!r}")
    t1, t2 = units.mjd_to_internal(t1_mjd), units.mjd_to_internal(t2_mjd)

    noise = NoiseSpec(sigma_angle=args.sigma_angle * ARCSEC_RAD,
                      sigma_rate=args.sigma_rate * ARCSEC_RAD,
                      sigma_rho=args.sigma_rho,
                      sigma_rhodot=args.sigma_rhodot,
                      apply=args.apply_noise)
    rng = np.random.default_rng(config.seed)
    if args.kind == "radar":
        att1 = synthesize_radar_attributable(elements, eph, t1, mu, c_light,
                                             noise, rng)
    else:
        att1 = synthesize_optical_attributable(elements, eph, t1, mu, c_light,
                                               noise, rng)
    att2 = synthesize_optical_attributable(elements, eph, t2, mu, c_light,
                                           noise, rng)
    write_attributables(args.out, [att1, att2], units)

    truth = {"format": "arclink-truth", "units": units.name, "mu": mu,
             "kind": args.kind, "seed": config.seed,
             "elements": _elements_record(elements, units), "epochs": []}
    for att in (att1, att2):
        state = synthetic_truth_state(elements, att, mu, c_light, eph)
        q, qdot = eph.state(att.tbar)
        coords = topocentric_coords(state.r, state.v, q, qdot)
        truth["epochs"].append({
            "tbar_mjd": units.internal_to_mjd(att.tbar),
            "alpha": coords[0], "delta": coords[1],
            "alphadot": coords[2], "deltadot": coords[3],
            "rho": coords[4], "rhodot": coords[5],
            "state": _state_record(state, units),
        })
    _write_json(args.truth, truth)
    print(f"{args.out}: 2 attributable(s); {args.truth}: ground truth")
    return EXIT_OK


def cmd_curves(args) -> int:
    config = _config_from_args(args)
    units = config.units
    att1 = read_attributables(args.attributables1, units)[0]
    att2 = read_attributables(args.attributables2, units)[0]
    eph = parse_ephemeris(args.ephemeris, units, config.mu_value)
    try:
        lo1, hi1, lo2, hi2 = (float(p) for p in args.bounds.split(","))
    except ValueError:
        raise DomainError(f"--bounds wants 'lo1,hi1,lo2,hi2', got {args.bounds!r}")
    grids = emit_curve_samples(
        att1, att2, _observer(eph, att1.tbar), _observer(eph, att2.tbar),
        config, directory=args.out_dir, bounds=((lo1, hi1), (lo2, hi2)),
        n=args.grid)
    for name, path in grids["paths"].items():
        print(f"{name}: {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arclink",
        description="Link two short-arc attributables into preliminary orbits.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--units", choices=["au-day", "km-s"], default="au-day",
                        help="unit system (default au-day, heliocentric)")
    common.add_argument("--mu", type=float, default=None,
                        help="gravitational parameter (default per unit system)")
    common.add_argument("--ephemeris", required=True,
                        help="observer ephemeris: CSV path, kepler:FILE.json, "
                             "circular:radius=R[,phase=P], or "
                             "spin:radius=R,rate=W[,phase=P][,z=Z]")
    common.add_argument("--spurious-tol", type=float, default=None,
                        help="unsquared-Lenz residual above which a candidate "
                             "is discarded (default 1e-6)")
    common.add_argument("--chi4-threshold", type=float, default=100.0,
                        help="acceptance threshold on the identification "
                             "penalty (default 100)")
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed for anything stochastic")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("link-optical", parents=[common],
                       help="link two optical attributable files")
    p.add_argument("attributables1")
    p.add_argument("attributables2")
    p.add_argument("--out", required=True, help="solutions JSON path")
    p.set_defaults(func=cmd_link_optical)

    p = sub.add_parser("link-radar-optical", parents=[common],
                       help="link a radar attributable file with an optical one")
    p.add_argument("attributables1", help="radar attributables (first epoch)")
    p.add_argument("attributables2", help="optical attributables (second epoch)")
    p.add_argument("--out", required=True, help="solutions JSON path")
    p.set_defaults(func=cmd_link_radar_optical)

    p = sub.add_parser("synth", parents=[common],
                       help="synthesize an attributable pair from elements")
    p.add_argument("elements", help="elements JSON "
                   "(a, e, i_deg, Omega_deg, omega_deg, ell_deg, epoch_mjd)")
    p.add_argument("--epochs", required=True, help="mean epochs 'MJD1,MJD2'")
    p.add_argument("--kind", choices=["optical", "radar"], default="optical",
                   help="kind of the first attributable (second is optical)")
    p.add_argument("--sigma-angle", type=float, default=0.5,
                   help="angle noise, arcsec (default 0.5)")
    p.add_argument("--sigma-rate", type=float, default=0.5,
                   help="rate noise, arcsec per time unit (default 0.5)")
    p.add_argument("--sigma-rho", type=float, default=0.0,
                   help="range noise, length units (radar)")
    p.add_argument("--sigma-rhodot", type=float, default=0.0,
                   help="range-rate noise (radar)")
    p.add_argument("--apply-noise", action="store_true",
                   help="perturb the values (covariance is attached either way)")
    p.add_argument("--out", required=True, help="attributables JSONL path")
    p.add_argument("--truth", required=True, help="ground-truth JSON path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("curves", parents=[common],
                       help="sample the linkage zero-curves on a range grid")
    p.add_argument("attributables1")
    p.add_argument("attributables2")
    p.add_argument("--grid", type=int, default=81,
                   help="grid points per axis (default 81)")
    p.add_argument("--bounds", default="0.01,4.0,0.01,4.0",
                   help="rho1/rho2 window 'lo1,hi1,lo2,hi2' "
                        "(default 0.01,4.0,0.01,4.0)")
    p.add_argument("--out-dir", required=True, help="directory for curve CSVs")
    p.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateConfigurationError as exc:
        print(f"arclink: degenerate geometry: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NumericalError as exc:
        print(f"arclink: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (LinkageError, OSError, json.JSONDecodeError) as exc:
        print(f"arclink: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
