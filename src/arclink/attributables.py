"""Attributables: compressed observation arcs and their covariances.

An attributable summarizes a short arc of observations at a reference epoch
t_bar: optical arcs give angles and angular rates (alpha, delta, alphadot,
deltadot); radar arcs give angles, range, and range rate (alpha, delta, rho,
rhodot).  This module holds the data types, least-squares fits from arcs,
observer ephemerides (many epochs in one ``states`` call), a file's
attributables as columns, synthesis of exact attributables from a known
orbit, and file I/O (JSONL attributables, CSV arcs and ephemerides).

All quantities are in the internal units of a :class:`~arclink.config.UnitSystem`:
radians, the system length unit, and epochs in the system time unit
(MJD days for au-day, seconds for km-s).  MJD appears only at file boundaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import UnitSystem
from .constants import ARCSEC_RAD
from .errors import (
    ConvergenceError,
    DomainError,
    EphemerisError,
    FitError,
    checked,
    fail_rows,
)
from .geometry import topocentric_coords
from .kepler import (
    KEPLER_UNCONVERGED,
    TWO_PI,
    CartesianState,
    KeplerianElements,
    kepler_state_rows,
    mean_motion,
    perifocal_rotation,
    propagate_kepler,
    wrap_angle,
)

_DEFAULT_SIGMA_ARC = 0.5 * ARCSEC_RAD


@dataclass(frozen=True)
class OpticalAttributable:
    """(alpha, delta, alphadot, deltadot) at epoch tbar, with optional 4x4
    covariance in that same order."""

    alpha: float
    delta: float
    alphadot: float
    deltadot: float
    tbar: float
    cov: np.ndarray | None = None
    station: str = ""
    frame: str = "ecliptic"

    @property
    def values(self) -> np.ndarray:
        return np.array([self.alpha, self.delta, self.alphadot, self.deltadot])

    kind = "optical"


@dataclass(frozen=True)
class RadarAttributable:
    """(alpha, delta, rho, rhodot) at epoch tbar: angles plus range and
    range rate; the angular rates are unknowns of the radar linkage."""

    alpha: float
    delta: float
    rho: float
    rhodot: float
    tbar: float
    cov: np.ndarray | None = None
    station: str = ""
    frame: str = "ecliptic"

    @property
    def values(self) -> np.ndarray:
        return np.array([self.alpha, self.delta, self.rho, self.rhodot])

    kind = "radar"


@dataclass(frozen=True)
class NoiseSpec:
    """Observation noise model for synthesized attributables.

    The covariance is always attached (built from the sigmas, with the
    tangent-plane convention: variance of alpha is (sigma/cos delta)^2);
    the values themselves are perturbed only when ``apply`` is True.
    """

    sigma_angle: float = _DEFAULT_SIGMA_ARC
    sigma_rate: float = _DEFAULT_SIGMA_ARC  # per time unit
    sigma_rho: float = 0.0
    sigma_rhodot: float = 0.0
    apply: bool = False


# ---------------------------------------------------------------------------
# observer ephemerides


class _Ephemeris:
    """An observer ephemeris: ``states(ts)`` gives the observer positions
    and velocities (N, 3) at the epochs ts (N,), and the error of each
    epoch it rejects, else None; ``state(t)`` is its one-row case."""

    def state(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        q, qdot, errors = self.states(np.array([t], dtype=float))
        checked(*errors)
        return q[0], qdot[0]


class KeplerianEphemeris(_Ephemeris):
    """Observer on a fixed two-body orbit (e.g. a heliocentric platform)."""

    def __init__(self, elements: KeplerianElements, mu: float):
        try:
            self._n = mean_motion(elements.a, mu)
        except (OverflowError, ZeroDivisionError):
            raise EphemerisError(f"observer orbit with a={elements.a!r} has no mean "
                                 "motion in double precision") from None
        self.elements = elements
        self.mu = mu
        # the elements as propagate_elements leaves them: the angles wrapped again
        self._wrapped = replace(elements)
        self._rotation = perifocal_rotation(self._wrapped)

    def states(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        """``propagate_kepler`` at each epoch, row-wise: an epoch whose
        Kepler solve does not converge fails alone."""
        el = self.elements
        # the mean anomalies as propagate_elements wraps them and
        # KeplerianElements wraps them again
        ell = np.mod(np.mod(el.ell + self._n * (ts - el.epoch), TWO_PI), TWO_PI)
        r, v, converged = kepler_state_rows(self._wrapped, ell, self.mu, self._rotation)
        errors = [None] * len(ts)
        fail_rows(errors, ~converged, lambda k: ConvergenceError(KEPLER_UNCONVERGED))
        return r, v, errors


def circular_observer(radius: float, mu: float, phase: float = 0.0) -> KeplerianEphemeris:
    """Observer on a circular orbit of given radius in the reference plane."""
    el = KeplerianElements(a=radius, e=0.0, i=0.0, Omega=0.0, omega=0.0,
                           ell=phase, epoch=0.0)
    return KeplerianEphemeris(el, mu)


class SpinningStationEphemeris(_Ephemeris):
    """Station at fixed radius and height rotating uniformly about the z
    axis: q = (R cos(w t + phase), R sin(w t + phase), z)."""

    def __init__(self, radius: float, rate: float, phase: float = 0.0, z: float = 0.0):
        self.radius = radius
        self.rate = rate
        self.phase = phase
        self.z = z

    def states(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        th = self.rate * ts + self.phase
        c, s = np.cos(th), np.sin(th)
        q = np.array([self.radius * c, self.radius * s, np.full(len(ts), self.z)]).T
        qdot = self.radius * self.rate * np.array([-s, c, np.zeros(len(ts))]).T
        return q, qdot, [None] * len(ts)


class TabulatedEphemeris(_Ephemeris):
    """Observer states interpolated from a table by cubic Hermite splines
    (position knots with velocity derivatives, so both are C^1 and mutually
    consistent).  An epoch outside the tabulated span fails with
    :class:`EphemerisError`."""

    def __init__(self, times: np.ndarray, positions: np.ndarray, velocities: np.ndarray):
        times = np.asarray(times, dtype=float)
        positions = np.asarray(positions, dtype=float)
        velocities = np.asarray(velocities, dtype=float)
        if not all(np.isfinite(x).all() for x in (times, positions, velocities)):
            raise EphemerisError("ephemeris table holds a non-finite value")
        if times.size < 2 or np.any(np.diff(times) <= 0):
            raise EphemerisError("ephemeris table needs >= 2 strictly increasing epochs")
        # scipy is imported on first use: only a tabulated ephemeris needs
        # it, and importing it would take most of the command line's start-up
        from scipy.interpolate import CubicHermiteSpline

        self._t0, self._t1 = times[0], times[-1]
        self._spline = CubicHermiteSpline(times, positions, velocities, axis=0)
        self._dspline = self._spline.derivative()

    @classmethod
    def from_csv(cls, path, units: UnitSystem) -> "TabulatedEphemeris":
        """Load columns mjd,qx,qy,qz,vx,vy,vz (header optional)."""
        rows = []
        for line in text_lines(path, EphemerisError):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                if rows:
                    raise EphemerisError(f"bad ephemeris row: {line!r}")
                continue  # header
        if not rows:
            raise EphemerisError(f"no data rows in ephemeris file {path}")
        data = np.array(rows)
        if data.shape[1] != 7:
            raise EphemerisError(
                f"ephemeris file needs 7 columns (mjd,qx,qy,qz,vx,vy,vz), "
                f"got {data.shape[1]}"
            )
        t = np.array([units.mjd_to_internal(m) for m in data[:, 0]])
        return cls(t, data[:, 1:4], data[:, 4:7])

    def states(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        errors = [None] * len(ts)
        fail_rows(errors, (ts < self._t0) | (ts > self._t1), lambda k: EphemerisError(
            f"epoch {float(ts[k])} outside tabulated span [{self._t0}, {self._t1}]"))
        return self._spline(ts), self._dspline(ts), errors


def text_lines(path, error=DomainError):
    """The lines of the text file ``path``; text that does not decode is
    ``error`` naming the path."""
    with open(path) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not a text file: {exc}") from None


class AttributableColumns(NamedTuple):
    """N attributables as columns: kinds (N,), values (N, 4), epochs tbar
    (N,), covariances (N, 4, 4), zero where a record has none, and which
    have one (N,); the observer positions and velocities q, qdot (N, 3) at
    the epochs, and the error of each epoch the ephemeris rejected, else
    None."""

    kind: np.ndarray
    values: np.ndarray
    tbar: np.ndarray
    cov: np.ndarray
    has_cov: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    errors: list

    @classmethod
    def observed(cls, atts: list, ephemeris) -> "AttributableColumns":
        """The columns of ``atts``, seen from ``ephemeris`` (one call of its
        ``states``)."""
        return cls.at(atts, *ephemeris.states(np.array([att.tbar for att in atts], dtype=float)))

    @classmethod
    def at(cls, atts: list, q: np.ndarray, qdot: np.ndarray,
           errors: list | None = None) -> "AttributableColumns":
        """The columns of ``atts``, seen from the observer positions and
        velocities q, qdot (N, 3), with the error of each epoch, else None."""
        covs = [att.cov for att in atts]
        return cls(np.array([att.kind for att in atts], dtype=str),
                   np.array([att.values for att in atts], dtype=float).reshape(-1, 4),
                   np.array([att.tbar for att in atts], dtype=float),
                   np.array([_NO_COV if c is None else c for c in covs],
                            dtype=float).reshape(-1, 4, 4),
                   np.array([c is not None for c in covs], dtype=bool), q, qdot,
                   [None] * len(atts) if errors is None else errors)


_NO_COV = np.zeros((4, 4))


# ---------------------------------------------------------------------------
# light-time helpers


def _emission_state(truth: KeplerianElements, q: np.ndarray, tbar: float,
                    mu: float, c_light: float) -> CartesianState:
    """Fixed point of t = tbar - |r(t) - q|/c (converges in a few sweeps)."""
    t = tbar
    for _ in range(25):
        s = propagate_kepler(truth, t, mu)
        t_new = tbar - np.linalg.norm(s.r - q) / c_light
        if abs(t_new - t) <= 1e-13 * max(1.0, abs(tbar)):
            return propagate_kepler(truth, t_new, mu)
        t = t_new
    raise DomainError("light-time iteration failed to converge")


def synthesize_optical_attributable(
    truth: KeplerianElements,
    ephemeris,
    tbar: float,
    mu: float,
    c_light: float,
    noise: NoiseSpec | None = None,
    rng: np.random.Generator | None = None,
) -> OpticalAttributable:
    """Exact optical attributable of a known orbit seen from an observer.

    The body state is taken at the emission epoch t = tbar - rho/c (light
    time), the observer at reception tbar; angles and rates then follow by
    inverting the observation model exactly, so a noiseless attributable
    reproduces the truth to machine precision through the linkage.
    """
    q, qdot = ephemeris.state(tbar)
    s = _emission_state(truth, q, tbar, mu, c_light)
    coords = topocentric_coords(s.r, s.v, q, qdot)
    delta = coords[1]
    values = np.array(coords[:4])
    cov = None
    if noise is not None:
        w = 1.0 / np.cos(delta)
        sig = np.array([noise.sigma_angle * w, noise.sigma_angle,
                        noise.sigma_rate * w, noise.sigma_rate])
        cov = np.diag(sig**2)
        if noise.apply:
            if rng is None:
                rng = np.random.default_rng()
            values = values + sig * rng.standard_normal(4)
    return OpticalAttributable(values[0] % (2.0 * np.pi), values[1], values[2],
                               values[3], tbar, cov)


def synthesize_radar_attributable(
    truth: KeplerianElements,
    ephemeris,
    tbar: float,
    mu: float,
    c_light: float,
    noise: NoiseSpec | None = None,
    rng: np.random.Generator | None = None,
) -> RadarAttributable:
    """Exact radar attributable (angles, range, range rate) of a known orbit."""
    q, qdot = ephemeris.state(tbar)
    s = _emission_state(truth, q, tbar, mu, c_light)
    alpha, delta, _, _, rho, rhodot = topocentric_coords(s.r, s.v, q, qdot)
    values = np.array([alpha, delta, rho, rhodot])
    cov = None
    if noise is not None:
        sig = np.array([noise.sigma_angle / np.cos(delta), noise.sigma_angle,
                        noise.sigma_rho, noise.sigma_rhodot])
        cov = np.diag(sig**2)
        if noise.apply:
            if rng is None:
                rng = np.random.default_rng()
            values = values + sig * rng.standard_normal(4)
    return RadarAttributable(values[0] % (2.0 * np.pi), values[1], values[2],
                             values[3], tbar, cov)


def synthetic_truth_state(truth: KeplerianElements, att, mu: float,
                          c_light: float, ephemeris) -> CartesianState:
    """Body state at the emission epoch matching a synthesized attributable."""
    q, _ = ephemeris.state(att.tbar)
    return _emission_state(truth, q, att.tbar, mu, c_light)


# ---------------------------------------------------------------------------
# arcs and least-squares fits


@dataclass(frozen=True)
class ObservationArc:
    """Raw short-arc observations: epochs, angles, optional ranges, and
    per-observation standard deviations."""

    times: np.ndarray
    alpha: np.ndarray
    delta: np.ndarray
    sigma_alpha: np.ndarray
    sigma_delta: np.ndarray
    rho: np.ndarray | None = None
    sigma_rho: np.ndarray | None = None
    station: str = ""
    frame: str = "ecliptic"


def _poly_fit(t: np.ndarray, y: np.ndarray, sigma: np.ndarray, deg: int):
    """Weighted least squares of y on powers of t; returns (params, cov)."""
    X = np.vander(t, deg + 1, increasing=True)
    w = 1.0 / sigma**2
    A = X.T @ (w[:, None] * X)
    try:
        cov = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular normal matrix in arc fit: {exc}") from None
    return cov @ (X.T @ (w * y)), cov


def _fit_value_rate(arc: ObservationArc, y: np.ndarray, sigma: np.ndarray):
    m = len(arc.times)
    if m < 2:
        raise FitError(f"need at least 2 observations to fit a rate, got {m}")
    tbar = float(np.mean(arc.times))
    deg = 2 if m >= 3 else 1
    params, cov = _poly_fit(arc.times - tbar, y, sigma, deg)
    return params[0], params[1], cov[:2, :2], tbar


def fit_optical_attributable(arc: ObservationArc) -> OpticalAttributable:
    """Compress an optical arc to an attributable at the mean epoch.

    Quadratic weighted fits (linear when only two points) centered on the
    mean epoch; right ascension is unwrapped before fitting and its weights
    carry the tangent-plane 1/cos(delta) factor.
    """
    dbar = float(np.mean(arc.delta))
    a_unwrapped = np.unwrap(arc.alpha)
    alpha, alphadot, cov_a, tbar = _fit_value_rate(
        arc, a_unwrapped, arc.sigma_alpha / np.cos(dbar))
    delta, deltadot, cov_d, _ = _fit_value_rate(arc, arc.delta, arc.sigma_delta)
    cov = np.zeros((4, 4))
    cov[0, 0], cov[2, 2] = cov_a[0, 0], cov_a[1, 1]
    cov[0, 2] = cov[2, 0] = cov_a[0, 1]
    cov[1, 1], cov[3, 3] = cov_d[0, 0], cov_d[1, 1]
    cov[1, 3] = cov[3, 1] = cov_d[0, 1]
    return OpticalAttributable(wrap_angle(alpha), delta, alphadot, deltadot,
                               tbar, cov, arc.station, arc.frame)


def fit_radar_attributable(arc: ObservationArc) -> RadarAttributable:
    """Compress a radar arc (angles + ranges) to (alpha, delta, rho, rhodot)."""
    if arc.rho is None or arc.sigma_rho is None:
        raise FitError("radar fit requires range observations and their sigmas")
    dbar = float(np.mean(arc.delta))
    a_unwrapped = np.unwrap(arc.alpha)
    alpha, _, cov_a, tbar = _fit_value_rate(arc, a_unwrapped,
                                            arc.sigma_alpha / np.cos(dbar))
    delta, _, cov_d, _ = _fit_value_rate(arc, arc.delta, arc.sigma_delta)
    rho, rhodot, cov_r, _ = _fit_value_rate(arc, arc.rho, arc.sigma_rho)
    cov = np.zeros((4, 4))
    cov[0, 0] = cov_a[0, 0]
    cov[1, 1] = cov_d[0, 0]
    cov[2, 2], cov[3, 3] = cov_r[0, 0], cov_r[1, 1]
    cov[2, 3] = cov[3, 2] = cov_r[0, 1]
    return RadarAttributable(wrap_angle(alpha), delta, rho, rhodot, tbar, cov,
                             arc.station, arc.frame)


# ---------------------------------------------------------------------------
# file I/O


def read_arc_csv(path, units: UnitSystem) -> ObservationArc:
    """Read an observation arc from CSV.

    Required columns: mjd, ra_deg, dec_deg.  Optional: rho (range, system
    length unit), sigma_ra_arcsec, sigma_dec_arcsec, sigma_rho.  Angle sigmas
    default to 0.5 arcsec; sigma_rho defaults to 1e-6 length units.
    """
    lines = [ln.strip() for ln in text_lines(path) if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise DomainError(f"empty arc file {path}")
    header = [h.strip().lower() for h in lines[0].split(",")]
    for req in ("mjd", "ra_deg", "dec_deg"):
        if req not in header:
            raise DomainError(f"arc file {path} missing column {req!r}")
    try:
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise DomainError(f"bad arc row in {path}: {exc}") from None
    if data.ndim != 2 or data.shape[1] != len(header):
        raise DomainError(f"ragged arc file {path}")
    col = {name: data[:, i] for i, name in enumerate(header)}
    n = data.shape[0]
    times = np.array([units.mjd_to_internal(m) for m in col["mjd"]])
    sig_a = col.get("sigma_ra_arcsec", np.full(n, 0.5)) * ARCSEC_RAD
    sig_d = col.get("sigma_dec_arcsec", np.full(n, 0.5)) * ARCSEC_RAD
    rho = col.get("rho")
    sig_r = col.get("sigma_rho", np.full(n, 1e-6)) if rho is not None else None
    return ObservationArc(times, np.radians(col["ra_deg"]), np.radians(col["dec_deg"]),
                          sig_a, sig_d, rho, sig_r)


def _att_to_record(att, units: UnitSystem) -> dict:
    return {
        "kind": att.kind,
        "tbar_mjd": units.internal_to_mjd(att.tbar),
        "values": [float(v) for v in att.values],
        "cov": None if att.cov is None else [float(x) for x in np.ravel(att.cov)],
        "station": att.station,
        "frame": att.frame,
        "units": units.name,
    }


def json_numbers(value, what: str):
    """``value``, a JSON number or a (nested) list of them, else DomainError:
    ``float`` would read JSON ``true``, ``false`` and numeric strings too."""
    for x in value if isinstance(value, list) else [value]:
        if isinstance(x, list):
            json_numbers(x, what)
        elif isinstance(x, bool) or not isinstance(x, (int, float)):
            raise DomainError(f"{what} holds {x!r}, not a number")
    return value


def _record_to_att(rec: dict, units: UnitSystem):
    try:
        kind = rec["kind"]
        if rec["units"] != units.name:
            raise DomainError(
                f"attributable stored in units {rec['units']!r}, "
                f"requested {units.name!r}"
            )
        frame = rec.get("frame", "ecliptic")
        if frame != "ecliptic":  # the one frame of every vector of the package
            raise DomainError(f"attributable in frame {frame!r}, not 'ecliptic'")
        tbar = units.mjd_to_internal(float(json_numbers(rec["tbar_mjd"], "tbar_mjd")))
        values = [float(v) for v in json_numbers(rec["values"], "values")]
        if len(values) != 4:
            raise DomainError(f"expected 4 values, got {len(values)}")
        cov = rec.get("cov")
        numbers = ()
        if cov is not None:
            numbers = json_numbers(cov, "cov")
            cov = np.array(numbers, dtype=float).reshape(4, 4)
            if any(isinstance(x, list) for x in numbers):
                numbers = cov.ravel().tolist()
        station = rec.get("station", "")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed attributable record: {exc}") from None
    # each number converts to a double here, or the conversions above raised
    for name, x in (("tbar_mjd", (tbar,)), ("values", values), ("cov", numbers)):
        if not all(map(math.isfinite, x)):
            raise DomainError(f"non-finite {name} in attributable record")
    if kind == "optical":
        return OpticalAttributable(*values, tbar, cov, station, frame)
    if kind == "radar":
        return RadarAttributable(*values, tbar, cov, station, frame)
    raise DomainError(f"unknown attributable kind {kind!r}")


def attributables_text(atts, units: UnitSystem) -> str:
    """The JSON lines of :func:`write_attributables`, without the last
    newline.  The lines are strict JSON: a NaN or an infinity raises
    ValueError."""
    return "\n".join(json.dumps(_att_to_record(att, units), allow_nan=False)
                     for att in atts)


def write_attributables(path, atts, units: UnitSystem) -> None:
    """Write attributables as JSON lines (:func:`attributables_text`: a
    NaN or an infinity raises ValueError before the file is opened)."""
    text = attributables_text(atts, units)
    with open(path, "w") as fh:
        fh.write(text + "\n" if atts else "")


def read_attributables(path, units: UnitSystem) -> list:
    """Read JSONL attributables written by :func:`write_attributables`."""
    out = []
    for i, line in enumerate(text_lines(path)):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(_record_to_att(json_record(line, f"{path}:{i + 1}"), units))
    return out


def json_record(text: str, where: str):
    """The JSON value of ``text``, else DomainError naming ``where``: also
    for a value nested too deeply to decode."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DomainError(f"{where}: invalid JSON: {exc}") from None
