"""Topocentric observation geometry.

The observed direction defined by right ascension ``alpha`` and declination
``delta`` spans a moving orthonormal triad: the line of sight and the two
tangent directions along which the angular rates act.  Body states are
composed from an observer state, the triad, and the topocentric spherical
coordinates; the inverse extraction recovers those coordinates from a pair of
Cartesian states.  All vectors live in one fixed inertial frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PolarSingularityError, fail_rows

Vec3 = np.ndarray

_POLAR_MARGIN = 1e-9


@dataclass(frozen=True)
class ObservationBasis:
    """Line-of-sight triad (e_rho, e_alpha, e_delta) at fixed angles.

    e_rho is the unit line of sight, e_alpha = (cos delta)^-1 d(e_rho)/d(alpha)
    and e_delta = d(e_rho)/d(delta).  The triad is orthonormal with
    e_rho x e_alpha = e_delta.
    """

    alpha: float
    delta: float
    e_rho: Vec3
    e_alpha: Vec3
    e_delta: Vec3


def observation_basis(alpha: float, delta: float) -> ObservationBasis:
    """Build the topocentric triad for one observed direction: the one-row
    case of :func:`basis_rows`.

    Parameters
    ----------
    alpha : float
        Right ascension in radians.
    delta : float
        Declination in radians, strictly inside (-pi/2, pi/2).

    Returns
    -------
    ObservationBasis

    Raises
    ------
    PolarSingularityError
        If ``delta`` is within 1e-9 rad of a pole, where e_alpha is undefined.
    """
    b = basis_rows(np.array([alpha], dtype=float), np.array([delta], dtype=float))
    if b.polar[0]:
        raise polar_error(delta)
    return ObservationBasis(alpha, delta, b.e_rho[0], b.e_alpha[0], b.e_delta[0])


def body_position(q: Vec3, rho: float, basis: ObservationBasis) -> Vec3:
    """Compose the body position r = q + rho * e_rho.

    ``rho`` must be positive; zero range would put the body at the observer.
    """
    if rho <= 0.0:
        raise DomainError(f"range must be positive, got {rho!r}")
    return np.asarray(q, dtype=float) + rho * basis.e_rho


def body_velocity(
    qdot: Vec3,
    rho: float,
    rhodot: float,
    alphadot: float,
    deltadot: float,
    basis: ObservationBasis,
) -> Vec3:
    """Compose the body velocity from observer velocity, rates, and range.

    rdot = qdot + rhodot e_rho + rho (alphadot cos(delta) e_alpha
           + deltadot e_delta)

    The composition is linear in (rhodot, alphadot, deltadot), which the
    angular-momentum coefficient assembly relies on.
    """
    if rho <= 0.0:
        raise DomainError(f"range must be positive, got {rho!r}")
    cd = math.cos(basis.delta)
    return (
        np.asarray(qdot, dtype=float)
        + rhodot * basis.e_rho
        + rho * (alphadot * cd * basis.e_alpha + deltadot * basis.e_delta)
    )


def topocentric_coords(
    r: Vec3, rdot: Vec3, q: Vec3, qdot: Vec3
) -> tuple[float, float, float, float, float, float]:
    """Invert the composition: (alpha, delta, alphadot, deltadot, rho, rhodot).

    Exact inverse of :func:`body_position` / :func:`body_velocity` for the
    given observer state.  Raises :class:`PolarSingularityError` on a polar
    line of sight and :class:`DomainError` on zero separation.
    """
    d = np.asarray(r, dtype=float) - np.asarray(q, dtype=float)
    rho = float(np.linalg.norm(d))
    if rho <= 0.0:
        raise DomainError("body and observer coincide; direction undefined")
    alpha = math.atan2(d[1], d[0]) % (2.0 * math.pi)
    delta = math.asin(min(1.0, max(-1.0, d[2] / rho)))
    basis = observation_basis(alpha, delta)
    ddot = np.asarray(rdot, dtype=float) - np.asarray(qdot, dtype=float)
    rhodot = float(ddot @ basis.e_rho)
    cd = math.cos(delta)
    alphadot = float(ddot @ basis.e_alpha) / (rho * cd)
    deltadot = float(ddot @ basis.e_delta) / rho
    return alpha, delta, alphadot, deltadot, rho, rhodot


def cross(u: Vec3, w: Vec3) -> Vec3:
    """u x w for single 3-vectors: the arithmetic of np.cross, bit for bit,
    without its broadcasting set-up, which costs ~10x more per call."""
    return np.array([u[1] * w[2] - u[2] * w[1],
                     u[2] * w[0] - u[0] * w[2],
                     u[0] * w[1] - u[1] * w[0]])


# ---------------------------------------------------------------------------
# stacks of directions and states, one row each; every operation row-wise


def row_dot(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (..., 3) arrays, summed in a fixed order."""
    uw = u * w
    return uw[..., 0] + uw[..., 1] + uw[..., 2]


_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def row_cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise u x w of (..., 3) arrays: the arithmetic of :func:`cross`.
    ``take`` gathers the components: under half the cost of indexing on
    the few rows of a one-pair call, up to 3.5x it on a block's hundreds
    of rows, where row_cross is about 1% of a CLI pass."""
    return (u.take(_NEXT, axis=-1) * w.take(_LAST, axis=-1)
            - u.take(_LAST, axis=-1) * w.take(_NEXT, axis=-1))


class BasisRows(NamedTuple):
    """:func:`observation_basis` of S directions: the cosines and sines of
    both angles as (S,) arrays, the triads as (S, 3) arrays, and which rows
    lie within 1e-9 rad of a pole (their triads are not to be used)."""

    ca: np.ndarray
    sa: np.ndarray
    cd: np.ndarray
    sd: np.ndarray
    e_rho: np.ndarray
    e_alpha: np.ndarray
    e_delta: np.ndarray
    polar: np.ndarray


def basis_rows(alpha: np.ndarray, delta: np.ndarray) -> BasisRows:
    """The topocentric triads of S directions (alpha, delta as (S,))."""
    (ca, cd), (sa, sd) = np.cos((alpha, delta)), np.sin((alpha, delta))
    # Written in place into one array: each numpy call costs about a
    # microsecond, which the one-row call of observation_basis pays per call.
    e = np.zeros((3, 3, len(ca)))
    np.multiply(cd, ca, out=e[0, 0])
    np.multiply(cd, sa, out=e[0, 1])
    e[0, 2] = sd
    np.negative(sa, out=e[1, 0])
    e[1, 1] = ca
    np.multiply(-sd, ca, out=e[2, 0])
    np.multiply(-sd, sa, out=e[2, 1])
    e[2, 2] = cd
    e_rho, e_alpha, e_delta = e.transpose(0, 2, 1)
    return BasisRows(ca, sa, cd, sd, e_rho, e_alpha, e_delta,
                     np.abs(delta) >= math.pi / 2.0 - _POLAR_MARGIN)


def polar_error(delta: float) -> PolarSingularityError:
    return PolarSingularityError(
        f"declination {delta!r} too close to a pole for the tangent basis")


def topocentric_rows(r: np.ndarray, rdot: np.ndarray, q: np.ndarray,
                     qdot: np.ndarray, errors: list):
    """:func:`topocentric_coords` of S states against S observer states
    (all (S, 3)): the six coordinates as (S,) arrays and the rows' triads.
    A row whose direction is undefined (zero separation, a pole) gets its
    error in ``errors`` (see :func:`arclink.errors.fail_rows`)."""
    d = r - q
    rho = np.sqrt(row_dot(d, d))
    alpha = np.mod(np.arctan2(d[:, 1], d[:, 0]), 2.0 * math.pi)
    delta = np.arcsin(np.clip(d[:, 2] / rho, -1.0, 1.0))
    basis = basis_rows(alpha, delta)
    fail_rows(errors, ~(rho > 0.0), lambda k: DomainError(
        "body and observer coincide; direction undefined"))
    fail_rows(errors, basis.polar, lambda k: polar_error(float(delta[k])))
    ddot = rdot - qdot
    coords = (alpha, delta, row_dot(ddot, basis.e_alpha) / (rho * basis.cd),
              row_dot(ddot, basis.e_delta) / rho, rho, row_dot(ddot, basis.e_rho))
    return coords, basis
