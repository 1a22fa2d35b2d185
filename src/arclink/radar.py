"""Linkage of one radar and one optical attributable.

A radar attributable fixes the body position at its epoch (range and angles
are measured) but not the angular rates.  Writing the angular momentum there
as a function of the two unknown tangential velocity components
xi = rho alphadot cos(delta) and zeta = rho deltadot gives an expression
affine in (xi, zeta); equating it with the optical epoch's angular momentum
yields three equations linear in (xi, zeta, rhodot2).  Cramer's rule turns
each of the three into an explicit quadratic in rho2, and substituting them
into the Laplace-Lenz equality projected on v = e_rho2 x q2 leaves a single
univariate polynomial of degree at most 4 in rho2 -- solvable in closed form.
No squaring is involved, so every positive real root is kept (no spurious
screen).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .attributables import OpticalAttributable, RadarAttributable
from .config import RunConfig
from .errors import (
    DegenerateConfigurationError,
    DomainError,
    NumericalError,
    PolarSingularityError,
)
from .geometry import (
    ObservationBasis,
    body_position,
    body_velocity,
    cross,
    observation_basis,
)
from .kepler import (
    CartesianState,
    cartesian_to_keplerian,  # noqa: F401 (bench/tracing.py patches it)
    compatibility_residuals,  # noqa: F401 (bench/tracing.py patches it)
    two_body_energy,  # noqa: F401 (bench/tracing.py patches it)
)
from .optical import (
    MIN_RHO,
    LinkageSolution,
    OpticalCoefficients,
    _check_epoch_consistency,
    assemble_solution,
    compute_optical_coefficients,
    lenz_projection_direction,
    lenz_residual,
)
from .polynomials import UnivariatePoly, real_positive_roots


@dataclass(frozen=True)
class RadarCoefficients:
    """Radar-epoch geometry: c(xi, zeta) = A xi + B zeta + C.

    The position r = q + rho e_rho is fully determined by the measurement,
    so A = r x e_alpha and B = r x e_delta are constant vectors orthogonal
    to r, and C = r x qdot + rhodot q x e_rho collects the known part of
    r x rdot.
    """

    att: RadarAttributable
    q: np.ndarray
    qdot: np.ndarray
    basis: ObservationBasis
    r: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def radar_coefficients(
    att: RadarAttributable, q: np.ndarray, qdot: np.ndarray
) -> RadarCoefficients:
    if att.rho <= 0.0:
        raise DomainError(f"radar range must be positive, got {att.rho!r}")
    basis = observation_basis(att.alpha, att.delta)
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    r = q + att.rho * basis.e_rho
    A = cross(r, basis.e_alpha)
    B = cross(r, basis.e_delta)
    C = cross(r, qdot) + att.rhodot * cross(q, basis.e_rho)
    return RadarCoefficients(att, q, qdot, basis, r, A, B, C)


def _cramer_degenerate(rc1: RadarCoefficients, oc2: OpticalCoefficients,
                       denom: float, tol: float) -> bool:
    """Whether the Cramer denominator ``denom`` = A1 . (B1 x D2) is
    negligible against |A1| |B1| |D2|, or |D2| ~ 0 (zenith-like), which
    makes the 3x3 system singular even when the direction ratio is O(1)."""
    scale = (np.linalg.norm(rc1.A) * np.linalg.norm(rc1.B)
             * np.linalg.norm(oc2.D))
    return bool(np.linalg.norm(oc2.D) <= tol * np.linalg.norm(oc2.q)
                or abs(denom) <= tol * max(scale, 1e-300))


def detect_degenerate_radar(
    rc1: RadarCoefficients, oc2: OpticalCoefficients, tol: float = 1e-10
) -> list[str]:
    """Flags for geometries that defeat the linear elimination.

    ``elimination_degenerate``: the Cramer denominator A1 . (B1 x D2)
    vanishes; it factors as (r1 . e_rho1)(r1 . D2), so this covers a radar
    line of sight tangent to the position, parallel position vectors, and an
    epoch-2 line of sight in the plane of the two positions.  ``zenith``:
    the epoch-2 line of sight is parallel to the observer position, which
    kills the Lenz projection direction (and implies the former).
    """
    flags = []
    trip = float(np.dot(rc1.A, cross(rc1.B, oc2.D)))
    if _cramer_degenerate(rc1, oc2, trip, tol):
        flags.append("elimination_degenerate")
    v = cross(oc2.basis.e_rho, oc2.q)
    if np.linalg.norm(v) <= tol * np.linalg.norm(oc2.q):
        flags.append("zenith")
    return flags


@dataclass(frozen=True)
class EliminationQuadratics:
    """The unknowns (xi1, zeta1, rhodot2) as quadratics in rho2.

    Each field holds ascending coefficients (constant, linear, quadratic),
    so e.g. xi1(rho2) = X[0] + X[1] rho2 + X[2] rho2^2.
    """

    X: np.ndarray
    Z: np.ndarray
    R: np.ndarray


def eliminate_linear(
    rc1: RadarCoefficients, oc2: OpticalCoefficients, tol: float = 1e-10
) -> EliminationQuadratics:
    """Solve A1 xi + B1 zeta - D2 rhodot2 = E2 rho2^2 + F2 rho2 + (G2 - C1)
    for the three linear unknowns by Cramer's rule, order by order in rho2."""
    bxd = cross(rc1.B, oc2.D)
    axd = cross(rc1.A, oc2.D)
    axb = cross(rc1.A, rc1.B)
    denom = float(np.dot(rc1.A, bxd))
    if _cramer_degenerate(rc1, oc2, denom, tol):
        raise DegenerateConfigurationError(
            ["elimination_degenerate"],
            "radar-optical elimination degenerate: A1 . (B1 x D2) ~ 0")
    gamma = 1.0 / denom
    rhs = (oc2.G - rc1.C, oc2.F, oc2.E)  # ascending orders of rho2
    X = np.array([gamma * np.dot(n, bxd) for n in rhs])
    Z = np.array([-gamma * np.dot(n, axd) for n in rhs])
    R = np.array([-gamma * np.dot(n, axb) for n in rhs])
    return EliminationQuadratics(X, Z, R)


def build_quartic(
    rc1: RadarCoefficients,
    oc2: OpticalCoefficients,
    elim: EliminationQuadratics,
    mu: float,
) -> UnivariatePoly:
    """Projected Laplace-Lenz equality as a polynomial in rho2.

    [(|rdot1|^2 - mu/|r1|) r1 - (rdot1 . r1) rdot1] . v
        + (rdot2 . r2)(rdot2 . v) = 0,
    with v = e_rho2 x q2, rdot1 componentwise quadratic in rho2 through
    (xi1, zeta1)(rho2), and rdot2 . v free of rhodot2 (e_rho2 . v = 0) and
    linear in rho2 -- so the total degree is 4 by construction.
    """
    v = lenz_projection_direction(oc2)
    vnorm = np.linalg.norm(v)
    if vnorm == 0.0 or abs(np.dot(oc2.basis.e_rho, v)) > 1e-12 * vnorm:
        raise NumericalError("Lenz projection direction is not orthogonal "
                             "to the epoch-2 line of sight")

    # Vector polynomials: row i holds component i's ascending coefficients.
    b1, b2 = rc1.basis, oc2.basis
    r1 = rc1.r
    rdot1 = np.outer(b1.e_alpha, elim.X) + np.outer(b1.e_delta, elim.Z)
    rdot1[:, 0] += rc1.qdot + rc1.att.rhodot * b1.e_rho
    speed1 = sum(np.convolve(w, w) for w in rdot1)
    speed1[0] -= mu / np.linalg.norm(r1)
    term1 = speed1 * np.dot(r1, v) - np.convolve(r1 @ rdot1, v @ rdot1)

    rate_dir2 = oc2.eta * b2.e_alpha + oc2.att.deltadot * b2.e_delta
    rdot2 = np.outer(b2.e_rho, elim.R)
    rdot2[:, 0] += oc2.qdot
    rdot2[:, 1] += rate_dir2
    r2 = np.column_stack([oc2.q, b2.e_rho])
    rdot2_r2 = sum(np.convolve(w, r) for w, r in zip(rdot2, r2))
    # rdot2 . v without the rhodot2 e_rho2 term, which is orthogonal to v
    rdot2_v = [np.dot(oc2.qdot, v), np.dot(rate_dir2, v)]
    return UnivariatePoly(term1 + np.convolve(rdot2_r2, rdot2_v))


def _cardano(b0: complex, b1: complex, b2: complex) -> list[complex]:
    """Roots of the monic cubic x^3 + b2 x^2 + b1 x + b0."""
    p = b1 - b2 * b2 / 3.0
    q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    disc = complex((q / 2.0) ** 2 + (p / 3.0) ** 3)
    s = np.sqrt(disc)
    # pick the branch that avoids cancellation in -q/2 +- s
    u3 = -q / 2.0 + s if abs(-q / 2.0 + s) >= abs(-q / 2.0 - s) else -q / 2.0 - s
    if u3 == 0.0:
        return [-b2 / 3.0] * 3
    u = u3 ** (1.0 / 3.0)
    omega = complex(-0.5, np.sqrt(3.0) / 2.0)
    roots = []
    for k in range(3):
        uk = u * omega**k
        roots.append(uk - p / (3.0 * uk) - b2 / 3.0)
    return roots


def solve_quartic(poly: UnivariatePoly) -> list[complex]:
    """Closed-form complex roots of a polynomial of degree at most 4.

    Leading coefficients below 1e-12 of the largest are treated as noise and
    deflated before solving (the closed forms divide by the leading
    coefficient).  Degrees 1-3 fall through to the quadratic formula and
    Cardano's method; degree 4 uses the resolvent-cubic factorization into
    two quadratics.  Every root gets up to three Newton corrections.
    """
    c = np.asarray(poly.coeffs, dtype=float)
    top = np.max(np.abs(c)) if c.size else 0.0
    if top == 0.0:
        raise DomainError("cannot solve the zero polynomial")
    keep = len(c)
    while keep > 1 and abs(c[keep - 1]) < 1e-12 * top:
        keep -= 1
    c = c[:keep]
    n = keep - 1
    if n == 0:
        raise DomainError("degree-0 polynomial has no roots")
    if n > 4:
        raise DomainError(f"closed-form solver limited to degree 4, got {n}")
    a = c / c[-1]

    if n == 1:
        roots = [complex(-a[0])]
    elif n == 2:
        disc = complex(a[1] * a[1] - 4.0 * a[0])
        s = np.sqrt(disc)
        roots = [(-a[1] + s) / 2.0, (-a[1] - s) / 2.0]
    elif n == 3:
        roots = _cardano(complex(a[0]), complex(a[1]), complex(a[2]))
    else:
        a0, a1, a2, a3 = (complex(x) for x in a[:4])
        # depress: x = y - a3/4  ->  y^4 + p y^2 + q y + r
        p = a2 - 3.0 * a3 * a3 / 8.0
        q = a1 - a3 * a2 / 2.0 + a3**3 / 8.0
        r = a0 - a3 * a1 / 4.0 + a3 * a3 * a2 / 16.0 - 3.0 * a3**4 / 256.0
        yscale = max(abs(p) ** 0.5, abs(q) ** (1.0 / 3.0), abs(r) ** 0.25)
        if abs(q) <= 1e-14 * max(yscale**3, 1e-300):
            # biquadratic: w^2 + p w + r with y = +-sqrt(w)
            sw = np.sqrt(complex(p * p - 4.0 * r))
            ys = []
            for w in ((-p + sw) / 2.0, (-p - sw) / 2.0):
                sy = np.sqrt(complex(w))
                ys.extend([sy, -sy])
        else:
            # factor (y^2 + p/2 + m)^2 - 2m (y - q/(4m))^2 via the resolvent
            ms = _cardano(-q * q / 8.0, p * p / 4.0 - r, complex(p))
            m = max(ms, key=abs)
            s = np.sqrt(2.0 * m)
            ys = []
            for sign in (1.0, -1.0):
                bq = -sign * s
                cq = p / 2.0 + m + sign * q / (2.0 * s)
                dq = np.sqrt(bq * bq - 4.0 * cq)
                ys.extend([(-bq + dq) / 2.0, (-bq - dq) / 2.0])
        roots = [y - a3 / 4.0 for y in ys]

    deriv = np.arange(1, len(a)) * a[1:]
    polished = []
    for z in roots:
        for _ in range(3):
            fp = np.polynomial.polynomial.polyval(z, deriv)
            if fp == 0.0 or not np.isfinite(fp):
                break
            step = np.polynomial.polynomial.polyval(z, a) / fp
            if not np.isfinite(step):
                break
            z = z - step
        polished.append(complex(z))
    return polished


def link_radar_optical(
    att_rad: RadarAttributable,
    att_opt: OpticalAttributable,
    obs1: CartesianState,
    obs2: CartesianState,
    config: RunConfig | None = None,
) -> list[LinkageSolution]:
    """Link a radar attributable (epoch 1) with an optical one (epoch 2).

    Every positive real root of the quartic yields a solution -- the
    projected equality was never squared, so there is no spurious-root
    screen.  The recorded ``lenz_residual`` should therefore be at roundoff
    for every returned solution.
    """
    config = config if config is not None else RunConfig()
    if getattr(att_rad, "kind", None) != "radar":
        raise DomainError("first attributable must be radar")
    if getattr(att_opt, "kind", None) != "optical":
        raise DomainError("second attributable must be optical")
    if att_rad.tbar == att_opt.tbar:
        raise DomainError("attributables must have distinct epochs")
    _check_epoch_consistency(att_rad, obs1)
    _check_epoch_consistency(att_opt, obs2)

    mu = config.mu_value
    rc1 = radar_coefficients(att_rad, obs1.r, obs1.v)
    oc2 = compute_optical_coefficients(att_opt, obs2.r, obs2.v)
    flags = detect_degenerate_radar(rc1, oc2)
    if flags:
        raise DegenerateConfigurationError(
            flags, "radar-optical linkage degenerate: " + ", ".join(flags))

    elim = eliminate_linear(rc1, oc2)
    quartic = build_quartic(rc1, oc2, elim, mu)
    roots = solve_quartic(quartic)
    cands = real_positive_roots(np.array(roots), min_value=MIN_RHO)

    rho1 = att_rad.rho
    cos_d1 = np.cos(att_rad.delta)
    if abs(cos_d1) <= 1e-9:
        raise PolarSingularityError(
            "radar declination too close to the pole to recover alphadot")
    v = lenz_projection_direction(oc2)

    solutions = []
    for rho2 in cands:
        rho2 = float(rho2)
        alphadot1 = float(npp.polyval(rho2, elim.X)) / (rho1 * cos_d1)
        deltadot1 = float(npp.polyval(rho2, elim.Z)) / rho1
        rhodot2 = float(npp.polyval(rho2, elim.R))
        r1 = body_position(rc1.q, rho1, rc1.basis)
        v1 = body_velocity(rc1.qdot, rho1, att_rad.rhodot,
                           alphadot1, deltadot1, rc1.basis)
        r2 = body_position(oc2.q, rho2, oc2.basis)
        v2 = body_velocity(oc2.qdot, rho2, rhodot2,
                           att_opt.alphadot, att_opt.deltadot, oc2.basis)
        s1 = CartesianState(r1, v1, att_rad.tbar - rho1 / config.units.c_light)
        s2 = CartesianState(r2, v2, att_opt.tbar - rho2 / config.units.c_light)
        solutions.append(assemble_solution(
            s1, s2, rho1, rho2, att_rad.rhodot, rhodot2,
            lenz_residual(s1, s2, v, mu), oc2.basis.e_rho, mu, "radar-optical"))
    return solutions
