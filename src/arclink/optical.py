"""Linkage of two optical attributables via the two-body first integrals.

Writing the body state at each epoch in topocentric form, conservation of
angular momentum c = r x rdot between the two epochs is linear in the two
radial velocities; eliminating them leaves a single quadratic q(rho1, rho2).
Conservation of the Laplace-Lenz vector, projected on a direction orthogonal
to both the epoch-2 line of sight and observer position, clears the square
root of mu/|r1| into a degree-10 polynomial p(rho1, rho2).  The resultant of
p and q in rho2 reduces the system to one univariate polynomial of degree at
most 20 whose positive real roots are the candidate ranges.

Each candidate (rho1, rho2) pair is completed to full states, screened
against the unprojected Laplace-Lenz difference (the projection introduces
spurious roots), and packaged with orbital elements and diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.signal import convolve2d

from .attributables import OpticalAttributable
from .config import RunConfig
from .errors import (
    DegenerateConfigurationError,
    DomainError,
    NumericalError,
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
    KeplerianElements,
    cartesian_to_keplerian,
    compatibility_residuals,
    laplace_lenz,
    two_body_energy,
)
from .polynomials import (
    BivariatePoly,
    aberth_roots,
    evaluate_matrix,  # noqa: F401 (test reference; bench/tracing.py patches it)
    fft_evaluation_interpolation,  # noqa: F401 (likewise)
    newton_polish,
    quadratic_resultant,
    real_positive_roots,
    sylvester_matrix,  # noqa: F401 (likewise)
)

#: ranges at or below this are treated as unphysical and dropped.
MIN_RHO = 1e-7
_PAIR_DEDUP_TOL = 1e-9  # relative separation below which two pairs are one
# Coefficient canvases, (1 + degree in rho1, 1 + degree in rho2)
_B_SHAPE = (5, 5)  # B of build_p_poly, total degree 4
_P_SHAPE = (11, 9)  # p
_C_SHAPE = (11, 11)  # core of energy_equality_poly
_G_SHAPE = (21, 21)  # g


@dataclass(frozen=True)
class OpticalCoefficients:
    """Per-epoch geometry of the angular-momentum linkage.

    The topocentric angular momentum is affine in the radial unknowns:
    c(rho, rhodot) = D rhodot + E rho^2 + F rho + G.
    """

    att: OpticalAttributable
    q: np.ndarray
    qdot: np.ndarray
    basis: ObservationBasis
    eta: float  # alphadot * cos(delta), the tangent-plane RA rate
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray


def compute_optical_coefficients(
    att: OpticalAttributable, q: np.ndarray, qdot: np.ndarray
) -> OpticalCoefficients:
    basis = observation_basis(att.alpha, att.delta)
    eta = att.alphadot * np.cos(att.delta)
    dd = att.deltadot
    D = cross(q, basis.e_rho)
    E = eta * basis.e_delta - dd * basis.e_alpha
    F = eta * cross(q, basis.e_alpha) + dd * cross(q, basis.e_delta) \
        + cross(basis.e_rho, qdot)
    G = cross(q, qdot)
    return OpticalCoefficients(att, np.asarray(q, dtype=float),
                               np.asarray(qdot, dtype=float), basis, eta,
                               D, E, F, G)


def detect_degenerate_optical(
    c1: OpticalCoefficients, c2: OpticalCoefficients, tol: float = 1e-10
) -> list[str]:
    """Flags for configurations where the elimination breaks down.

    ``quadratic_degenerate``: both quadratic coefficients of q vanish (e.g.
    zero angular rates, or both E_i orthogonal to D1 x D2, which includes
    parallel D vectors).  ``zenith``: the epoch-2 line of sight is parallel
    to the observer position, so the Lenz projection direction vanishes.
    """
    flags = []
    W = cross(c1.D, c2.D)
    dd_scale = np.linalg.norm(c1.D) * np.linalg.norm(c2.D)
    if (abs(np.dot(c1.E, W)) <= tol * np.linalg.norm(c1.E) * dd_scale
            and abs(np.dot(c2.E, W)) <= tol * np.linalg.norm(c2.E) * dd_scale):
        flags.append("quadratic_degenerate")
    v = cross(c2.basis.e_rho, c2.q)
    if np.linalg.norm(v) <= tol * np.linalg.norm(c2.q):
        flags.append("zenith")
    return flags


def _j_dot(c1: OpticalCoefficients, c2: OpticalCoefficients,
           u: np.ndarray) -> BivariatePoly:
    """J . u as a quadratic in (rho1, rho2), with the rhodot-free part of
    c2 - c1: J = E2 rho2^2 - E1 rho1^2 + F2 rho2 - F1 rho1 + G2 - G1."""
    coeffs = np.zeros((3, 3))
    coeffs[0, 0] = np.dot(c2.G - c1.G, u)
    coeffs[1, 0] = -np.dot(c1.F, u)
    coeffs[2, 0] = -np.dot(c1.E, u)
    coeffs[0, 1] = np.dot(c2.F, u)
    coeffs[0, 2] = np.dot(c2.E, u)
    return BivariatePoly(coeffs)


def build_q_poly(
    c1: OpticalCoefficients, c2: OpticalCoefficients
) -> BivariatePoly:
    """The quadratic q(rho1, rho2) = J . (D1 x D2), where J collects the
    rhodot-free part of c2 - c1."""
    return _j_dot(c1, c2, cross(c1.D, c2.D))


def radial_velocity_polys(
    c1: OpticalCoefficients, c2: OpticalCoefficients
) -> tuple[BivariatePoly, BivariatePoly]:
    """rhodot_i as quadratics of (rho1, rho2) from the angular-momentum
    equality: D1 rhodot1 - D2 rhodot2 = J, solved by crossing with D2, D1."""
    W = cross(c1.D, c2.D)
    wsq = np.dot(W, W)
    return (_j_dot(c1, c2, cross(c2.D, W) / wsq),
            _j_dot(c1, c2, cross(c1.D, W) / wsq))


def radial_velocities(
    c1: OpticalCoefficients, c2: OpticalCoefficients, rho1: float, rho2: float
) -> tuple[float, float]:
    """Radial velocities completing a (rho1, rho2) pair, directly from the
    angular-momentum equality (vector form of :func:`radial_velocity_polys`)."""
    W = cross(c1.D, c2.D)
    wsq = np.dot(W, W)
    J = (c2.E * rho2**2 - c1.E * rho1**2 + c2.F * rho2 - c1.F * rho1
         + c2.G - c1.G)
    return (float(np.dot(cross(J, c2.D), W) / wsq),
            float(np.dot(cross(J, c1.D), W) / wsq))


def lenz_projection_direction(c2: OpticalCoefficients) -> np.ndarray:
    """v = e_rho2 x q2: orthogonal to r2 and to e_rho2, so the projected
    Lenz equality is free of both mu/|r2| and rhodot2."""
    return cross(c2.basis.e_rho, c2.q)


def _epoch_scalars(c: OpticalCoefficients) -> dict:
    b = c.basis
    dd = np.float64(c.att.deltadot)  # overflows to inf, not OverflowError
    return {
        "qe": float(np.dot(c.q, b.e_rho)),
        "qde": float(np.dot(c.qdot, b.e_rho)),
        "qq": float(np.dot(c.q, c.q)),
        "qdq": float(np.dot(c.qdot, c.q)),
        "qdsq": float(np.dot(c.qdot, c.qdot)),
        "k": c.eta**2 + dd**2,
        "m": 2.0 * float(np.dot(c.qdot, c.eta * b.e_alpha + dd * b.e_delta)),
        "lam": float(np.dot(c.qdot, b.e_rho) + np.dot(c.q, b.e_alpha) * c.eta
                     + np.dot(c.q, b.e_delta) * dd),
    }


def _pad(c, shape) -> np.ndarray:
    """A coefficient array zero-padded or cut to ``shape``."""
    c = np.asarray(c, dtype=float)[: shape[0], : shape[1]]
    out = np.zeros(shape)
    out[: c.shape[0], : c.shape[1]] = c
    return out


def _base(*polys: BivariatePoly) -> list[np.ndarray]:
    """The monomials 1, rho1, rho2 and then ``polys`` on the canvas of B."""
    return [_pad(c, _B_SHAPE) for c in ([[1.0]], [[0.0], [1.0]], [[0.0, 1.0]],
                                        *(p.coeffs for p in polys))]


def _mul(a: np.ndarray, b: np.ndarray, shape=None) -> np.ndarray:
    """Product of two coefficient arrays on a canvas of ``shape`` (default:
    the shape of ``a``).  Every product formed here fits its canvas, so the
    cut drops only zeros.  convolve2d's cost grows with both shapes and its
    summation order changes with the width of ``b``, so each factor keeps
    the tightest canvas of its degree."""
    return _pad(convolve2d(a, b), a.shape if shape is None else shape)


def build_p_poly(
    c1: OpticalCoefficients,
    c2: OpticalCoefficients,
    rd1: BivariatePoly,
    rd2: BivariatePoly,
    mu: float,
) -> tuple[BivariatePoly, np.ndarray]:
    """The degree-10 polynomial from the projected Laplace-Lenz equality.

    Projecting mu(L1 - L2) on v = e_rho2 x q2 and clearing the mu/|r1|
    square root gives

        p = mu^2 (r1.v)^2 - |r1|^2 B^2,
        B = |rdot1|^2 (r1.v) - (rdot1.r1)(rdot1.v) + (rdot2.r2)(rdot2.v),

    with rhodot_i replaced by their quadratics in (rho1, rho2).  Terms are
    grouped so that every cancellation above total degree 10 happens
    symbolically: the rhodot1^2 rho1 (e_rho1.v) pieces of the first two
    summands of B collapse to the constant K = q1.v - (q1.e_rho1)(e_rho1.v),
    leaving B of total degree 4 by construction, hence p of degree 10 with
    exact structural zeros beyond.
    """
    v = lenz_projection_direction(c2)
    vnorm = np.linalg.norm(v)
    if abs(np.dot(c2.basis.e_rho, v)) > 1e-12 * vnorm:
        raise NumericalError("Lenz projection direction lost orthogonality "
                             "to the epoch-2 line of sight")
    b1, b2 = c1.basis, c2.basis
    s1, s2 = _epoch_scalars(c1), _epoch_scalars(c2)
    dd1, dd2 = c1.att.deltadot, c2.att.deltadot

    e1v = float(np.dot(b1.e_rho, v))
    a1v = float(np.dot(b1.e_alpha, v))
    d1v = float(np.dot(b1.e_delta, v))
    q1v = float(np.dot(c1.q, v))
    qd1v = float(np.dot(c1.qdot, v))

    one, X, Y, rd1, rd2 = _base(rd1, rd2)
    XX = _mul(X, X)

    r1v = q1v * one + e1v * X                             # r1 . v
    r1sq = XX + 2.0 * s1["qe"] * X + s1["qq"] * one       # |r1|^2
    rest1 = s1["k"] * XX + 2.0 * s1["qde"] * rd1 + s1["m"] * X + s1["qdsq"] * one
    rest2 = s1["lam"] * X + s1["qdq"] * one               # (rdot1.r1) - rd1(x+qe)
    rest3 = qd1v * one + (c1.eta * a1v + dd1 * d1v) * X   # (rdot1.v) - rd1 e1v
    K = q1v - s1["qe"] * e1v

    # epoch 2: (rdot2.r2)(rdot2.v); rdot2.v has no rhodot2 term since v is
    # orthogonal to e_rho2.
    w2 = float(np.dot(c2.eta * b2.e_alpha + dd2 * b2.e_delta, v))
    z2 = float(np.dot(c2.qdot, v))
    dot23 = _mul(_mul(rd2, Y + s2["qe"] * one) + s2["lam"] * Y + s2["qdq"] * one,
                 w2 * Y + z2 * one)

    bracket = (_mul(rd1, rd1) * K + _mul(rest1, r1v)
               - _mul(rd1, _mul(X + s1["qe"] * one, rest3) + e1v * rest2)
               - _mul(rest2, rest3) + dot23)
    p = (mu * mu) * _mul(r1v, r1v, _P_SHAPE) \
        - _mul(r1sq, _mul(bracket, bracket, _P_SHAPE), _P_SHAPE)
    return BivariatePoly(p), v


def lenz_residual(state1: CartesianState, state2: CartesianState,
                  v: np.ndarray, mu: float) -> float:
    """Unprojected acceptance metric: (L1 - L2) . v_hat from full states."""
    vhat = v / np.linalg.norm(v)
    return float(np.dot(laplace_lenz(state1, mu) - laplace_lenz(state2, mu), vhat))


@dataclass
class LinkageSolution:
    """One linked orbit: ranges/range rates at both epochs, the implied
    Cartesian states (epochs corrected for light time), elements, and
    acceptance diagnostics.  Covariance and selection fields are attached
    by the downstream stages."""

    rho1: float
    rho2: float
    rhodot1: float
    rhodot2: float
    state1: CartesianState
    state2: CartesianState
    elements1: KeplerianElements | None
    elements2: KeplerianElements | None
    elliptic: bool
    lenz_residual: float
    compat_lenz: float
    compat_anomaly: float | None
    energy_offset: float
    method: str = "optical"
    flags: list = field(default_factory=list)
    covariance1: np.ndarray | None = None
    covariance2: np.ndarray | None = None
    chi4: float | None = None
    selected: bool | None = None
    unselectable: bool = False


def _quadratic_roots(a: float, b: float, c0: float) -> list[float]:
    """Real roots of a y^2 + b y + c0 = 0, numerically stable; a slightly
    negative discriminant is treated as a grazing double root."""
    scale = max(abs(a), abs(b), abs(c0))
    if scale == 0.0:
        return []
    if abs(a) <= 1e-14 * scale:
        if abs(b) <= 1e-14 * scale:
            return []
        return [-c0 / b]
    disc = b * b - 4.0 * a * c0
    if disc < 0.0:
        if disc >= -1e-10 * (b * b + 4.0 * abs(a * c0)):
            return [-b / (2.0 * a)]
        return []
    sq = np.sqrt(disc)
    s = -(b + np.copysign(sq, b if b != 0.0 else 1.0)) / 2.0
    if s == 0.0:
        return [0.0, -b / a]
    return [s / a, c0 / s]


def _states_for_pair(c1, c2, rho1, rho2, rhodot1, rhodot2, c_light):
    r1 = body_position(c1.q, rho1, c1.basis)
    v1 = body_velocity(c1.qdot, rho1, rhodot1, c1.att.alphadot,
                       c1.att.deltadot, c1.basis)
    r2 = body_position(c2.q, rho2, c2.basis)
    v2 = body_velocity(c2.qdot, rho2, rhodot2, c2.att.alphadot,
                       c2.att.deltadot, c2.basis)
    t1 = c1.att.tbar - rho1 / c_light
    t2 = c2.att.tbar - rho2 / c_light
    return CartesianState(r1, v1, t1), CartesianState(r2, v2, t2)


def optical_candidate_pairs(
    c1: OpticalCoefficients, c2: OpticalCoefficients, config: RunConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the elimination and return every candidate pair with its
    screening residual: arrays (rho1, rho2, lenz_residual, accepted)."""
    mu = config.mu_value
    qpoly = build_q_poly(c1, c2)
    rd1, rd2 = radial_velocity_polys(c1, c2)
    ppoly, v = build_p_poly(c1, c2, rd1, rd2, mu)

    res_poly = quadratic_resultant(ppoly, qpoly)
    roots = aberth_roots(res_poly)
    cands = real_positive_roots(roots, real_tol=1e-3, min_value=MIN_RHO)
    dres = res_poly.derivative()
    q = _pad(qpoly.coeffs, (3, 3))  # q trims to fewer rows without rho1
    q00, q10, q20, q01, q02 = q[0, 0], q[1, 0], q[2, 0], q[0, 1], q[0, 2]

    def res_at(x):
        # a^m p(x, y1) p(x, y2) with a = q02, y1 = s/a, y2 = c/s: no 1/a
        c = q00 + q10 * x + q20 * x * x
        s = -0.5 * (q01 + np.copysign(1.0, q01) * np.sqrt(q01**2 - 4 * q02 * c + 0j))
        pj = np.polynomial.polynomial.polyval(x, ppoly.coeffs)  # p_j(x), one row per j
        a_m_p1 = np.polyval(pj[::-1] * (q02 ** np.arange(len(pj)))[:, None], s)
        return (a_m_p1 * np.polyval(pj[::-1], c / s)).real

    # |Im| <= 1e-3 keeps true roots the coefficients push off the axis and
    # lets in complex pairs with no real root: their last step stays large
    with np.errstate(all="ignore"):
        xs = newton_polish(res_at, dres, cands)
        ok = (xs > MIN_RHO) & (np.abs(res_at(xs))
                               <= 1e-8 * np.maximum(1.0, xs) * np.abs(dres(xs)))
    pairs: list[tuple[float, float]] = []
    for x in map(float, xs[ok]):
        for y in _quadratic_roots(q02, q01, q00 + q10 * x + q20 * x * x):
            if y > MIN_RHO:
                pairs.append((x, y))
    # deduplicate pairs (roots polished together or a grazing quadratic)
    pairs.sort()
    unique: list[tuple[float, float]] = []
    for x, y in pairs:
        if unique and (abs(x - unique[-1][0]) <= _PAIR_DEDUP_TOL * max(1.0, abs(x))
                       and abs(y - unique[-1][1]) <= _PAIR_DEDUP_TOL * max(1.0, abs(y))):
            continue
        unique.append((x, y))

    rho1 = np.array([x for x, _ in unique])
    rho2 = np.array([y for _, y in unique])
    resid = np.empty(len(unique))
    for i, (x, y) in enumerate(unique):
        rdot1, rdot2 = radial_velocities(c1, c2, x, y)
        s1, s2 = _states_for_pair(c1, c2, x, y, rdot1, rdot2,
                                  config.units.c_light)
        resid[i] = lenz_residual(s1, s2, v, mu)
    accepted = np.abs(resid) <= config.options.spurious_tol
    return rho1, rho2, resid, accepted


def _elements_or_none(state: CartesianState, mu: float) -> KeplerianElements | None:
    try:
        return cartesian_to_keplerian(state, mu)
    except DomainError:
        return None


def assemble_solution(state1: CartesianState, state2: CartesianState,
                      rho1: float, rho2: float, rhodot1: float, rhodot2: float,
                      lenz_res: float, e_rho2: np.ndarray, mu: float,
                      method: str) -> LinkageSolution:
    """One solved pair of states with its elements and diagnostics: the
    last step of both linkers.  Each state is converted to elements once
    (``None`` when not elliptic) and the compatibility residuals reuse them.
    """
    el1 = _elements_or_none(state1, mu)
    el2 = _elements_or_none(state2, mu)
    compat_lenz, compat_anom = compatibility_residuals(state1, state2, el1, el2,
                                                       e_rho2, mu)
    return LinkageSolution(
        rho1=float(rho1), rho2=float(rho2),
        rhodot1=float(rhodot1), rhodot2=float(rhodot2),
        state1=state1, state2=state2,
        elements1=el1, elements2=el2,
        elliptic=el1 is not None and el2 is not None,
        lenz_residual=float(lenz_res),
        compat_lenz=compat_lenz,
        compat_anomaly=compat_anom,
        energy_offset=two_body_energy(state1, mu) - two_body_energy(state2, mu),
        method=method,
    )


def _check_epoch_consistency(att, obs) -> None:
    if abs(obs.epoch - att.tbar) > 1e-9 * max(1.0, abs(att.tbar)):
        raise DomainError(
            f"observer state epoch {obs.epoch} does not match the "
            f"attributable epoch {att.tbar}"
        )


def link_optical(
    att1: OpticalAttributable,
    att2: OpticalAttributable,
    obs1: CartesianState,
    obs2: CartesianState,
    config: RunConfig | None = None,
) -> list[LinkageSolution]:
    """Link two optical attributables; returns accepted solutions only.

    Raises :class:`DegenerateConfigurationError` when the geometry defeats
    the elimination (flags say why), and propagates numerical errors from
    the resultant/root stages.
    """
    config = config if config is not None else RunConfig()
    if getattr(att1, "kind", None) != "optical" or getattr(att2, "kind", None) != "optical":
        raise DomainError("link_optical requires two optical attributables")
    if att1.tbar == att2.tbar:
        raise DomainError("attributables must have distinct epochs")
    _check_epoch_consistency(att1, obs1)
    _check_epoch_consistency(att2, obs2)

    c1 = compute_optical_coefficients(att1, obs1.r, obs1.v)
    c2 = compute_optical_coefficients(att2, obs2.r, obs2.v)
    flags = detect_degenerate_optical(c1, c2)
    if flags:
        raise DegenerateConfigurationError(
            flags, "optical linkage degenerate: " + ", ".join(flags))

    rho1, rho2, resid, accepted = optical_candidate_pairs(c1, c2, config)
    solutions = []
    for x, y, res, ok in zip(rho1, rho2, resid, accepted):
        if not ok:
            continue
        rdot1, rdot2 = radial_velocities(c1, c2, x, y)
        s1, s2 = _states_for_pair(c1, c2, x, y, rdot1, rdot2,
                                  config.units.c_light)
        solutions.append(assemble_solution(
            s1, s2, x, y, rdot1, rdot2, res, c2.basis.e_rho,
            config.mu_value, "optical"))
    return solutions


# ---------------------------------------------------------------------------
# zero-curve sampling


def _lenz_grid(c1, c2, rd1, rd2, v, mu, X, Y):
    """(L1 - L2) . v_hat over a grid, with rhodot_i from their quadratics."""
    vhat = v / np.linalg.norm(v)

    def lenz(c, rho, rhodot, tangential):
        r = c.q + rho[..., None] * c.basis.e_rho
        w = c.qdot + rhodot[..., None] * c.basis.e_rho + rho[..., None] * tangential
        rn = np.linalg.norm(r, axis=-1)
        wsq = np.einsum("...i,...i->...", w, w)
        rw = np.einsum("...i,...i->...", r, w)
        return ((wsq - mu / rn)[..., None] * r - rw[..., None] * w) / mu

    tan1 = c1.eta * c1.basis.e_alpha + c1.att.deltadot * c1.basis.e_delta
    tan2 = c2.eta * c2.basis.e_alpha + c2.att.deltadot * c2.basis.e_delta
    L1 = lenz(c1, X, rd1(X, Y), tan1)
    L2 = lenz(c2, Y, rd2(X, Y), tan2)
    return np.einsum("...i,i->...", L1 - L2, vhat)


def energy_equality_poly(
    c1: OpticalCoefficients, c2: OpticalCoefficients,
    rd1: BivariatePoly, rd2: BivariatePoly, mu: float,
) -> BivariatePoly:
    """Twice-squared polynomial form of the two-body energy equality.

    With A = (|rdot1|^2 - |rdot2|^2)/2 and P_i = |r_i|^2, clearing both
    square roots of mu/|r_i| = mu/sqrt(P_i) gives the degree-24 polynomial

        g = (A^2 P1 P2 + mu^2 (P1 - P2))^2 - 4 mu^2 A^2 P1^2 P2,

    which vanishes on the energy-equality curve (among other loci picked up
    by the squarings)."""
    one, X, Y, rd1, rd2 = _base(rd1, rd2)
    XX, YY = _mul(X, X), _mul(Y, Y)
    s1, s2 = _epoch_scalars(c1), _epoch_scalars(c2)
    speed1 = _mul(rd1, rd1) + s1["k"] * XX + 2.0 * s1["qde"] * rd1 \
        + s1["m"] * X + s1["qdsq"] * one
    speed2 = _mul(rd2, rd2) + s2["k"] * YY + 2.0 * s2["qde"] * rd2 \
        + s2["m"] * Y + s2["qdsq"] * one
    P1 = XX + 2.0 * s1["qe"] * X + s1["qq"] * one
    P2 = YY + 2.0 * s2["qe"] * Y + s2["qq"] * one
    A = 0.5 * (speed1 - speed2)
    AA = _mul(A, A, _C_SHAPE)
    core = _mul(_mul(AA, P1), P2) + (mu * mu) * _pad(P1 - P2, _C_SHAPE)
    return BivariatePoly(
        _mul(core, core, _G_SHAPE)
        - (4.0 * mu * mu) * _mul(_mul(AA, _mul(P1, P1), _G_SHAPE), P2))


def curve_grids(
    att1: OpticalAttributable,
    att2: OpticalAttributable,
    obs1: CartesianState,
    obs2: CartesianState,
    config: RunConfig | None = None,
    bounds: tuple[tuple[float, float], tuple[float, float]] = ((0.01, 4.0), (0.01, 4.0)),
    n: int = 81,
) -> dict:
    """Sample the four linkage curves on an (rho1, rho2) grid.

    Returns axes ``rho1``, ``rho2`` and grids ``q`` (angular-momentum
    quadratic), ``p`` (projected Lenz degree-10), ``lenz`` (unsquared
    Lenz projection with radial velocities restored), and ``energy_sq``
    (twice-squared energy equality, degree 24)."""
    config = config if config is not None else RunConfig()
    c1 = compute_optical_coefficients(att1, obs1.r, obs1.v)
    c2 = compute_optical_coefficients(att2, obs2.r, obs2.v)
    flags = detect_degenerate_optical(c1, c2)
    if flags:
        raise DegenerateConfigurationError(
            flags, "curve sampling degenerate: " + ", ".join(flags))
    mu = config.mu_value
    qpoly = build_q_poly(c1, c2)
    rd1, rd2 = radial_velocity_polys(c1, c2)
    ppoly, v = build_p_poly(c1, c2, rd1, rd2, mu)
    gpoly = energy_equality_poly(c1, c2, rd1, rd2, mu)

    x = np.linspace(bounds[0][0], bounds[0][1], n)
    y = np.linspace(bounds[1][0], bounds[1][1], n)
    X, Y = np.meshgrid(x, y, indexing="ij")
    return {
        "rho1": x,
        "rho2": y,
        "q": qpoly(X, Y),
        "p": ppoly(X, Y),
        "lenz": _lenz_grid(c1, c2, rd1, rd2, v, mu, X, Y),
        "energy_sq": gpoly(X, Y),
    }


def emit_curve_samples(
    att1: OpticalAttributable,
    att2: OpticalAttributable,
    obs1: CartesianState,
    obs2: CartesianState,
    config: RunConfig | None = None,
    directory=None,
    bounds: tuple[tuple[float, float], tuple[float, float]] = ((0.01, 4.0), (0.01, 4.0)),
    n: int = 81,
) -> dict:
    """Sample the linkage curves and optionally write them as long-format
    CSV files (rho1,rho2,value) named <curve>_curve.csv."""
    grids = curve_grids(att1, att2, obs1, obs2, config, bounds, n)
    if directory is not None:
        import os

        os.makedirs(directory, exist_ok=True)
        X, Y = np.meshgrid(grids["rho1"], grids["rho2"], indexing="ij")
        paths = {}
        for name in ("q", "p", "lenz", "energy_sq"):
            path = os.path.join(directory, f"{name}_curve.csv")
            flat = np.column_stack([X.ravel(), Y.ravel(), grids[name].ravel()])
            with open(path, "w") as fh:
                fh.write("rho1,rho2,value\n")
                for row in flat:
                    fh.write(f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g}\n")
            paths[name] = path
        grids["paths"] = paths
    return grids


def count_zero_intersections(grid_a: np.ndarray, grid_b: np.ndarray) -> int:
    """Count grid cells where the zero sets of two sampled functions cross,
    clustering 4-connected cells so one geometric intersection counts once."""
    if grid_a.shape != grid_b.shape:
        raise DomainError("grids must share a shape")

    def straddle(z):
        corners = np.stack([z[:-1, :-1], z[1:, :-1], z[:-1, 1:], z[1:, 1:]])
        return (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)

    mask = straddle(grid_a) & straddle(grid_b)
    _, count = ndimage.label(mask)
    return int(count)
