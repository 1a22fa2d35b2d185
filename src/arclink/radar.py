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
No squaring is involved, so there is no spurious-root screen: every real
root above the minimum range is kept, unless the range rate it implies
at the optical epoch reaches the speed of light.

Pairs are linked in blocks, as optical ones are: Cramer's rule, the
quartic's coefficients, its closed-form roots with their Newton polish, and
the range and light-speed filters are row passes over the block, and
:func:`link_radar_optical` is the one-pair block.  Both linkers share the
state completion and the assembly of solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attributables import OpticalAttributable, RadarAttributable
from .config import RunConfig
from .errors import (
    DegenerateConfigurationError,
    DomainError,
    NumericalError,
    checked,
    fail_rows,
)
from .geometry import (
    ObservationBasis,
    basis_rows,
    body_position,  # noqa: F401 (bench/tracing.py patches it)
    body_velocity,  # noqa: F401 (likewise)
    observation_basis,  # noqa: F401 (likewise)
    polar_error,
    row_cross,
    row_dot,
)
from .kepler import (
    CartesianState,
    cartesian_to_keplerian,  # noqa: F401 (bench/tracing.py patches it)
    compatibility_residuals,  # noqa: F401 (likewise)
    two_body_energy,  # noqa: F401 (likewise)
)
from .optical import _D, _E, _ERHO, _F, _G, _Q, _QDOT, _TAN, _TBAR, check_pair
from .optical import (
    MIN_RHO,
    OpticalCoefficients,
    assemble_rows,
    coefficient_rows,
    complete_states,
    compute_optical_coefficients,  # noqa: F401 (bench/tracing.py patches it)
    optical_coefficient_rows,
)
from .polynomials import (
    UnivariatePoly,
    powers,
    product_sums,
    real_positive_root_rows,
    real_positive_roots,  # noqa: F401 (bench/tracing.py patches it)
)
from .solutions import LinkageSolution, SolutionRows

_DEFLATE_REL = 1e-12  # leading coefficients below this of a row's largest are noise
_DEGENERATE_REL = 1e-10  # relative size at which the elimination is singular
_BIQUADRATIC_REL = 1e-14  # |q| below this of y^3 makes the depressed quartic biquadratic
_POLISH_STEPS = 3
#: a root has converged when one more Newton step would be at most this
#: relative to max(1, |z|).
CONVERGED_REL = 1e-10
_OMEGA = np.array([complex(-0.5, np.sqrt(3.0) / 2.0) ** k for k in range(3)])
_SIGNS = np.array([1.0, -1.0])
_ORDERS = np.arange(1.0, 5.0)
_COLUMNS, _SLOTS = np.arange(5), np.arange(4)
_LOST = "Lenz projection direction is not orthogonal to the epoch-2 line of sight"


@dataclass(frozen=True)
class RadarCoefficients:
    """Radar-epoch geometry: c(xi, zeta) = A xi + B zeta + C.

    The position r = q + rho e_rho is fully determined by the measurement,
    so A = r x e_alpha and B = r x e_delta are constant vectors orthogonal
    to r, and C = r x qdot + rhodot q x e_rho collects the known part of
    r x rdot.  ``row`` holds the same geometry as one float vector, which a
    block of pairs stacks: q, qdot and e_rho where an optical row has them,
    then e_alpha, e_delta, r, the known part of the velocity
    qdot + rhodot e_rho, A, B, C, B x A, rho, rhodot and the epoch.
    """

    att: RadarAttributable
    q: np.ndarray
    qdot: np.ndarray
    basis: ObservationBasis
    r: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    row: np.ndarray


# Layout of a block's row of one pair: the radar record's row, then the
# optical record's row from _OPT on.
_EALPHA, _EDELTA, _R, _RDOT0, _A, _B, _C, _BXA = (
    slice(3 * k, 3 * k + 3) for k in range(3, 11))
_AB = slice(_A.start, _B.stop)
_RHO, _RHODOT, _RTBAR, _OPT = 33, 34, 35, 36
_Q2, _QDOT2, _ERHO2, _D2, _E2, _F2, _G2, _TAN2 = (
    slice(_OPT + part.start, _OPT + part.stop) for part in (_Q, _QDOT, _ERHO, _D, _E, _F, _G, _TAN))
# q, qdot and e_rho of both epochs, (3, 2, 3)
_VECTORS = np.array([[np.r_[part], _OPT + np.r_[part]] for part in (_Q, _QDOT, _ERHO)])
# A, B, D2 and q2, whose lengths the degeneracy test compares; the
# right-hand side of the elimination by ascending order of rho2 (the
# constant term less C1); the vectors of the quartic's dot products besides
# the velocities, with -D2 = e_rho2 x q2 = v last.
_NORMS = np.r_[_A, _B, _D2, _Q2].reshape(4, 3)
_RHS = np.r_[_G2, _F2, _E2].reshape(3, 3)
_QUARTIC = np.r_[_R, _Q2, _ERHO2, _QDOT2, _TAN2, _D2].reshape(6, 3)


def _pair_row(rc1: RadarCoefficients, oc2: OpticalCoefficients) -> np.ndarray:
    """The (1, n) block of the pair (rc1, oc2)."""
    return np.concatenate([rc1.row, oc2.row])[None]


def radar_coefficient_rows(values: np.ndarray, tbar: np.ndarray, q: np.ndarray,
                           qdot: np.ndarray, errors: list):
    """The coefficient records of N radar attributables (``values`` (N, 4)
    and epochs ``tbar`` (N,)) seen from the observer states q, qdot (N, 3):
    the rows (N, 36) of :attr:`RadarCoefficients.row`, and their triads
    (geometry.BasisRows).  A range that is not positive, then a polar
    declination, is its row's error in ``errors``.  Every operation is
    row-wise, with the arithmetic of the one-row case
    :func:`radar_coefficients`."""
    alpha, delta, rho, rhodot = values.T
    fail_rows(errors, rho <= 0.0, lambda k: DomainError(
        f"radar range must be positive, got {float(rho[k])!r}"))
    b = basis_rows(alpha, delta)
    fail_rows(errors, b.polar, lambda k: polar_error(float(delta[k])))
    r = q + rho[:, None] * b.e_rho
    # r x e_alpha, r x e_delta, r x qdot and q x e_rho
    A, B, rq, qe = row_cross(np.array([r, r, r, q]),
                             np.array([b.e_alpha, b.e_delta, qdot, b.e_rho]))
    return np.concatenate([q, qdot, b.e_rho, b.e_alpha, b.e_delta, r,
                           qdot + rhodot[:, None] * b.e_rho, A, B, rq + rhodot[:, None] * qe,
                           row_cross(B, A), values[:, 2:], tbar[:, None]], axis=1), b


def radar_coefficients(
    att: RadarAttributable, q: np.ndarray, qdot: np.ndarray
) -> RadarCoefficients:
    """The one-row case of :func:`radar_coefficient_rows`."""
    (row,), _ = coefficient_rows(radar_coefficient_rows, [att], [q], [qdot])
    return RadarCoefficients(att, row[_Q], row[_QDOT],
                             ObservationBasis(att.alpha, att.delta, row[_ERHO], row[_EALPHA],
                                              row[_EDELTA]),
                             row[_R], row[_A], row[_B], row[_C], row)


@np.errstate(all="ignore")  # singular rows divide by zero
def _eliminate_rows(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The elimination of each row of pairs g (B, n): (xi1, zeta1, rhodot2)
    as quadratics in rho2, (B, 3, 3) with ascending coefficients, from
    A1 xi + B1 zeta - D2 rhodot2 = E2 rho2^2 + F2 rho2 + (G2 - C1) by
    Cramer's rule, order by order in rho2; then which rows are singular
    and which of those are zenith geometries (see
    :func:`detect_degenerate_radar`)."""
    n_a, n_b, n_d, n_q = np.sqrt(row_dot(g[:, _NORMS], g[:, _NORMS])).T
    # Cramer's numerators of the three unknowns: B x D2, D2 x A and B x A
    cramer = np.empty((len(g), 3, 3))
    cramer[:, 1::-1] = row_cross(g[:, None, _D2], g[:, _AB].reshape(-1, 2, 3))
    cramer[:, 0] *= -1.0
    cramer[:, 2] = g[:, _BXA]
    denom = row_dot(g[:, _A], cramer[:, 0])
    zenith = n_d <= _DEGENERATE_REL * n_q
    singular = zenith | (np.abs(denom) <= _DEGENERATE_REL * np.maximum(n_a * n_b * n_d, 1e-300))
    rhs = g[:, _RHS]
    rhs[:, 0] -= g[:, _C]
    return row_dot(cramer[:, :, None], rhs[:, None]) / denom[:, None, None], singular, zenith


def _degenerate(singular: np.ndarray, zenith: np.ndarray, k: int) -> DegenerateConfigurationError:
    flags = ["elimination_degenerate"] + ["zenith"] * bool(zenith[k])
    return DegenerateConfigurationError(
        flags, "radar-optical linkage degenerate: " + ", ".join(flags))


def detect_degenerate_radar(rc1: RadarCoefficients, oc2: OpticalCoefficients) -> list[str]:
    """Flags for geometries that defeat the linear elimination.

    ``elimination_degenerate``: the Cramer denominator A1 . (B1 x D2)
    vanishes; it factors as (r1 . e_rho1)(r1 . D2), so this covers a radar
    line of sight tangent to the position, parallel position vectors, and
    an epoch-2 line of sight in the plane of the two positions.
    ``zenith``: the epoch-2 line of sight is parallel to the observer
    position, |D2| = |e_rho2 x q2| ~ 0, which also implies the former.
    """
    _, singular, zenith = _eliminate_rows(_pair_row(rc1, oc2))
    return _degenerate(singular, zenith, 0).flags if singular[0] else []


@dataclass(frozen=True)
class EliminationQuadratics:
    """The unknowns (xi1, zeta1, rhodot2) as quadratics in rho2.

    Each field holds ascending coefficients (constant, linear, quadratic),
    so e.g. xi1(rho2) = X[0] + X[1] rho2 + X[2] rho2^2.
    """

    X: np.ndarray
    Z: np.ndarray
    R: np.ndarray


def eliminate_linear(rc1: RadarCoefficients, oc2: OpticalCoefficients) -> EliminationQuadratics:
    """Solve A1 xi + B1 zeta - D2 rhodot2 = E2 rho2^2 + F2 rho2 + (G2 - C1)
    for the three linear unknowns; a singular system raises the flags of
    :func:`detect_degenerate_radar`.  The one-row case of the block's
    elimination."""
    quad, singular, zenith = _eliminate_rows(_pair_row(rc1, oc2))
    if singular[0]:
        raise _degenerate(singular, zenith, 0)
    return EliminationQuadratics(*quad[0])


def _quartic_rows(g: np.ndarray, quad: np.ndarray, mu: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The quartic of each row of pairs g (B, n) with the elimination's
    quadratics ``quad`` (B, 3, 3), as ascending coefficients (B, 5) (see
    :func:`build_quartic`), and whether the Lenz projection direction lost
    its orthogonality to the epoch-2 line of sight."""
    # rdot1 and rdot2 as vector polynomials in rho2, (B, 3 orders, 3), then
    # r1, q2, e_rho2, qdot2, tan2 and v
    m = np.empty((len(g), 12, 3))
    m[:, :3] = quad[:, 0, :, None] * g[:, None, _EALPHA] + quad[:, 1, :, None] * g[:, None, _EDELTA]
    m[:, 0] += g[:, _RDOT0]
    m[:, 3:6] = quad[:, 2, :, None] * g[:, None, _ERHO2]
    m[:, 3] += g[:, _QDOT2]
    m[:, 4] += g[:, _TAN2]
    m[:, 6:] = g[:, _QUARTIC]
    m[:, 11] *= -1.0
    dots = row_dot(m[:, :, None], m[:, None])
    r1v = dots[:, 6, 11]
    # [(|rdot1|^2 - mu/|r1|)(r1 . v) - (rdot1 . r1)(rdot1 . v)]
    #   + (rdot2 . r2)(rdot2 . v), r2 = q2 + rho2 e_rho2; rdot2 . v has no
    # rhodot2 term, as e_rho2 . v = 0
    term1 = dots[:, :3, :3] * r1v[:, None, None] - dots[:, 6, :3, None] * dots[:, 11, None, :3]
    term1[:, 0, 0] -= mu / np.sqrt(dots[:, 6, 6]) * r1v
    term2 = dots[:, 3:6, 7:9, None] * dots[:, 11, None, None, 9:11]
    vv = dots[:, 11, 11]
    return (product_sums((1, 1, 1), term1, term2),
            (vv == 0.0) | (np.abs(dots[:, 8, 11]) > 1e-12 * np.sqrt(vv)))


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
    linear in rho2 -- so the total degree is 4 by construction.  Raises
    :class:`NumericalError` when v lost its orthogonality or a coefficient
    is not finite.  The one-row case of the block's quartic.
    """
    with np.errstate(all="ignore"):  # overflow is reported below
        quartic, lost = _quartic_rows(_pair_row(rc1, oc2),
                                      np.array([[elim.X, elim.Z, elim.R]]), mu)
    if lost[0]:
        raise NumericalError(_LOST)
    if not np.isfinite(quartic).all():
        raise NumericalError("non-finite quartic coefficients")
    return UnivariatePoly(quartic[0])


def _cardano_rows(b0: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Roots (K, 3) of the monic cubics x^3 + b2 x^2 + b1 x + b0, each
    coefficient complex (K,)."""
    p = b1 - b2 * b2 / 3.0
    q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    s = np.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    # the branch of -q/2 +- s that avoids cancellation
    plus, minus = -q / 2.0 + s, -q / 2.0 - s
    u3 = np.where(np.abs(plus) >= np.abs(minus), plus, minus)[:, None]
    u = u3 ** (1.0 / 3.0) * _OMEGA
    roots = u - p[:, None] / (3.0 * u) - b2[:, None] / 3.0
    np.copyto(roots, -b2[:, None] / 3.0, where=u3 == 0.0)
    return roots


def _quadratic_rows(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Roots (..., 2) of the monic quadratics x^2 + b x + c, (...) each."""
    return (-b[..., None] + _SIGNS * np.sqrt(b * b - 4.0 * c)[..., None]) / 2.0


def _ferrari_rows(a: np.ndarray) -> np.ndarray:
    """Roots (K, 4) of the monic quartics with lower coefficients a (K, 4),
    by the resolvent-cubic factorization into two quadratics, or as a
    quadratic in y^2 when the depressed quartic is biquadratic."""
    a0, a1, a2, a3 = a.T
    # depress: x = y - a3/4  ->  y^4 + p y^2 + q y + r
    p = a2 - 3.0 * a3 * a3 / 8.0
    q = a1 - a3 * a2 / 2.0 + a3**3 / 8.0
    r = a0 - a3 * a1 / 4.0 + a3 * a3 * a2 / 16.0 - 3.0 * a3**4 / 256.0
    # |q| negligible against y^3, with y the scale of the roots:
    # max(|p|^(1/2), |q|^(1/3), |r|^(1/4))
    biquadratic = np.abs(q) <= _BIQUADRATIC_REL * np.maximum(
        np.maximum(np.abs(p) ** 1.5, np.abs(r) ** 0.75), 1e-300)
    biquadratic |= q == 0.0
    # (y^2 + p/2 + m)^2 - 2m (y - q/(4m))^2, with m the resolvent cubic's
    # root of largest magnitude, is two quadratics in y
    ms = _cardano_rows(-q * q / 8.0, p * p / 4.0 - r, p)
    m = ms[np.arange(len(ms)), np.abs(ms).argmax(axis=1)]
    s = np.sqrt(2.0 * m)
    ys = _quadratic_rows(-_SIGNS * s[:, None], (p / 2.0 + m)[:, None]
                         + _SIGNS * (q / (2.0 * s))[:, None]).reshape(-1, 4)
    if np.count_nonzero(biquadratic):
        # w^2 + p w + r with y = +-sqrt(w)
        sy = np.sqrt(_quadratic_rows(p, r))
        np.copyto(ys, (sy[:, :, None] * _SIGNS).reshape(-1, 4), where=biquadratic[:, None])
    return ys - a3[:, None] / 4.0


_CLOSED_FORMS = {1: lambda a: -a, 2: lambda a: _quadratic_rows(a[:, 1], a[:, 0]),
                 3: lambda a: _cardano_rows(*a.T), 4: _ferrari_rows}


@np.errstate(all="ignore")  # masked rows and roots
def quartic_root_rows(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form complex roots of B real polynomials of degree at most 4,
    ascending coefficients c (B, 5): the roots (B, 4), each row's degree
    (B,), whose first entries of the roots are its roots, and which roots
    converged.

    Leading coefficients below 1e-12 of a row's largest are treated as
    noise and deflated (the closed forms divide by the leading
    coefficient).  Degrees 1-3 use the quadratic formula and Cardano's
    method; degree 4 the resolvent-cubic factorization into two quadratics.
    Then each root gets up to three Newton corrections.  A root has
    converged when the next step is at most ``CONVERGED_REL`` max(1, |z|);
    it still takes that step, and then stops, as it does at a non-finite
    step.  Every operation is row-wise.
    """
    rows = np.arange(len(c))
    mag = np.abs(c)
    degree = 4 - (mag >= _DEFLATE_REL * mag.max(axis=1, keepdims=True))[:, ::-1].argmax(axis=1)
    # monic, zero above the degree; the second row is the derivative
    coef = np.zeros((len(c), 2, 5))
    np.divide(c, c[rows, degree][:, None], out=coef[:, 0], where=_COLUMNS <= degree[:, None])
    np.multiply(coef[:, 0, 1:], _ORDERS, out=coef[:, 1, :4])
    roots = np.zeros((len(c), 4), dtype=complex)
    for n, count in enumerate(np.bincount(degree, minlength=5).tolist()):
        if n and count:
            at = slice(None) if count == len(c) else degree == n
            roots[at, :n] = _CLOSED_FORMS[n](coef[at, 0, :n].astype(complex))
    going = _SLOTS < degree[:, None]
    converged = np.zeros(going.shape, dtype=bool)
    for correction in range(_POLISH_STEPS + 1):
        # the polynomial and its derivative at the roots, (B, 2, 4)
        f = (powers(roots, 5)[:, None] * coef[:, :, None]).sum(axis=3)
        small = np.abs(f[:, 0]) <= CONVERGED_REL * np.maximum(1.0, np.abs(roots)) * np.abs(f[:, 1])
        converged |= going & small
        if correction == _POLISH_STEPS:
            break
        step = f[:, 0] / f[:, 1]
        going &= np.isfinite(step)
        np.subtract(roots, step, out=roots, where=going)
        going &= ~small
        if not np.count_nonzero(going):
            break
    return roots, degree, converged


def _solve_errors(errors: list, c: np.ndarray, degree: np.ndarray) -> None:
    """Fail the rows of quartics c (B, 5) that have no roots to find: not
    finite, zero, or of degree 0."""
    fail_rows(errors, ~np.isfinite(c).all(axis=1),
              lambda k: NumericalError("non-finite quartic coefficients"))
    fail_rows(errors, (c == 0.0).all(axis=1),
              lambda k: DomainError("cannot solve the zero polynomial"))
    fail_rows(errors, degree == 0, lambda k: DomainError("degree-0 polynomial has no roots"))


def solve_quartic(poly: UnivariatePoly) -> list[complex]:
    """Closed-form complex roots of a polynomial of degree at most 4: the
    one-row case of :func:`quartic_root_rows`."""
    c = np.asarray(poly.coeffs, dtype=float)
    if len(c) > 5 and np.max(np.abs(c[5:])) >= _DEFLATE_REL * np.max(np.abs(c)):
        raise DomainError(f"closed-form solver limited to degree 4, got {len(c) - 1}")
    c = np.pad(c[:5], (0, 5 - min(len(c), 5)))[None]
    roots, degree, _ = quartic_root_rows(c)
    errors = [None]
    _solve_errors(errors, c, degree)
    checked(*errors)
    return roots[0, : degree[0]].tolist()


def check_radar_pair(att_rad, att_opt, obs1: CartesianState, obs2: CartesianState) -> None:
    """Raise :class:`DomainError` unless the first attributable is radar
    and the second optical, at distinct epochs, and each observer state is
    at its attributable's epoch."""
    check_pair("radar", att_rad, att_opt, obs1, obs2)


def link_radar_optical_rows(rows1: np.ndarray, rows2: np.ndarray,
                            config: RunConfig) -> SolutionRows:
    """Link the pairs whose radar and optical records have the rows
    (rows1[k], rows2[k]) (:attr:`RadarCoefficients.row` and
    :attr:`OpticalCoefficients.row`) as one block: the solutions of all
    pairs, and the error that stopped each pair or None.  The elimination, the quartic
    and its roots are row passes over the block; the real roots above
    ``MIN_RHO`` whose range rate rhodot2 is below the speed of light (no
    body moves so) are completed to states in one array pass, with the
    tangential velocity xi1 e_alpha + zeta1 e_delta at the radar epoch,
    and assembled in another.  A solution whose root's polish did not
    converge carries the ``quartic_unconverged`` flag."""
    if not len(rows1):
        return SolutionRows.empty([], "radar-optical")
    g = np.concatenate([rows1, rows2], axis=1)
    errors: list = [None] * len(g)
    # Failed rows, roots that are not kept and non-finite states (which
    # fail at encoding) may overflow or divide by zero.
    with np.errstate(all="ignore"):
        quad, singular, zenith = _eliminate_rows(g)
        quartic, lost = _quartic_rows(g, quad, config.mu_value)
        roots, degree, converged = quartic_root_rows(quartic)
        fail_rows(errors, singular, lambda k: _degenerate(singular, zenith, k))
        fail_rows(errors, lost, lambda k: NumericalError(_LOST))
        _solve_errors(errors, quartic, degree)
        live = np.array([error is None for error in errors])
        x, keep, order = real_positive_root_rows(
            roots, (_SLOTS < degree[:, None]) & live[:, None], min_value=MIN_RHO)
        # xi1, zeta1 and rhodot2 at every root, (B, 3, 4); no body's range
        # rate reaches the speed of light
        c = quad[:, :, None]
        unknowns = c[..., 0] + x[:, None] * (c[..., 1] + x[:, None] * c[..., 2])
        keep &= np.abs(unknowns[:, 2]) < config.units.c_light
        pair, slot = np.nonzero(keep)
        if not len(pair):
            return SolutionRows.empty(errors, "radar-optical")
        rho2 = x[pair, slot]
        xi, zeta, rhodot2 = unknowns[pair, :, slot].T
        h = g[pair]
        q, qdot, e_rho = h[:, _VECTORS].transpose(1, 0, 2, 3)
        tangential = np.array([xi[:, None] * h[:, _EALPHA] + zeta[:, None] * h[:, _EDELTA],
                               rho2[:, None] * h[:, _TAN2]]).transpose(1, 0, 2)
        rho, rhodot = np.array([[h[:, _RHO], rho2], [h[:, _RHODOT], rhodot2]]).transpose(0, 2, 1)
        done = complete_states(q, qdot, e_rho, rho, rhodot, tangential,
                               h[:, [_RTBAR, _OPT + _TBAR]], h[:, _D2], config)
    return assemble_rows(errors, pair, done, h[:, _ERHO2], config.mu_value, "radar-optical",
                         ~converged[pair, order[pair, slot]])


def link_radar_optical(
    att_rad: RadarAttributable,
    att_opt: OpticalAttributable,
    obs1: CartesianState,
    obs2: CartesianState,
    config: RunConfig | None = None,
) -> list[LinkageSolution]:
    """Link a radar attributable (epoch 1) with an optical one (epoch 2).

    Every real root of the quartic above ``MIN_RHO`` yields a solution,
    unless its range rate rhodot2 is at least the speed of light.  The
    projected equality was never squared, so there is no spurious-root
    screen, and the recorded ``lenz_residual`` should be at roundoff for
    every returned solution.  The one-pair case of
    :func:`link_radar_optical_rows`.
    """
    config = config if config is not None else RunConfig()
    check_radar_pair(att_rad, att_opt, obs1, obs2)
    rows1, _ = coefficient_rows(radar_coefficient_rows, [att_rad], [obs1.r], [obs1.v])
    rows2, _ = coefficient_rows(optical_coefficient_rows, [att_opt], [obs2.r], [obs2.v])
    return checked(*link_radar_optical_rows(rows1, rows2, config).per_pair())
