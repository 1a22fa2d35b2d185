"""Two-body dynamics: first integrals, element conversions, propagation.

Everything works in one consistent unit system (see :mod:`arclink.config`);
``mu`` is the gravitational parameter of the centre.  Only elliptic orbits
can be expressed in Keplerian elements here; hyperbolic states keep their
Cartesian representation and callers flag them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NonEllipticOrbitError, RectilinearOrbitError
from .geometry import cross, row_cross, row_dot

TWO_PI = 2.0 * math.pi

_ECC_TOL = 1e-10  # below this the perihelion direction is meaningless
_KEPLER_TOL = 1e-14  # residual of Kepler's equation at convergence, radians
_KEPLER_ITER = 60
KEPLER_UNCONVERGED = (f"Kepler equation not converged to {_KEPLER_TOL} in "
                      f"{_KEPLER_ITER} iterations")
_INC_TOL = 1e-10  # below this the node direction is meaningless
_X_AXIS = np.array([1.0, 0.0, 0.0])
_NODE_ORDER, _NODE = np.array([1, 0, 2]), np.array([-1.0, 1.0, 0.0])  # z x c = (-c_y, c_x, 0)


def wrap_angle(x: float) -> float:
    """Wrap an angle to [0, 2*pi), with the arithmetic of ``np.mod``."""
    return float(x % TWO_PI)


def wrap_signed_rows(x: np.ndarray) -> np.ndarray:
    """Wrap angle differences to (-pi, pi], elementwise."""
    y = np.fmod(x, TWO_PI)
    over, under = y > np.pi, y <= -np.pi
    np.subtract(y, TWO_PI, out=y, where=over)
    np.add(y, TWO_PI, out=y, where=under)
    return y


def wrap_signed(x: float) -> float:
    """:func:`wrap_signed_rows` of one angle difference."""
    return float(wrap_signed_rows(np.array([x], dtype=float))[0])


@dataclass(frozen=True)
class CartesianState:
    """Position and velocity at an epoch (internal time units)."""

    r: np.ndarray
    v: np.ndarray
    epoch: float

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


@dataclass(frozen=True)
class KeplerianElements:
    """Elliptic elements (a, e, i, Omega, omega, ell) at an epoch.

    Angles are radians: inclination in [0, pi], the others wrapped to
    [0, 2*pi).  ``ell`` is the mean anomaly.  For near-circular orbits
    (e < 1e-10) omega is set to zero and ell is measured from the node; for
    near-equatorial orbits (i < 1e-10) Omega is set to zero.
    """

    a: float
    e: float
    i: float
    Omega: float
    omega: float
    ell: float
    epoch: float

    def __post_init__(self):
        object.__setattr__(self, "Omega", wrap_angle(self.Omega))
        object.__setattr__(self, "omega", wrap_angle(self.omega))
        object.__setattr__(self, "ell", wrap_angle(self.ell))

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.e, self.i, self.Omega, self.omega, self.ell])


def angular_momentum(state: CartesianState) -> np.ndarray:
    """First integral c = r x v."""
    return cross(state.r, state.v)


def laplace_lenz_rows(r: np.ndarray, v: np.ndarray, mu: float) -> np.ndarray:
    """Dimensionless Laplace-Lenz (eccentricity) vectors of stacked states
    r, v (..., 3).

    L = mu^-1 [ (|v|^2 - mu/|r|) r - (r . v) v ], equal to v x c / mu - r/|r|.
    Points to perihelion with magnitude e.
    """
    return ((row_dot(v, v) - mu / np.sqrt(row_dot(r, r)))[..., None] * r
            - row_dot(r, v)[..., None] * v) / mu


def laplace_lenz(state: CartesianState, mu: float) -> np.ndarray:
    """:func:`laplace_lenz_rows` of one state."""
    return laplace_lenz_rows(state.r[None], state.v[None], mu)[0]


def two_body_energy_rows(r: np.ndarray, v: np.ndarray, mu: float) -> np.ndarray:
    """Specific orbital energies |v|^2/2 - mu/|r| of stacked states (..., 3)."""
    return row_dot(v, v) / 2.0 - mu / np.sqrt(row_dot(r, r))


def two_body_energy(state: CartesianState, mu: float) -> float:
    """:func:`two_body_energy_rows` of one state."""
    return float(two_body_energy_rows(state.r[None], state.v[None], mu)[0])


def mean_motion(a: float, mu: float) -> float:
    return math.sqrt(mu / a**3)


def kepler_rows(ell, e, start=None):
    """The iteration of :func:`solve_kepler` on arrays of ``ell`` and ``e``
    (broadcast against each other): the eccentric anomalies and which of
    them converged.  Each entry iterates under its own mask, so its result
    does not depend on the others.  ``start`` holds anomalies returned for
    nearby ``ell``, the first iterates wherever they lie in the bracket."""
    ell_arr = np.array(ell, dtype=float, ndmin=1)
    # Reduce to (-pi, pi]; the solution shifts back by the same multiple
    # (rint rounds half to even, as np.round does).
    k = np.rint(ell_arr / TWO_PI)
    m = ell_arr - k * TWO_PI
    E = m + e * np.sin(m)
    lo = m - e
    hi = m + e
    if start is not None:
        warm = start - k * TWO_PI
        np.copyto(E, warm, where=(warm >= lo) & (warm <= hi))
    f = E - e * np.sin(E) - m
    for _ in range(_KEPLER_ITER):
        active = np.abs(f) > _KEPLER_TOL
        if not np.count_nonzero(active):
            break
        # f is strictly increasing in E, so the bracket update is by sign;
        # the bracket of a converged entry is not used again.
        np.copyto(lo, E, where=f < 0.0)
        np.copyto(hi, E, where=f > 0.0)
        cand = E - f / (1.0 - e * np.cos(E))
        np.copyto(cand, 0.5 * (lo + hi), where=(cand < lo) | (cand > hi))
        np.copyto(E, cand, where=active)
        f = E - e * np.sin(E) - m
    return E + k * TWO_PI, ~(np.abs(f) > _KEPLER_TOL)


def solve_kepler(ell, e: float):
    """Solve E - e sin(E) = ell for the eccentric anomaly.

    Safeguarded Newton iteration started at E0 = ell + e sin(ell), falling
    back to bisection on the bracket [ell - e, ell + e] whenever a Newton
    step leaves it, until the equation's residual is at most 1e-14 rad.
    Works element-wise on arrays; scalars in, scalar out.

    Args:
        ell: Mean anomaly in radians (any real value).
        e: Eccentricity in [0, 1).

    Returns:
        Eccentric anomaly with the same 2*pi offset as ``ell``.
    """
    if not 0.0 <= e < 1.0:
        raise NonEllipticOrbitError(f"eccentricity {e!r} outside [0, 1)")
    E, converged = kepler_rows(ell, e)
    if not converged.all():
        raise ConvergenceError(KEPLER_UNCONVERGED)
    return float(E[0]) if np.isscalar(ell) or np.asarray(ell).ndim == 0 else E


def state_element_rows(r: np.ndarray, v: np.ndarray, mu: float,
                       lenz: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elliptic elements of S Cartesian states r, v (S, 3), with their
    Laplace-Lenz vectors ``lenz`` (S, 3) when already at hand: a (6, S)
    array in the layout of :func:`element_rows`, which rows have elements,
    and the energies (:func:`two_body_energy_rows`) they come from.  A row
    has no elements when its angular momentum is numerically zero
    (rectilinear) or its energy is not negative (the cases in which
    :func:`cartesian_to_keplerian` raises); its column is then meaningless.
    Every operation is row-wise, with the conventions of
    :class:`KeplerianElements` for near-circular and near-equatorial orbits.
    """
    with np.errstate(all="ignore"):  # the rows without elements divide by zero
        c = row_cross(r, v)
        lvec = laplace_lenz_rows(r, v, mu) if lenz is None else lenz
        vectors = np.array([r, v, c, lvec])
        rmag, vsq, cmag, e = row_dot(vectors, vectors)
        rmag, cmag, e = np.sqrt(rmag), np.sqrt(cmag), np.sqrt(e)
        energy = vsq / 2.0 - mu / rmag
        elliptic = (cmag > 1e-12 * rmag * np.sqrt(vsq)) & (energy < 0.0)
        inc = np.arccos(np.minimum(np.maximum(c[:, 2] / cmag, -1.0), 1.0))
        # the node direction z x c, the x axis for a near-equatorial orbit
        node = c[:, _NODE_ORDER] * _NODE
        Omega = np.mod(np.arctan2(node[:, 1], node[:, 0]), TWO_PI)
        nmag = np.hypot(c[:, 0], c[:, 1])
        node /= nmag[:, None]
        equatorial = (inc < _INC_TOL) | (nmag <= 1e-300)
        if np.count_nonzero(equatorial):
            Omega[equatorial] = 0.0
            node[equatorial] = _X_AXIS
        # angles in the orbit plane from the node, towards c x node: omega of
        # the Laplace-Lenz vector (zero for a near-circular orbit, whose
        # anomaly counts from the node) and the argument of latitude of r
        axes = np.array([row_cross(c, node) / cmag[:, None], node]).transpose(1, 0, 2)
        (l_ahead, l_node), (r_ahead, r_node) = row_dot(
            axes[:, :, None], vectors[[3, 0]].transpose(1, 0, 2)[:, None]).T
        omega = np.mod(np.arctan2(l_ahead, l_node), TWO_PI)
        omega[e < _ECC_TOL] = 0.0
        nu = np.arctan2(r_ahead, r_node) - omega
        # true -> eccentric -> mean anomaly
        E = 2.0 * np.arctan2(np.sqrt(1.0 - e) * np.sin(nu / 2.0),
                             np.sqrt(1.0 + e) * np.cos(nu / 2.0))
        ell = np.mod(E - e * np.sin(E), TWO_PI)
    return np.array([-mu / (2.0 * energy), e, inc, Omega, omega, ell]), elliptic, energy


def cartesian_to_keplerian(state: CartesianState, mu: float) -> KeplerianElements:
    """Convert a Cartesian state to elliptic Keplerian elements.

    One state in Python floats; the linkers convert their solutions with
    :func:`state_element_rows`, which agrees with it to roundoff.  This body
    stays because ``bench/generate.py`` draws its orbits through it and its
    inputs are kept byte-identical.

    Raises:
        RectilinearOrbitError: angular momentum numerically zero.
        NonEllipticOrbitError: non-negative orbital energy.
    """
    r, v = state.r, state.v
    rmag = float(np.linalg.norm(r))
    vmag = float(np.linalg.norm(v))
    c = cross(r, v)
    cmag = float(np.linalg.norm(c))
    if cmag <= 1e-12 * rmag * vmag:
        raise RectilinearOrbitError("angular momentum numerically zero")
    energy = vmag * vmag / 2.0 - mu / rmag
    if energy >= 0.0:
        raise NonEllipticOrbitError(f"non-elliptic state (energy {energy:.6e} >= 0)")
    a = -mu / (2.0 * energy)
    lvec = ((vmag * vmag - mu / rmag) * r - (r @ v) * v) / mu
    e = float(np.linalg.norm(lvec))
    chat = c / cmag
    inc = math.acos(min(1.0, max(-1.0, c[2] / cmag)))

    node = np.array([-c[1], c[0], 0.0])
    nmag = float(np.linalg.norm(node))
    if inc < _INC_TOL or nmag <= 1e-300:
        Omega = 0.0
        nhat = np.array([1.0, 0.0, 0.0])
    else:
        Omega = wrap_angle(math.atan2(node[1], node[0]))
        nhat = node / nmag

    if e < _ECC_TOL:
        omega = 0.0
        ref = nhat  # anomaly measured from the node
    else:
        lhat = lvec / e
        omega = wrap_angle(math.atan2(chat @ cross(nhat, lhat), nhat @ lhat))
        ref = lhat
    nu = math.atan2(chat @ cross(ref, r) / rmag, ref @ r / rmag)
    # True -> eccentric -> mean anomaly.
    E = 2.0 * math.atan2(
        math.sqrt(1.0 - e) * math.sin(nu / 2.0),
        math.sqrt(1.0 + e) * math.cos(nu / 2.0),
    )
    ell = wrap_angle(E - e * math.sin(E))
    return KeplerianElements(a, e, inc, Omega, omega, ell, state.epoch)


def _rot_z(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def perifocal_rotation(el: KeplerianElements) -> np.ndarray:
    """The rotation from the perifocal frame of ``el`` to the reference frame."""
    return _rot_z(el.Omega) @ _rot_x(el.i) @ _rot_z(el.omega)


def kepler_state_rows(el: KeplerianElements, ell: np.ndarray, mu: float,
                      rotation: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Cartesian states r, v (N, 3) of the elliptic elements ``el`` at
    the mean anomalies ``ell`` (N,), and which Kepler solves converged:
    the arithmetic of :func:`keplerian_to_cartesian`, its one-row case,
    row by row (one matrix-vector product per row), with the
    :func:`perifocal_rotation` of ``el``.  Elements that are not elliptic
    raise NonEllipticOrbitError."""
    if el.a <= 0.0:
        raise NonEllipticOrbitError(f"semimajor axis must be positive, got {el.a!r}")
    if not 0.0 <= el.e < 1.0:
        raise NonEllipticOrbitError(f"eccentricity {el.e!r} outside [0, 1)")
    a, e = el.a, el.e
    E, converged = kepler_rows(ell, e)
    cE, sE = np.cos(E), np.sin(E)
    b = math.sqrt(1.0 - e * e)
    beta = 1.0 - e * cE
    n = mean_motion(a, mu)
    zero = np.zeros(len(E))  # the perifocal r and v of each row, (2, N, 3, 1)
    rv = np.array([[a * (cE - e), a * b * sE, zero],
                   [-n * a * sE / beta, n * a * b * cE / beta, zero]]).transpose(0, 2, 1)
    r, v = np.matmul(rotation, rv[..., None])[..., 0]
    return r, v, converged


def keplerian_to_cartesian(el: KeplerianElements, mu: float) -> CartesianState:
    """Convert elliptic elements to a Cartesian state at the element epoch.

    One element set: the observer ephemerides and the synthesis of
    attributables use it.  Covariance propagation and selection use
    :func:`element_state_rows` on a stack of element sets.
    """
    r, v, converged = kepler_state_rows(el, np.array([el.ell]), mu, perifocal_rotation(el))
    if not converged[0]:
        raise ConvergenceError(KEPLER_UNCONVERGED)
    return CartesianState(r[0], v[0], el.epoch)


def propagate_elements(el: KeplerianElements, t: float, mu: float) -> KeplerianElements:
    """Two-body propagation in element space: advance the mean anomaly."""
    ell = el.ell + mean_motion(el.a, mu) * (t - el.epoch)
    return replace(el, ell=wrap_angle(ell), epoch=t)


def propagate_kepler(el: KeplerianElements, t: float, mu: float) -> CartesianState:
    """Two-body propagation of elements to a Cartesian state at time ``t``."""
    return keplerian_to_cartesian(propagate_elements(el, t, mu), mu)


def propagation_jacobian(el: KeplerianElements, t: float, mu: float) -> np.ndarray:
    """Jacobian of element propagation, in element coordinates.

    The two-body flow is the identity on (a, e, i, Omega, omega) while
    ell picks up n(a) * dt, so the only off-diagonal entry is
    d(ell)/d(a) = -1.5 (n/a) dt.
    """
    J = np.eye(6)
    n = mean_motion(el.a, mu)
    J[5, 0] = -1.5 * (n / el.a) * (t - el.epoch)
    return J


def element_rows(elements) -> np.ndarray:
    """(a, e, i, Omega, omega, ell) of a list of element sets as a (6, S)
    array, each element's row contiguous."""
    return np.array([[el.a for el in elements], [el.e for el in elements],
                     [el.i for el in elements], [el.Omega for el in elements],
                     [el.omega for el in elements], [el.ell for el in elements]])


def orbit_frame_rows(i: np.ndarray, Omega: np.ndarray, omega: np.ndarray):
    """The orbit frames of S element sets: the (S, 3) unit vectors P (to
    perihelion), Q (a quarter turn ahead in the orbit plane) and W (the
    orbit normal), with sin(omega) and cos(omega).  A perifocal position
    (X, Y) is r = X P + Y Q."""
    c = np.cos((i, Omega, omega))
    s = np.sin((i, Omega, omega))
    (ci, cO, co), (si, sO, so) = c, s
    sci, cci = sO * ci, cO * ci
    P, Q, W = np.array([[cO * co - sci * so, sO * co + cci * so, si * so],
                        [-cO * so - sci * co, -sO * so + cci * co, si * co],
                        [sO * si, -cO * si, ci]]).transpose(0, 2, 1)
    return P, Q, W, so, co


class StateRows(NamedTuple):
    """Cartesian states of S element sets: r and v (S, 3), the Jacobians
    d(r, v)/d(a, e, i, Omega, omega, ell) (S, 6, 6) or None, the eccentric
    anomalies and which rows' Kepler solve converged."""

    r: np.ndarray
    v: np.ndarray
    jacobian: np.ndarray | None
    E: np.ndarray
    converged: np.ndarray


def element_state_rows(el: np.ndarray, mu: float, frame=None,
                       jacobian: bool = False, start=None,
                       velocity: bool = True) -> StateRows:
    """Cartesian states of S elliptic element sets (``el`` as from
    :func:`element_rows`) at their own epochs, with the Jacobians when
    ``jacobian`` is set, or only the positions unless ``velocity``.
    ``frame`` is :func:`orbit_frame_rows` of the same rows, if already at
    hand, and ``start`` the eccentric anomalies of nearby element sets
    (see :func:`kepler_rows`).

    The Jacobian differentiates the perifocal coordinates through the
    Kepler equation, and the frame by dP/dOmega = z x P, dP/domega = Q,
    dQ/domega = -P, dP/di = sin(omega) W and dQ/di = cos(omega) W.  Every
    operation is row-wise.
    """
    a, e, ell = el[0], el[1], el[5]
    P, Q, W, so, co = frame if frame is not None else orbit_frame_rows(
        el[2], el[3], el[4])
    E, converged = kepler_rows(ell, e, start=start)
    cE, sE = np.cos(E), np.sin(E)
    b = np.sqrt(1.0 - e * e)
    X = a * (cE - e)
    Y = a * b * sE
    r = X[:, None] * P + Y[:, None] * Q
    if not velocity:
        return StateRows(r, None, None, E, converged)
    beta = 1.0 - e * cE
    n = np.sqrt(mu / a**3)
    Xd = -n * a * sE / beta
    Yd = n * a * b * cE / beta
    v = Xd[:, None] * P + Yd[:, None] * Q
    if not jacobian:
        return StateRows(r, v, None, E, converged)

    dE_dell = 1.0 / beta
    dE_de = sE / beta
    dbeta_de = -cE + e * sE * dE_de
    dbeta_dell = e * sE * dE_dell
    db_de = -e / b
    na = n * a
    beta2 = beta * beta
    # (dX, dY, dXd, dYd) by a, e and ell; d(na)/da = -n/2 as n ~ a^(-3/2).
    by_a = (cE - e, b * sE, 0.5 * n * sE / beta, -0.5 * n * b * cE / beta)
    by_e = (a * (-sE * dE_de - 1.0),
            a * (db_de * sE + b * cE * dE_de),
            -na * (cE * dE_de * beta - sE * dbeta_de) / beta2,
            na * ((db_de * cE - b * sE * dE_de) * beta - b * cE * dbeta_de) / beta2)
    by_ell = (-a * sE * dE_dell,
              a * b * cE * dE_dell,
              -na * (cE * dE_dell * beta - sE * dbeta_dell) / beta2,
              na * (-b * sE * dE_dell * beta - b * cE * dbeta_dell) / beta2)
    J = np.zeros((len(a), 6, 6))
    for col, (dx, dy, dxd, dyd) in ((0, by_a), (1, by_e), (5, by_ell)):
        J[:, :3, col] = dx[:, None] * P + dy[:, None] * Q
        J[:, 3:, col] = dxd[:, None] * P + dyd[:, None] * Q
    J[:, :3, 2] = (X * so + Y * co)[:, None] * W
    J[:, 3:, 2] = (Xd * so + Yd * co)[:, None] * W
    J[:, 0, 3], J[:, 1, 3] = -r[:, 1], r[:, 0]
    J[:, 3, 3], J[:, 4, 3] = -v[:, 1], v[:, 0]
    J[:, :3, 4] = X[:, None] * Q - Y[:, None] * P
    J[:, 3:, 4] = Xd[:, None] * Q - Yd[:, None] * P
    return StateRows(r, v, J, E, converged)


def element_state_jacobian(el: KeplerianElements, mu: float) -> np.ndarray:
    """Analytic 6x6 Jacobian of the element -> Cartesian-state map.

    Columns follow the element order (a, e, i, Omega, omega, ell); rows are
    (r, v).  The one-row case of :func:`element_state_rows`.
    """
    if not 0.0 <= el.e < 1.0:
        raise NonEllipticOrbitError(f"eccentricity {el.e!r} outside [0, 1)")
    state = element_state_rows(element_rows([el]), mu, jacobian=True)
    if not state.converged[0]:
        raise ConvergenceError("Kepler equation not converged")
    return state.jacobian[0]


def state_element_jacobian(el: KeplerianElements, mu: float) -> np.ndarray:
    """Inverse map Jacobian d(elements)/d(r, v) at the given elements."""
    return np.linalg.inv(element_state_jacobian(el, mu))


def propagate_element_rows(el: np.ndarray, epoch: np.ndarray, t: np.ndarray,
                           mu: float) -> np.ndarray:
    """:func:`propagate_elements` of S element sets (``el`` as from
    :func:`element_rows`, at epochs ``epoch``) to the times ``t``."""
    out = el.copy()
    out[5] = np.mod(el[5] + np.sqrt(mu / el[0]**3) * (t - epoch), TWO_PI)
    return out


def compatibility_rows(lenz: np.ndarray, t: np.ndarray, a1: np.ndarray, ell: np.ndarray,
                       e_rho2: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """The two compatibility residuals of K solutions, from the
    Laplace-Lenz vectors of both states (K, 2, 3) at the epochs t (K, 2),
    the first state's semimajor axis a1 (K,), both mean anomalies ell
    (K, 2) and the epoch-2 line of sight e_rho2 (K, 3).

    First: the Laplace-Lenz difference projected on the epoch-2 line of
    sight, (L1 - L2) . e_rho2.  Second: the mean-anomaly consistency
    ell1 - ell2 - n1 (t1 - t2), wrapped to (-pi, pi]; meaningless in a row
    where either state has no elements.
    """
    with np.errstate(all="ignore"):  # rows without elements
        n1 = np.sqrt(mu / (a1 * a1 * a1))
        second = wrap_signed_rows(ell[:, 0] - ell[:, 1] - n1 * (t[:, 0] - t[:, 1]))
    return row_dot(lenz[:, 0] - lenz[:, 1], e_rho2), second


def compatibility_residuals(
    state1: CartesianState,
    state2: CartesianState,
    el1: KeplerianElements | None,
    el2: KeplerianElements | None,
    e_rho2: np.ndarray,
    mu: float,
) -> tuple[float, float | None]:
    """:func:`compatibility_rows` of one solution.  ``el1`` and ``el2`` are
    the elements of the two states, converted by the caller, with ``None``
    for a state that is not elliptic; the second residual is then ``None``.
    """
    none = el1 is None or el2 is None
    first, second = compatibility_rows(
        laplace_lenz_rows(np.array([[state1.r, state2.r]]), np.array([[state1.v, state2.v]]), mu),
        np.array([[state1.epoch, state2.epoch]]), np.array([1.0 if none else el1.a]),
        np.array([[0.0, 0.0] if none else [el1.ell, el2.ell]]),
        np.asarray(e_rho2, dtype=float)[None], mu)
    return float(first[0]), None if none else float(second[0])
