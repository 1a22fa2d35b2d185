"""Covariance propagation for linkage solutions.

The linkage system — equal angular momenta plus the projected Laplace-Lenz
equality — defines the unknown vector Y implicitly as a function of the two
attributables A.  Near a solution the implicit function theorem gives
dY/dA = -(dPhi/dY)^-1 dPhi/dA, where Phi is the constraint map composed with
the attributable-to-Cartesian coordinate change, and from that the covariance
of the attributables pushes forward to a covariance of the Cartesian states
at either epoch.

Conventions used throughout:

- per-epoch attributable-style coordinates are ordered
  (alpha, delta, alphadot, deltadot, rho, rhodot);
- the stacked 8-vector A lists each attributable in its own component order
  (optical: alpha, delta, alphadot, deltadot; radar: alpha, delta, rho,
  rhodot), first epoch then second, matching the 8x8 covariance blocks;
- the unknown 4-vector Y is (rho1, rhodot1, rho2, rhodot2) for an
  optical-optical pair and (alphadot1, deltadot1, rho2, rhodot2) for a
  radar-optical pair (radar epoch first).

The constraint map uses the projection direction w = r2 x q2 rather than the
unit-normalized one; both vanish on the same set for rho2 > 0, and w keeps
the derivatives polynomial in the states.  The observer states are treated
as constants of the coordinate change: the derivatives are taken through the
same interpolated observer positions that the solver used, so the pushed
covariance is consistent with the actual solve even though those coordinates
are then not exactly the fitted attributable ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .errors import DomainError, NumericalError
from .geometry import (
    basis_partials,
    body_position,
    body_velocity,
    cross,
    hat_map,
    observation_basis,
    topocentric_coords,
)
from .kepler import CartesianState

#: condition number of dPhi/dY above which solutions are flagged (not
#: rejected) as ill-conditioned.
CONDITION_LIMIT = 1e12

_ILL_CONDITIONED = "ill-conditioned-solution"

# 0-based column indices into the 12x12 two-epoch coordinate Jacobian,
# per linkage variant: which columns belong to the unknowns Y and which to
# the observed attributable components A.
_Y_COLUMNS = {
    "optical": (4, 5, 10, 11),
    "radar_optical": (2, 3, 10, 11),
}
_A_COLUMNS = {
    "optical": (0, 1, 2, 3, 6, 7, 8, 9),
    "radar_optical": (0, 1, 4, 5, 6, 7, 8, 9),
}


# ---------------------------------------------------------------------------
# covariance containers


def _check_symmetric(m: np.ndarray, rtol: float, what: str) -> None:
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return
    skew = float(np.max(np.abs(m - m.T)))
    if skew > rtol * scale:
        raise DomainError(f"{what} not symmetric: max asymmetry {skew:.3e} "
                          f"exceeds {rtol:.1e} of scale {scale:.3e}")


def _check_psd(m: np.ndarray, tol_factor: float, what: str) -> None:
    eig = np.linalg.eigvalsh(0.5 * (m + m.T))
    floor = -tol_factor * max(float(np.trace(m)), 0.0)
    if eig.min() < floor:
        raise DomainError(f"{what} not positive semidefinite: min eigenvalue "
                          f"{eig.min():.3e} below {floor:.3e}")


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric PSD matrix tagged with the coordinate set it lives in.

    ``label`` is one of ``"attributable"``, ``"cartesian"``, ``"keplerian"``.
    The matrix is validated (symmetry within 1e-12 relative, eigenvalues
    above -1e-10 * trace) and stored exactly symmetrized.
    """

    matrix: np.ndarray
    label: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"covariance must be square, got {m.shape}")
        _check_symmetric(m, 1e-12, f"{self.label} covariance")
        _check_psd(m, 1e-10, f"{self.label} covariance")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class AttributablePair:
    """Two attributables with their joint 8x8 covariance.

    When ``gamma`` is omitted it is assembled block-diagonally from the
    4x4 covariances attached to the attributables themselves (both must
    carry one).  A full 8x8 may be supplied instead to express
    cross-epoch correlation.  Block order follows each attributable's own
    component order.
    """

    att1: object
    att2: object
    gamma: np.ndarray | None = None

    def __post_init__(self):
        kind1 = getattr(self.att1, "kind", None)
        kind2 = getattr(self.att2, "kind", None)
        if kind2 != "optical" or kind1 not in ("optical", "radar"):
            raise DomainError(
                "pair must be optical-optical or radar-optical "
                f"(radar first), got {kind1!r}/{kind2!r}")
        if self.gamma is None:
            if self.att1.cov is None or self.att2.cov is None:
                raise DomainError("no joint covariance supplied and the "
                                  "attributables carry none")
            g = np.zeros((8, 8))
            g[:4, :4] = self.att1.cov
            g[4:, 4:] = self.att2.cov
        else:
            g = np.asarray(self.gamma, dtype=float)
            if g.shape != (8, 8):
                raise DomainError(f"joint covariance must be 8x8, got {g.shape}")
        _check_symmetric(g, 1e-12, "attributable covariance")
        _check_psd(g, 1e-12, "attributable covariance")
        object.__setattr__(self, "gamma", 0.5 * (g + g.T))

    @property
    def variant(self) -> str:
        return "optical" if self.att1.kind == "optical" else "radar_optical"

    @property
    def values(self) -> np.ndarray:
        """The stacked 8-vector A."""
        return np.concatenate([self.att1.values, self.att2.values])


def pair_with_values(pair: AttributablePair, values: np.ndarray) -> AttributablePair:
    """Copy of the pair with the 8 attributable components replaced.

    Used by re-solve oracles and Monte-Carlo sampling: perturb A, keep the
    epochs, stations, and covariance unchanged.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (8,):
        raise DomainError(f"expected 8 attributable components, got {values.shape}")
    a1, a2 = values[:4], values[4:]
    if pair.att1.kind == "optical":
        att1 = replace(pair.att1, alpha=a1[0], delta=a1[1],
                       alphadot=a1[2], deltadot=a1[3])
    else:
        att1 = replace(pair.att1, alpha=a1[0], delta=a1[1],
                       rho=a1[2], rhodot=a1[3])
    att2 = replace(pair.att2, alpha=a2[0], delta=a2[1],
                   alphadot=a2[2], deltadot=a2[3])
    return AttributablePair(att1, att2, pair.gamma)


# ---------------------------------------------------------------------------
# the constraint map Psi and its state-space Jacobian


def psi(state1: CartesianState, state2: CartesianState, q2: np.ndarray,
        mu: float) -> np.ndarray:
    """Four-component constraint vector in Cartesian coordinates.

    Components 0-2: difference of the angular momenta c1 - c2.  Component
    3: the Laplace-Lenz difference projected on w = r2 x q2 (times mu, so
    it is polynomial in the states).  The second epoch's own radial term
    (r2 . w) vanishes identically and is omitted.
    """
    r1, v1 = state1.r, state1.v
    r2, v2 = state2.r, state2.v
    r1n = float(np.linalg.norm(r1))
    if r1n <= 0.0:
        raise DomainError("first-epoch position has zero norm")
    w = cross(r2, np.asarray(q2, dtype=float))
    out = np.empty(4)
    out[:3] = cross(r1, v1) - cross(r2, v2)
    out[3] = ((v1 @ v1 - mu / r1n) * (r1 @ w)
              - (v1 @ r1) * (v1 @ w)
              + (v2 @ r2) * (v2 @ w))
    return out


def psi_jacobian(state1: CartesianState, state2: CartesianState,
                 q2: np.ndarray, mu: float) -> np.ndarray:
    """4x12 Jacobian of :func:`psi` with respect to (r1, v1, r2, v2).

    The angular-momentum rows are skew blocks; the last row collects the
    product-rule terms of the projected Laplace-Lenz difference, where the
    dependence of w = r2 x q2 on r2 turns each (u . w) into a (q2 x u) row.
    """
    r1, v1 = state1.r, state1.v
    r2, v2 = state2.r, state2.v
    q2 = np.asarray(q2, dtype=float)
    r1n = float(np.linalg.norm(r1))
    if r1n <= 0.0:
        raise DomainError("first-epoch position has zero norm")
    w = cross(r2, q2)

    J = np.zeros((4, 12))
    J[:3, 0:3] = -hat_map(v1)
    J[:3, 3:6] = hat_map(r1)
    J[:3, 6:9] = hat_map(v2)
    J[:3, 9:12] = -hat_map(r2)

    g1 = v1 @ v1 - mu / r1n
    J[3, 0:3] = (g1 * w + mu * (r1 @ w) / r1n**3 * r1 - (v1 @ w) * v1)
    J[3, 3:6] = 2.0 * (r1 @ w) * v1 - (v1 @ w) * r1 - (v1 @ r1) * w
    J[3, 6:9] = (g1 * cross(q2, r1) - (v1 @ r1) * cross(q2, v1)
                 + (v2 @ w) * v2 + (v2 @ r2) * cross(q2, v2))
    J[3, 9:12] = (v2 @ w) * r2 + (v2 @ r2) * w
    return J


# ---------------------------------------------------------------------------
# attributable-to-Cartesian coordinate change, one epoch


def att_cartesian_jacobian(alpha: float, delta: float, alphadot: float,
                           deltadot: float, rho: float, rhodot: float
                           ) -> np.ndarray:
    """6x6 Jacobian of the (r, rdot) composition in one epoch's coordinates.

    Columns follow (alpha, delta, alphadot, deltadot, rho, rhodot); rows are
    (r, rdot).  The observer state is an additive constant of the map and
    does not appear.
    """
    b = observation_basis(alpha, delta)
    p = basis_partials(b)
    cd, sd = math.cos(delta), math.sin(delta)

    T = np.zeros((6, 6))
    T[:3, 0] = rho * p["drho_dalpha"]
    T[:3, 1] = rho * p["drho_ddelta"]
    T[:3, 4] = b.e_rho

    T[3:, 0] = (rhodot * p["drho_dalpha"]
                + rho * alphadot * cd * p["dalpha_dalpha"]
                + rho * deltadot * p["ddelta_dalpha"])
    T[3:, 1] = (rhodot * p["drho_ddelta"]
                - rho * alphadot * sd * b.e_alpha
                + rho * deltadot * p["ddelta_ddelta"])
    T[3:, 2] = rho * cd * b.e_alpha
    T[3:, 3] = rho * b.e_delta
    T[3:, 4] = alphadot * cd * b.e_alpha + deltadot * b.e_delta
    T[3:, 5] = b.e_rho
    return T


def _epoch_coords(att, y_part: np.ndarray) -> tuple[float, ...]:
    """Full six coordinates of one epoch from attributable + unknowns."""
    if att.kind == "optical":
        return (att.alpha, att.delta, att.alphadot, att.deltadot,
                float(y_part[0]), float(y_part[1]))
    return (att.alpha, att.delta, float(y_part[0]), float(y_part[1]),
            att.rho, att.rhodot)


def _epoch_state(coords: tuple[float, ...], obs: CartesianState,
                 epoch: float) -> CartesianState:
    alpha, delta, alphadot, deltadot, rho, rhodot = coords
    basis = observation_basis(alpha, delta)
    r = body_position(obs.r, rho, basis)
    v = body_velocity(obs.v, rho, rhodot, alphadot, deltadot, basis)
    return CartesianState(r=r, v=v, epoch=epoch)


def solution_unknowns(pair: AttributablePair, solution,
                      obs1: CartesianState) -> np.ndarray:
    """Extract the unknown 4-vector Y from a solved linkage.

    Optical-optical solutions carry Y directly; for radar-optical the
    first-epoch angular rates are recovered from the solved state.
    """
    if pair.variant == "optical":
        return np.array([solution.rho1, solution.rhodot1,
                         solution.rho2, solution.rhodot2])
    coords = topocentric_coords(solution.state1.r, solution.state1.v,
                                obs1.r, obs1.v)
    return np.array([coords[2], coords[3], solution.rho2, solution.rhodot2])


def _phi_pieces(pair: AttributablePair, y: np.ndarray, obs1: CartesianState,
                obs2: CartesianState, mu: float, with_jacobian: bool = True):
    """Phi(A, Y) and, optionally, its Y- and A-blocks of the Jacobian."""
    coords1 = _epoch_coords(pair.att1, y[:2])
    coords2 = _epoch_coords(pair.att2, y[2:])
    s1 = _epoch_state(coords1, obs1, pair.att1.tbar)
    s2 = _epoch_state(coords2, obs2, pair.att2.tbar)
    phi = psi(s1, s2, obs2.r, mu)
    if not with_jacobian:
        return phi, None, None

    dE = np.zeros((12, 12))
    dE[:6, :6] = att_cartesian_jacobian(*coords1)
    dE[6:, 6:] = att_cartesian_jacobian(*coords2)
    PJ = psi_jacobian(s1, s2, obs2.r, mu)
    full = PJ @ dE
    dphi_dy = full[:, _Y_COLUMNS[pair.variant]]
    dphi_da = full[:, _A_COLUMNS[pair.variant]]
    return phi, dphi_dy, dphi_da


@dataclass(frozen=True)
class ImplicitDerivatives:
    """dY/dA at a linkage solution, with the Y and blocks it was built from."""

    dy_da: np.ndarray       # 4x8
    dphi_dy: np.ndarray     # 4x4
    dphi_da: np.ndarray     # 4x8
    condition: float
    y: np.ndarray           # 4
    flags: tuple[str, ...] = ()


def implicit_solution_jacobian(pair: AttributablePair, solution,
                               obs1: CartesianState, obs2: CartesianState,
                               mu: float) -> ImplicitDerivatives:
    """Differentiate the solved unknowns with respect to the attributables.

    Evaluated at the solution point (Phi is assumed ~ 0 there).  A condition
    number of dPhi/dY above :data:`CONDITION_LIMIT` attaches the
    ``"ill-conditioned-solution"`` flag; an exactly singular block raises
    :class:`~arclink.errors.NumericalError`.
    """
    y = solution_unknowns(pair, solution, obs1)
    _, dphi_dy, dphi_da = _phi_pieces(pair, y, obs1, obs2, mu)
    cond = float(np.linalg.cond(dphi_dy))
    # NaN condition (overflow in cond) must flag too, hence the negation.
    flags = () if cond < CONDITION_LIMIT else (_ILL_CONDITIONED,)
    try:
        dy_da = -np.linalg.solve(dphi_dy, dphi_da)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular constraint Jacobian at solution: {exc}")
    return ImplicitDerivatives(dy_da=dy_da, dphi_dy=dphi_dy, dphi_da=dphi_da,
                               condition=cond, y=y, flags=flags)


# ---------------------------------------------------------------------------
# pushing the attributable covariance to the Cartesian states


def _att_block(pair: AttributablePair, dy_da: np.ndarray,
               epoch_index: int) -> np.ndarray:
    """6x8 derivative of one epoch's six coordinates with respect to A.

    Observed components give unit rows into their own A columns; unknown
    components take the matching rows of dY/dA.
    """
    B = np.zeros((6, 8))
    if epoch_index == 2:
        for row, col in zip(range(4), range(4, 8)):
            B[row, col] = 1.0
        B[4:6, :] = dy_da[2:4, :]
        return B
    if pair.variant == "optical":
        for row in range(4):
            B[row, row] = 1.0
        B[4:6, :] = dy_da[0:2, :]
    else:
        B[0, 0] = 1.0
        B[1, 1] = 1.0
        B[2:4, :] = dy_da[0:2, :]
        B[4, 2] = 1.0
        B[5, 3] = 1.0
    return B


def _push_covariance(pair: AttributablePair, imp: ImplicitDerivatives,
                     epoch_index: int) -> CovarianceMatrix:
    """Chain: identity/implicit rows assemble d(epoch coordinates)/dA, the
    per-epoch coordinate Jacobian lifts it to the Cartesian state, and the
    attributable covariance is pushed through the product."""
    att = pair.att1 if epoch_index == 1 else pair.att2
    y_part = imp.y[:2] if epoch_index == 1 else imp.y[2:]
    coords = _epoch_coords(att, y_part)
    M = att_cartesian_jacobian(*coords) @ _att_block(pair, imp.dy_da,
                                                     epoch_index)
    G = M @ pair.gamma @ M.T
    return CovarianceMatrix(0.5 * (G + G.T), label="cartesian",
                            flags=imp.flags)


def cartesian_covariance(pair: AttributablePair, solution,
                         obs1: CartesianState, obs2: CartesianState,
                         epoch_index: int, mu: float) -> CovarianceMatrix:
    """6x6 covariance of the Cartesian state at epoch 1 or 2."""
    if epoch_index not in (1, 2):
        raise DomainError(f"epoch_index must be 1 or 2, got {epoch_index}")
    imp = implicit_solution_jacobian(pair, solution, obs1, obs2, mu)
    return _push_covariance(pair, imp, epoch_index)


def attach_covariances(pair: AttributablePair, solution,
                       obs1: CartesianState, obs2: CartesianState,
                       config: RunConfig | None = None) -> None:
    """Fill ``solution.covariance1``/``covariance2`` in place.

    One implicit Jacobian serves both epochs.  Any conditioning flag from
    the implicit step is appended to the solution's flag list (once).
    """
    config = config if config is not None else RunConfig()
    imp = implicit_solution_jacobian(pair, solution, obs1, obs2,
                                     config.mu_value)
    solution.covariance1 = _push_covariance(pair, imp, 1).matrix
    solution.covariance2 = _push_covariance(pair, imp, 2).matrix
    for flag in imp.flags:
        if flag not in solution.flags:
            solution.flags.append(flag)


# ---------------------------------------------------------------------------
# re-solving the constraint for perturbed attributables


def resolve_unknowns(pair: AttributablePair, y0: np.ndarray,
                     obs1: CartesianState, obs2: CartesianState, mu: float,
                     max_iter: int = 25, tol: float = 1e-13) -> np.ndarray:
    """Newton-solve Phi(A, Y) = 0 for Y from the starting guess ``y0``.

    Convergence is declared when the step is below ``tol`` relative to each
    component's magnitude.  Used by finite-difference and Monte-Carlo
    oracles, which perturb A slightly and track the nearby solution branch.
    """
    y = np.array(y0, dtype=float)
    for _ in range(max_iter):
        phi, dphi_dy, _ = _phi_pieces(pair, y, obs1, obs2, mu)
        try:
            step = np.linalg.solve(dphi_dy, phi)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular Newton step: {exc}")
        y -= step
        scale = np.maximum(np.abs(y), 1.0)
        if np.all(np.abs(step) <= tol * scale):
            return y
    raise NumericalError(f"constraint re-solve did not converge in "
                         f"{max_iter} iterations")
