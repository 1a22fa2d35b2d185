"""Covariance propagation for linkage solutions.

The linkage system — equal angular momenta plus the projected Laplace-Lenz
equality — defines the unknown vector Y implicitly as a function of the two
attributables A.  Near a solution the implicit function theorem gives
dY/dA = -(dPhi/dY)^-1 dPhi/dA, where Phi is the constraint map composed with
the attributable-to-Cartesian coordinate change.  The 12x12 Jacobian dE of
that change (both epochs, built once per solution) also gives the state
Jacobian dX/dA = dE[:, A] + dE[:, Y] dY/dA of X = (r1, v1, r2, v2), whose
6-row blocks push the attributable covariance to either epoch's state.

Conventions used throughout:

- per-epoch coordinates are ordered (alpha, delta, alphadot, deltadot, rho,
  rhodot); ``_OBSERVED`` alone says which four each attributable kind
  observes (optical: the angles and their rates; radar: the angles, rho
  and rhodot), and the other two are the epoch's unknowns;
- the stacked 8-vector A lists each attributable's ``values``, first epoch
  then second, matching the 8x8 covariance blocks;
- the unknown 4-vector Y lists each epoch's unknowns in coordinate order:
  (rho1, rhodot1, rho2, rhodot2) for an optical-optical pair and
  (alphadot1, deltadot1, rho2, rhodot2) for a radar-optical pair (radar
  epoch first).

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

_COORDINATES = ("alpha", "delta", "alphadot", "deltadot", "rho", "rhodot")

# Which of an epoch's six coordinates each attributable kind observes, in
# ``att.values`` order; the other two are that epoch's unknowns.
_OBSERVED = {"optical": (0, 1, 2, 3), "radar": (0, 1, 4, 5)}


# ---------------------------------------------------------------------------
# covariance containers


def _validated(m: np.ndarray, psd_tol: float, what: str) -> np.ndarray:
    """``m`` symmetrized, once it is finite (its symmetrization and trace
    too, or the checks cannot be evaluated), symmetric within 1e-12
    relative and without eigenvalues below -psd_tol * trace."""
    sym = 0.5 * (m + m.T)
    trace = float(np.trace(m))
    if not (np.all(np.isfinite(sym)) and math.isfinite(trace)):
        raise DomainError(f"{what} is not finite in double precision")
    scale = float(np.max(np.abs(m)))
    skew = float(np.max(np.abs(m - m.T)))
    if skew > 1e-12 * scale:
        raise DomainError(f"{what} not symmetric: max asymmetry {skew:.3e} "
                          f"exceeds 1.0e-12 of scale {scale:.3e}")
    eig = np.linalg.eigvalsh(sym)
    floor = -psd_tol * max(trace, 0.0)
    if eig.min() < floor:
        raise DomainError(f"{what} not positive semidefinite: min eigenvalue "
                          f"{eig.min():.3e} below {floor:.3e}")
    return sym


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
        object.__setattr__(self, "matrix",
                           _validated(m, 1e-10, f"{self.label} covariance"))

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
        if kind2 != "optical" or kind1 not in _OBSERVED:
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
        object.__setattr__(self, "gamma",
                           _validated(g, 1e-12, "attributable covariance"))

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
    att1, att2 = (replace(att, **{_COORDINATES[k]: v for k, v in
                                  zip(_OBSERVED[att.kind], part)})
                  for att, part in ((pair.att1, values[:4]),
                                    (pair.att2, values[4:])))
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
    observed = _OBSERVED[att.kind]
    coords = np.empty(6)
    coords[list(observed)] = att.values
    coords[[k for k in range(6) if k not in observed]] = y_part
    return tuple(coords.tolist())


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
    if pair.att1.kind == "optical":
        return np.array([solution.rho1, solution.rhodot1,
                         solution.rho2, solution.rhodot2])
    coords = topocentric_coords(solution.state1.r, solution.state1.v,
                                obs1.r, obs1.v)
    return np.array([coords[2], coords[3], solution.rho2, solution.rhodot2])


def _split(pair: AttributablePair, m: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Columns of ``m`` over both epochs' twelve coordinates, split into
    those of the unknowns Y and those of the observed A."""
    a_cols = [k + 6 * e for e, att in enumerate((pair.att1, pair.att2))
              for k in _OBSERVED[att.kind]]
    y_cols = [c for c in range(12) if c not in a_cols]
    return m[:, y_cols], m[:, a_cols]


def _phi_pieces(pair: AttributablePair, y: np.ndarray, obs1: CartesianState,
                obs2: CartesianState, mu: float):
    """Phi(A, Y), its Y- and A-blocks of the Jacobian, and the 12x12
    block-diagonal coordinate Jacobian dE they are chained through."""
    coords1 = _epoch_coords(pair.att1, y[:2])
    coords2 = _epoch_coords(pair.att2, y[2:])
    s1 = _epoch_state(coords1, obs1, pair.att1.tbar)
    s2 = _epoch_state(coords2, obs2, pair.att2.tbar)
    dE = np.zeros((12, 12))
    dE[:6, :6] = att_cartesian_jacobian(*coords1)
    dE[6:, 6:] = att_cartesian_jacobian(*coords2)
    dphi = psi_jacobian(s1, s2, obs2.r, mu) @ dE
    return psi(s1, s2, obs2.r, mu), _split(pair, dphi), dE


@dataclass(frozen=True)
class ImplicitDerivatives:
    """dY/dA and the state Jacobian dX/dA of X = (r1, v1, r2, v2) at a
    linkage solution, with Phi there and the condition number of dPhi/dY."""

    dy_da: np.ndarray       # 4x8
    dx_da: np.ndarray       # 12x8
    phi: np.ndarray         # 4, ~0
    condition: float
    flags: tuple[str, ...] = ()


def implicit_solution_jacobian(pair: AttributablePair, solution,
                               obs1: CartesianState, obs2: CartesianState,
                               mu: float) -> ImplicitDerivatives:
    """Differentiate the solved unknowns and states with respect to the
    attributables.

    Evaluated at the solution point (Phi is assumed ~ 0 there).  A condition
    number of dPhi/dY above :data:`CONDITION_LIMIT` attaches the
    ``"ill-conditioned-solution"`` flag; an exactly singular block raises
    :class:`~arclink.errors.NumericalError`.
    """
    y = solution_unknowns(pair, solution, obs1)
    phi, (dphi_dy, dphi_da), dE = _phi_pieces(pair, y, obs1, obs2, mu)
    cond = float(np.linalg.cond(dphi_dy))
    # NaN condition (overflow in cond) must flag too, hence the negation.
    flags = () if cond < CONDITION_LIMIT else (_ILL_CONDITIONED,)
    try:
        dy_da = -np.linalg.solve(dphi_dy, dphi_da)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular constraint Jacobian at solution: {exc}")
    dE_y, dE_a = _split(pair, dE)
    return ImplicitDerivatives(dy_da=dy_da, dx_da=dE_a + dE_y @ dy_da,
                               phi=phi, condition=cond, flags=flags)


# ---------------------------------------------------------------------------
# pushing the attributable covariance to the Cartesian states


def _push_covariance(pair: AttributablePair, imp: ImplicitDerivatives,
                     epoch_index: int) -> CovarianceMatrix:
    """The attributable covariance pushed through one epoch's six rows of
    dX/dA.  The input covariance is valid, so a pushed one that fails
    validation (overflow, or roundoff below the PSD floor) is numerical."""
    M = imp.dx_da[6 * epoch_index - 6:6 * epoch_index]
    G = M @ pair.gamma @ M.T
    try:
        return CovarianceMatrix(0.5 * (G + G.T), label="cartesian",
                                flags=imp.flags)
    except DomainError as exc:
        raise NumericalError(f"epoch-{epoch_index} {exc}") from None


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
        phi, (dphi_dy, _), _ = _phi_pieces(pair, y, obs1, obs2, mu)
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
