"""Accepting linkage solutions by attribution.

Four conservation laws pin down a candidate pair of states, but nothing yet
guarantees the two states belong to one orbit.  The attribution test closes
the loop: propagate the first-epoch orbit (with covariance) to the second
mean epoch, extract the attributable it predicts there, and compare against
the observed one with the chi-square-like identification penalty

    chi4 = d . [C_Ap - C_Ap Gamma0 C_Ap] d,     d = A2 - A_p,

where C_Ap and C_A2 are the two inverse covariances, C0 = C_Ap + C_A2 and
Gamma0 = C0^-1.  The bracket equals (Gamma_Ap + Gamma_A2)^-1, so chi4 is the
Mahalanobis distance of the discrepancy under the combined uncertainty; a
solution is accepted when chi4 stays below a threshold (default 100,
configurable — the genuine/spurious gap is typically many orders of
magnitude).

Compatibility conditions (equal projected Laplace-Lenz vectors and mean
anomalies consistent with the time of flight) are carried on every solution
as diagnostics; they are an alternative selection rule but are not used for
acceptance here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attributables import _emission_state
from .config import RunConfig
from .covariance import CovarianceMatrix, att_cartesian_jacobian
from .errors import DomainError, NonEllipticOrbitError, SelectionUnavailableError
from .geometry import topocentric_coords
from .kepler import (
    CartesianState,
    KeplerianElements,
    element_state_jacobian,
    propagate_elements,
    propagation_jacobian,
    state_element_jacobian,
    wrap_signed,
)

_SELECTION_UNAVAILABLE = "selection-unavailable"

#: covariance condition number beyond which the inverse is regularized.
_REGULARIZE_COND = 1e12


@dataclass(frozen=True)
class PredictedAttributable:
    """Optical attributable predicted from an orbit at a later mean epoch.

    ``values`` is (alpha, delta, alphadot, deltadot) at ``tbar``; ``gamma``
    its 4x4 covariance.  ``elements`` and ``state`` document the propagated
    orbit at the emission epoch when produced by :func:`predict_attributable`.
    """

    values: np.ndarray
    gamma: np.ndarray
    tbar: float
    elements: KeplerianElements | None = None
    state: CartesianState | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (4,):
            raise DomainError(f"predicted attributable must have 4 components, "
                              f"got shape {v.shape}")
        g = CovarianceMatrix(self.gamma, label="attributable").matrix
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "gamma", g)


def element_covariance(solution, mu: float) -> np.ndarray:
    """6x6 element covariance at epoch 1 from the Cartesian one."""
    if solution.elements1 is None:
        raise DomainError("solution has no elliptic first-epoch elements")
    if solution.covariance1 is None:
        raise DomainError("solution carries no Cartesian covariance; "
                          "attach covariances first")
    K = state_element_jacobian(solution.elements1, mu)
    G = K @ solution.covariance1 @ K.T
    return 0.5 * (G + G.T)


def predict_attributable(elements1: KeplerianElements, gamma1: np.ndarray,
                         obs2: CartesianState, t2bar: float, mu: float,
                         c_light: float) -> PredictedAttributable:
    """Propagate an orbit and its covariance into an attributable at t2bar.

    The body state is taken at the light-time-corrected emission epoch
    (fixed point of t = t2bar - rho/c against the observer at reception),
    and the covariance is pushed through flow, element-to-state, and
    state-to-attributable Jacobians evaluated on that same trajectory; the
    (alpha, delta, alphadot, deltadot) marginal is returned.
    """
    if not (elements1.a > 0.0 and 0.0 <= elements1.e < 1.0):
        raise NonEllipticOrbitError(
            f"prediction requires an elliptic orbit, got a={elements1.a}, "
            f"e={elements1.e}")
    state = _emission_state(elements1, obs2.r, t2bar, mu, c_light)
    coords = topocentric_coords(state.r, state.v, obs2.r, obs2.v)

    gamma1 = np.asarray(gamma1, dtype=float)
    if gamma1.shape != (6, 6):
        raise DomainError(f"element covariance must be 6x6, got {gamma1.shape}")
    flow = propagation_jacobian(elements1, state.epoch, mu)
    gamma2 = flow @ gamma1 @ flow.T
    elements2 = propagate_elements(elements1, state.epoch, mu)

    T = att_cartesian_jacobian(*coords)
    # rows of d(attributable)/d(elements): invert the coordinate change and
    # chain with the element->state map, keeping the four observed rows.
    M = np.linalg.solve(T, element_state_jacobian(elements2, mu))[:4, :]
    gamma_ap = M @ gamma2 @ M.T
    try:
        return PredictedAttributable(values=np.array(coords[:4]),
                                     gamma=0.5 * (gamma_ap + gamma_ap.T),
                                     tbar=t2bar, elements=elements2,
                                     state=state)
    except DomainError as exc:  # the inputs are valid: overflow or roundoff
        raise SelectionUnavailableError(f"predicted {exc}") from None


def _inverse(m: np.ndarray, what: str) -> np.ndarray:
    """Invert a covariance, ridge-regularizing mild ill-conditioning.

    Outright singular input (zero trace, or singular after the ridge) is a
    selection failure, not a numerical accident.
    """
    m = np.asarray(m, dtype=float)
    cond = np.linalg.cond(m)
    if not cond < _REGULARIZE_COND:
        ridge = float(np.trace(m)) / m.shape[0] * 1e-12
        if ridge <= 0.0:
            raise SelectionUnavailableError(f"{what} covariance is singular")
        m = m + ridge * np.eye(m.shape[0])
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise SelectionUnavailableError(f"{what} covariance is singular: {exc}")


def identification_penalty(att2, gamma_a2: np.ndarray,
                           pred: PredictedAttributable) -> float:
    """chi4 distance between an observed and a predicted attributable.

    ``att2`` may be an attributable object or a plain 4-vector in the same
    (alpha, delta, alphadot, deltadot) order.  Angle differences are wrapped
    to (-pi, pi].  Always >= 0; zero exactly when the attributables agree.
    """
    values = att2.values if hasattr(att2, "values") else np.asarray(att2, float)
    d = values - pred.values
    d[0] = wrap_signed(d[0])
    d[1] = wrap_signed(d[1])
    c_ap = _inverse(pred.gamma, "predicted-attributable")
    c_a2 = _inverse(np.asarray(gamma_a2, dtype=float), "second-attributable")
    gamma0 = np.linalg.inv(c_ap + c_a2)
    bracket = c_ap - c_ap @ gamma0 @ c_ap
    return max(float(d @ bracket @ d), 0.0)


def compatibility_ok(solution, lenz_tol: float = 1e-6,
                     anomaly_tol: float = 1e-6) -> bool:
    """Diagnostic alternative to the chi4 test: both compatibility
    residuals (projected Laplace-Lenz difference and mean-anomaly vs
    time-of-flight mismatch) below tolerance.  Reported only; acceptance
    uses the identification penalty."""
    if solution.compat_anomaly is None:
        return False
    return (abs(solution.compat_lenz) <= lenz_tol
            and abs(solution.compat_anomaly) <= anomaly_tol)


def select_solutions(solutions: list, att2, obs2: CartesianState,
                     gamma_a2: np.ndarray | None = None,
                     config: RunConfig | None = None) -> list:
    """Annotate solutions with chi4 and return the accepted ones.

    Each elliptic solution (with attached Cartesian covariance) is scored
    against the second attributable; acceptance is chi4 <= the configured
    threshold.  Non-elliptic solutions and those whose covariances cannot
    be inverted are marked unselectable and never accepted.
    """
    config = config if config is not None else RunConfig()
    mu, c_light = config.mu_value, config.units.c_light
    if gamma_a2 is None:
        gamma_a2 = getattr(att2, "cov", None)
    if gamma_a2 is None:
        raise DomainError("no covariance available for the second attributable")

    accepted = []
    for sol in solutions:
        if not sol.elliptic or sol.elements1 is None:
            sol.unselectable = True
            sol.selected = False
            continue
        gamma1 = element_covariance(sol, mu)
        try:
            pred = predict_attributable(sol.elements1, gamma1, obs2,
                                        att2.tbar, mu, c_light)
            chi4 = identification_penalty(att2, gamma_a2, pred)
        except (SelectionUnavailableError, NonEllipticOrbitError):
            sol.unselectable = True
            sol.selected = False
            if _SELECTION_UNAVAILABLE not in sol.flags:
                sol.flags.append(_SELECTION_UNAVAILABLE)
            continue
        sol.chi4 = chi4
        sol.selected = chi4 <= config.chi4_threshold
        if sol.selected:
            accepted.append(sol)
    return accepted
