"""Accepting linkage solutions by attribution.

Four conservation laws pin down a candidate pair of states, but nothing yet
guarantees the two states belong to one orbit.  The attribution test closes
the loop: propagate the first-epoch orbit (with covariance) to the second
mean epoch, extract the attributable it predicts there, and compare against
the observed one with the chi-square-like identification penalty

    chi4 = d . [C_Ap - C_Ap Gamma0 C_Ap] d,     d = A2 - A_p,

where C_Ap and C_A2 are the normal matrices (inverse covariances) of the
predicted and the observed attributable, C0 = C_Ap + C_A2 and Gamma0 =
C0^-1 (Milani, Sansaturio and Chesley, Icarus 151, 2001).  By the Woodbury
identity the bracket equals (Gamma_Ap + Gamma_A2)^-1, so chi4 = d . x where
x solves (Gamma_Ap + Gamma_A2) x = d: the Mahalanobis distance of the
discrepancy under the combined uncertainty, from one solve of the summed
covariances and no inverse of either, whose condition number may far exceed
the sum's.  A solution is accepted when chi4 stays below a threshold
(default 100, configurable — the genuine/spurious gap is typically many
orders of magnitude).

Compatibility conditions (equal projected Laplace-Lenz vectors and mean
anomalies consistent with the time of flight) are carried on every solution
as diagnostics; they are an alternative selection rule but are not used for
acceptance here.

Selection runs on a stack of S solutions at once: the element
covariances, the light-time fixed point (each sweep one masked Kepler
iteration over the stack), the flow, element-to-state and attributable
Jacobians, the check of each predicted covariance and the chi4 solve are
array passes with one LAPACK or BLAS call per matrix and no sums across
rows, and every row keeps its own outcome.  Each solution's second
attributable, its covariance and its observer state are taken by index
from the attributable columns (attributables.AttributableColumns).
:func:`select_solution_rows` is the stacked call that the batch command
line makes once per block, reading and filling the columns of its
solutions (:class:`~arclink.solutions.SolutionRows`); :func:`select_solutions`,
:func:`predict_attributable`, :func:`identification_penalty` and
:func:`element_covariance` are its one-pair and one-row cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attributables import AttributableColumns
from .config import RunConfig
from .covariance import CovarianceMatrix, _composition_rows, validated_rows
from .errors import (
    ConvergenceError,
    DomainError,
    LinkageError,
    NonEllipticOrbitError,
    SelectionUnavailableError,
    checked,
    fail_rows,
    linalg_rows,
    merge_rows,
    ok_rows,
)
from .geometry import row_dot, topocentric_rows
from .kepler import (
    KEPLER_UNCONVERGED,
    CartesianState,
    KeplerianElements,
    element_rows,
    element_state_rows,
    orbit_frame_rows,
    propagate_element_rows,
    propagate_elements,  # noqa: F401 (bench/tracing.py patches it)
    propagation_jacobian,  # noqa: F401 (likewise)
    wrap_signed_rows,
)
from .solutions import SolutionRows, block_of

# The errors of a solution that make it unselectable rather than fail its pair.
_UNAVAILABLE = (SelectionUnavailableError, NonEllipticOrbitError)

_LIGHT_TIME_SWEEPS = 25

#: largest compatibility residuals of :func:`compatibility_ok`.
_COMPAT_TOL = 1e-6


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


def _kepler_failed(k: int) -> ConvergenceError:
    return ConvergenceError(KEPLER_UNCONVERGED)


def _element_covariance_rows(el: np.ndarray, frame, cov1: np.ndarray, mu: float,
                             errors: list) -> np.ndarray:
    """(S, 6, 6) element covariances at epoch 1 from the Cartesian ones,
    through the inverse of each row's element-to-state Jacobian (``frame``
    is the rows' kepler.orbit_frame_rows)."""
    fail_rows(errors, ~((el[0] > 0.0) & (el[1] >= 0.0) & (el[1] < 1.0)),
              lambda k: NonEllipticOrbitError(
                  f"prediction requires an elliptic orbit, got a={el[0, k]!r}, "
                  f"e={el[1, k]!r}"))
    state = element_state_rows(el, mu, frame, jacobian=True)
    fail_rows(errors, ~state.converged, _kepler_failed)
    K, singular = linalg_rows(np.linalg.inv, (6, 6), state.jacobian, ok_rows(errors))
    fail_rows(errors, singular, lambda k: SelectionUnavailableError(
        f"element-to-state Jacobian is singular: {singular[k]}"))
    G = K @ cov1 @ K.mT
    return 0.5 * (G + G.mT)


def element_covariance(solution, mu: float) -> np.ndarray:
    """6x6 element covariance at epoch 1 from the Cartesian one."""
    if solution.elements1 is None:
        raise DomainError("solution has no elliptic first-epoch elements")
    if solution.covariance1 is None:
        raise DomainError("solution carries no Cartesian covariance; "
                          "attach covariances first")
    errors = [None]
    el = element_rows([solution.elements1])
    with np.errstate(all="ignore"):
        G = _element_covariance_rows(el, orbit_frame_rows(el[2], el[3], el[4]),
                                     solution.covariance1[None], mu, errors)
    checked(*errors)
    return G[0]


@dataclass(frozen=True)
class _Predicted:
    """Predicted attributables of S rows: values (S, 4) and covariances
    (S, 4, 4) at the second epoch, with the propagated elements (6, S), the
    emission epochs and the states there."""

    values: np.ndarray
    gamma: np.ndarray
    elements: np.ndarray
    epoch: np.ndarray
    r: np.ndarray
    v: np.ndarray


def _predict_rows(el: np.ndarray, frame, epoch1: np.ndarray, gamma1: np.ndarray,
                  q2: np.ndarray, qdot2: np.ndarray, t2bar: np.ndarray,
                  mu: float, c_light: float, errors: list) -> _Predicted:
    """Propagate S orbits (elements ``el`` (6, S) at ``epoch1``, with their
    kepler.orbit_frame_rows) and their element covariances into
    attributables at the epochs ``t2bar`` seen from the observers (q2,
    qdot2).

    The body state is taken at the light-time-corrected emission epoch,
    the fixed point of t = t2bar - |r(t) - q2| / c from t = t2bar: each
    sweep propagates the rows still iterating, with one masked Kepler
    iteration started from each row's anomaly of its previous sweep, and
    a row is done when its step falls to 1e-13 of max(1, |t2bar|).  The
    covariance is pushed through the flow, element-to-state and
    state-to-attributable Jacobians on that same trajectory.
    """
    tol = 1e-13 * np.maximum(1.0, np.abs(t2bar))
    t, E = t2bar.copy(), np.zeros(len(t2bar))
    rows = np.flatnonzero(ok_rows(errors))
    for sweep in range(_LIGHT_TIME_SWEEPS):
        state = element_state_rows(
            propagate_element_rows(el[:, rows], epoch1[rows], t[rows], mu), mu,
            tuple(x[rows] for x in frame), start=E[rows] if sweep else None,
            velocity=False)
        E[rows] = state.E
        fail_rows(errors, dict.fromkeys(rows[~state.converged]), _kepler_failed)
        d = state.r - q2[rows]
        t_new = t2bar[rows] - np.sqrt(row_dot(d, d)) / c_light
        going = state.converged & ~(np.abs(t_new - t[rows]) <= tol[rows])
        t[rows] = t_new
        rows = rows[going]
        if not rows.size:
            break
    fail_rows(errors, dict.fromkeys(rows), lambda k: DomainError(
        "light-time iteration failed to converge"))

    el2 = propagate_element_rows(el, epoch1, t, mu)
    state = element_state_rows(el2, mu, frame, jacobian=True, start=E)
    fail_rows(errors, ~state.converged, _kepler_failed)
    coords, basis = topocentric_rows(state.r, state.v, q2, qdot2, errors)
    # The flow is the identity but for d(ell)/d(a) = -1.5 (n/a) dt.
    flow = np.zeros((len(t), 6, 6))
    flow[:, range(6), range(6)] = 1.0
    flow[:, 5, 0] = -1.5 * (np.sqrt(mu / el[0]**3) / el[0]) * (t - epoch1)
    gamma2 = flow @ gamma1 @ flow.mT
    # Rows of d(attributable)/d(elements): invert the coordinate change and
    # chain with the element->state map, keeping the four observed rows.
    M, singular = linalg_rows(np.linalg.solve, (6, 6),
                              _composition_rows(coords, basis)[0], ok_rows(errors),
                              state.jacobian)
    fail_rows(errors, singular, lambda k: SelectionUnavailableError(
        f"predicted attributable Jacobian is singular: {singular[k]}"))
    M = M[:, :4]
    gamma = M @ gamma2 @ M.mT
    gamma, bad = validated_rows(0.5 * (gamma + gamma.mT), 1e-10,
                                "attributable covariance")
    # The inputs are valid: a failed check is overflow or roundoff.
    fail_rows(errors, bad, lambda k: SelectionUnavailableError(f"predicted {bad[k]}"))
    return _Predicted(np.array(coords[:4]).T, gamma, el2, t, state.r, state.v)


def predict_attributable(elements1: KeplerianElements, gamma1: np.ndarray,
                         obs2: CartesianState, t2bar: float, mu: float,
                         c_light: float) -> PredictedAttributable:
    """Propagate an orbit and its covariance into an attributable at t2bar.

    The body state is taken at the light-time-corrected emission epoch
    (fixed point of t = t2bar - rho/c against the observer at reception),
    and the covariance is pushed through flow, element-to-state, and
    state-to-attributable Jacobians evaluated on that same trajectory; the
    (alpha, delta, alphadot, deltadot) marginal is returned.  The one-row
    case of the stacked prediction in :func:`select_solution_rows`.
    """
    if not (elements1.a > 0.0 and 0.0 <= elements1.e < 1.0):
        raise NonEllipticOrbitError(
            f"prediction requires an elliptic orbit, got a={elements1.a}, "
            f"e={elements1.e}")
    gamma1 = np.asarray(gamma1, dtype=float)
    if gamma1.shape != (6, 6):
        raise DomainError(f"element covariance must be 6x6, got {gamma1.shape}")
    errors = [None]
    el = element_rows([elements1])
    with np.errstate(all="ignore"):
        pred = _predict_rows(el, orbit_frame_rows(el[2], el[3], el[4]),
                             np.array([elements1.epoch]),
                             gamma1[None], obs2.r[None], obs2.v[None],
                             np.array([float(t2bar)]), mu, c_light, errors)
    checked(*errors)
    t = float(pred.epoch[0])
    a, e, i, Omega, omega, ell = pred.elements[:, 0].tolist()
    return PredictedAttributable(
        values=pred.values[0], gamma=pred.gamma[0], tbar=t2bar,
        elements=KeplerianElements(a, e, i, Omega, omega, ell, t),
        state=CartesianState(pred.r[0], pred.v[0], t))


def _penalty_rows(values2: np.ndarray, pred_values: np.ndarray, pred_gamma: np.ndarray,
                  gamma_a2: np.ndarray, errors: list) -> np.ndarray:
    """chi4 of S observed attributables (values (S, 4), covariances
    ``gamma_a2`` (S, 4, 4)) against S predicted ones: d . x, where x
    solves (Gamma_Ap + Gamma_A2) x = d.  A covariance whose trace is not
    above zero (a valid one is then zero), the predicted one first, and a
    singular sum are selection failures of their row."""
    d = values2 - pred_values
    d[:, :2] = wrap_signed_rows(d[:, :2])
    for what, m in (("predicted-attributable", pred_gamma), ("second-attributable", gamma_a2)):
        fail_rows(errors, ~(np.trace(m, axis1=1, axis2=2) > 0.0),
                  lambda k, what=what: SelectionUnavailableError(f"{what} covariance is singular"))
    x, singular = linalg_rows(np.linalg.solve, (4, 1), pred_gamma + gamma_a2, ok_rows(errors),
                              d[:, :, None])
    fail_rows(errors, singular, lambda k: SelectionUnavailableError(
        f"combined covariance is singular: {singular[k]}"))
    return np.maximum((d[:, None] @ x)[:, 0, 0], 0.0)


def identification_penalty(att2, gamma_a2: np.ndarray,
                           pred: PredictedAttributable) -> float:
    """chi4 distance between an observed and a predicted attributable.

    ``att2`` may be an attributable object or a plain 4-vector in the same
    (alpha, delta, alphadot, deltadot) order.  Angle differences are wrapped
    to (-pi, pi].  Always >= 0; zero exactly when the attributables agree.
    One solve of the summed covariances, no inverse of either.
    """
    values = att2.values if hasattr(att2, "values") else np.asarray(att2, float)
    errors = [None]
    with np.errstate(all="ignore"):
        chi4 = _penalty_rows(values[None], pred.values[None], pred.gamma[None],
                             np.asarray(gamma_a2, dtype=float)[None], errors)
    checked(*errors)
    return float(chi4[0])


def compatibility_ok(solution) -> bool:
    """Diagnostic alternative to the chi4 test: both compatibility
    residuals (projected Laplace-Lenz difference and mean-anomaly vs
    time-of-flight mismatch) at most ``_COMPAT_TOL``.  Reported only;
    acceptance uses the identification penalty."""
    if solution.compat_anomaly is None:
        return False
    return (abs(solution.compat_lenz) <= _COMPAT_TOL
            and abs(solution.compat_anomaly) <= _COMPAT_TOL)


def select_solution_rows(sols: SolutionRows, second: AttributableColumns, j: np.ndarray,
                         config: RunConfig | None = None,
                         only: np.ndarray | None = None) -> list[LinkageError | None]:
    """:func:`select_solutions` of every pair k of the block ``sols`` whose
    second attributable is the row j[k] of the columns ``second`` (-1:
    skipped), as one stacked pass over all their solutions (or those of
    the rows ``only``, an index array): the chi4, selected, unselectable
    and flag columns of each solution are filled in place.  Returns each
    pair's error, or None: the first error in solution order that stops a
    solution (a pair's other solutions keep their columns)."""
    config = config if config is not None else RunConfig()
    out: list = [None] * len(j)
    scored_pair = j >= 0
    bare = scored_pair & ~second.has_cov[j]
    fail_rows(out, bare, lambda k: DomainError(
        "no covariance available for the second attributable"))
    live = (scored_pair & ~bare)[sols.pair]
    if only is not None:
        live &= np.bincount(only, minlength=len(live)) > 0
    scorable = sols.elliptic & sols.has_elements[:, 0]
    unselectable = live & ~scorable
    scored = np.zeros(len(sols.pair), dtype=bool)
    rows = (live & scorable).nonzero()[0]
    if rows.size:
        errors = [None if ok else DomainError(
            "solution carries no Cartesian covariance; attach covariances first")
            for ok in sols.has_covariance[rows, 0].tolist()]
        chi4 = _select_rows(j[sols.pair[rows]], sols.elements[rows, 0], sols.covariance[rows, 0],
                            second, errors, config)
        soft = np.array([isinstance(e, _UNAVAILABLE) for e in errors], dtype=bool)
        merge_rows(out, sols.pair[rows].tolist(),
                   [None if unavailable else e for e, unavailable in zip(errors, soft.tolist())])
        sols.selection_unavailable[rows[soft]] = True
        unselectable[rows[soft]] = True
        ok = ok_rows(errors)
        scored[rows[ok]] = True
        sols.chi4[rows[ok]] = chi4[ok]
    sols.has_chi4 |= scored
    sols.selected[scored] = sols.chi4[scored] <= config.chi4_threshold
    sols.selected[unselectable] = False
    sols.has_selected |= scored | unselectable
    sols.unselectable |= unselectable
    return out


def _select_rows(j: np.ndarray, elements1: np.ndarray, cov1: np.ndarray,
                 second: AttributableColumns, errors: list, config: RunConfig) -> np.ndarray:
    """chi4 of S solutions against the rows j (S,) of ``second``, from
    their first elements (S, 7) and covariances (S, 6, 6), the errors of
    the rows filled in from those they already have.  Every input of the
    second attributables is taken by index."""
    mu, c_light = config.mu_value, config.units.c_light
    el = np.ascontiguousarray(elements1[:, :6].T)
    frame = orbit_frame_rows(el[2], el[3], el[4])
    with np.errstate(all="ignore"):
        gamma1 = _element_covariance_rows(el, frame, cov1, mu, errors)
        pred = _predict_rows(el, frame, elements1[:, 6].copy(), gamma1, second.q[j],
                             second.qdot[j], second.tbar[j], mu, c_light, errors)
        return _penalty_rows(second.values[j], pred.values, pred.gamma, second.cov[j], errors)


def select_solutions(solutions: list, att2, obs2: CartesianState,
                     config: RunConfig | None = None) -> list:
    """Annotate solutions with chi4 and return the accepted ones.

    Each elliptic solution (with attached Cartesian covariance) is scored
    against the second attributable, with that attributable's own
    covariance; acceptance is chi4 <= the configured threshold.
    Non-elliptic solutions and those whose chi4 cannot be formed (a zero
    covariance, a singular sum of the two, a singular Jacobian) are marked
    unselectable and never accepted.  The one-pair case of
    :func:`select_solution_rows`, on the rows of the solutions (views of
    one block; their other rows are left as they are).
    """
    sols, take = block_of(solutions)
    j = np.zeros(len(sols.errors), dtype=int)
    for error in select_solution_rows(sols, AttributableColumns.at([att2], obs2.r[None],
                                                                   obs2.v[None]), j, config, take):
        checked(error)
    return [sol for sol in solutions if sol.selected]
