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

Solutions are propagated as one stack of S rows: the joint covariance
checks as (S, 8, 8), dE as (S, 12, 12), one solve by each dPhi/dY (S, 4, 4)
for both dY/dA and its inverse, dX/dA as (S, 12, 8) and both pushes with
their checks as (S, 6, 6).  The checks are screened: that inverse settles
the condition limit (:func:`conditioned_rows`) and, in a stack of at least
``_SCREEN_ROWS``, a stacked factorization settles the PSD check
(:func:`validated_rows`) of all but the rows near their thresholds, and
only those get an eigenvalue or singular value decomposition.  Every
operation is row-wise (one LAPACK or BLAS call per matrix, no sums
across rows), and each row keeps its own outcome: an
error stops only its own row.  :func:`attach_covariance_rows` is the
stacked call that the batch command line makes once per block: it reads
the solutions' columns (:class:`~arclink.solutions.SolutionRows`), takes
each solution's attributable values, joint covariance and observer states
by index from the block's pairs (:class:`PairRows`), and fills the
covariance columns in place; :func:`joint_covariance_rows` makes and
checks a block's joint covariances in one pass.  :func:`attach_covariances`,
:func:`implicit_solution_jacobian`, :func:`cartesian_covariance`,
:func:`psi`, :func:`psi_jacobian` and :func:`att_cartesian_jacobian` are
its one-row cases, run on the row of the solution's own block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import RunConfig
from .errors import (
    DomainError,
    LinkageError,
    NumericalError,
    checked,
    fail_rows,
    linalg_rows,
    linalg_subset,
    merge_rows,
    ok_rows,
)
from .geometry import (
    basis_rows,
    observation_basis,  # noqa: F401 (bench/tracing.py patches it)
    polar_error,
    row_cross,
    row_dot,
    topocentric_rows,
)
from .kepler import CartesianState
from .solutions import _FLAGS, SolutionRows, block_of

#: condition number of dPhi/dY (``np.linalg.cond``) at or above which
#: solutions are flagged (not rejected) as ill-conditioned; unless the
#: condition numbers are returned (:func:`implicit_solution_rows`), only
#: the rows that :func:`conditioned_rows` cannot settle from the inverse
#: of dPhi/dY (from the factorization that gives dY/dA) are decomposed by
#: SVD.
CONDITION_LIMIT = 1e12

_ILL_CONDITIONED = {column: name for name, column in _FLAGS}["ill_conditioned"]

_RESOLVE_TOL = 1e-13  # relative Newton step at which resolve_unknowns stops

_COORDINATES = ("alpha", "delta", "alphadot", "deltadot", "rho", "rhodot")

# Which of an epoch's six coordinates each attributable kind observes, in
# ``att.values`` order; the other two are that epoch's unknowns.
_OBSERVED = {"optical": (0, 1, 2, 3), "radar": (0, 1, 4, 5)}


@lru_cache(maxsize=None)
def _columns(kind1: str) -> tuple[np.ndarray, np.ndarray]:
    """Of both epochs' twelve coordinates, the columns of the observed A
    and of the unknowns Y, for a pair whose first attributable is kind1."""
    a_cols = [k + 6 * e for e, kind in enumerate((kind1, "optical"))
              for k in _OBSERVED[kind]]
    return np.array(a_cols), np.array([c for c in range(12) if c not in a_cols])


# ---------------------------------------------------------------------------
# stacked matrix checks, one matrix per row


_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
# Above what multiple of n^2 eps of the trace the PSD screen's shift must
# sit for its factorization to settle a row: the backward error of an
# L D L^T (Cholesky) factorization that succeeds is within (n + 1) n eps/2
# of the trace (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., Thm 10.3), and eigvalsh's own within about n^2 eps/2 of it.
_PSD_SCREEN_MARGIN = 2.0
# The fewest rows for which the PSD screen costs less than eigvalsh of
# every row: the screen's fixed cost is 30-55 us at n = 4-8, against 7-10
# us for eigvalsh of a one-row stack and 2-4 us more a row (at 16 rows,
# 54 against 46 us at n = 6 and 61 against 71 us at n = 8).
_SCREEN_ROWS = 16
# A sum of squares below this may have lost squares to underflow.
_SQUARES_LOW = 1e-280


def _psd_screen(sym: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Whether each finite symmetric matrix of the stack sym (S, n, n),
    plus shift (S,) times the identity, factors as L D L^T with positive
    pivots (NaN is not positive): one elimination in numpy across the
    stack, with no LAPACK call, so that no row is factored alone and none
    raises or warns."""
    n = sym.shape[-1]
    with np.errstate(all="ignore"):
        w = sym.transpose(1, 2, 0).copy()  # each entry a contiguous row of S
        w[range(n), range(n)] += shift
        for j in range(n - 1):
            below = w[j + 1:, j] / w[j, j]
            w[j + 1:, j + 1:] -= below[:, None] * w[j, j + 1:]
        pivots = w[range(n), range(n)]
        return ((pivots > 0.0) & (pivots < np.inf)).all(axis=0)


def validated_rows(m: np.ndarray, psd_tol: float, what: str,
                   symmetric: bool = False):
    """Each matrix of the stack m (S, n, n) symmetrized, and the messages of
    the rows that fail a check, by row index.  The checks: finite (its
    symmetrization and trace too, or the checks cannot be evaluated),
    symmetric within 1e-12 relative (unless the caller says m is exactly
    ``symmetric``), and no eigenvalue (``np.linalg.eigvalsh``) below the
    floor f = -psd_tol * max(trace, 0).

    Of a stack of at least ``_SCREEN_ROWS`` (below that, eigvalsh of
    every row costs less), only the rows that a screen cannot settle are
    decomposed.  The screen factors sym + |f|/2 I
    (:func:`_psd_screen`); a row whose pivots are all positive has, within
    the factorization's backward error, every eigenvalue above f/2, and
    that error and eigvalsh's sit below |f|/2 when psd_tol/2 exceeds
    ``_PSD_SCREEN_MARGIN`` n^2 eps, so eigvalsh would pass it too.  The
    other rows (a pivot at or below zero, a NaN or an overflow, |f|/2
    below the smallest normal double) go to eigvalsh, whose smallest
    eigenvalue decides them and is their message's."""
    sym = 0.5 * (m + m.mT)
    trace = np.trace(m, axis1=1, axis2=2)
    finite = np.isfinite(sym).all(axis=(1, 2)) & np.isfinite(trace)
    usable = finite
    if not symmetric:
        scale = np.abs(m).max(axis=(1, 2))
        skew = np.abs(m - m.mT).max(axis=(1, 2))
        usable = finite & ~(skew > 1e-12 * scale)
    floor = -psd_tol * np.maximum(trace, 0.0)
    n = m.shape[-1]
    if len(m) < _SCREEN_ROWS or not 0.5 * psd_tol > _PSD_SCREEN_MARGIN * n * n * _EPS:
        eig, failed = linalg_rows(np.linalg.eigvalsh, (n,), sym, usable)
        low = eig[:, 0]  # eigvalsh sorts ascending
    else:
        shift = -0.5 * floor
        rows = (usable & ~((shift >= _TINY) & _psd_screen(sym, shift))).nonzero()[0]
        eig, failed = linalg_subset(np.linalg.eigvalsh, (n,), sym, rows)
        low = np.full(len(m), np.inf)
        low[rows] = eig[:, 0]
    if (usable & ~(low < floor)).all() and not failed:
        return sym, {}
    bad = {}
    for k in range(len(m)):
        if not finite[k]:
            bad[k] = f"{what} is not finite in double precision"
        elif not usable[k]:
            bad[k] = (f"{what} not symmetric: max asymmetry {skew[k]:.3e} "
                      f"exceeds 1.0e-12 of scale {scale[k]:.3e}")
        elif k in failed:
            bad[k] = f"{what} has no eigenvalues: {failed[k]}"
        elif low[k] < floor[k]:
            bad[k] = (f"{what} not positive semidefinite: min eigenvalue "
                      f"{low[k]:.3e} below {floor[k]:.3e}")
    return sym, bad


def conditioned_rows(m: np.ndarray, ok: np.ndarray, limit: float,
                     inv: np.ndarray) -> np.ndarray:
    """Whether the condition number of each matrix of the stack m (S, n, n),
    as ``np.linalg.cond`` computes it, is below ``limit`` (a NaN is not;
    a row not ``ok`` is), given the inverses ``inv`` of the ``ok`` rows
    (:func:`~arclink.errors.linalg_rows`, NaN where there is none): those
    of dPhi/dY, which :func:`_implicit_rows` solves for with dY/dA.

    Only the rows that a screen cannot settle are decomposed.  With
    kappa_F = |A|_F |A^-1|_F from the inverse, kappa_2 <= kappa_F <= n
    kappa_2 (Golub and Van Loan, Matrix Computations, 2.3), so a row is
    well conditioned when kappa_F <= limit/2 and ill conditioned when
    kappa_F >= 2 n limit; the factor 2 on either side covers the rounding
    of the inverse and of the SVD for limits far below 1/eps.  The other
    rows (between the two, a non-finite kappa_F, one that a square may
    have underflowed, or one without an inverse) go to
    ``np.linalg.cond``, which decides them.
    Run it under ``np.errstate(all="ignore")``, as the stacked
    computations run."""
    n = m.shape[-1]
    squares, inv_squares = np.einsum("sij,sij->s", m, m), np.einsum("sij,sij->s", inv, inv)
    kappa2 = squares * inv_squares  # kappa_F squared
    exact = (np.minimum(squares, inv_squares) > _SQUARES_LOW) & (kappa2 < np.inf)
    well = exact & (kappa2 <= (0.5 * limit) ** 2)
    ill = exact & (kappa2 >= (2.0 * n * limit) ** 2)
    rows = (ok & ~(well | ill)).nonzero()[0]
    cond, _ = linalg_subset(np.linalg.cond, (), m, rows)
    below = ~ok | well
    below[rows] = cond < limit
    return below


def _validated(m: np.ndarray, psd_tol: float, what: str) -> np.ndarray:
    """One matrix through :func:`validated_rows`; DomainError if it fails."""
    with np.errstate(all="ignore"):
        sym, bad = validated_rows(m[None], psd_tol, what)
    if bad:
        raise DomainError(bad[0])
    return sym[0]


# ---------------------------------------------------------------------------
# covariance containers


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
        gamma = _joint_gamma(self.att1, self.att2, self.gamma)
        object.__setattr__(self, "gamma", _validated(gamma, 1e-12, _JOINT))

    @property
    def values(self) -> np.ndarray:
        """The stacked 8-vector A."""
        return np.concatenate([self.att1.values, self.att2.values])


_JOINT = "attributable covariance"


def _joint_gamma(att1, att2, gamma) -> np.ndarray:
    """The pair's kinds checked, and its joint 8x8 covariance (not yet
    validated)."""
    kind1 = getattr(att1, "kind", None)
    kind2 = getattr(att2, "kind", None)
    if kind2 != "optical" or kind1 not in _OBSERVED:
        raise DomainError(
            "pair must be optical-optical or radar-optical "
            f"(radar first), got {kind1!r}/{kind2!r}")
    if gamma is not None:
        g = np.asarray(gamma, dtype=float)
        if g.shape != (8, 8):
            raise DomainError(f"joint covariance must be 8x8, got {g.shape}")
        return g
    if att1.cov is None or att2.cov is None:
        raise DomainError("no joint covariance supplied and the "
                          "attributables carry none")
    g = np.zeros((8, 8))
    g[:4, :4] = att1.cov
    g[4:, 4:] = att2.cov
    return g


class PairRows(NamedTuple):
    """P pairs of attributables as the stacked covariance pass reads them:
    the kind of their first attributables (one for all), the stacked
    values A (P, 8), the observer states q and qdot (2, P, 3) at the first
    epochs, then the second, the joint covariances gamma (P, 8, 8),
    checked and symmetrized, and which pairs are attached (P,)."""

    kind1: str
    values: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    gamma: np.ndarray
    live: np.ndarray


def pair_rows(pairs: list, obs1s: list, obs2s: list) -> PairRows:
    """The AttributablePairs ``pairs`` seen from the observer states
    obs1s[k] and obs2s[k] (CartesianState) as rows, all live.  Their
    first attributables must be of one kind."""
    kinds = sorted({pair.att1.kind for pair in pairs})
    if len(kinds) != 1:
        raise DomainError(f"one first-attributable kind per stack, got {kinds}")
    return PairRows(kinds[0], np.array([pair.values for pair in pairs]),
                    np.array([[o.r for o in obs1s], [o.r for o in obs2s]]),
                    np.array([[o.v for o in obs1s], [o.v for o in obs2s]]),
                    np.array([pair.gamma for pair in pairs]), np.ones(len(pairs), dtype=bool))


def joint_covariance_rows(cov1: np.ndarray, cov2: np.ndarray) -> tuple[np.ndarray, dict]:
    """The joint covariances (P, 8, 8) of P pairs of attributables with the
    covariances cov1 and cov2 (P, 4, 4), block-diagonal, through
    :func:`validated_rows` with the rule and messages of
    :class:`AttributablePair`: symmetrized, and the message of each pair
    that fails, by index."""
    gamma = np.zeros((len(cov1), 8, 8))
    gamma[:, :4, :4] = cov1
    gamma[:, 4:, 4:] = cov2
    return validated_rows(gamma, 1e-12, _JOINT)


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

# J[:3] of psi_jacobian, [-hat(v1), hat(r1), hat(v2), -hat(r2)], as a gather
# from [v1, r1, v2, r2, -v1, -r1, -v2, -r2, 0]: hat(u) has rows
# (0, -u2, u1), (u2, 0, -u0), (-u1, u0, 0).
_ZERO = 24
_HAT = np.array([
    sum(([[_ZERO, m + 2, p + 1], [p + 2, _ZERO, m], [m + 1, p, _ZERO]][row]
         for p, m in ((12, 0), (3, 15), (6, 18), (21, 9))), [])
    for row in range(3)])
# The terms of psi_jacobian's last row: (block, vector) of each coefficient.
_LENZ_BLOCK = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3])
_LENZ_VECTOR = np.array([0, 1, 2, 2, 1, 0, 3, 4, 5, 6, 7, 0])


def _psi_rows(r1, v1, r2, v2, q2, mu: float, errors: list):
    """:func:`psi` (S, 4) and :func:`psi_jacobian` (S, 4, 12) of S state
    pairs (each (S, 3)); a zero first-epoch position is its row's error."""
    c1, c2, w, q2r1, q2v1, q2v2 = row_cross(np.array([r1, r2, r2, q2, q2, q2]),
                                            np.array([v1, v2, q2, r1, v1, v2]))
    r1r1, v1v1, r1w, v1w, v1r1, v2w, v2r2 = row_dot(
        np.array([r1, v1, r1, v1, v1, v2, v2]), np.array([r1, v1, w, w, r1, w, r2]))
    r1n = np.sqrt(r1r1)
    fail_rows(errors, ~(r1n > 0.0), lambda k: DomainError(
        "first-epoch position has zero norm"))
    g1 = v1v1 - mu / r1n
    out = np.empty((len(r1), 4))
    out[:, :3] = c1 - c2
    out[:, 3] = g1 * r1w - v1r1 * v1w + v2r2 * v2w

    u = np.concatenate([v1, r1, v2, r2], axis=1)
    J = np.empty((len(r1), 4, 12))
    J[:, :3] = np.concatenate([u, -u, np.zeros((len(r1), 1))], axis=1)[:, _HAT]
    # The last row, block by block, as coefficients of the vectors
    # (w, r1, v1, q2 x r1, q2 x v1, v2, q2 x v2, r2).
    coef = np.zeros((len(r1), 4, 8))
    coef[:, _LENZ_BLOCK, _LENZ_VECTOR] = np.array([
        g1, mu * r1w / r1n**3, -v1w, 2.0 * r1w, -v1w, -v1r1,
        g1, -v1r1, v2w, v2r2, v2w, v2r2]).T
    J[:, 3] = (coef @ np.array([w, r1, v1, q2r1, q2v1, v2, q2v2, r2]).transpose(1, 0, 2)
               ).reshape(len(r1), 12)
    return out, J


def _psi_one(state1: CartesianState, state2: CartesianState, q2: np.ndarray,
             mu: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`psi` and :func:`psi_jacobian` of one state pair."""
    errors = [None]
    with np.errstate(all="ignore"):
        phi, J = _psi_rows(state1.r[None], state1.v[None], state2.r[None], state2.v[None],
                           np.asarray(q2, dtype=float)[None], mu, errors)
    checked(*errors)
    return phi[0], J[0]


def psi(state1: CartesianState, state2: CartesianState, q2: np.ndarray,
        mu: float) -> np.ndarray:
    """Four-component constraint vector in Cartesian coordinates.

    Components 0-2: difference of the angular momenta c1 - c2.  Component
    3: the Laplace-Lenz difference projected on w = r2 x q2 (times mu, so
    it is polynomial in the states).  The second epoch's own radial term
    (r2 . w) vanishes identically and is omitted.
    """
    return _psi_one(state1, state2, q2, mu)[0]


def psi_jacobian(state1: CartesianState, state2: CartesianState,
                 q2: np.ndarray, mu: float) -> np.ndarray:
    """4x12 Jacobian of :func:`psi` with respect to (r1, v1, r2, v2).

    The angular-momentum rows are skew blocks; the last row collects the
    product-rule terms of the projected Laplace-Lenz difference, where the
    dependence of w = r2 x q2 on r2 turns each (u . w) into a (q2 x u) row.
    """
    return _psi_one(state1, state2, q2, mu)[1]


# ---------------------------------------------------------------------------
# attributable-to-Cartesian coordinate change, one epoch


# Of one epoch's coordinate composition, the (slot, basis vector) of each
# coefficient: slots 0-5 are d r / d(alpha, delta, alphadot, deltadot, rho,
# rhodot), 6-11 the same of d rdot, 12 r - q and 13 rdot - qdot; the basis
# vectors are e_rho, e_alpha, e_delta and (cos alpha, sin alpha, 0).
_SLOT = np.array([0, 1, 4, 6, 6, 7, 7, 7, 8, 9, 10, 10, 11, 12, 13, 13, 13])
_BASIS = np.array([1, 2, 0, 1, 3, 0, 1, 2, 1, 2, 1, 2, 0, 0, 0, 1, 2])


def _composition_rows(coords, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of S coordinate sets (six (S,) arrays) with their triads ``b``
    (geometry.BasisRows): the (S, 6, 6) Jacobians of the (r, rdot)
    composition, and r - q and rdot - qdot (S, 3) each, every one a
    combination of the triad and (cos alpha, sin alpha, 0)."""
    _, _, alphadot, deltadot, rho, rhodot = coords
    n = len(rho)
    rcd, ra, rd = rho * b.cd, rho * alphadot, rho * deltadot
    rac, one = ra * b.cd, np.ones(n)
    coef = np.zeros((n, 14, 4))
    coef[:, _SLOT, _BASIS] = np.array([
        rcd, rho, one, rhodot * b.cd - rd * b.sd, -rac, -rd, -(ra * b.sd), rhodot,
        rcd, rho, alphadot * b.cd, deltadot, one, rho, rhodot, rac, rd]).T
    out = coef @ np.array([b.e_rho, b.e_alpha, b.e_delta,
                           np.array([b.ca, b.sa, np.zeros(n)]).T]).transpose(1, 0, 2)
    return (out[:, :12].reshape(n, 2, 6, 3).transpose(0, 1, 3, 2).reshape(n, 6, 6),
            out[:, 12], out[:, 13])


def att_cartesian_jacobian(alpha: float, delta: float, alphadot: float,
                           deltadot: float, rho: float, rhodot: float
                           ) -> np.ndarray:
    """6x6 Jacobian of the (r, rdot) composition in one epoch's coordinates.

    Columns follow (alpha, delta, alphadot, deltadot, rho, rhodot); rows are
    (r, rdot).  The observer state is an additive constant of the map and
    does not appear.
    """
    coords = np.array([[alpha], [delta], [alphadot], [deltadot], [rho], [rhodot]])
    b = basis_rows(coords[0], coords[1])
    if b.polar[0]:
        raise polar_error(float(delta))
    return _composition_rows(coords, b)[0][0]


def _epoch_rows(coords, q: np.ndarray, qdot: np.ndarray, errors: list):
    """Body states r, v (S, 3) of S coordinate sets against their observer
    states, and the (S, 6, 6) Jacobians of the composition."""
    alpha, delta, _, _, rho, _ = coords
    b = basis_rows(alpha, delta)
    fail_rows(errors, b.polar, lambda k: polar_error(float(delta[k])))
    fail_rows(errors, ~(rho > 0.0), lambda k: DomainError(
        f"range must be positive, got {float(rho[k])!r}"))
    T, dr, dv = _composition_rows(coords, b)
    return q + dr, qdot + dv, T


# ---------------------------------------------------------------------------
# the implicit derivatives at a stack of solutions


def _gather(sols: SolutionRows, take: np.ndarray, index: np.ndarray, pairs: PairRows,
            errors: list) -> tuple[PairRows, np.ndarray]:
    """The inputs of the solutions ``take`` (S,) of ``sols``, the n-th of
    which is of the pair index[n] of ``pairs``: the pairs taken by
    solution, and the unknowns Y (S, 4)."""
    rows = PairRows(pairs.kind1, pairs.values[index], pairs.q[:, index], pairs.qdot[:, index],
                    pairs.gamma[index], pairs.live[index])
    if pairs.kind1 == "optical":
        y = np.concatenate([sols.rho[take, :, None], sols.rhodot[take, :, None]],
                           axis=2).reshape(-1, 4)
    else:  # the radar epoch's angular rates, from the solved state
        coords, _ = topocentric_rows(sols.r[take, 0], sols.v[take, 0], rows.q[0], rows.qdot[0],
                                     errors)
        y = np.array([coords[2], coords[3], sols.rho[take, 1], sols.rhodot[take, 1]]).T
    return rows, y


def _one(solution) -> tuple[SolutionRows, np.ndarray, np.ndarray]:
    """The block, ``take`` and ``index`` (:func:`_gather`) of one view."""
    return solution.rows, np.array([solution.k]), np.zeros(1, dtype=int)


def _phi_rows(rows: PairRows, y: np.ndarray, mu: float, errors: list):
    """Phi(A, Y) (S, 4), dPhi over both epochs' twelve coordinates
    (S, 4, 12) and the block-diagonal coordinate Jacobians dE (S, 12, 12)
    it is chained through.  Both epochs run as one stack of 2S rows."""
    n = len(y)
    a_cols, y_cols = _columns(rows.kind1)
    coords = np.empty((n, 12))
    coords[:, a_cols] = rows.values
    coords[:, y_cols] = y
    epoch_errors = [None] * (2 * n)
    r, v, T = _epoch_rows(coords.reshape(n, 2, 6).transpose(2, 1, 0).reshape(6, 2 * n),
                          rows.q.reshape(-1, 3), rows.qdot.reshape(-1, 3), epoch_errors)
    merge_rows(errors, [*range(n), *range(n)], epoch_errors)  # epoch 1's error first
    dE = np.zeros((n, 12, 12))
    dE[:, :6, :6] = T[:n]
    dE[:, 6:, 6:] = T[n:]
    phi, J = _psi_rows(r[:n], v[:n], r[n:], v[n:], rows.q[1], mu, errors)
    return phi, J @ dE, dE


@dataclass(frozen=True)
class ImplicitDerivatives:
    """dY/dA and the state Jacobian dX/dA of X = (r1, v1, r2, v2) at a
    linkage solution, with Phi there and the condition number of dPhi/dY.
    Of a stack of solutions (:func:`implicit_solution_rows`), each field
    but the flags holds one row per solution."""

    dy_da: np.ndarray       # 4x8
    dx_da: np.ndarray       # 12x8
    phi: np.ndarray         # 4, ~0
    condition: float
    flags: tuple[str, ...] = ()


def _implicit_rows(rows: PairRows, y: np.ndarray, mu: float, errors: list,
                   condition: bool = False) -> tuple[ImplicitDerivatives, np.ndarray]:
    """The implicit derivatives of S solutions at their unknowns y (S, 4),
    without flags, and whether each is ill-conditioned: the condition
    number of its dPhi/dY not below :data:`CONDITION_LIMIT`.  With
    ``condition``, the condition numbers themselves (``np.linalg.cond`` of
    every row) decide it and are returned; else they are None and
    :func:`conditioned_rows` decides it, decomposing only the rows that it
    cannot settle from the inverse of dPhi/dY.  One solve by dPhi/dY
    against [dPhi/dA | I] gives both -dY/dA and that inverse."""
    phi, dphi, dE = _phi_rows(rows, y, mu, errors)
    a_cols, y_cols = _columns(rows.kind1)
    dphi_dy = dphi[:, :, y_cols]
    fail_rows(errors, ~np.isfinite(dphi_dy).all(axis=(1, 2)), lambda k: NumericalError(
        "constraint Jacobian at solution is not finite"))
    ok = ok_rows(errors)
    x, singular = linalg_rows(np.linalg.solve, (4, 12), dphi_dy, ok, np.concatenate(
        [dphi[:, :, a_cols], np.broadcast_to(np.eye(4), dphi_dy.shape)], axis=2))
    if condition:
        cond, _ = linalg_rows(np.linalg.cond, (), dphi_dy, ok)
        ill = ~(cond < CONDITION_LIMIT)
    else:
        cond, ill = None, ~conditioned_rows(dphi_dy, ok, CONDITION_LIMIT, x[:, :, 8:])
    fail_rows(errors, singular, lambda k: NumericalError(
        f"singular constraint Jacobian at solution: {singular[k]}"))
    dy_da = -x[:, :, :8]
    return ImplicitDerivatives(dy_da=dy_da, dx_da=dE[:, :, a_cols] + dE[:, :, y_cols] @ dy_da,
                               phi=phi, condition=cond), ill


def _push_rows(dx_da: np.ndarray, gamma: np.ndarray, errors: list) -> np.ndarray:
    """The attributable covariances pushed through each epoch's six rows of
    dX/dA: (S, 2, 6, 6), epoch 1 then epoch 2.  The input covariances are
    valid, so a pushed one that fails validation (overflow, or roundoff
    below the PSD floor) is numerical."""
    n = len(dx_da)
    M = dx_da.reshape(n, 2, 6, 8)
    G = M @ gamma[:, None] @ M.mT
    sym, bad = validated_rows((0.5 * (G + G.mT)).reshape(2 * n, 6, 6), 1e-10,
                              "cartesian covariance", symmetric=True)
    for k2, message in bad.items():  # epoch 1 before epoch 2
        if errors[k2 // 2] is None:
            errors[k2 // 2] = NumericalError(f"epoch-{k2 % 2 + 1} {message}")
    return sym.reshape(n, 2, 6, 6)


def solution_unknowns(pair: AttributablePair, solution,
                      obs1: CartesianState) -> np.ndarray:
    """Extract the unknown 4-vector Y from a solved linkage.

    Optical-optical solutions carry Y directly; for radar-optical the
    first-epoch angular rates are recovered from the solved state.
    """
    errors = [None]
    with np.errstate(all="ignore"):
        _, y = _gather(*_one(solution), pair_rows([pair], [obs1], [obs1]), errors)
    checked(*errors)
    return y[0]


def implicit_solution_rows(pairs: list, solutions: list, obs1s: list,
                           obs2s: list, mu: float
                           ) -> tuple[ImplicitDerivatives, list[LinkageError | None]]:
    """:func:`implicit_solution_jacobian` of the rows (pairs[k],
    solutions[k], obs1s[k], obs2s[k]) as one stack (the solutions rows of
    one block): the derivatives, each field with one row per solution (no
    flags; see the condition numbers), and each row's error or None."""
    sols, take = block_of(solutions)
    errors: list = [None] * len(solutions)
    with np.errstate(all="ignore"):
        imp, _ = _implicit_rows(*_gather(sols, take, np.arange(len(take)),
                                         pair_rows(pairs, obs1s, obs2s), errors),
                                mu, errors, condition=True)
    return imp, errors


def implicit_solution_jacobian(pair: AttributablePair, solution,
                               obs1: CartesianState, obs2: CartesianState,
                               mu: float) -> ImplicitDerivatives:
    """Differentiate the solved unknowns and states with respect to the
    attributables.

    Evaluated at the solution point (Phi is assumed ~ 0 there).  A condition
    number of dPhi/dY above :data:`CONDITION_LIMIT` attaches the
    ``"ill-conditioned-solution"`` flag; an exactly singular block raises
    :class:`~arclink.errors.NumericalError`.  The one-row case of
    :func:`implicit_solution_rows`.
    """
    errors = [None]
    with np.errstate(all="ignore"):
        imp, ill = _implicit_rows(*_gather(*_one(solution), pair_rows([pair], [obs1], [obs2]),
                                           errors), mu, errors, condition=True)
    checked(*errors)
    return ImplicitDerivatives(
        dy_da=imp.dy_da[0], dx_da=imp.dx_da[0], phi=imp.phi[0],
        condition=float(imp.condition[0]), flags=(_ILL_CONDITIONED,) if ill[0] else ())


# ---------------------------------------------------------------------------
# pushing the attributable covariance to the Cartesian states


def _covariance_rows(sols: SolutionRows, take: np.ndarray, index: np.ndarray,
                     pairs: PairRows, mu: float, errors: list):
    """Both epochs' pushed covariances (S, 2, 6, 6) of the solutions
    ``take`` of ``sols`` (see :func:`_gather`), and whether each is
    ill-conditioned (:func:`_implicit_rows`)."""
    rows, y = _gather(sols, take, index, pairs, errors)
    imp, ill = _implicit_rows(rows, y, mu, errors)
    return _push_rows(imp.dx_da, rows.gamma, errors), ill


def attach_covariance_rows(sols: SolutionRows, pairs: PairRows,
                           config: RunConfig | None = None,
                           only: np.ndarray | None = None) -> list[LinkageError | None]:
    """:func:`attach_covariances` of every solution of the block ``sols``
    (or of the rows ``only``, an index array) whose pair k is live in
    ``pairs``, as one stacked pass: the covariance columns and the
    conditioning flag of each solution that has no error are filled in
    place.  Returns each pair's first error in solution order, or None.
    The first attributables of all pairs are of one kind."""
    config = config if config is not None else RunConfig()
    out: list = [None] * len(pairs.live)
    live = pairs.live[sols.pair]
    take = live.nonzero()[0] if only is None else only[live[only]]
    if not take.size:
        return out
    errors: list = [None] * len(take)
    index = sols.pair[take]
    with np.errstate(all="ignore"):
        cov, ill = _covariance_rows(sols, take, index, pairs, config.mu_value, errors)
    ok = ok_rows(errors)
    done = take[ok]
    sols.covariance[done] = cov[ok]
    sols.has_covariance[done] = True
    sols.ill_conditioned[done] |= ill[ok]
    merge_rows(out, index.tolist(), errors)
    return out


def attach_covariances(pair: AttributablePair, solution,
                       obs1: CartesianState, obs2: CartesianState,
                       config: RunConfig | None = None) -> None:
    """Fill ``solution.covariance1``/``covariance2`` in place: the
    covariance columns of its row of its block, and no other row's.

    One implicit Jacobian serves both epochs.  Any conditioning flag from
    the implicit step is set on the solution's row.  The one-row case of
    :func:`attach_covariance_rows`.
    """
    sols, k = solution.rows, solution.k
    n = len(sols.errors)  # the pair, in the place of each pair of the block
    checked(attach_covariance_rows(sols, pair_rows([pair] * n, [obs1] * n, [obs2] * n),
                                   config, np.array([k]))[sols.pair[k]])


def cartesian_covariance(pair: AttributablePair, solution,
                         obs1: CartesianState, obs2: CartesianState,
                         epoch_index: int, mu: float) -> CovarianceMatrix:
    """6x6 covariance of the Cartesian state at epoch 1 or 2."""
    if epoch_index not in (1, 2):
        raise DomainError(f"epoch_index must be 1 or 2, got {epoch_index}")
    errors = [None]
    with np.errstate(all="ignore"):
        cov, ill = _covariance_rows(*_one(solution), pair_rows([pair], [obs1], [obs2]), mu,
                                    errors)
    checked(*errors)
    flags = (_ILL_CONDITIONED,) if ill[0] else ()
    return CovarianceMatrix(cov[0, epoch_index - 1], label="cartesian", flags=flags)


# ---------------------------------------------------------------------------
# re-solving the constraint for perturbed attributables


def resolve_unknowns(pair: AttributablePair, y0: np.ndarray,
                     obs1: CartesianState, obs2: CartesianState, mu: float,
                     max_iter: int = 25) -> np.ndarray:
    """Newton-solve Phi(A, Y) = 0 for Y from the starting guess ``y0``.

    Convergence is declared when every component's step is at most 1e-13
    of max(1, |y_k|).  Used by finite-difference and Monte-Carlo
    oracles, which perturb A slightly and track the nearby solution branch.
    """
    y = np.array(y0, dtype=float)
    rows = pair_rows([pair], [obs1], [obs2])
    _, y_cols = _columns(rows.kind1)
    for _ in range(max_iter):
        errors = [None]
        with np.errstate(all="ignore"):
            phi, dphi, _ = _phi_rows(rows, y[None], mu, errors)
        checked(*errors)
        try:
            step = np.linalg.solve(dphi[0][:, y_cols], phi[0])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular Newton step: {exc}")
        y -= step
        scale = np.maximum(np.abs(y), 1.0)
        if np.all(np.abs(step) <= _RESOLVE_TOL * scale):
            return y
    raise NumericalError(f"constraint re-solve did not converge in "
                         f"{max_iter} iterations")
