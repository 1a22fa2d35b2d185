"""Exception hierarchy shared across the linkage pipeline, and the row
protocol of its stacked computations.

The command line maps these onto exit codes: input and domain problems exit
with 2, degenerate observing geometry with 3, numerical failures with 4.

A stacked computation keeps one outcome per row: a list holds each row's
error or None, :func:`fail_rows` gives a row the first error of its own
chain, :func:`merge_rows` folds in another computation's, :func:`ok_rows`
names the rows still without one, and :func:`linalg_rows` runs one LAPACK
call per matrix, so that a failing matrix fails only its row
(:func:`linalg_subset` on some rows of a stack only).  The library
functions are one-row calls of these computations, and :func:`checked`
raises such a call's error.
"""

from __future__ import annotations

import numpy as np


class LinkageError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LinkageError, ValueError):
    """Inputs outside the mathematical domain of an operation."""


class PolarSingularityError(DomainError):
    """Declination too close to +/- pi/2 for the tangent basis."""


class NonEllipticOrbitError(DomainError):
    """Orbital elements requested for a state with non-negative energy."""


class RectilinearOrbitError(DomainError):
    """Angular momentum numerically zero; no orbital plane is defined."""


class DegenerateConfigurationError(LinkageError):
    """Observing geometry on which the linkage polynomials degenerate.

    ``flags`` lists the detected conditions (e.g. ``"quadratic_degenerate"``,
    ``"zenith"``, ``"elimination_degenerate"``).
    """

    def __init__(self, flags: list[str], message: str = ""):
        self.flags = list(flags)
        super().__init__(message or f"degenerate configuration: {', '.join(flags)}")


class NumericalError(LinkageError):
    """Numerical procedure failed to reach its accuracy contract."""


class ConvergenceError(NumericalError):
    """Iteration did not converge.

    For the simultaneous root finder, ``roots`` holds the current iterates and
    ``unconverged`` the indices that failed, so callers can inspect partial
    results.
    """

    def __init__(self, message: str, roots=None, unconverged=None):
        super().__init__(message)
        self.roots = roots
        self.unconverged = unconverged


class ConditioningError(NumericalError):
    """Matrix or interpolation problem too ill-conditioned to trust."""


class ZeroResultantError(NumericalError):
    """Resultant identically zero: the two polynomials share a component."""


class EphemerisError(LinkageError, ValueError):
    """Observer ephemeris unavailable, unparseable, or out of range."""


class FitError(LinkageError, ValueError):
    """Attributable fit impossible (too few points, singular normal matrix)."""


class SelectionUnavailableError(NumericalError):
    """Covariances singular or missing; the identification test cannot run."""


def fail_rows(errors: list, rows, make) -> None:
    """Give each row of a stacked computation that ``rows`` names (a
    boolean mask, or a dict keyed by row index), and that has no error
    yet, the error ``make(k)``: every row keeps the first error of its own
    chain, whatever the other rows do."""
    if not isinstance(rows, dict):
        if not rows.any():
            return
        rows = rows.nonzero()[0]
    for k in rows:
        if errors[k] is None:
            errors[k] = make(k)


def merge_rows(errors: list, rows, row_errors) -> None:
    """Give each row rows[n] without an error the error row_errors[n], if
    any: another computation's rows, in order, fold into the rows they
    belong to (the solutions into their pairs, say)."""
    for k, error in zip(rows, row_errors):
        if error is not None and errors[k] is None:
            errors[k] = error


def ok_rows(errors: list) -> np.ndarray:
    """The rows without an error."""
    return np.array([e is None for e in errors], dtype=bool)


def linalg_rows(fn, shape: tuple, m: np.ndarray, ok: np.ndarray, *rest):
    """``fn(m, *rest)`` on a stack of matrices m (S, n, n), the matrices of
    rows not ``ok`` replaced by the identity first, and the message of each
    row that raised.  LAPACK runs once per matrix, so a row's result does
    not depend on the stack; when the stacked call raises LinAlgError, each
    row is called alone and those that raise get NaN (of ``shape``) and
    their message.  A complex result stays complex."""
    if not ok.all():
        m = np.where(ok[:, None, None], m, np.eye(m.shape[-1]))
    try:
        return fn(m, *rest), {}
    except np.linalg.LinAlgError:
        pass
    out, failed = [], {}
    for k in range(len(m)):
        try:
            out.append(fn(m[k], *(x[k] for x in rest)))
        except np.linalg.LinAlgError as exc:
            out.append(np.full(shape, np.nan))
            failed[k] = str(exc)
    return np.array(out), failed


def linalg_subset(fn, shape: tuple, m: np.ndarray, rows: np.ndarray):
    """:func:`linalg_rows` of the matrices m[rows] alone (``rows`` an index
    array): their results, in the order of ``rows``, and the message of
    each that raised, keyed by its row of m.  No call when ``rows`` is
    empty."""
    if not rows.size:
        return np.empty((0, *shape)), {}
    out, failed = linalg_rows(fn, shape, m[rows], np.ones(len(rows), dtype=bool))
    return out, {int(rows[k]): message for k, message in failed.items()}


def checked(result):
    """The outcome of a one-row call: ``result``, unless it is the row's
    error, which is raised."""
    if isinstance(result, LinkageError):
        raise result
    return result
