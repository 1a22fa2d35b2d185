"""Exception hierarchy shared across the linkage pipeline.

The command line maps these onto exit codes: input and domain problems exit
with 2, degenerate observing geometry with 3, numerical failures with 4.
"""

from __future__ import annotations


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
