"""Dense polynomial routines for the linkage systems.

Univariate and bivariate polynomials are trimmed coefficient containers with
no arithmetic: the linkers build their fixed-shape polynomials on plain
coefficient arrays and hand the result over in a container.  Around them sit
the closed-form resultant against a polynomial quadratic in the second
variable (the one the optical solver uses), the Sylvester matrix with a
resultant computed by FFT evaluation-interpolation of its determinant (the
general reference), an Ehrlich-Aberth simultaneous root finder seeded by the
eigenvalues of the companion matrix (the optical roots come from it), the
positive-real filter, and an elementwise Newton polish.  Sizes here are tiny
(degrees <= ~30), so everything is dense and direct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    ConditioningError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ZeroResultantError,
)

_TRIM_REL = 1e-13  # relative floor for trailing-coefficient trimming
_ABERTH_TOL = 1e-13  # relative step at which an Aberth iterate has converged
_ABERTH_SWEEPS = 200
_DEDUP_TOL = 1e-9  # relative separation below which two real roots are one
_POLISH_STEPS = 3


def _trim_trailing(c: np.ndarray, rel: float = _TRIM_REL) -> np.ndarray:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    top = np.max(np.abs(c)) if c.size else 0.0
    if top == 0.0:
        return np.zeros(1)
    keep = np.nonzero(np.abs(c) > rel * top)[0]
    return c[: keep[-1] + 1].copy()


@dataclass(frozen=True, eq=False)
class UnivariatePoly:
    """Polynomial in one variable, coefficients ascending by degree.

    Construction trims trailing coefficients below 1e-13 of the largest
    magnitude, so ``degree`` reflects the numerically meaningful degree.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim_trailing(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0.0

    @classmethod
    def zero(cls) -> "UnivariatePoly":
        return cls(np.zeros(1))

    def __call__(self, x):
        return npp.polyval(x, self.coeffs)

    def derivative(self) -> "UnivariatePoly":
        if self.degree == 0:
            return UnivariatePoly.zero()
        return UnivariatePoly(npp.polyder(self.coeffs))


def _trim_2d(c: np.ndarray) -> np.ndarray:
    """Drop exactly-zero trailing rows/columns, keeping structural zeros."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    rows = np.nonzero(np.any(c != 0.0, axis=1))[0]
    cols = np.nonzero(np.any(c != 0.0, axis=0))[0]
    if rows.size == 0:
        return np.zeros((1, 1))
    return c[: rows[-1] + 1, : cols[-1] + 1].copy()


@dataclass(frozen=True, eq=False)
class BivariatePoly:
    """Polynomial in (x, y): coeffs[i, j] multiplies x^i y^j."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim_2d(self.coeffs))

    @property
    def degree_x(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def degree_y(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def total_degree(self) -> int:
        idx = np.nonzero(self.coeffs)
        if idx[0].size == 0:
            return 0
        return int(np.max(idx[0] + idx[1]))

    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x), np.asarray(y))
        return npp.polyval2d(x, y, self.coeffs)


def coeffs_in_second_var(p: BivariatePoly) -> list[UnivariatePoly]:
    """Rewrite p(x, y) = sum_j a_j(x) y^j and return [a_0, ..., a_m]."""
    return [UnivariatePoly(p.coeffs[:, j]) for j in range(p.coeffs.shape[1])]


def sylvester_matrix(
    p: BivariatePoly, q: BivariatePoly
) -> list[list[UnivariatePoly]]:
    """Sylvester matrix of p and q with respect to the second variable.

    With m = deg_y(p) and n = deg_y(q) the matrix is (m+n) x (m+n): the
    first n columns carry the y-coefficients of p descending down the
    column, the remaining m columns carry those of q, each column shifted
    one row below its neighbour.  Entries are polynomials in x; the
    determinant is the resultant Res(x).
    """
    a = coeffs_in_second_var(p)
    b = coeffs_in_second_var(q)
    m, n = len(a) - 1, len(b) - 1
    if m < 1 or n < 1:
        raise DomainError(
            f"resultant requires positive degrees in the eliminated variable, "
            f"got deg_y(p)={m}, deg_y(q)={n}"
        )
    size = m + n
    zero = UnivariatePoly.zero()
    S = [[zero for _ in range(size)] for _ in range(size)]
    for j in range(n):
        for k in range(m + 1):
            S[j + k][j] = a[m - k]
    for k in range(m):
        for l in range(n + 1):
            S[k + l][n + k] = b[n - l]
    return S


def evaluate_matrix(S: list[list[UnivariatePoly]], x) -> np.ndarray:
    """Evaluate a matrix of univariate polynomials at one or more points.

    The result keeps the dtype of ``x`` (promoted to at least float), so
    extended-precision nodes yield extended-precision entries."""
    x = np.asarray(x)
    size = len(S)
    out = np.zeros(x.shape + (size, size), dtype=np.result_type(x.dtype, float))
    for i in range(size):
        for j in range(size):
            out[..., i, j] = S[i][j](x)
    return out


def _lu_dets(A: np.ndarray) -> np.ndarray:
    """Determinants of a stack of small matrices by LU with partial pivoting.

    ``A`` must already be clongdouble and is destroyed in place.  Extended
    precision where the platform long double provides it (x86-64: 80-bit,
    ~3 extra digits) keeps interpolation noise well below the structural
    coefficient thresholds even for badly scaled matrices.
    """
    batch, n = A.shape[0], A.shape[1]
    det = np.ones(batch, dtype=np.clongdouble)
    rows = np.arange(batch)
    for k in range(n):
        piv = np.argmax(np.abs(A[:, k:, k]), axis=1) + k
        flip = piv != k
        det[flip] = -det[flip]
        A[rows, k], A[rows, piv] = A[rows, piv].copy(), A[rows, k].copy()
        pivot = A[:, k, k]
        det *= pivot
        if k + 1 < n:
            safe = np.where(pivot == 0.0, 1.0, pivot)
            factors = np.where(
                pivot[:, None] == 0.0, 0.0, A[:, k + 1 :, k] / safe[:, None]
            )
            A[:, k + 1 :, k + 1 :] -= factors[:, :, None] * A[:, k, None, k + 1 :]
    return det


def _interpolate_determinant(S, n_points: int, radius: float):
    nodes = (radius * np.exp(2j * math.pi * np.arange(n_points) / n_points)
             ).astype(np.clongdouble)
    A = evaluate_matrix(S, nodes)
    # Equilibrate columns, then rows, by their max magnitudes.  Sylvester
    # blocks of steeply graded polynomials have determinants many orders
    # below the raw Hadamard bound for scaling reasons alone; the zero
    # screen only discriminates against the bound of the scaled matrix.
    colscale = np.max(np.abs(A), axis=1, keepdims=True)
    colscale[colscale == 0.0] = 1.0
    A = A / colscale
    rowscale = np.max(np.abs(A), axis=2, keepdims=True)
    rowscale[rowscale == 0.0] = 1.0
    A = A / rowscale
    hadamard = np.prod(np.linalg.norm(A, axis=2), axis=1)
    dets = _lu_dets(A)
    # A determinant sitting below the roundoff floor of the equilibrated
    # Hadamard bound at every node is numerically the zero polynomial.
    if np.all(np.abs(dets) <= 64.0 * np.finfo(float).eps * hadamard):
        raise ZeroResultantError("determinant vanishes at every interpolation node")
    dets = dets * (np.prod(colscale, axis=2) * np.prod(rowscale, axis=1)).ravel()
    # Evaluation at exp(+2 pi i jk/N) nodes is undone by a forward FFT / N.
    scaled = np.fft.fft(dets.astype(complex)) / n_points
    return scaled / radius ** np.arange(n_points)


def fft_evaluation_interpolation(
    S: list[list[UnivariatePoly]],
    n_points: int = 32,
    degree_bound: int | None = None,
) -> UnivariatePoly:
    """Determinant of a polynomial matrix by evaluation-interpolation.

    The matrix entries are evaluated at ``n_points`` scaled roots of unity,
    the determinant is taken pointwise (complex LU with partial pivoting),
    and an inverse transform recovers the determinant's coefficients.

    Parameters
    ----------
    S : matrix of UnivariatePoly
    n_points : int
        Power of two strictly greater than the determinant's degree.
    degree_bound : int, optional
        Structural bound on the determinant degree.  Recovered coefficients
        above the bound must sit below 1e-9 of the largest and are zeroed;
        otherwise the interpolation is declared ill-conditioned.

    Raises
    ------
    ZeroResultantError
        If the determinant vanishes identically.
    ConditioningError
        If imaginary residue or out-of-bound coefficients stay above
        threshold even after an automatic radius rescale.
    """
    if n_points < 2 or (n_points & (n_points - 1)) != 0:
        raise DomainError(f"n_points must be a power of two >= 2, got {n_points}")
    if degree_bound is not None and degree_bound >= n_points:
        raise DomainError(
            f"n_points={n_points} must exceed the degree bound {degree_bound}"
        )

    def attempt(radius):
        c = _interpolate_determinant(S, n_points, radius)
        top = np.max(np.abs(c.real))
        if top == 0.0:
            raise ZeroResultantError("interpolated determinant is identically zero")
        if np.max(np.abs(c.imag)) > 1e-9 * top:
            raise ConditioningError(
                f"imaginary residue {np.max(np.abs(c.imag)):.3e} above "
                f"1e-9 * {top:.3e} at radius {radius}"
            )
        c = c.real.copy()
        if degree_bound is not None:
            tail = np.abs(c[degree_bound + 1 :])
            if tail.size and np.max(tail) > 1e-9 * top:
                raise ConditioningError(
                    f"coefficient above the degree bound {degree_bound}: "
                    f"{np.max(tail):.3e} vs max {top:.3e}"
                )
            c = c[: degree_bound + 1]
        return UnivariatePoly(c)

    try:
        return attempt(1.0)
    except ConditioningError:
        # Rescale nodes to the geometric-mean root magnitude and retry once.
        probe = np.abs(_interpolate_determinant(S, n_points, 1.0))
        sig = np.nonzero(probe > _TRIM_REL * probe.max())[0]
        lo, hi = sig[0], sig[-1]
        if hi == lo:
            raise
        radius = max(1.0, float((probe[lo] / probe[hi]) ** (1.0 / (hi - lo))))
        radius = min(radius, 1e3)
        if abs(radius - 1.0) < 0.25:
            # Retrying at (nearly) the same nodes cannot help; move off the
            # unit circle instead.
            radius = 2.0
        return attempt(radius)


def sylvester_resultant(
    p: BivariatePoly,
    q: BivariatePoly,
    n_points: int = 32,
    degree_bound: int | None = None,
) -> UnivariatePoly:
    """Resultant of p and q with respect to the second variable."""
    if degree_bound is None:
        degree_bound = p.total_degree * q.total_degree
        if degree_bound >= n_points:
            degree_bound = None
    return fft_evaluation_interpolation(
        sylvester_matrix(p, q), n_points, degree_bound
    )


def quadratic_resultant(p: BivariatePoly, q: BivariatePoly) -> UnivariatePoly:
    """Res_y(p, q) = a^m p(x, y1) p(x, y2) for q = a y^2 + b y + c(x), a and b
    constant: 1/2 sum_jk p_j p_k c^min(j,k) a^(m-max(j,k)) t_|j-k|, where
    t_n = a^n (y1^n + y2^n) = -b t_(n-1) - a c t_(n-2).  Never divides by a,
    unlike the pseudo-remainder form; summed in long double, as terms cancel."""
    if q.degree_y > 2 or np.any(q.coeffs[1:, 1:] != 0.0):
        raise DomainError("q must be a y^2 + b y + c(x) with constant a and b")
    if not (np.isfinite(p.coeffs).all() and np.isfinite(q.coeffs).all()):
        raise NumericalError("non-finite coefficients in p or q")
    qc, pc = q.coeffs.astype(np.longdouble), p.coeffs.astype(np.longdouble)
    (b, a), c, m = np.append(qc[0, 1:], [0.0, 0.0])[:2], qc[:, 0], p.degree_y
    t = [np.array([2.0]), np.array([-b])]
    for _ in range(m - 1):
        t.append(npp.polysub(-b * t[-1], a * np.convolve(c, t[-2])))
    res = np.zeros(2 * len(pc) - 1 + m * (len(c) - 1), dtype=np.longdouble)
    for j in range(m + 1):
        cj = npp.polypow(c, j)
        for k in range(j, m + 1):
            term = np.convolve(np.convolve(pc[:, j], pc[:, k]), np.convolve(cj, t[k - j]))
            res[: len(term)] += (0.5 if j == k else 1.0) * a ** (m - k) * term
    if not np.all(np.abs(res) <= np.finfo(float).max):
        raise NumericalError("resultant coefficients overflow double precision")
    return UnivariatePoly(res)


def aberth_roots(poly: UnivariatePoly) -> np.ndarray:
    """All complex roots by the Ehrlich-Aberth simultaneous iteration,
    started from the eigenvalues of the (balanced) companion matrix.

    Raises :class:`ConvergenceError` (carrying the partial iterates and the
    indices that failed) if any root misses the tolerance within the sweep
    limit, or if the eigenvalue solver fails.
    """
    c = poly.coeffs.astype(float)
    if poly.degree == 0:
        return np.empty(0, dtype=complex)
    # Exact zero roots deflate immediately.
    n_zero = 0
    while c[0] == 0.0 and len(c) > 1:
        c = c[1:]
        n_zero += 1
    n = len(c) - 1
    if n == 0:
        return np.zeros(n_zero, dtype=complex)
    # A power-of-two scale is exact and keeps the evaluations below overflow.
    c = np.ldexp(c, -np.frexp(np.max(np.abs(c)))[1])
    dc = npp.polyder(c)
    try:
        z = np.linalg.eigvals(npp.polycompanion(c)).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"companion eigenvalues failed: {exc}") from exc
    # Real iterates of a real polynomial stay real, and conjugate pairs stay
    # conjugate, which traps a near-double root: break the symmetry with
    # offsets below the tolerance.  Exact ties are split wider, as the step
    # test would take a cluster tighter than the tolerance for converged.
    tied = np.triu(z[:, None] == z[None, :], 1).any(axis=0)
    z += np.where(tied, 1e-8, 1e-14) * (1.0 + np.abs(z)) * np.exp(1j * np.arange(1, n + 1))
    abs_c = np.abs(c)
    done = np.zeros(n, dtype=bool)
    for _ in range(_ABERTH_SWEEPS):
        P = npp.polyval(z, c)
        # Running evaluation-error bound: converged when |P| hits the
        # roundoff floor even if the correction stalls (multiple roots).
        floor = 4e-15 * npp.polyval(np.abs(z), abs_c)
        dP = npp.polyval(z, dc)
        dP = np.where(dP == 0.0, 1e-300, dP)
        newton = P / dP
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        corr = newton / (1.0 - newton * np.sum(1.0 / diff, axis=1))
        step_ok = np.abs(corr) <= _ABERTH_TOL * (1.0 + np.abs(z))
        done = done | step_ok | (np.abs(P) <= floor)
        z = np.where(done, z, z - corr)
        if done.all():
            break
    else:
        bad = np.nonzero(~done)[0]
        raise ConvergenceError(
            f"{bad.size} of {n} roots unconverged after {_ABERTH_SWEEPS} iterations",
            roots=z,
            unconverged=bad,
        )
    return np.concatenate([np.zeros(n_zero, dtype=complex), z])


def real_positive_roots(
    roots: np.ndarray, real_tol: float = 1e-6, min_value: float = 0.0
) -> np.ndarray:
    """Filter complex roots down to sorted, deduplicated positive reals.

    A root counts as real when |Im| <= real_tol * max(1, |Re|); duplicates
    closer than 1e-9 relative are merged.
    """
    roots = np.asarray(roots, dtype=complex)
    real = roots[np.abs(roots.imag) <= real_tol * np.maximum(1.0, np.abs(roots.real))]
    vals = np.sort(real.real[real.real > min_value])
    out: list[float] = []
    for v in vals:
        if out and abs(v - out[-1]) <= _DEDUP_TOL * max(1.0, abs(v)):
            continue
        out.append(float(v))
    return np.array(out)


def newton_polish(f, fprime, x0):
    """Three plain Newton steps, elementwise over an array of starts (a
    scalar start returns a float).  An element stops at a zero or non-finite
    derivative or a non-finite step and keeps its last finite iterate."""
    x = np.array(x0, dtype=float)
    going = np.ones(x.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_STEPS):
            d = fprime(x)
            going &= (d != 0.0) & np.isfinite(d)
            x_new = x - f(x) / d
            going &= np.isfinite(x_new)
            x = np.where(going, x_new, x)
    return float(x) if x.ndim == 0 else x
