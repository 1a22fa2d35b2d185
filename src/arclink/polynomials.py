"""Dense polynomial routines for the linkage systems.

Univariate and bivariate polynomials are trimmed coefficient containers with
no arithmetic: the linkers build their fixed-shape polynomials on plain
coefficient arrays and hand the result over in a container.  Around them sit
the closed-form resultant against a polynomial quadratic in the second
variable, the same resultant of mu^2 r^2 - n b^2 built from its factors
with the square of the linear r divided out (the one the optical solver
uses), the Sylvester matrix with a resultant computed by
FFT evaluation-interpolation of its determinant (the general reference),
the eigenvalues of the balanced companion matrix (the optical solver's
starts come from them), an Ehrlich-Aberth refinement of those eigenvalues
(the general reference root finder), the positive-real filter, and an
elementwise Newton polish.  Sizes here are tiny (degrees <= ~30), so
everything is dense and direct.

The resultants and the root finders work on stacks of polynomials, one per
row (:func:`quadratic_resultants`, :func:`factored_resultants`,
:func:`companion_root_rows`, :func:`aberth_root_rows`), with no arithmetic
across rows: a row's result is the same alone or in a stack.  The
resultants fix the order of every sum in their code, with one product by
c(x) (:func:`_times_c`) and one Clenshaw recurrence (:func:`_clenshaw`),
so this holds in any working precision (``_WORKING``, long double).
:func:`quadratic_resultant` and :func:`aberth_roots` are one-row cases.
Both linkers build their stacked polynomials with the same two row helpers:
:func:`product_sums` sums outer products of coefficient arrays into
coefficients by one fixed-order gather plan per shape, and :func:`powers`
tabulates x^0 .. x^(n-1) for evaluation.  :func:`real_positive_root_rows`
filters, sorts and merges roots, and ``DEDUP_REL`` says when two real
values are one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    ConditioningError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ZeroResultantError,
    checked,
    linalg_rows,
)

_TRIM_REL = 1e-13  # relative floor for trailing-coefficient trimming
_ABERTH_TOL = 1e-13  # relative step at which an Aberth iterate has converged
_ABERTH_SWEEPS = 200
#: relative separation below which two real roots, or two candidate
#: ranges of one pair, are one.
DEDUP_REL = 1e-9
_POLISH_STEPS = 3
_POLISH_REL = 1e-8  # a polished root's next step, relative to max(1, |x|)
_DOUBLE_MAX = np.finfo(float).max
#: the working precision of the resultant kernels: their terms cancel
_WORKING = np.longdouble


def _trim_trailing(c: np.ndarray) -> np.ndarray:
    """The one-row case of :func:`trimmed_lengths`, applied: the kept
    coefficients of ``c``, or [0.0] for a zero or empty array.  A NaN or
    infinity raises :class:`NumericalError`."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if not np.isfinite(c).all():
        raise NumericalError("non-finite polynomial coefficients")
    if not c.any():
        return np.zeros(1)
    return c[: trimmed_lengths(c[None])[0]].copy()


def trimmed_lengths(c: np.ndarray) -> np.ndarray:
    """For each row of ``c`` (B, n), the number of coefficients that
    :class:`UnivariatePoly`, its one user, keeps: up to the last one above
    1e-13 of the row's largest magnitude, and 1 for a zero row.  The rule is
    for finite rows; a row with a NaN or infinity gets 1, and
    ``UnivariatePoly`` rejects it.  The optical solver trims nothing."""
    mag = np.abs(c)
    keep = mag > _TRIM_REL * np.max(mag, axis=1, keepdims=True)
    return np.where(keep.any(axis=1), c.shape[1] - np.argmax(keep[:, ::-1], axis=1), 1)


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


def powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^0 .. x^(n-1) along a new last axis, by repeated products."""
    out = np.empty(x.shape + (n,), dtype=x.dtype)
    out[..., 0] = 1.0
    out[..., 1:] = x[..., None]
    return np.cumprod(out, axis=-1, out=out)


@lru_cache(maxsize=None)
def _sum_plan(strides: tuple, *shapes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The gather order and segment starts of :func:`product_sums`."""
    target = np.concatenate([sum(i * s for i, s in zip(np.indices(shape), strides)).ravel()
                             for shape in shapes])
    order = np.argsort(target, kind="stable")
    return order, np.searchsorted(target[order], np.arange(target.max() + 1))


def product_sums(strides: tuple[int, ...], *outers: np.ndarray) -> np.ndarray:
    """The coefficients (B, m) of a sum of products of polynomials, from the
    outer products of their coefficient arrays, each (B, n1, n2, ...):
    entry (i1, i2, ...) of an outer product adds to coefficient
    i1 s1 + i2 s2 + ... with ``strides`` (s1, s2, ...), and every coefficient
    up to the largest must get a term.  Each coefficient is summed in one fixed
    order (the outer products in turn, each in C order), the same for every
    row, so a row's result does not depend on the others."""
    order, starts = _sum_plan(strides, *[o.shape[1:] for o in outers])
    flat = (outers[0].reshape(len(outers[0]), -1) if len(outers) == 1 else
            np.concatenate([o.reshape(len(o), -1) for o in outers], axis=1))
    return np.add.reduceat(flat[:, order], starts, axis=1)


def y_degrees(p: np.ndarray) -> np.ndarray:
    """The degree in the second variable of each row's p (B, nx, ny), as
    a (B, 1) column (ny - 1 for a zero row)."""
    ny = p.shape[2]
    return ny - 1 - np.argmax(np.any(p != 0.0, axis=1)[:, ::-1], axis=1)[:, None]


def _falling_powers(a: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """a^(m-k) for k < n (B, n), zero where k > m, from each row's a (B,)
    and degree m (B, 1): the products of :func:`powers`, 1 a a ..., taken
    from k = m down."""
    k = np.arange(n)
    return np.where(k <= m, np.cumprod(np.where(k < m, a[:, None], 1.0)[:, ::-1], axis=1)[:, ::-1],
                    0.0)


def _times_c(s: np.ndarray, c: tuple) -> np.ndarray:
    """The product by c = c0 + c1 x + c2 x^2 of each row of a stack ``s``
    (..., n, B) of x-coefficients, rows last, truncated to n coefficients:
    s c0, plus the shift of s times c1, plus its double shift times c2,
    added in that order."""
    out = s * c[0]
    out[..., 1:, :] += s[..., :-1, :] * c[1]
    out[..., 2:, :] += s[..., :-2, :] * c[2]
    return out


def _clenshaw(s: np.ndarray, a: np.ndarray, b: np.ndarray, c: tuple) -> np.ndarray:
    """1/2 sum_d t_d s_d for the stack ``s`` (K, n, B) of x-coefficients,
    rows last, with t_d = a^d (y1^d + y2^d) for the roots y1, y2 of
    q = a y^2 + b y + c(x) (t_0 = 2, t_1 = -b, t_d = -b t_(d-1) - a c
    t_(d-2)), by Clenshaw's recurrence: b_d = s_d - b b_(d+1) - a c b_(d+2)
    from b_(K-1) = s_(K-1) down to d = 1, then s_0 - b b_1 - 2 a c b_2.
    The terms in b_K = b_(K+1) = 0 are left out."""
    b1, b2 = s[-1], None
    for d in range(len(s) - 2, -1, -1):
        bd = s[d] - b * b1
        if b2 is not None:
            bd -= (2.0 * a if d == 0 else a) * _times_c(b2, c)
        b1, b2 = bd, b1
    return b1


def _quadratic(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """a, b and (c0, c1, c2), each (B,), of each row of q (B, 3, 3) =
    a y^2 + b y + c(x), in the working precision."""
    q = q.astype(_WORKING)
    return q[:, 0, 2], q[:, 0, 1], tuple(q[:, i, 0] for i in range(3))


def quadratic_resultants(p: np.ndarray, q: np.ndarray, degree: int
                         ) -> tuple[np.ndarray, list[NumericalError | None]]:
    """Res_y(p, q) of each row of a stack: ``p`` (B, nx, ny) and ``q``
    (B, 3, 3) coefficient arrays (x-major, as ``BivariatePoly.coeffs``),
    each q of the form a y^2 + b y + c(x) with a and b constant, each p of
    total degree at most ``degree`` (>= nx - 1).

    With m the y-degree of a row's p and t_d = a^d (y1^d + y2^d) for the
    roots y1, y2 of q (t_0 = 2, t_1 = -b, t_d = -b t_(d-1) - a c t_(d-2)),

        Res = a^m p(x, y1) p(x, y2) = 1/2 sum_d t_d S_d,
        S_d = sum_j c^j a^(m-j-d) p_j p_(j+d),

    which never divides by a.  Each S_d is summed by Horner in c: step j,
    from ny - 1 down, sets each S_d, d < ny - j, to the product of p_j and
    p_(j+d) a^(m-j-d) plus c S_d.  A loop over p_j's x-powers, from zero
    up, adds that product, so each of its coefficients sums its terms from
    p_(j+d)'s highest x-power down.  The sum over d is Clenshaw's
    recurrence on t_d (:func:`_clenshaw`), and every product by c is a
    shift-and-add (:func:`_times_c`).  All of it runs in the working
    precision ``_WORKING``, as terms cancel, with the rows last, (ny,
    2 degree + 1, B), and elementwise across rows: a row's result does not
    depend on the others, whatever the dtype.

    Returns the (B, 2 degree + 1) coefficients, ascending, and per row
    ``None`` or the error that makes the row unusable.
    """
    rows, nx, ny = p.shape
    finite = np.isfinite(p).all(axis=(1, 2)) & np.isfinite(q).all(axis=(1, 2))
    a, b, c = _quadratic(np.where(finite[:, None, None], q, 0.0))
    # pc[j, i] is the x^i coefficient of p_j, and pa[k, l] that of
    # p_k a^(m-k), with m the y-degree of the row's p
    pc = np.where(finite, p.T, 0.0).astype(_WORKING)
    pa = pc * _falling_powers(a, y_degrees(p), ny).T[:, None]
    S = np.zeros((ny, 2 * degree + 1, rows), dtype=_WORKING)
    for j in range(ny - 1, -1, -1):
        # S_d, d < ny - j, has degree at most w - 1 - d by now, and the
        # p_k of k >= j have x-degree at most h - 1
        n, h, w = ny - j, min(degree - j + 1, nx), 2 * (degree - j) + 1
        times_c = _times_c(S[:n, :w], c)
        S[:n, :w] = 0.0
        block = pa[j:, :h]
        for i, p_ji in enumerate(pc[j, :h]):
            S[:n, i : i + h] += block * p_ji
        S[:n, :w] += times_c
        del times_c  # before the next step makes its own
    res = _clenshaw(S, a, b, c).T
    return res, _resultant_errors(finite, res)


def _resultant_errors(finite: np.ndarray, res: np.ndarray) -> list[NumericalError | None]:
    """Per row of the resultants ``res``: a NumericalError for a row whose
    inputs are not ``finite``, or whose coefficients leave double range,
    else None."""
    fits = finite & np.all(np.abs(res) <= _DOUBLE_MAX, axis=1)
    return [None if ok else NumericalError(
        "non-finite coefficients in p or q" if not fin else
        "resultant coefficients overflow double precision")
        for ok, fin in zip(fits.tolist(), finite.tolist())]


def _linear_quotients(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The quotient u (B, n) of each row of t (B, n) by r = r0 + r1 x
    (B, 2), dropping the remainder: exact for a t that vanishes at
    x0 = -r0/r1.  A row with r1 = 0 has no root and is divided by r0 (by 1
    where r0 = 0 too), so its u keeps t's degree; the others get
    u_(n-1) = 0.

    Composite deflation (Peters & Wilkinson, *Practical problems arising
    in the solution of polynomial equations*, J. Inst. Maths Applics 8,
    1971): coefficient j comes top-down, u_j = sum_(i>j) t_i x0^(i-j-1) /
    r1, whose roundoff goes with sum_(i>j) |t_i x0^i|, or bottom-up,
    u_j = sum_(i<=j) t_i y0^(j-i) / r0 with y0 = 1/x0, whose roundoff goes
    with sum_(i<=j) |t_i x0^i|, whichever is the smaller.  One loop over
    i, from zero up, adds t_i times a window of a zero-padded table of the
    powers of x0 (reversed) and y0 to both sums."""
    n = t.shape[1]
    t, r = t.T, r.T  # rows last
    inv = 1.0 / np.where(r != 0.0, r, 1.0)[::-1]  # 1/r1, 1/r0
    # power[0, k] = x0^k / r1 and power[1, k] = y0^k / r0 (k < n)
    power = np.empty((2, n, t.shape[1]), dtype=t.dtype)
    power[:, 0] = inv
    power[:, 1:] = (-r * inv)[:, None]
    np.cumprod(power, axis=1, out=power)
    size = np.cumsum(np.abs(t * power[0]), axis=0)
    top_down = (r[1] != 0.0) & (size[-1] - size <= size)
    # table[0, n - i + j] = x0^(i-j-1) / r1 where j < i, and
    # table[1, n - i + j] = y0^(j-i) / r0 where j >= i, zero otherwise
    table = np.zeros((2, 2 * n, t.shape[1]), dtype=t.dtype)
    table[0, :n] = power[0, ::-1]
    table[1, n:] = power[1]
    u = np.zeros((2, n, t.shape[1]), dtype=t.dtype)
    for i, t_i in enumerate(t):
        u += t_i * table[:, n - i : 2 * n - i]
    return np.where(top_down, u[0], u[1]).T


def factored_resultants(r: np.ndarray, n: np.ndarray, b: np.ndarray, q: np.ndarray,
                        mu: float) -> tuple[np.ndarray, list[NumericalError | None]]:
    """Res_y(mu^2 r^2 - n b^2, q) / r^2 of each row of a stack, from the
    factors: ``r`` (B, 2) and ``n`` (B, 3), polynomials in x alone, ``b``
    (B, 5, 5) of total degree at most 4 and ``q`` (B, 3, 3) as in
    :func:`quadratic_resultants`, for factors whose T2 = Res_y(b, q)
    vanishes at the root x0 = -r0/r1 of r.

    With m the y-degree of a row's b (0 for b = 0), T2 by
    :func:`quadratic_resultants` and T1 = a^m (b(x, y1) + b(x, y2)), the
    product a^(2m) (f - n b(x, y1)^2) (f - n b(x, y2)^2), f = mu^2 r^2, is

        Res = (a^m f + n T2)^2 - f n T1^2 = r^2 R,
        R = (a^m mu^2 r + n T2')^2 - mu^2 n T1^2,   T2 = r T2',

    which never divides by a.  The optical system has such factors: r1.v
    vanishes at x0, there the Lenz projection reduces to b, and b(x0, .)
    shares a root with q(x0, .).  So Res carries the double root x0 exactly,
    and R, of degree 18, is Res without it.  T2' is T2 (degree 8) deflated
    by r (:func:`_linear_quotients`); Res itself is not divided, as the
    cancellation between its terms would go into the quotient.  A row with
    r1 = 0 has no x0, and R is Res over the constant r0^2, of degree 20; a
    row with r = 0 has p = -n b^2 and R = Res.  T1 = sum_k t_k b_k a^(m-k)
    (t_k as in :func:`quadratic_resultants`) is the Clenshaw sum of
    :func:`_clenshaw` on (2 b_0 a^m, b_1 a^(m-1), ...), with the same
    product by c as T2's; then a^m mu^2 r + n T2', T1^2 and R are one
    :func:`product_sums` call each.  All of it runs in the working
    precision ``_WORKING``: the two terms of R cancel.  Every operation is
    elementwise across rows, so a row's result does not depend on the
    others.

    Returns the (B, 21) coefficients of R in the working precision,
    ascending (those of degree 19 and 20 zero for a row with x0), and per
    row ``None`` or the error that makes the row unusable: factors without
    double coefficients of p (a NaN or infinity in a factor, or a term of
    f or of n b^2 beyond double range), or a resultant outside double
    range."""
    rows = len(q)
    with np.errstate(over="ignore", invalid="ignore"):
        # p has double coefficients when r and q are finite and the largest
        # terms mu^2 r_i r_j of f and n_i b_j b_k of n b^2 are (a NaN or
        # infinity in n or b fails the latter)
        finite = (np.isfinite(np.concatenate([r, q.reshape(rows, -1)], axis=1)).all(axis=1)
                  & ((mu * np.abs(r).max(axis=1)) ** 2 <= _DOUBLE_MAX)
                  & (np.abs(n).max(axis=1) * np.abs(b).max(axis=(1, 2)) ** 2 <= _DOUBLE_MAX))
        if not finite.all():  # a failing row runs on zeros, which warn of nothing
            r, n, b, q = (np.where(finite.reshape((rows,) + (1,) * (x.ndim - 1)), x, 0.0)
                          for x in (r, n, b, q))
        T2, _ = quadratic_resultants(b, q, 4)
        a, bq, c = _quadratic(q)
        m = (np.any(b != 0.0, axis=1) * np.arange(5)).max(axis=1)[:, None]
        a_m = _falling_powers(a, m, 5)  # a^(m-k), (B, 5)
        # b_k a^(m-k), rows last (k, x, B), with b_0 a^m doubled for t_0 = 2
        b_a = b.T * a_m.T[:, None]
        b_a[0] *= 2.0
        T1 = _clenshaw(b_a, a, bq, c).T
        # mu^2, and 0 where r = 0 throughout: there f = 0, divided by 1
        mu2 = (mu * mu) * r.any(axis=1)[:, None, None]
        r, n = r.astype(_WORKING), n.astype(_WORKING)
        s = product_sums((1, 1), n[:, :, None] * _linear_quotients(T2, r)[:, None],
                         (mu * mu) * a_m[:, :1] * r)
        T1_sq = product_sums((1, 1), T1[:, :, None] * T1[:, None])
        res = product_sums((1, 1), s[:, :, None] * s[:, None],
                           -mu2 * n[:, :, None] * T1_sq[:, None])
        return res, _resultant_errors(finite, res)


def quadratic_resultant(p: BivariatePoly, q: BivariatePoly) -> UnivariatePoly:
    """Res_y(p, q) = a^m p(x, y1) p(x, y2) for q = a y^2 + b y + c(x), a and b
    constant: the one-row case of :func:`quadratic_resultants`."""
    if q.degree_y > 2 or np.any(q.coeffs[1:, 1:] != 0.0):
        raise DomainError("q must be a y^2 + b y + c(x) with constant a and b")
    qc = np.zeros((1, 3, 3))
    qc[0, : q.coeffs.shape[0], : q.coeffs.shape[1]] = q.coeffs
    res, errors = quadratic_resultants(p.coeffs[None], qc, p.total_degree)
    checked(*errors)
    return UnivariatePoly(res[0])


def _aberth_sweeps(c: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ehrlich-Aberth on a stack of same-degree polynomials: ``c`` (G, n+1)
    ascending, ``z`` (G, n) starts.  A root stops at its own convergence;
    a polynomial leaves the sweeps when all its roots have.  Returns the
    iterates and the converged mask."""
    n = z.shape[1]
    # c, |c| and c' on one canvas, evaluated by one Horner at (z, |z|, z)
    coeffs = np.zeros((3,) + c.shape)
    coeffs[0], coeffs[1] = c, np.abs(c)
    coeffs[2, :, :-1] = c[:, 1:] * np.arange(1, n + 1)
    diag = np.arange(n)
    done = np.zeros(z.shape, dtype=bool)
    going = np.arange(len(z))
    for _ in range(_ABERTH_SWEEPS):
        zg, cg = z[going], coeffs[:, going]
        at = np.array([zg, np.abs(zg), zg])
        out = cg[:, :, -1, None] + at * 0
        for k in range(n - 1, -1, -1):
            out = cg[:, :, k, None] + out * at
        P, dP = out[0], out[2]
        # Running evaluation-error bound: converged when |P| hits the
        # roundoff floor even if the correction stalls (multiple roots).
        floor = 4e-15 * out[1].real
        dP = np.where(dP == 0.0, 1e-300, dP)
        newton = P / dP
        diff = zg[:, :, None] - zg[:, None, :]
        diff[:, diag, diag] = np.inf
        corr = newton / (1.0 - newton * np.sum(1.0 / diff, axis=2))
        step_ok = np.abs(corr) <= _ABERTH_TOL * (1.0 + np.abs(zg))
        dg = done[going] | step_ok | (np.abs(P) <= floor)
        z[going] = np.where(dg, zg, zg - corr)
        done[going] = dg
        going = going[~dg.all(axis=1)]
        if not going.size:
            break
    return z, done


def _companion_groups(c: np.ndarray, lengths: np.ndarray):
    """The rows of ``c`` (B, m), each with its first ``lengths`` (B,)
    coefficients kept (ascending), by degree n once their exact zero roots
    are deflated: for each n >= 1, the rows (G,), their numbers of exact
    zero roots (G,), their deflated coefficients (G, n + 1) scaled by a
    power of two, the eigenvalues (G, n) of their balanced companion
    matrices from one stacked call, and the message of each row, by index
    in the group, that the eigenvalue solver failed on (see
    :func:`~arclink.errors.linalg_rows`).  A companion has the first-row
    form of ``numpy.roots``: -g[n-1]/g[n] ... -g[0]/g[n] across row 0 and
    ones on the subdiagonal.  LAPACK solves it faster than the last-column
    form, and its eigenvalues are as backward stable (Edelman & Murakami
    1995)."""
    nonzero = c != 0.0
    zeros = np.argmax(nonzero, axis=1) * nonzero.any(axis=1)
    degree = lengths - zeros - 1
    for n in np.unique(degree[degree > 0]).tolist():
        rows = np.nonzero(degree == n)[0]
        g = c[rows[:, None], zeros[rows, None] + np.arange(n + 1)]
        # A power-of-two scale is exact and keeps the evaluations below overflow.
        g = np.ldexp(g, -np.frexp(np.max(np.abs(g), axis=1, keepdims=True))[1])
        companion = np.zeros((len(rows), n, n))
        companion[:, 0] = -g[:, -2::-1] / g[:, -1:]
        companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        z, failed = linalg_rows(np.linalg.eigvals, (n,), companion,
                                np.ones(len(rows), dtype=bool))
        yield rows, zeros[rows], g, z.astype(complex), failed


def _eigenvalue_error(message: str) -> ConvergenceError:
    return ConvergenceError(f"companion eigenvalues failed: {message}")


def companion_root_rows(c: np.ndarray, lengths: np.ndarray
                        ) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """All complex roots of each row of ``c`` (B, m), with its first
    ``lengths`` (B,) coefficients kept (ascending, finite): its exact zero
    roots, then the eigenvalues of its balanced first-row companion matrix
    (see :func:`_companion_groups`).  Rows of one degree share one stacked
    eigenvalue call, which works matrix by matrix, so a row's roots are the
    same alone or in a stack.

    Returns the roots (B, m - 1), row k's in its first lengths[k] - 1
    slots in no specified order, and per row None or the
    :class:`ConvergenceError` of an eigenvalue solver that failed on it."""
    roots = np.zeros((len(c), c.shape[1] - 1), dtype=complex)
    errors: list = [None] * len(c)
    for rows, zeros, _, z, failed in _companion_groups(c, lengths):
        roots[rows[:, None], zeros[:, None] + np.arange(z.shape[1])] = z
        for g, message in failed.items():
            errors[rows[g]] = _eigenvalue_error(message)
    return roots, errors


def aberth_root_rows(polys: list[np.ndarray]) -> list[np.ndarray | ConvergenceError]:
    """All complex roots of each polynomial (trimmed ascending coefficient
    arrays): those of :func:`companion_root_rows`, refined by the
    Ehrlich-Aberth simultaneous iteration.

    Polynomials of one degree share one sweep loop; each row's arithmetic
    is its own.  A row gets its roots, or a :class:`ConvergenceError`
    (carrying the partial iterates and the indices that failed) if a root
    misses the tolerance within the sweep limit or the eigenvalue solver
    fails on it.
    """
    lengths = np.array([len(p) for p in polys], dtype=int)
    c = np.zeros((len(polys), max(lengths, default=1)))
    for k, p in enumerate(polys):
        c[k, : len(p)] = p
    out: list = [np.zeros(n - 1, dtype=complex) for n in lengths.tolist()]
    for rows, zeros, g, z, failed in _companion_groups(c, lengths):
        n = z.shape[1]
        # Real iterates of a real polynomial stay real, and conjugate pairs
        # stay conjugate, which traps a near-double root: break the symmetry
        # with offsets below the tolerance.  Exact ties are split wider, as
        # the step test would take a cluster tighter than the tolerance for
        # converged.
        tied = np.triu(z[:, :, None] == z[:, None, :], 1).any(axis=1)
        z += np.where(tied, 1e-8, 1e-14) * (1.0 + np.abs(z)) \
            * np.exp(1j * np.arange(1, n + 1))
        ok = np.array([k not in failed for k in range(len(rows))])
        z[ok], done = _aberth_sweeps(g[ok], z[ok])
        converged = iter(done)
        for k, row in enumerate(rows.tolist()):
            if k in failed:
                out[row] = _eigenvalue_error(failed[k])
                continue
            good = next(converged)
            if not good.all():
                bad = np.nonzero(~good)[0]
                out[row] = ConvergenceError(
                    f"{bad.size} of {n} roots unconverged after "
                    f"{_ABERTH_SWEEPS} iterations", roots=z[k], unconverged=bad)
                continue
            out[row][zeros[k]:] = z[k]
    return out


def aberth_roots(poly: UnivariatePoly) -> np.ndarray:
    """All complex roots of ``poly``: the one-row case of
    :func:`aberth_root_rows`.

    Raises :class:`ConvergenceError` (carrying the partial iterates and the
    indices that failed) if any root misses the tolerance within the sweep
    limit, or if the eigenvalue solver fails.
    """
    return checked(*aberth_root_rows([poly.coeffs]))


def real_positive_root_rows(
    roots: np.ndarray, valid: np.ndarray, real_tol: float = 1e-6, min_value: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`real_positive_roots` of each row of ``roots`` (B, n) among
    its ``valid`` entries: the real parts sorted ascending within each row
    (B, n), which of them are kept, and the sorting order (B, n), as
    indices into the row.  Every operation is row-wise."""
    real = valid & (np.abs(roots.imag) <= real_tol * np.maximum(1.0, np.abs(roots.real)))
    real &= roots.real > min_value
    order = np.argsort(np.where(real, roots.real, np.inf), axis=1, kind="stable")
    rows = np.arange(len(roots))[:, None]
    x, keep = roots.real[rows, order], real[rows, order]
    # Merge each root into the last one kept when they are closer than
    # DEDUP_REL relative.  The real roots come first, sorted, so a row
    # without two such neighbours has nothing to merge.
    with np.errstate(invalid="ignore"):  # entries that are not kept
        tol = DEDUP_REL * np.maximum(1.0, np.abs(x))
        if (keep[:, 1:] & (np.abs(x[:, 1:] - x[:, :-1]) <= tol[:, 1:])).any():
            last = np.where(keep[:, 0], x[:, 0], np.nan)
            for j in range(1, x.shape[1]):
                keep[:, j] &= ~(np.abs(x[:, j] - last) <= tol[:, j])
                last = np.where(keep[:, j], x[:, j], last)
    return x, keep, order


def real_positive_roots(
    roots: np.ndarray, real_tol: float = 1e-6, min_value: float = 0.0
) -> np.ndarray:
    """Filter complex roots down to sorted, deduplicated positive reals.

    A root counts as real when |Im| <= real_tol * max(1, |Re|); duplicates
    closer than 1e-9 relative are merged.  The one-row case of
    :func:`real_positive_root_rows`.
    """
    roots = np.asarray(roots, dtype=complex).reshape(1, -1)
    x, keep, _ = real_positive_root_rows(roots, np.ones(roots.shape, dtype=bool),
                                         real_tol, min_value)
    return x[keep]


def newton_polish(evaluate, x0):
    """Three plain Newton steps, elementwise over an array of starts, with
    ``evaluate(x)`` returning (f(x), f'(x)).  An element stops at a zero or
    non-finite derivative or a non-finite step and keeps its last finite
    iterate.  Returns the iterates and, for each, whether it converged:
    |f| <= 1e-8 max(1, |x|) |f'| at the last iterate.  A scalar start
    returns a float and a bool."""
    x = np.array(x0, dtype=float)
    going = np.ones(x.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_STEPS):
            f, d = evaluate(x)
            going &= (d != 0.0) & np.isfinite(d)
            x_new = x - f / d
            going &= np.isfinite(x_new)
            x = np.where(going, x_new, x)
        f, d = evaluate(x)
        converged = np.abs(f) <= _POLISH_REL * np.maximum(1.0, np.abs(x)) * np.abs(d)
    return (float(x), bool(converged)) if x.ndim == 0 else (x, converged)
