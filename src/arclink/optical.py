"""Linkage of two optical attributables via the two-body first integrals.

Writing the body state at each epoch in topocentric form, conservation of
angular momentum c = r x rdot between the two epochs is linear in the two
radial velocities; eliminating them leaves a single quadratic q(rho1, rho2).
Conservation of the Laplace-Lenz vector, projected on a direction orthogonal
to both the epoch-2 line of sight and observer position, clears the square
root of mu/|r1| into a degree-10 polynomial p = mu^2 (r1.v)^2 - |r1|^2 B^2,
with r1.v and |r1|^2 in rho1 alone and B of total degree 4.  The resultant
of p and q in rho2 reduces the system to one univariate polynomial of
degree at most 20, and it carries the double root rho1 = x0 where r1.v
vanishes, at which a solution of (q, Lenz) is known in closed form.  The
solver builds that resultant with (r1.v)^2 divided out, of degree 18, from
p's factors (:func:`polynomials.factored_resultants`: the resultant of B and
q, deflated by r1.v, and the sum of B over the roots of q), and never forms
p; :func:`build_p_poly` forms it for the curves and the tests.  The
near-real roots of the degree-18 resultant, and x0, seed the ranges.

The squared system has roots of both signs of the square root, and the
resultant's roots only land near the solutions, so the solver goes back to
the unsquared system: each start is refined by Newton on q = 0 and the
unprojected Lenz residual (L1 - L2) . v_hat = 0, with the Jacobian by the
chain rule.  Each converged (rho1, rho2) is completed to full states,
screened on that residual, and packaged with orbital elements and
diagnostics; the radar linker shares that completion and packaging.

Pairs are linked in stacked blocks: :func:`link_optical_rows` takes the
coefficient records of many pairs and runs q (B, 3, 3), p's factors r1.v
(B, 2, 1), |r1|^2 (B, 3, 1) and B (B, 5, 5), the resultant (the one stage
in long double: from the double factors to the resultant's coefficients,
which the companion matrix reads as doubles), the companion eigenvalues,
the starts (x0 and the real part rho1 of each root within 0.05 of the real
axis, with each positive root rho2 of q(rho1, .)), the Newton on (q, Lenz), the
merge of its converged points and the Lenz screen as array passes over the
block.  Every stage is row-wise arithmetic (no products or sums across
rows), and the Newton steps only the rows still live, each by its own
arithmetic, so a pair's result does not depend on the block it ran in,
and :func:`link_optical` is the one-pair block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .attributables import OpticalAttributable
from .config import RunConfig
from .errors import (
    DegenerateConfigurationError,
    DomainError,
    LinkageError,
    NumericalError,
    checked,
    fail_rows,
)
from .geometry import (
    ObservationBasis,
    basis_rows,
    body_position,  # noqa: F401 (bench/tracing.py patches it)
    body_velocity,  # noqa: F401 (likewise)
    observation_basis,  # noqa: F401 (bench/tracing.py patches it)
    polar_error,
    row_cross,
    row_dot,
)
from .kepler import (
    CartesianState,
    cartesian_to_keplerian,  # noqa: F401 (bench/tracing.py patches it)
    compatibility_residuals,  # noqa: F401 (likewise)
    compatibility_rows,
    laplace_lenz,  # noqa: F401 (likewise)
    laplace_lenz_rows,
    state_element_rows,
    two_body_energy,  # noqa: F401 (likewise)
)
from .polynomials import (
    DEDUP_REL,
    BivariatePoly,
    aberth_roots,  # noqa: F401 (bench/tracing.py patches it)
    companion_root_rows,
    evaluate_matrix,  # noqa: F401 (test reference; bench/tracing.py patches it)
    factored_resultants,
    fft_evaluation_interpolation,  # noqa: F401 (likewise)
    newton_polish,  # noqa: F401 (bench/tracing.py patches it)
    product_sums,
    real_positive_root_rows,
    real_positive_roots,  # noqa: F401 (bench/tracing.py patches it)
    sylvester_matrix,  # noqa: F401 (likewise)
)
from .solutions import LinkageSolution, SolutionRows

#: ranges at or below this are treated as unphysical and dropped.
MIN_RHO = 1e-7
#: most pairs in one stacked block of a batch; the CLI splits a batch into
#: the fewest blocks of at most this many pairs, of equal length to within
#: one.  A block's largest transient is the resultant's long-double
#: products of p's factors: a traced peak of 1.20 MiB at 144 rows and
#: 2.13 MiB at 256.
BLOCK_PAIRS = 256
#: a resultant root z starts Newton when |Im z| <= this * max(1, |Re z|)
_START_WINDOW = 0.05
#: a candidate passes the screen when |(L1 - L2) . v_hat| <= this * (|L1| + |L2|)
_SCREEN_REL = 1e-6
_NEWTON_STEPS = 20  # most Newton steps of one start
_NEWTON_REL = 1e-12  # relative step at which a Newton iterate has converged
_FLOOR = 1e-14  # roundoff floor of a residual, relative to the terms it sums last

# Layout of OpticalCoefficients.row: 3-vectors, then the epoch.
_Q, _QDOT, _ERHO, _D, _E, _F, _G, _TAN = (slice(3 * k, 3 * k + 3) for k in range(8))
_TBAR = 24


@dataclass(frozen=True)
class OpticalCoefficients:
    """Per-epoch geometry of the angular-momentum linkage.

    The topocentric angular momentum is affine in the radial unknowns:
    c(rho, rhodot) = D rhodot + E rho^2 + F rho + G.
    """

    att: OpticalAttributable
    q: np.ndarray
    qdot: np.ndarray
    basis: ObservationBasis
    eta: float  # alphadot * cos(delta), the tangent-plane RA rate
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray

    @cached_property
    def row(self) -> np.ndarray:
        """The same geometry as one float vector, which a block of pairs
        stacks: q, qdot, e_rho, D, E, F, G, the tangential rate vector tan
        (rdot = qdot + rhodot e_rho + rho tan) and the epoch."""
        b = self.basis
        tan = self.eta * b.e_alpha + self.att.deltadot * b.e_delta
        return np.concatenate([self.q, self.qdot, b.e_rho, self.D, self.E, self.F,
                               self.G, tan, [self.att.tbar]])


def optical_coefficient_rows(values: np.ndarray, tbar: np.ndarray, q: np.ndarray,
                             qdot: np.ndarray, errors: list):
    """The coefficient records of N optical attributables (``values`` (N, 4)
    and epochs ``tbar`` (N,)) seen from the observer states q, qdot (N, 3):
    the rows (N, 25) of :attr:`OpticalCoefficients.row`, and their triads
    (geometry.BasisRows).  A polar declination is its row's error in
    ``errors``.  Every operation is row-wise, with the arithmetic of the
    one-row case :func:`compute_optical_coefficients`."""
    alpha, delta, alphadot, dd = values.T
    b = basis_rows(alpha, delta)
    fail_rows(errors, b.polar, lambda k: polar_error(float(delta[k])))
    eta, dd = (alphadot * b.cd)[:, None], dd[:, None]  # b.cd: cos(delta)
    # q x e_rho, q x e_alpha, q x e_delta, e_rho x qdot and q x qdot
    D, qa, qd, rq, G = row_cross(np.array([q, q, q, b.e_rho, q]),
                                 np.array([b.e_rho, b.e_alpha, b.e_delta, qdot, qdot]))
    return np.concatenate([q, qdot, b.e_rho, D, eta * b.e_delta - dd * b.e_alpha,
                           eta * qa + dd * qd + rq, G, eta * b.e_alpha + dd * b.e_delta,
                           tbar[:, None]], axis=1), b


def coefficient_rows(kernel, atts: list, q, qdot):
    """The row kernel ``kernel`` (:func:`optical_coefficient_rows` or
    ``radar.radar_coefficient_rows``) on the attributables ``atts`` seen
    from the observer states q, qdot (N, 3): its rows and triads, or the
    error of the first attributable that has one, raised."""
    errors = [None] * len(atts)
    out = kernel(np.array([att.values for att in atts]), np.array([att.tbar for att in atts]),
                 np.asarray(q, dtype=float), np.asarray(qdot, dtype=float), errors)
    for error in errors:
        checked(error)
    return out


def compute_optical_coefficients(
    att: OpticalAttributable, q: np.ndarray, qdot: np.ndarray
) -> OpticalCoefficients:
    """The one-row case of :func:`optical_coefficient_rows`."""
    (row,), b = coefficient_rows(optical_coefficient_rows, [att], [q], [qdot])
    out = OpticalCoefficients(
        att, row[_Q], row[_QDOT], ObservationBasis(att.alpha, att.delta, b.e_rho[0],
                                                    b.e_alpha[0], b.e_delta[0]),
        att.alphadot * b.cd[0], row[_D], row[_E], row[_F], row[_G])
    vars(out)["row"] = row  # its cached row, at hand already
    return out


def detect_degenerate_optical(
    c1: OpticalCoefficients, c2: OpticalCoefficients, tol: float = 1e-10
) -> list[str]:
    """Flags for configurations where the elimination breaks down.

    ``quadratic_degenerate``: both quadratic coefficients of q vanish (e.g.
    zero angular rates, or both E_i orthogonal to D1 x D2, which includes
    parallel D vectors).  ``zenith``: the epoch-2 line of sight is parallel
    to the observer position, so the Lenz projection direction vanishes.
    """
    return _degenerate_flags(_pair_rows(c1, c2), tol)[0]


#: the message of a pair not of the kinds (first kind, "optical"), by first kind
_PAIR_KINDS = {"optical": "both attributables must be optical",
               "radar": "link_radar_optical requires a radar and an optical attributable"}


def pair_check_rows(first_kind: str, kind1: np.ndarray, kind2: np.ndarray, tbar1: np.ndarray,
                    tbar2: np.ndarray, errors: list) -> None:
    """The pair checks of both linkers, on P pairs of attributables of the
    kinds kind1, kind2 and at the epochs tbar1, tbar2 (P,): a DomainError
    for each pair without an error in ``errors`` whose kinds are not
    (first_kind, "optical"), then for one whose epochs are equal."""
    fail_rows(errors, (kind1 != first_kind) | (kind2 != "optical"),
              lambda k: DomainError(_PAIR_KINDS[first_kind]))
    fail_rows(errors, tbar1 == tbar2,
              lambda k: DomainError("attributables must have distinct epochs"))


def check_pair(first_kind: str, att1, att2, obs1: CartesianState,
               obs2: CartesianState) -> None:
    """The one-row case of :func:`pair_check_rows`, raising its DomainError,
    then a DomainError unless each observer state is at its attributable's
    epoch."""
    errors = [None]
    kind1, kind2, tbar1, tbar2 = (np.array([getattr(att, key, None)])
                                  for key in ("kind", "tbar") for att in (att1, att2))
    pair_check_rows(first_kind, kind1, kind2, tbar1, tbar2, errors)
    checked(*errors)
    for att, obs in ((att1, obs1), (att2, obs2)):
        if abs(obs.epoch - att.tbar) > 1e-9 * max(1.0, abs(att.tbar)):
            raise DomainError(f"observer state epoch {obs.epoch} does not match the "
                              f"attributable epoch {att.tbar}")


def check_optical_pair(att1, att2, obs1: CartesianState,
                       obs2: CartesianState) -> None:
    """Raise :class:`DomainError` unless both attributables are optical, at
    distinct epochs, and each observer state is at its attributable's epoch."""
    check_pair("optical", att1, att2, obs1, obs2)


# ---------------------------------------------------------------------------
# stacked coefficient arrays: one row per pair, every operation row-wise


def _smul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of stacked coefficient arrays a (B, ra, ca) and b (B, rb, cb)
    on the full (B, ra + rb - 1, ca + cb - 1) canvas: each row's outer
    product, summed per coefficient in a fixed order."""
    (rows, ra, ca), (_, rb, cb) = a.shape, b.shape
    width = ca + cb - 1
    return product_sums((width, 1, width, 1), a[:, :, :, None, None] * b[:, None, None]
                        ).reshape(rows, ra + rb - 1, width)


def _index(*parts: slice) -> np.ndarray:
    """Indices into OpticalCoefficients.row of a list of its 3-vectors."""
    return np.array([np.arange(part.start, part.stop) for part in parts])


# Dot products of one epoch's vectors: q.e_rho, qdot.e_rho, q.q, qdot.q,
# qdot.qdot, qdot.tan, q.tan, tan.tan (= eta^2 + deltadot^2)
_EPOCH_LEFT = _index(_Q, _QDOT, _Q, _QDOT, _QDOT, _QDOT, _Q, _TAN)
_EPOCH_RIGHT = _index(_ERHO, _ERHO, _Q, _Q, _QDOT, _TAN, _TAN, _TAN)
# epoch 1: e_rho, q, qdot, tan; epoch 2: qdot, tan, e_rho (dotted with v)
_WITH_V = _index(_ERHO, _Q, _QDOT, _TAN), _index(_QDOT, _TAN, _ERHO)
_V_HAT = _index(_Q, _QDOT, _ERHO, _TAN)
# the (x, y) powers of the terms 1, x, x^2, y, y^2 of q and the rhodot
# quadratics, which are all their terms
_QUADRATIC = ([0, 1, 2, 0, 0], [0, 0, 0, 1, 2])
_DE = _index(_D, _E)


def _pair_rows(c1: OpticalCoefficients, c2: OpticalCoefficients) -> np.ndarray:
    """The (1, 2, n) stack of one pair's rows."""
    return np.array([[c1.row, c2.row]])


def _q_rows(g: np.ndarray) -> np.ndarray:
    """(B, 3, 3, 3): for each row of pairs g (B, 2, n), q = J . (D1 x D2)
    and the radial-velocity quadratics rd1 = J . (D2 x W) / |W|^2 and
    rd2 = J . (D1 x W) / |W|^2, with W = D1 x D2 and J the rhodot-free
    part of c2 - c1, J = E2 rho2^2 - E1 rho1^2 + F2 rho2 - F1 rho1 + G2 - G1."""
    W = row_cross(g[:, 0, _D], g[:, 1, _D])[:, None]
    u = np.concatenate([W, row_cross(g[:, ::-1, _D], W) / row_dot(W, W)[:, :, None]], axis=1)
    J = np.concatenate([g[:, 1:, _G] - g[:, :1, _G], -g[:, 0, _F][:, None],
                        -g[:, 0, _E][:, None], g[:, 1, None, _F], g[:, 1, None, _E]],
                       axis=1)
    out = np.zeros((len(g), 3, 3, 3))
    out[:, :, _QUADRATIC[0], _QUADRATIC[1]] = row_dot(u[:, :, None], J[:, None])
    return out


def _degenerate_flags(g: np.ndarray, tol: float = 1e-10) -> list[list[str]]:
    """The flags of :func:`detect_degenerate_optical` for each row of
    pairs g (B, 2, n)."""
    W = row_cross(g[:, 0, _D], g[:, 1, _D])
    de = g[:, :, _DE]
    (n_D1, n_E1), (n_D2, n_E2) = np.moveaxis(np.sqrt(row_dot(de, de)), 0, -1)
    e_w1, e_w2 = np.abs(row_dot(de[:, :, 1], W[:, None])).T
    q2, v = g[:, 1, _Q], -g[:, 1, _D]
    quadratic = (e_w1 <= tol * n_E1 * n_D1 * n_D2) & (e_w2 <= tol * n_E2 * n_D1 * n_D2)
    zenith = np.sqrt(row_dot(v, v)) <= tol * np.sqrt(row_dot(q2, q2))
    return [["quadratic_degenerate"] * quad + ["zenith"] * zen
            for quad, zen in zip(quadratic.tolist(), zenith.tolist())]


def _x_poly(*coeffs) -> np.ndarray:
    """A stack of polynomials in rho1 alone, (B, n, 1), from the rows'
    coefficients, each (B,), in ascending order."""
    return np.array(coeffs).T[:, :, None]


def _lenz_rows(g: np.ndarray, rd1: np.ndarray, rd2: np.ndarray):
    """The factors of p = mu^2 (r1.v)^2 - |r1|^2 B^2 (see :func:`build_p_poly`)
    for each row of pairs g (B, 2, n), with the radial-velocity quadratics
    rd1, rd2 (B, 3, 3): r1.v (B, 2, 1) and |r1|^2 (B, 3, 1), in rho1 alone,
    and B (B, 5, 5); the Lenz projection direction v (B, 3), and whether v
    lost its orthogonality to the epoch-2 line of sight."""
    v = -g[:, 1, _D]
    e1v, q1v, qd1v, t1v, qd2v, t2v, e2v, vv = row_dot(np.concatenate(
        [g[:, 0, _WITH_V[0]], g[:, 1, _WITH_V[1]], v[:, None]], axis=1), v[:, None]).T
    lost = np.abs(e2v) > 1e-12 * np.sqrt(vv)
    (qe1, qde1, qq1, qdq1, qdsq1, qdt1, qt1, k1), (qe2, qde2, _, qdq2, _, _, qt2, _) \
        = np.moveaxis(row_dot(g[:, :, _EPOCH_LEFT], g[:, :, _EPOCH_RIGHT]), 0, -1)
    lam1, lam2 = qde1 + qt1, qde2 + qt2
    one = np.ones(len(g))

    r1v = _x_poly(q1v, e1v)                                         # r1 . v
    rest1 = (2.0 * qde1)[:, None, None] * rd1
    rest1[:, :, 0] += np.array([qdsq1, 2.0 * qdt1, k1]).T
    # (rdot1.r1) - rd1 (x + qe1) = qdq1 + lam1 x, and
    # (rdot1.v) - rd1 e1v = qd1v + t1v x: inner = (x + qe1) rest3 + e1v rest2
    inner = np.array([qe1 * qd1v + e1v * qdq1, qd1v + qe1 * t1v + e1v * lam1, t1v]).T
    rest23 = _x_poly(qdq1 * qd1v, qdq1 * t1v + lam1 * qd1v, lam1 * t1v)
    # epoch 2: (rdot2.r2)(rdot2.v); rdot2.v has no rhodot2 term since v is
    # orthogonal to e_rho2.
    dot2 = _smul(rd2, _x_poly(qe2, one).transpose(0, 2, 1))
    dot2[:, 0, :2] += np.array([qdq2, lam2]).T
    dot23 = _smul(dot2, _x_poly(qd2v, t2v).transpose(0, 2, 1))

    # B = rd1 (K rd1 - inner) + rest1 (r1.v) - rest2 rest3 + dot23, with
    # K = q1.v - (q1.e_rho1)(e_rho1.v)
    k_rd1 = (q1v - qe1 * e1v)[:, None, None] * rd1
    k_rd1[:, :, 0] -= inner
    bracket = _smul(rd1, k_rd1)
    bracket[:, :4, :3] += _smul(rest1, r1v)
    bracket[:, :3, :1] -= rest23
    bracket[:, :3] += dot23
    return r1v, _x_poly(qq1, 2.0 * qe1, one), bracket, v, lost


def _resultant_rows(g: np.ndarray, j_polys: np.ndarray, mu: float):
    """The resultant R = Res_rho2(p, q) / (r1.v)^2 (B, 21) of each row of
    pairs g (B, 2, n), with the quadratics ``j_polys`` (B, 3, 3, 3) of
    :func:`_q_rows`, built from p's factors by
    :func:`polynomials.factored_resultants`: of degree 18 with the double
    root rho1 = x0 = -(q1.v)/(e_rho1.v) of Res divided out, and of degree
    20 where e_rho1.v = 0; x0 (B,), NaN where e_rho1.v = 0; each row's
    error or None; and whether its Lenz projection direction lost
    orthogonality.  At x0, r1 lies with r2 in the plane orthogonal to v
    (that of the epoch-2 line of sight and the Sun), so at a root rho2 of
    q(x0, .) where r2 is not parallel to r1 the common angular momentum is
    along v, both velocities are orthogonal to v and B = 0: (x0, rho2)
    solves (q, (L1 - L2) . v) = 0 exactly."""
    r1v, n1, bracket, _, lost = _lenz_rows(g, j_polys[:, 1], j_polys[:, 2])
    r = r1v[:, :, 0]
    res, errors = factored_resultants(r, n1[:, :, 0], bracket, j_polys[:, 0], mu)
    root = r[:, 1] != 0.0
    x0 = np.where(root, -r[:, 0] / np.where(root, r[:, 1], 1.0), np.nan)
    return res, x0, errors, lost


def _j_polys(c1: OpticalCoefficients, c2: OpticalCoefficients) -> np.ndarray:
    return _q_rows(_pair_rows(c1, c2))[0]


def build_q_poly(
    c1: OpticalCoefficients, c2: OpticalCoefficients
) -> BivariatePoly:
    """The quadratic q(rho1, rho2) = J . (D1 x D2), where J collects the
    rhodot-free part of c2 - c1."""
    return BivariatePoly(_j_polys(c1, c2)[0])


def radial_velocity_polys(
    c1: OpticalCoefficients, c2: OpticalCoefficients
) -> tuple[BivariatePoly, BivariatePoly]:
    """rhodot_i as quadratics of (rho1, rho2) from the angular-momentum
    equality: D1 rhodot1 - D2 rhodot2 = J, solved by crossing with D2, D1."""
    polys = _j_polys(c1, c2)
    return BivariatePoly(polys[1]), BivariatePoly(polys[2])


def radial_velocities(
    c1: OpticalCoefficients, c2: OpticalCoefficients, rho1: float, rho2: float
) -> tuple[float, float]:
    """Radial velocities completing a (rho1, rho2) pair, directly from the
    angular-momentum equality (vector form of :func:`radial_velocity_polys`)."""
    return tuple(_radial_velocity_rows(_pair_rows(c1, c2), np.array([[rho1, rho2]]))[0].tolist())


def lenz_projection_direction(c2: OpticalCoefficients) -> np.ndarray:
    """v = e_rho2 x q2 = -D2: orthogonal to r2 and to e_rho2, so the
    projected Lenz equality is free of both mu/|r2| and rhodot2."""
    return -c2.D


def _canvas(poly: BivariatePoly, shape) -> np.ndarray:
    out = np.zeros((1,) + shape)
    c = poly.coeffs[: shape[0], : shape[1]]
    out[0, : c.shape[0], : c.shape[1]] = c
    return out


def build_p_poly(
    c1: OpticalCoefficients,
    c2: OpticalCoefficients,
    rd1: BivariatePoly,
    rd2: BivariatePoly,
    mu: float,
) -> tuple[BivariatePoly, np.ndarray]:
    """The degree-10 polynomial from the projected Laplace-Lenz equality.

    Projecting mu(L1 - L2) on v = e_rho2 x q2 and clearing the mu/|r1|
    square root gives

        p = mu^2 (r1.v)^2 - |r1|^2 B^2,
        B = |rdot1|^2 (r1.v) - (rdot1.r1)(rdot1.v) + (rdot2.r2)(rdot2.v),

    with rhodot_i replaced by their quadratics in (rho1, rho2).  Terms are
    grouped so that every cancellation above total degree 10 happens
    symbolically: the rhodot1^2 rho1 (e_rho1.v) pieces of the first two
    summands of B collapse to the constant K = q1.v - (q1.e_rho1)(e_rho1.v),
    leaving B of total degree 4 by construction, hence p of degree 10 with
    exact structural zeros beyond.  The one-row case of the stacked build.
    """
    r1v, n1, bracket, v, lost = _lenz_rows(_pair_rows(c1, c2), _canvas(rd1, (3, 3)),
                                           _canvas(rd2, (3, 3)))
    p = -_smul(_smul(bracket, bracket), n1)
    p[:, :3, :1] += (mu * mu) * _smul(r1v, r1v)
    if lost[0]:
        raise NumericalError("Lenz projection direction lost orthogonality "
                             "to the epoch-2 line of sight")
    return BivariatePoly(p[0]), v[0]


@dataclass(frozen=True)
class OpticalCandidates:
    """The elimination of one pair: its resultant Res_rho2(p, q) / (r1.v)^2,
    of degree 18 (20 where e_rho1 . v = 0), built from p's factors (its
    coefficients as built, ascending, rounded to double from long double,
    up to the last nonzero one), and all its complex roots, in no
    specified order, from the companion eigenvalues; every Newton start
    (rho1, rho2) (S, 2), those of the root x0 of r1.v among them (x0 is
    not among the roots), with the steps it took and whether it converged
    above ``MIN_RHO`` (a start that did not yields no candidate); then
    every candidate (rho1, rho2), sorted, with the radial velocities and
    light-time corrected states that complete it, its screening residual
    (L1 - L2) . v_hat and the verdict."""

    resultant: np.ndarray
    roots: np.ndarray
    starts: np.ndarray
    steps: np.ndarray
    converged: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    rhodot1: np.ndarray
    rhodot2: np.ndarray
    r1: np.ndarray
    v1: np.ndarray
    t1: np.ndarray
    r2: np.ndarray
    v2: np.ndarray
    t2: np.ndarray
    residual: np.ndarray
    accepted: np.ndarray


def _newton_inputs(g: np.ndarray, j_polys: np.ndarray, pair: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The per-start inputs of :func:`_q_lenz` for starts of the pairs
    ``pair`` (K,) of a block with rows g (B, 2, n) and the quadratics
    ``j_polys`` (B, 3, 3, 3) of :func:`_q_rows`: at each epoch, the dot
    products that make r and w = rdot quadratics in rho and rhodot (see
    ``_EPOCH_LEFT``), then q, qdot, e_rho and tan dotted with
    v_hat = e_rho2 x q2 / |e_rho2 x q2|, as (12, K, 2); and the
    coefficients of 1, x, x^2, y and y^2 in the quadratics, (5, K, 3)."""
    v = -g[:, 1, _D]
    v /= np.sqrt(row_dot(v, v))[:, None]
    dots = np.concatenate([row_dot(g[:, :, _EPOCH_LEFT], g[:, :, _EPOCH_RIGHT]),
                           row_dot(g[:, :, _V_HAT], v[:, None, None])], axis=2)
    return (dots.transpose(2, 0, 1)[:, pair],
            j_polys[:, :, _QUADRATIC[0], _QUADRATIC[1]].transpose(2, 0, 1)[:, pair])


def _q_lenz(dots: np.ndarray, jc: np.ndarray, rho: np.ndarray, mu: float):
    """q and f = mu (L1 - L2) . v_hat at rho = (rho1, rho2) (K, 2), for
    starts with the inputs ``dots`` and ``jc`` of :func:`_newton_inputs`.
    Returns the residuals (q, f), their Jacobian ((q_x, q_y), (f_x, f_y))
    by the chain rule and their roundoff floors, each (K,), and
    mu (|L1| + |L2|) (K,).

    At one epoch, with r = q + rho e_rho and w = qdot + rhodot e_rho +
    rho tan, mu L . v_hat = A (r . v_hat) - (r . w)(w . v_hat) with
    A = |w|^2 - mu/|r|, and |r|^2, |w|^2, r . w, r . v_hat and w . v_hat
    are quadratics in rho and rhodot."""
    qe, qde, qq, qdq, qdqd, qdt, qt, tt, qv, qdv, ev, tv = dots
    j0, jx, jxx, jy, jyy = jc
    X, Y = rho[:, :1], rho[:, 1:]
    # q, rhodot1 and rhodot2 by Horner, and their derivatives in x and y
    hx, hy = jx + X * jxx, jy + Y * jyy
    tx, ty = X * hx, Y * hy
    at = j0 + tx + ty
    d_x, d_y = hx + X * jxx, hy + Y * jyy
    rd, tr = at[:, 1:], tt * rho
    r2 = qq + rho * (2.0 * qe + rho)
    w2 = qdqd + rd * (2.0 * qde + rd) + rho * (2.0 * qdt + tr)
    s = qt + qde + rd
    rw = qdq + qe * rd + rho * s
    rv, wv = qv + ev * rho, qdv + ev * rd + tv * rho
    mu_r = mu / np.sqrt(r2)
    A = w2 - mu_r
    rw_wv = rw * wv
    lenz = A * rv - rw_wv
    # d(mu L . v_hat) / d rho and / d rhodot at each epoch
    by_rho = (2.0 * (qdt + tr) + mu_r * (qe + rho) / r2) * rv + A * ev - s * wv - rw * tv
    by_rd = 2.0 * (qde + rd) * rv - (qe + rho) * wv - rw * ev
    dl_x, dl_y = by_rd * d_x[:, 1:], by_rd * d_y[:, 1:]
    dl_x[:, 0] += by_rho[:, 0]
    dl_y[:, 1] += by_rho[:, 1]
    floor = (w2 + mu_r) * np.abs(rv) + np.abs(rw_wv)
    # |mu L|^2 = A^2 |r|^2 - 2 A (r . w)^2 + (r . w)^2 |w|^2
    norm = np.sqrt(np.maximum(A * (A * r2 - 2.0 * rw * rw) + rw * rw * w2, 0.0))
    return ((at[:, 0], lenz[:, 0] - lenz[:, 1]),
            ((d_x[:, 0], d_y[:, 0]), (dl_x[:, 0] - dl_x[:, 1], dl_y[:, 0] - dl_y[:, 1])),
            (_FLOOR * (np.abs(j0[:, 0]) + np.abs(tx[:, 0]) + np.abs(ty[:, 0])),
             _FLOOR * (floor[:, 0] + floor[:, 1])),
            norm[:, 0] + norm[:, 1])


def _newton_rows(dots: np.ndarray, jc: np.ndarray, rho: np.ndarray,
                 mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton on (q, (L1 - L2) . v_hat) = 0 from the starts rho (K, 2),
    with the rows of :func:`_q_lenz`.  A start whose Lenz residual exceeds
    1e-2 of |L1| + |L2| takes no step.  The others are the live rows: each
    iteration evaluates only them and takes each finite step; a row leaves
    once both relative steps are at most ``_NEWTON_REL`` or both residuals
    were at their roundoff floor, converged either way (at the floor, also
    without a finite step).  A row that reaches ``_NEWTON_STEPS`` steps, or
    another non-finite step, has not.  Every row's arithmetic is its own,
    so a start's iterates are those of its one-row call.  Returns the last
    iterates, the steps taken, and whether each converged above
    ``MIN_RHO`` in both ranges."""
    rho = rho.copy()
    steps = np.zeros(len(rho), dtype=int)
    done = np.zeros(len(rho), dtype=bool)
    f, jac, floor, norm = _q_lenz(dots, jc, rho, mu)
    live = np.nonzero(np.abs(f[1]) <= 1e-2 * norm)[0]
    dots, jc = dots[:, live], jc[:, live]
    (q, lenz), (qx, qy), (lx, ly), (q_floor, lenz_floor) = (
        (a[live], b[live]) for a, b in (f, *jac, floor))
    for k in range(_NEWTON_STEPS):
        if not live.size:
            break
        at = rho[live]
        if k:
            (q, lenz), ((qx, qy), (lx, ly)), (q_floor, lenz_floor), _ = _q_lenz(dots, jc, at, mu)
        at_floor = (np.abs(q) <= q_floor) & (np.abs(lenz) <= lenz_floor)
        det = qx * ly - qy * lx
        delta = np.array([q * ly - qy * lenz, qx * lenz - q * lx]).T / det[:, None]
        new = at - delta
        small = (np.abs(delta) <= _NEWTON_REL * np.maximum(1.0, np.abs(new))).all(axis=1)
        step = np.isfinite(new).all(axis=1)
        rho[live[step]] = new[step]
        steps[live] += step
        done[live] = at_floor | step & small
        moving = step & ~(small | at_floor)
        live, dots, jc = live[moving], dots[:, moving], jc[:, moving]
    done &= (rho > MIN_RHO).all(axis=1)
    return rho, steps, done


def _merge_rows(pair: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The points (x, y) of pairs ``pair`` (K,), sorted by pair, then x,
    then y, as indices, without each point that an earlier point of its
    pair is within ``DEDUP_REL`` of in both x and y."""
    order = np.lexsort((y, x, pair))
    pair, x, y = pair[order], x[order], y[order]
    tol_x = DEDUP_REL * np.maximum(1.0, np.abs(x))
    tol_y = DEDUP_REL * np.maximum(1.0, np.abs(y))
    keep = np.ones(len(order), dtype=bool)
    for lag in range(1, len(order)):
        # sorted by x, a point's neighbours within tol_x come just before it
        near = (pair[lag:] == pair[:-lag]) & (x[lag:] - x[:-lag] <= tol_x[lag:])
        if not near.any():
            break
        keep[lag:] &= ~(near & (np.abs(y[lag:] - y[:-lag]) <= tol_y[lag:]))
    return order[keep]


def _quadratic_root_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The real roots (K, 2) of the quadratics a y^2 + b y + c = 0, each
    (K,), by the numerically stable formula, and which of them exist: none
    for a zero quadratic, one for a linear one (|a| at most 1e-14 of the
    largest coefficient) and for a grazing one (a discriminant below zero
    by at most 1e-2 of b^2 + 4 |a c|: its vertex -b/2a), else two.

    The grazing rule is for a start range x at a turning point of q in x.
    There the resultant's roots are near-double, with errors up to about
    1e-2 relative against 60-digit roots, and one can land past the
    turning point: q(x, .) then has no real root, and a solution lies
    near the vertex."""
    scale = np.abs([a, b, c]).max(axis=0)
    linear = np.abs(a) <= 1e-14 * scale
    disc = b * b - 4.0 * a * c
    negative = disc < 0.0
    s = -(b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), np.where(b != 0.0, b, 1.0))) / 2.0
    zero = s == 0.0
    y, exists = np.empty((len(a), 2)), np.empty((len(a), 2), dtype=bool)
    y[:, 0] = np.where(linear, -c / b, np.where(negative, -b / (2.0 * a),
                                                np.where(zero, 0.0, s / a)))
    y[:, 1] = np.where(zero, -b / a, c / s)
    exists[:, 0] = np.where(linear, ~(np.abs(b) <= 1e-14 * scale),
                            ~negative | (disc >= -1e-2 * (b * b + 4.0 * np.abs(a * c))))
    exists[:, 1] = ~(linear | negative)
    return y, exists


def complete_states(q: np.ndarray, qdot: np.ndarray, e_rho: np.ndarray,
                    rho: np.ndarray, rhodot: np.ndarray, tangential: np.ndarray,
                    tbar: np.ndarray, d2: np.ndarray, config: RunConfig) -> dict:
    """The state completion of both linkers, for K candidates: from each
    epoch's q, qdot, e_rho and tangential velocity (K, 2, 3), rho, rhodot
    and mean epoch tbar (K, 2) and the epoch-2 D = q2 x e_rho2 (K, 3), the
    states r = q + rho e_rho and v = qdot + rhodot e_rho + tangential
    (K, 2, 3), their Laplace-Lenz vectors, the light-time corrected epochs
    t (K, 2) and the residual (L1 - L2) . v_hat, v = e_rho2 x q2 = -D2."""
    r = q + rho[:, :, None] * e_rho
    w = qdot + rhodot[:, :, None] * e_rho + tangential
    lenz = laplace_lenz_rows(r, w, config.mu_value)
    v = -d2
    return {"rho": rho, "rhodot": rhodot, "r": r, "v": w,
            "t": tbar - rho / config.units.c_light, "lenz": lenz,
            "residual": row_dot(lenz[:, 0] - lenz[:, 1], v / np.sqrt(row_dot(v, v))[:, None])}


def _radial_velocity_rows(g: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The radial velocities (K, 2) that complete the ranges rho (K, 2) of
    pairs g (K, 2, n): rhodot_i = (J x D_(3-i)) . W / |W|^2, W = D1 x D2,
    from the angular-momentum equality D1 rhodot1 - D2 rhodot2 = J."""
    X, Y = rho[:, :1], rho[:, 1:]
    J = (g[:, 1, _E] * Y**2 - g[:, 0, _E] * X**2 + g[:, 1, _F] * Y - g[:, 0, _F] * X
         + g[:, 1, _G] - g[:, 0, _G])
    W = row_cross(g[:, 0, _D], g[:, 1, _D])[:, None]
    return row_dot(row_cross(J[:, None], g[:, ::-1, _D]), W) / row_dot(W, W)


def _screen(g: np.ndarray, x: np.ndarray, y: np.ndarray, config: RunConfig) -> dict:
    """Complete each (rho1, rho2) of pairs g (K, 2, n) to states and screen
    it on the unprojected Lenz difference (L1 - L2) . v_hat, relative to
    |L1| + |L2| (``_SCREEN_REL``)."""
    rho = np.array([x, y]).T
    out = complete_states(g[:, :, _Q], g[:, :, _QDOT], g[:, :, _ERHO], rho,
                          _radial_velocity_rows(g, rho), rho[:, :, None] * g[:, :, _TAN],
                          g[:, :, _TBAR], g[:, 1, _D], config)
    norm = np.sqrt(row_dot(out["lenz"], out["lenz"])).sum(axis=1)
    out["accepted"] = np.abs(out["residual"]) <= _SCREEN_REL * norm
    return out


def _candidate_block(g: np.ndarray, config: RunConfig):
    """The elimination of a block of pairs, their records' rows g (B, 2, n):
    each pair's error or None, the resultants Res_rho2(p, q) / (r1.v)^2,
    built from p's factors (:func:`_resultant_rows`), and their lengths to
    the last nonzero coefficient (none is trimmed: the companion eigenvalues
    are backward stable for the polynomial as given), the companion roots
    of each live pair, every Newton start of the block, the closed-form
    root x0 of r1.v (when positive) joining the roots' real parts as a
    start range, sorted by pair (``start_pair`` (S,)), with its (rho1,
    rho2), steps and verdict, and every candidate of the block, sorted by
    pair (``pair`` (K,)), with its completion and verdict (the fields of
    :class:`OpticalCandidates` from ``rho1`` on), and the epoch-2 lines of
    sight."""
    rows = len(g)
    with np.errstate(all="ignore"):
        j_polys = _q_rows(g)
        q = j_polys[:, 0]
        res, x0, errors, lost = _resultant_rows(g, j_polys, config.mu_value)
        for k, flags in enumerate(_degenerate_flags(g)):
            if flags:
                errors[k] = DegenerateConfigurationError(
                    flags, "optical linkage degenerate: " + ", ".join(flags))
            elif lost[k]:
                errors[k] = NumericalError("Lenz projection direction lost "
                                           "orthogonality to the epoch-2 line of sight")
        # the resultants as built, each to its last nonzero coefficient
        res = res.astype(float)
        lengths = np.where(res != 0.0, np.arange(1, res.shape[1] + 1), 1).max(axis=1)
        live = np.array([error is None for error in errors])
        roots = np.zeros((rows, res.shape[1] - 1), dtype=complex)
        roots[live], root_errors = companion_root_rows(res[live], lengths[live])
        for k, error in zip(np.nonzero(live)[0].tolist(), root_errors):
            errors[k] = error
        # the roots of the rows that have them, (R, degree), with x0 beside
        # them, and the real parts above MIN_RHO of those within the start
        # window, once each (a conjugate pair shares its real part)
        found = np.array([k for k in range(rows) if errors[k] is None], dtype=int)
        z = np.concatenate([roots[found], x0[found, None]], axis=1)
        valid = np.arange(z.shape[1]) < lengths[found, None] - 1
        valid[:, -1] = np.isfinite(x0[found])
        x, keep, _ = real_positive_root_rows(z, valid, real_tol=_START_WINDOW,
                                             min_value=MIN_RHO)
        # each start range with the positive roots of q(x, .)
        at = np.nonzero(keep)
        row = found[at[0]]
        x, qx = x[at], q[row]
        y, keep, _ = real_positive_root_rows(*_quadratic_root_rows(
            qx[:, 0, 2], qx[:, 0, 1], qx[:, 0, 0] + qx[:, 1, 0] * x + qx[:, 2, 0] * x * x),
            min_value=MIN_RHO)
        start, slot = np.nonzero(keep)
        start_pair = row[start]
        starts = np.array([x[start], y[start, slot]]).T
        rho, steps, converged = _newton_rows(*_newton_inputs(g, j_polys, start_pair),
                                             starts, config.mu_value)
        x, y = rho.T
        take = np.nonzero(converged)[0]
        take = take[_merge_rows(start_pair[take], x[take], y[take])]
        pair = start_pair[take]
        screened = _screen(g[pair], x[take], y[take], config)
    return (errors, res, lengths, roots, (start_pair, starts, steps, converged),
            pair, screened, g[pair, 1, _ERHO])


def optical_candidate_rows(
    rows1: np.ndarray, rows2: np.ndarray, config: RunConfig,
) -> list[OpticalCandidates | LinkageError]:
    """Run the elimination of the pairs whose records have the rows
    (rows1[k], rows2[k]) (:attr:`OpticalCoefficients.row`, (B, n) each) as
    one stacked block; each pair gets its :class:`OpticalCandidates` or the error that
    stopped it: a degenerate geometry, non-finite or overflowing
    coefficients, or a root finder that did not converge."""
    if not len(rows1):
        return []
    errors, res, lengths, roots, newton, pair, screened, _ = _candidate_block(
        np.stack([rows1, rows2], axis=1), config)
    start_pair, starts, steps, converged = newton
    out: list = []
    bounds = np.searchsorted(pair, np.arange(len(rows1) + 1))
    start_bounds = np.searchsorted(start_pair, np.arange(len(rows1) + 1))
    for k, error in enumerate(errors):
        if error is not None:
            out.append(error)
            continue
        s, n = slice(bounds[k], bounds[k + 1]), slice(start_bounds[k], start_bounds[k + 1])
        rho, rhodot, r, v, t = (screened[key][s] for key in ("rho", "rhodot", "r", "v", "t"))
        out.append(OpticalCandidates(
            res[k, : lengths[k]], roots[k, : lengths[k] - 1], starts[n], steps[n], converged[n],
            rho[:, 0], rho[:, 1], rhodot[:, 0], rhodot[:, 1],
            r[:, 0], v[:, 0], t[:, 0], r[:, 1], v[:, 1], t[:, 1],
            screened["residual"][s], screened["accepted"][s]))
    return out


def optical_candidate_pairs(
    c1: OpticalCoefficients, c2: OpticalCoefficients, config: RunConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run the elimination and return every candidate pair with its
    screening residual: arrays (rho1, rho2, lenz_residual, accepted).  The
    one-pair case of :func:`optical_candidate_rows`."""
    cand = checked(*optical_candidate_rows(c1.row[None], c2.row[None], config))
    return cand.rho1, cand.rho2, cand.residual, cand.accepted


def assemble_rows(errors: list, pair: np.ndarray, s: dict, e_rho2: np.ndarray,
                  mu: float, method: str, unconverged: np.ndarray | None = None
                  ) -> SolutionRows:
    """The last step of both linkers, one row pass over the solutions of a
    block.  ``errors[k]`` is the error that stopped pair k, or None; the K
    solutions are sorted by their pair ``pair`` (K,), with the fields of
    :func:`complete_states` in ``s`` and the epoch-2 lines of sight
    ``e_rho2`` (K, 3).  Both states are converted to elements (masked
    where not elliptic), and the compatibility residuals and the energy
    offset come from the same rows.  A solution whose row of
    ``unconverged`` is set carries the ``quartic_unconverged`` flag."""
    r, v, t = s["r"], s["v"], s["t"]
    with np.errstate(all="ignore"):  # non-finite states fail at encoding
        el, elliptic, energy = state_element_rows(r.reshape(-1, 3), v.reshape(-1, 3), mu,
                                                  s["lenz"].reshape(-1, 3))
        el = el.reshape(6, -1, 2)
        compat_lenz, compat_anomaly = compatibility_rows(s["lenz"], t, el[0, :, 0], el[5],
                                                         e_rho2, mu)
        offset = energy[0::2] - energy[1::2]
    elements = np.empty((len(pair), 2, 7))
    elements[:, :, :6] = el.transpose(1, 2, 0)
    elements[:, :, 6] = t
    has_elements = elliptic.reshape(-1, 2)
    both = has_elements[:, 0] & has_elements[:, 1]
    return SolutionRows(
        errors=errors, pair=pair, method=method, rho=s["rho"], rhodot=s["rhodot"], r=r, v=v,
        t=t, elements=elements, has_elements=has_elements, elliptic=both,
        lenz_residual=s["residual"], compat_lenz=compat_lenz, compat_anomaly=compat_anomaly,
        has_compat_anomaly=both, energy_offset=offset,
        unconverged=np.zeros(len(pair), dtype=bool) if unconverged is None else unconverged)


def link_optical_rows(rows1: np.ndarray, rows2: np.ndarray, config: RunConfig) -> SolutionRows:
    """Link the pairs whose records have the rows (rows1[k], rows2[k])
    (:attr:`OpticalCoefficients.row`, (B, n) each) as one stacked block:
    the accepted solutions of all pairs, and the error that stopped each
    pair or None."""
    if not len(rows1):
        return SolutionRows.empty([], "optical")
    errors, _, _, _, _, pair, screened, e_rho2 = _candidate_block(
        np.stack([rows1, rows2], axis=1), config)
    take = screened.pop("accepted")
    return assemble_rows(errors, pair[take], {key: a[take] for key, a in screened.items()},
                         e_rho2[take], config.mu_value, "optical")


def link_optical(
    att1: OpticalAttributable,
    att2: OpticalAttributable,
    obs1: CartesianState,
    obs2: CartesianState,
    config: RunConfig | None = None,
) -> list[LinkageSolution]:
    """Link two optical attributables; returns accepted solutions only.

    Raises :class:`DegenerateConfigurationError` when the geometry defeats
    the elimination (flags say why), and propagates numerical errors from
    the resultant/root stages.  The one-pair case of
    :func:`link_optical_rows`.
    """
    config = config if config is not None else RunConfig()
    check_optical_pair(att1, att2, obs1, obs2)
    rows, _ = coefficient_rows(optical_coefficient_rows, [att1, att2], [obs1.r, obs2.r],
                               [obs1.v, obs2.v])
    return checked(*link_optical_rows(rows[:1], rows[1:], config).per_pair())


# ---------------------------------------------------------------------------
# zero-curve sampling


def energy_equality_poly(
    c1: OpticalCoefficients, c2: OpticalCoefficients,
    rd1: BivariatePoly, rd2: BivariatePoly, mu: float,
) -> BivariatePoly:
    """Twice-squared polynomial form of the two-body energy equality.

    With A = (|rdot1|^2 - |rdot2|^2)/2 and P_i = |r_i|^2, clearing both
    square roots of mu/|r_i| = mu/sqrt(P_i) gives the degree-24 polynomial

        g = (A^2 P1 P2 + mu^2 (P1 - P2))^2 - 4 mu^2 A^2 P1^2 P2,

    which vanishes on the energy-equality curve (among other loci picked up
    by the squarings)."""
    rd1, rd2 = _canvas(rd1, (3, 3)), _canvas(rd2, (3, 3))
    g = _pair_rows(c1, c2)
    (qe1, qde1, qq1, _, qdsq1, qdt1, _, k1), (qe2, qde2, qq2, _, qdsq2, qdt2, _, k2) \
        = row_dot(g[0][:, _EPOCH_LEFT], g[0][:, _EPOCH_RIGHT])
    speed1 = _smul(rd1, rd1)  # |rdot1|^2 and |rdot2|^2
    speed1[:, :3, :3] += 2.0 * qde1 * rd1
    speed1[:, :3, 0] += [qdsq1, 2.0 * qdt1, k1]
    speed2 = _smul(rd2, rd2)
    speed2[:, :3, :3] += 2.0 * qde2 * rd2
    speed2[:, 0, :3] += [qdsq2, 2.0 * qdt2, k2]
    P1 = np.array([[[qq1], [2.0 * qe1], [1.0]]])
    P2 = np.array([[[qq2, 2.0 * qe2, 1.0]]])
    A = 0.5 * (speed1 - speed2)
    AA = _smul(A, A)
    core = _smul(_smul(AA, P1), P2)  # total degree 12 on an (11, 11) canvas
    core[:, :3, :1] += (mu * mu) * P1
    core[:, :1, :3] -= (mu * mu) * P2
    g = _smul(core, core)
    g[:, :13, :11] -= (4.0 * mu * mu) * _smul(_smul(AA, _smul(P1, P1)), P2)
    return BivariatePoly(g[0])


_CURVES = ("q", "p", "lenz", "energy_sq")


def curve_grids(
    att1: OpticalAttributable,
    att2: OpticalAttributable,
    obs1: CartesianState,
    obs2: CartesianState,
    bounds: tuple[tuple[float, float], tuple[float, float]],
    n: int,
    config: RunConfig | None = None,
) -> dict:
    """Sample the four linkage curves on an (rho1, rho2) grid of n points
    per axis over the window ``bounds``.

    Returns axes ``rho1``, ``rho2`` and grids ``q`` (angular-momentum
    quadratic), ``p`` (projected Lenz degree-10), ``lenz`` (unsquared
    Lenz projection with radial velocities restored), and ``energy_sq``
    (twice-squared energy equality, degree 24).  A grid with a NaN or an
    infinity raises NumericalError."""
    config = config if config is not None else RunConfig()
    x = np.linspace(bounds[0][0], bounds[0][1], n)
    y = np.linspace(bounds[1][0], bounds[1][1], n)
    X, Y = np.meshgrid(x, y, indexing="ij")
    with np.errstate(all="ignore"):  # non-finite samples are reported below
        c1 = compute_optical_coefficients(att1, obs1.r, obs1.v)
        c2 = compute_optical_coefficients(att2, obs2.r, obs2.v)
        flags = detect_degenerate_optical(c1, c2)
        if flags:
            raise DegenerateConfigurationError(
                flags, "curve sampling degenerate: " + ", ".join(flags))
        rd1, rd2 = radial_velocity_polys(c1, c2)
        g = np.broadcast_to(_pair_rows(c1, c2)[0], (X.size, 2, _TBAR + 1))
        grids = {
            "q": build_q_poly(c1, c2)(X, Y),
            "p": build_p_poly(c1, c2, rd1, rd2, config.mu_value)[0](X, Y),
            "lenz": _screen(g, X.ravel(), Y.ravel(), config)["residual"].reshape(X.shape),
            "energy_sq": energy_equality_poly(c1, c2, rd1, rd2, config.mu_value)(X, Y),
        }
    bad = [name for name in _CURVES if not np.isfinite(grids[name]).all()]
    if bad:
        raise NumericalError(f"non-finite samples of the {', '.join(bad)} curve(s)")
    return {"rho1": x, "rho2": y, **grids}


def emit_curve_samples(
    att1: OpticalAttributable,
    att2: OpticalAttributable,
    obs1: CartesianState,
    obs2: CartesianState,
    bounds: tuple[tuple[float, float], tuple[float, float]],
    n: int,
    config: RunConfig | None = None,
    directory=None,
) -> dict:
    """Sample the linkage curves (:func:`curve_grids`) and optionally write
    them as long-format CSV files (rho1,rho2,value) named <curve>_curve.csv."""
    grids = curve_grids(att1, att2, obs1, obs2, bounds, n, config)
    if directory is not None:
        import os

        os.makedirs(directory, exist_ok=True)
        X, Y = np.meshgrid(grids["rho1"], grids["rho2"], indexing="ij")
        paths = {}
        for name in _CURVES:
            path = os.path.join(directory, f"{name}_curve.csv")
            flat = np.column_stack([X.ravel(), Y.ravel(), grids[name].ravel()])
            with open(path, "w") as fh:
                fh.write("rho1,rho2,value\n")
                for row in flat:
                    fh.write(f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g}\n")
            paths[name] = path
        grids["paths"] = paths
    return grids


def count_zero_intersections(grid_a: np.ndarray, grid_b: np.ndarray) -> int:
    """Count grid cells where the zero sets of two sampled functions cross,
    clustering 4-connected cells so one geometric intersection counts once."""
    if grid_a.shape != grid_b.shape:
        raise DomainError("grids must share a shape")

    def straddle(z):
        corners = np.stack([z[:-1, :-1], z[1:, :-1], z[:-1, 1:], z[1:, 1:]])
        return (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)

    # scipy is imported on first use: only the curves subcommand needs it,
    # and importing it would take most of the linking commands' start-up
    from scipy import ndimage

    mask = straddle(grid_a) & straddle(grid_b)
    _, count = ndimage.label(mask)
    return int(count)
