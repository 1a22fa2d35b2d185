"""Tests for the polynomial routines: the trimmed containers, Sylvester
resultants by FFT evaluation-interpolation, the closed-form resultant and
the optical solver's resultant from p's factors against 50-digit builds,
and the Aberth root finder."""

import itertools
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from arclink.attributables import circular_observer, synthesize_optical_attributable
from arclink.config import AU_DAY, RunConfig
from arclink.errors import (
    ConditioningError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ZeroResultantError,
)
from arclink.kepler import KeplerianElements
from arclink.optical import (
    _START_WINDOW,
    BLOCK_PAIRS,
    MIN_RHO,
    _lenz_rows,
    _pair_rows,
    _q_rows,
    _resultant_rows,
    _smul,
    build_p_poly,
    build_q_poly,
    compute_optical_coefficients,
    detect_degenerate_optical,
    optical_candidate_rows,
    radial_velocity_polys,
)
from arclink.polynomials import (
    BivariatePoly,
    UnivariatePoly,
    aberth_root_rows,
    aberth_roots,
    coeffs_in_second_var,
    companion_root_rows,
    evaluate_matrix,
    factored_resultants,
    fft_evaluation_interpolation,
    newton_polish,
    quadratic_resultants,
    real_positive_roots,
    sylvester_matrix,
    sylvester_resultant,
    trimmed_lengths,
)
from conftest import record_rows


class TestUnivariate:
    def test_trailing_trim(self):
        p = UnivariatePoly(np.array([1.0, 2.0, 1e-20]))
        assert p.degree == 1
        assert p.coeffs.tolist() == [1.0, 2.0]

    def test_trim_is_the_row_rule(self, rng):
        """``UnivariatePoly`` keeps the coefficients ``trimmed_lengths``
        counts for its one row."""
        rows = rng.normal(size=(200, 6)) * 10.0 ** rng.integers(-20, 3, size=(200, 6))
        rows[::7, 3:] = 0.0
        rows[::11] = 0.0
        for row, n in zip(rows, trimmed_lengths(rows)):
            assert UnivariatePoly(row).coeffs.tolist() == row[:n].tolist()

    @pytest.mark.parametrize("coeffs", [[np.nan, 1.0], [1.0, np.inf], [-np.inf]])
    def test_non_finite_coefficients_raise(self, coeffs):
        with pytest.raises(NumericalError, match="non-finite"):
            UnivariatePoly(coeffs)

    def test_zero_poly(self):
        z = UnivariatePoly(np.zeros(5))
        assert z.is_zero and z.degree == 0

    def test_derivative(self):
        p = UnivariatePoly(np.array([1.0, -3.0, 0.0, 2.0]))  # 1 - 3x + 2x^3
        assert p.derivative().coeffs.tolist() == [-3.0, 0.0, 6.0]
        assert UnivariatePoly([4.0]).derivative().is_zero


class TestBivariate:
    def test_construction_copies_coefficients(self):
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = BivariatePoly(c)
        c[1, 1] = 99.0
        assert p.coeffs.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_total_degree(self):
        p = BivariatePoly(np.array([[3.0, 0.0], [0.0, 1.0]]))  # xy + 3
        assert p.total_degree == 2
        assert p.degree_x == 1 and p.degree_y == 1

    def test_coeffs_in_second_var_reconstructs(self, rng):
        p = BivariatePoly(rng.normal(size=(4, 3)))
        a = coeffs_in_second_var(p)
        x, y = rng.normal(size=5), rng.normal(size=5)
        rebuilt = sum(a[j](x) * y**j for j in range(len(a)))
        np.testing.assert_allclose(rebuilt, p(x, y), rtol=1e-12)


class TestFFTInterpolation:
    """Pins the node/transform convention on matrices with known dets."""

    def test_one_by_one_identity(self):
        p = UnivariatePoly(np.array([3.0, -1.0, 0.5, 2.0]))
        out = fft_evaluation_interpolation([[p]], n_points=8)
        np.testing.assert_allclose(out.coeffs, p.coeffs, atol=1e-13)

    def test_two_by_two(self):
        # det [[x, 1], [1, x]] = x^2 - 1
        x = UnivariatePoly(np.array([0.0, 1.0]))
        one = UnivariatePoly([1.0])
        out = fft_evaluation_interpolation([[x, one], [one, x]], n_points=8)
        np.testing.assert_allclose(out.coeffs, [-1.0, 0.0, 1.0], atol=1e-13)

    def test_random_matrix_against_direct_det(self, rng):
        for _ in range(20):
            size = int(rng.integers(2, 5))
            S = [
                [UnivariatePoly(rng.normal(size=rng.integers(1, 3))) for _ in range(size)]
                for _ in range(size)
            ]
            out = fft_evaluation_interpolation(S, n_points=16)
            for x0 in rng.normal(size=4):
                direct = np.linalg.det(evaluate_matrix(S, x0))
                assert abs(out(x0) - direct) < 1e-9 * max(1.0, abs(direct)), (
                    f"interpolated det {out(x0)} != direct {direct} at x={x0}"
                )

    def test_steeply_graded_columns_still_interpolate(self, rng):
        """Column scaling alone must not trip the zero screen: the
        determinant of a well-conditioned matrix with columns scaled over
        24 orders of magnitude is tiny against the raw Hadamard bound but
        perfectly recoverable."""
        size = 4
        base = [
            [UnivariatePoly(rng.normal(size=2) + 0.5) for _ in range(size)]
            for _ in range(size)
        ]
        reference = fft_evaluation_interpolation(base, n_points=16)
        factors = [10.0 ** (-8 * j) for j in range(size)]
        graded = [
            [UnivariatePoly(base[i][j].coeffs * factors[j]) for j in range(size)]
            for i in range(size)
        ]
        out = fft_evaluation_interpolation(graded, n_points=16)
        total = np.prod(factors)
        np.testing.assert_allclose(
            out.coeffs, reference.coeffs * total, rtol=1e-9,
            atol=1e-9 * abs(total) * np.max(np.abs(reference.coeffs)))

    def test_rejects_bad_point_counts(self):
        p = [[UnivariatePoly([1.0])]]
        with pytest.raises(DomainError):
            fft_evaluation_interpolation(p, n_points=12)
        with pytest.raises(DomainError):
            fft_evaluation_interpolation(p, n_points=8, degree_bound=8)

    def test_degree_bound_violation_raises(self):
        # det = x^2 - 1 genuinely exceeds a claimed bound of 1
        x = UnivariatePoly(np.array([0.0, 1.0]))
        one = UnivariatePoly([1.0])
        with pytest.raises(ConditioningError):
            fft_evaluation_interpolation([[x, one], [one, x]], n_points=8, degree_bound=1)


class TestSylvesterResultant:
    def test_textbook_pair(self):
        # p = y^2 - x, q = y - x  =>  Res_y = x^2 - x
        p = BivariatePoly(np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]))
        q = BivariatePoly(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        res = sylvester_resultant(p, q, n_points=8)
        np.testing.assert_allclose(res.coeffs, [0.0, -1.0, 1.0], atol=1e-12)

    def test_matrix_layout(self):
        p = BivariatePoly(np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]))
        q = BivariatePoly(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        S = sylvester_matrix(p, q)
        assert len(S) == 3
        # first column: y-coefficients of p descending from the top row
        assert S[0][0].coeffs.tolist() == [1.0]
        assert S[1][0].is_zero
        assert S[2][0].coeffs.tolist() == [0.0, -1.0]
        # remaining columns: q's coefficients, shifted one row per column
        assert S[0][1].coeffs.tolist() == [1.0]
        assert S[1][1].coeffs.tolist() == [0.0, -1.0]
        assert S[1][2].coeffs.tolist() == [1.0]
        assert S[2][2].coeffs.tolist() == [0.0, -1.0]

    def test_product_over_roots_identity(self, rng):
        """Res(x0) = (-1)^{mn} lc_q(x0)^m prod_i p(x0, beta_i) over q's roots."""
        for _ in range(25):
            m, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            pc = rng.uniform(0.5, 1.5, size=(3, m + 1)) * rng.choice([-1, 1], size=(3, m + 1))
            qc = rng.uniform(0.5, 1.5, size=(2, n + 1)) * rng.choice([-1, 1], size=(2, n + 1))
            p, q = BivariatePoly(pc), BivariatePoly(qc)
            res = sylvester_resultant(p, q, n_points=32)
            for x0 in rng.uniform(-1.5, 1.5, size=3):
                qy = np.array([UnivariatePoly(qc[:, j])(x0) for j in range(n + 1)])
                beta = npp.polyroots(qy)
                oracle = (-1.0) ** (m * n) * qy[-1] ** m * np.prod(p(x0, beta))
                assert abs(res(x0) - oracle.real) < 1e-8 * max(1.0, abs(oracle)), (
                    f"resultant {res(x0)} vs product-over-roots {oracle} at x={x0}"
                )

    def test_common_factor_gives_zero_resultant(self):
        # p = (y - x)(y + 1), q = (y - x)(y - 2) share a root curve
        p = BivariatePoly(np.array([[0.0, 1.0, 1.0], [-1.0, -1.0, 0.0]]))
        q = BivariatePoly(np.array([[0.0, -2.0, 1.0], [2.0, -1.0, 0.0]]))
        with pytest.raises(ZeroResultantError):
            sylvester_resultant(p, q, n_points=16)

    def test_rejects_degenerate_degrees(self):
        p = BivariatePoly(np.array([[1.0], [1.0]]))  # no y dependence
        q = BivariatePoly(np.array([[0.0, 1.0]]))
        with pytest.raises(DomainError):
            sylvester_matrix(p, q)


class TestAberth:
    def test_known_real_roots(self):
        p = UnivariatePoly(npp.polyfromroots([1.0, 2.0, 3.0]))
        z = np.sort(aberth_roots(p).real)
        np.testing.assert_allclose(z, [1.0, 2.0, 3.0], rtol=1e-12)

    def test_degree_twenty_random_roots(self, rng):
        for _ in range(10):
            true = rng.uniform(0.2, 3.0, size=10) * rng.choice([-1, 1], size=10)
            true = np.concatenate([true, rng.normal(size=5) + 1j * rng.uniform(0.3, 2.0, size=5)])
            true = np.concatenate([true, np.conj(true[10:])])
            coeffs = npp.polyfromroots(true)
            assert np.max(np.abs(coeffs.imag)) < 1e-9 * np.max(np.abs(coeffs.real))
            z = aberth_roots(UnivariatePoly(coeffs.real))
            got = np.sort_complex(np.round(z, 7))
            want = np.sort_complex(np.round(true, 7))
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_wide_magnitude_spread(self):
        p = UnivariatePoly(npp.polyfromroots([1e-3, 1e3]))
        z = np.sort(aberth_roots(p).real)
        np.testing.assert_allclose(z, [1e-3, 1e3], rtol=1e-9)

    def test_double_root(self):
        # A double root converges to ~sqrt(eps) accuracy; both iterates must
        # land near it (they may or may not merge under the 1e-9 dedup).
        p = UnivariatePoly(npp.polyfromroots([2.0, 2.0, -1.0]))
        pos = real_positive_roots(aberth_roots(p))
        assert 1 <= len(pos) <= 2
        assert np.max(np.abs(pos - 2.0)) < 1e-6, f"double root drifted: {pos}"

    def test_exact_zero_roots_deflate(self):
        # x^2 (x - 5)
        p = UnivariatePoly(np.array([0.0, 0.0, -5.0, 1.0]))
        z = aberth_roots(p)
        assert np.sum(np.abs(z) < 1e-12) == 2
        assert np.min(np.abs(z - 5.0)) < 1e-10

    def test_constant_has_no_roots(self):
        assert aberth_roots(UnivariatePoly([7.0])).size == 0

    @pytest.mark.parametrize("seed", [2.0, 2.5])
    def test_identical_seeds_split_without_warnings(self, monkeypatch, seed):
        # seeds tied on a root and tied between roots (one row of eigenvalues
        # per companion matrix of a stack)
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.full(a.shape[:-1], seed + 0j))
        p = UnivariatePoly(npp.polyfromroots([1.0, 2.0, 3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            z = np.sort(aberth_roots(p).real)
        np.testing.assert_allclose(z, [1.0, 2.0, 3.0], rtol=1e-12)

    # Resultants of three optical pairs (bench generator: optical-survey seed
    # 6, optical-screen seeds 10 and 2) with a near-double root whose
    # companion eigenvalues come out as two reals or a conjugate pair: left
    # symmetric, those seeds never converge.
    @pytest.mark.parametrize("coeffs", [
        [2.5100903426339255e-60, 7.243876125564594e-45, -3.3988265591856744e-44,
         6.668717636141372e-44, -7.617914749547972e-44, 5.725971973988609e-44,
         -1.8901644343306277e-44, -1.649553134814132e-44, 2.529850892591818e-44,
         -1.7384389743322336e-44, 9.996129490213384e-45, -4.709807538168261e-45,
         1.5171067408508732e-45, -5.117671100518418e-46, 2.1814148455931597e-46,
         -5.728263532151073e-47, 5.669947685197261e-48, 4.651410827510306e-51,
         -3.583537165287658e-53, -1.4402387029701192e-56],
        [4.8897152113249836e-67, 9.634910510323346e-51, 7.731473290771739e-51,
         -1.486161941872143e-48, -8.442554274394629e-48, -2.789752303144832e-48,
         2.9339590371975903e-47, -3.248876617043056e-47, 1.251162996445408e-47,
         -3.702980031005046e-47, 1.3300098800475427e-46, 6.343107314907953e-47,
         8.348661517316423e-47, -1.7155112548486317e-47, 1.4531680807866706e-48,
         -6.929446966447364e-50, 2.0524508741692233e-51, -3.8781171266503433e-53,
         4.5708722436037305e-55, -3.0744708801175963e-57],
        [1.9809377342358803e-61, 6.15516597598752e-47, 1.8930613491177707e-44,
         1.595006329350803e-42, 1.3590622909764663e-41, -1.0281575580975337e-39,
         3.656760560361459e-39, -2.635568983475914e-39, 6.46471989529506e-39,
         -1.789053728148635e-38, 2.7135525175089965e-38, -7.61666380285521e-39,
         -3.138257342217292e-38, 4.856293147598415e-38, -2.549024124950557e-38,
         -9.380060357502758e-39, 2.2147131845178596e-38, -1.445689691507671e-38,
         4.907705851963987e-39, -8.793346936842303e-40, 6.605035365641865e-41],
    ], ids=["survey-6", "screen-10", "screen-2"])
    def test_near_double_root_converges(self, coeffs):
        c = np.array(coeffs)
        z = aberth_roots(UnivariatePoly(c))
        assert z.size == c.size - 1 and np.all(np.isfinite(z))
        # backward error at roundoff, except for the root within the absolute
        # tolerance of 0 (|c[0] / c[1]| < 1e-14)
        small = np.abs(npp.polyval(z, c)) <= 1e-12 * npp.polyval(np.abs(z), np.abs(c))
        assert np.all(small | (np.abs(z) <= 1e-12))

    def test_huge_coefficients_do_not_overflow(self):
        p = UnivariatePoly(npp.polyfromroots([1.0, 2.0, 3.0]) * 1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            z = np.sort(aberth_roots(p).real)
        np.testing.assert_allclose(z, [1.0, 2.0, 3.0], rtol=1e-12)

    def test_eigenvalue_failure_is_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(ConvergenceError):
            aberth_roots(UnivariatePoly(npp.polyfromroots([1.0, 2.0, 3.0])))

    def test_eigenvalue_failure_fails_only_its_row(self, rng):
        """A companion matrix that fails the stacked eigenvalue call fails
        only its own row; the other rows of its degree keep the roots of
        their one-row calls, complex."""
        polys = [rng.standard_normal(6) for _ in range(3)]
        polys[1][2] = np.nan
        rows = aberth_root_rows(polys)
        assert isinstance(rows[1], ConvergenceError)
        assert "eigenvalues failed" in str(rows[1])
        for k in (0, 2):
            assert rows[k].dtype == complex
            np.testing.assert_array_equal(rows[k], aberth_root_rows([polys[k]])[0])


class TestCompanionRoots:
    def test_start_window_roots_match_60_digit_roots(self, rng):
        """On the resultants of 16 random optical geometries, every root of
        :func:`companion_root_rows` in the optical start window lies within
        2.65e-3 of a root of the same double polynomial found at 60 digits,
        relative to max(1, |root|), and the median error is at most
        8.16e-10.  These are the largest and the median error of the
        last-column companion form on these rows; the first-row form reads
        7.2e-4 and 5.2e-10.  The solver's roots are these."""
        pairs = list(itertools.islice(optical_geometries(rng), 16))
        cands = optical_candidate_rows(record_rows(c1 for c1, _ in pairs),
                                       record_rows(c2 for _, c2 in pairs), RunConfig())
        lengths = np.array([cand.resultant.size for cand in cands])
        c = np.zeros((len(cands), lengths.max()))
        for k, cand in enumerate(cands):
            c[k, : lengths[k]] = cand.resultant
        roots, errors = companion_root_rows(c, lengths)
        assert errors == [None] * len(cands)
        error = []
        for k, cand in enumerate(cands):
            z = roots[k, : lengths[k] - 1]
            np.testing.assert_array_equal(z, cand.roots)
            z = z[(np.abs(z.imag) <= _START_WINDOW * np.maximum(1.0, np.abs(z.real)))
                  & (z.real > MIN_RHO)]
            with mpmath.workdps(60):
                exact = mpmath.polyroots([mpmath.mpf(x) for x in cand.resultant[::-1]],
                                         maxsteps=100, extraprec=60)
            exact = np.array([complex(r) for r in exact])
            error += [np.min(np.abs(x - exact) / np.maximum(1.0, np.abs(exact))) for x in z]
        assert len(error) > 100
        assert max(error) <= 2.65e-3 and np.median(error) <= 8.16e-10

    def test_rows_alone_equal_rows_in_a_stack(self, rng):
        """Each row of a stack of 144, most of degree 20, some of lower
        degree or with exact zero roots, gets the roots of its one-row call,
        bit for bit."""
        c = rng.normal(size=(144, 21)) * 10.0 ** rng.integers(-20, 20, size=(144, 1))
        lengths = np.full(144, 21)
        lengths[::3] = rng.integers(4, 21, size=48)
        c[np.arange(21) >= lengths[:, None]] = 0.0
        c[::5, :2] = 0.0
        roots, errors = companion_root_rows(c, lengths)
        assert errors == [None] * 144
        for k in range(144):
            alone, _ = companion_root_rows(c[k : k + 1], lengths[k : k + 1])
            assert np.array_equal(roots[k], alone[0]), k


class TestRealPositiveRoots:
    def test_filters_complex_and_negative(self):
        roots = np.array([1.5 + 1e-12j, -2.0, 0.5 + 0.3j, 0.5 - 0.3j, 3.0])
        out = real_positive_roots(roots)
        np.testing.assert_allclose(out, [1.5, 3.0])

    def test_real_tolerance_is_relative(self):
        roots = np.array([100.0 + 5e-5j])  # |Im| < 1e-6 * |Re|
        assert len(real_positive_roots(roots, real_tol=1e-6)) == 1
        assert len(real_positive_roots(np.array([1.0 + 5e-5j]), real_tol=1e-6)) == 0

    def test_dedup(self):
        roots = np.array([2.0, 2.0 + 1e-12, 2.0 + 1.0])
        out = real_positive_roots(roots)
        np.testing.assert_allclose(out, [2.0, 3.0])


class TestNewtonPolish:
    def test_square_root(self):
        evaluate = lambda x: (x * x - 2.0, 2.0 * x)
        x, converged = newton_polish(evaluate, 1.4)
        assert abs(x - np.sqrt(2.0)) < 1e-12
        assert converged is True

    def test_zero_derivative_bails(self):
        x, converged = newton_polish(lambda x: (x * x + 1.0, 0.0 * x), 3.0)
        assert x == 3.0
        assert converged is False

    def test_array_matches_scalar_elementwise(self):
        evaluate = lambda x: (x**3 - 2.0, 3.0 * x**2)
        # converges; zero derivative; a step to 7e299 whose derivative
        # overflows; a step that overflows itself
        starts = np.array([1.2, 0.0, 1e-150, 1e-160])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, got_ok = newton_polish(evaluate, starts)
            want = [newton_polish(evaluate, x) for x in starts]
        assert all(isinstance(w, float) and isinstance(ok, bool) for w, ok in want)
        np.testing.assert_array_equal(got, [w for w, _ in want])
        np.testing.assert_array_equal(got_ok, [ok for _, ok in want])
        assert abs(got[0] - 2.0 ** (1 / 3)) < 1e-3
        assert got[1] == 0.0 and got[3] == 1e-160
        assert 1e299 < got[2] < np.inf

    def test_verdict_is_the_next_step(self):
        # three steps from 1.0 leave x^3 - 2 a step of ~1.2e-5 from its
        # root, and from 1.26 one below 1e-8: the verdict compares that
        # step with 1e-8 max(1, |x|)
        evaluate = lambda x: (x**3 - 2.0, 3.0 * x**2)
        x, converged = newton_polish(evaluate, np.array([1.0, 1.26]))
        f, d = evaluate(x)
        step = np.abs(f / d)
        assert 1e-8 * x[0] < step[0] < 1e-4 and step[1] < 1e-8
        np.testing.assert_array_equal(converged, [False, True])


def mp_mul(f, g):
    out = [mpmath.mpf(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def mp_add(*polys):
    out = [mpmath.mpf(0)] * max(map(len, polys))
    for f in polys:
        for i, x in enumerate(f):
            out[i] += x
    return out


def mp_resultant(p_j, q):
    """Res_y(p, q) for q = a y^2 + b y + c(x) (float coefficients) and p of
    y-degree m = len(p_j) - 1, its y-coefficients p_j given at the working
    precision as ascending coefficients in x: the textbook double sum
    1/2 sum_jk p_j p_k c^min(j,k) a^(m - max(j,k)) t_|j-k|, with t_0 = 2,
    t_1 = -b, t_n = -b t_(n-1) - a c t_(n-2).  Rounded to floats."""
    def scale(f, w):
        return [w * x for x in f]

    m = len(p_j) - 1
    a, b = mpmath.mpf(float(q[0, 2])), mpmath.mpf(float(q[0, 1]))
    c = [mpmath.mpf(float(x)) for x in q[:, 0]]
    t = [[mpmath.mpf(2)], [-b]]
    while len(t) <= m:
        t.append(mp_add(scale(t[-1], -b), scale(mp_mul(c, t[-2]), -a)))
    c_pow = [[mpmath.mpf(1)]]
    while len(c_pow) <= m:
        c_pow.append(mp_mul(c_pow[-1], c))
    res = [mpmath.mpf(0)]
    for j in range(m + 1):
        for k in range(j, m + 1):
            weight = (mpmath.mpf(1) / 2 if j == k else 1) * a ** (m - k)
            res = mp_add(res, scale(mp_mul(mp_mul(p_j[j], p_j[k]),
                                           mp_mul(c_pow[j], t[k - j])), weight))
    return np.array([float(x) for x in res])


def mp_quadratic_resultant(p, q):
    """Res_y(p, q) as ascending coefficients in x, at 50 digits from the
    same float coefficients of p (y-degree p.shape[1] - 1) and q."""
    with mpmath.workdps(50):
        return mp_resultant([[mpmath.mpf(float(x)) for x in p[:, j]]
                             for j in range(p.shape[1])], q)


def mp_factored_resultant(mu, R, N, B, q):
    """Res_y(mu^2 R^2 - N B^2, q) at 50 digits from the float coefficients
    of R and N (ascending in x) and B (x-major): p is formed at 50 digits."""
    with mpmath.workdps(50):
        def mp(f):
            return [mpmath.mpf(float(x)) for x in f]

        R, N, B_k = mp(R), mp(N), [mp(column) for column in B.T]
        m = max([k for k in range(len(B_k)) if any(B_k[k])], default=0)
        p_j = []
        for j in range(2 * m + 1):
            square = mp_add(*[mp_mul(B_k[k], B_k[j - k])
                              for k in range(max(0, j - m), min(j, m) + 1)])
            p_j.append([-x for x in mp_mul(N, square)])
        p_j[0] = mp_add(p_j[0], [mpmath.mpf(mu) ** 2 * x for x in mp_mul(R, R)])
        return mp_resultant(p_j, q)


def optical_geometries(rng):
    """Random optical geometries, without those a degeneracy flag stops:
    endless (c1, c2) coefficient pairs."""
    mu, c_light = AU_DAY.mu_default, AU_DAY.c_light
    while True:
        el = KeplerianElements(
            a=rng.uniform(0.7, 2.5), e=rng.uniform(0.05, 0.5),
            i=rng.uniform(0.02, 0.7), Omega=rng.uniform(0, 2 * np.pi),
            omega=rng.uniform(0, 2 * np.pi), ell=rng.uniform(0, 2 * np.pi),
            epoch=53000.0)
        eph = circular_observer(1.0, mu, phase=rng.uniform(0, 2 * np.pi))
        t1 = rng.uniform(52900.0, 53100.0)
        t2 = t1 + rng.uniform(30.0, 250.0)
        c1, c2 = (compute_optical_coefficients(
            synthesize_optical_attributable(el, eph, t, mu, c_light), *eph.state(t))
            for t in (t1, t2))
        if not detect_degenerate_optical(c1, c2):
            yield c1, c2


def test_quadratic_resultant_matches_50_digit_oracle(rng):
    """On 30 random optical geometries, every coefficient of the resultant
    of p and q is within 1e-14 of the coefficient envelope of the same
    resultant built at 50 digits."""
    mu = AU_DAY.mu_default
    for c1, c2 in itertools.islice(optical_geometries(rng), 30):
        q = build_q_poly(c1, c2).coeffs
        p, _ = build_p_poly(c1, c2, *radial_velocity_polys(c1, c2), mu)
        q3 = np.zeros((1, 3, 3))
        q3[0, : q.shape[0], : q.shape[1]] = q
        (got,), (error,) = quadratic_resultants(p.coeffs[None], q3, p.total_degree)
        assert error is None
        want = mp_quadratic_resultant(p.coeffs, q)
        assert np.all(want[got.size:] == 0.0)
        got = got.astype(float)
        envelope = np.max(np.abs(want))
        assert np.max(np.abs(got - want[: got.size])) <= 1e-14 * envelope


def test_solver_resultant_matches_50_digit_oracle_of_the_factors(rng):
    """On 30 random optical geometries, every coefficient of the solver's
    resultant, built from p's factors, is within 1e-14 of the coefficient
    envelope of Res_y(mu^2 R^2 - N B^2, q) built at 50 digits from the same
    float R = r1.v, N = |r1|^2 and B.  Rounding p to floats first, and
    eliminating from p, reads 3.8e-13 here."""
    mu = AU_DAY.mu_default
    for c1, c2 in itertools.islice(optical_geometries(rng), 30):
        g = _pair_rows(c1, c2)
        j_polys = _q_rows(g)
        (got,), (error,), _ = _resultant_rows(g, j_polys, mu)
        assert error is None
        R, N, B, _, _ = _lenz_rows(g, j_polys[:, 1], j_polys[:, 2])
        want = mp_factored_resultant(mu, R[0, :, 0], N[0, :, 0], B[0], j_polys[0, 0])
        assert np.all(want[got.size:] == 0.0)
        envelope = np.max(np.abs(want))
        assert np.max(np.abs(got.astype(float) - want[: got.size])) <= 1e-14 * envelope


def resultant_stack(rng, rows):
    """``rows`` random optical-shaped rows for :func:`quadratic_resultants`:
    p on the (11, 9) canvas of total degree at most 10, with coefficients
    over 20 decades, and q = a y^2 + b y + c(x) with c quadratic."""
    p = rng.normal(size=(rows, 11, 9)) * 10.0 ** rng.integers(-10, 10, size=(rows, 1, 1))
    x_power, y_power = np.indices((11, 9))
    p[:, x_power + y_power > 10] = 0.0
    q = np.zeros((rows, 3, 3))
    q[:, 0, 1:] = rng.normal(size=(rows, 2))
    q[:, :, 0] = rng.normal(size=(rows, 3))
    return p, q


def test_quadratic_resultants_rows_are_independent_at_the_block_cap(rng):
    """A stack of ``BLOCK_PAIRS`` rows, among them a non-finite p, a
    non-finite q, an all-zero p, p of lower y-degree, q with a = 0 and a
    row whose coefficients overflow double, gives each row the coefficients
    (value and sign, zeros included) and the error of its one-row call."""
    p, q = resultant_stack(rng, BLOCK_PAIRS)
    p[1, 2, 3] = np.nan
    q[2, 1, 0] = np.inf
    p[3] = 0.0
    p[4, :, 5:] = 0.0
    p[5, :, 1:] = 0.0
    q[6, 0, 2] = 0.0
    p[7] *= 1e200
    got, errors = quadratic_resultants(p, q, 10)
    assert got.shape == (BLOCK_PAIRS, 21)
    assert [type(e).__name__ for e in errors[:8]] == [
        "NoneType", "NumericalError", "NumericalError", "NoneType", "NoneType",
        "NoneType", "NoneType", "NumericalError"]
    for k in range(BLOCK_PAIRS):
        (want,), (error,) = quadratic_resultants(p[k : k + 1], q[k : k + 1], 10)
        assert np.array_equal(got[k], want)
        assert np.array_equal(np.signbit(got[k]), np.signbit(want))
        assert repr(errors[k]) == repr(error)


def test_quadratic_resultants_peak_memory_at_the_block_cap(rng):
    """The traced peak of one call on a (``BLOCK_PAIRS``, 11, 9) stack is at
    most 4.55 MiB, the peak at 128 rows of a resultant that tables all 45
    products p_j p_k.  It depends on the shapes only, so the block cap
    cannot rise without the memory to carry it."""
    p, q = resultant_stack(rng, BLOCK_PAIRS)
    quadratic_resultants(p[:1], q[:1], 10)  # one-time costs are not the call's
    tracemalloc.start()
    try:
        quadratic_resultants(p, q, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.55 * 2**20


def factor_stack(rng, rows):
    """``rows`` random rows for :func:`factored_resultants`: f and n in x
    alone, b of total degree at most 4 over 10 decades, and q as in
    :func:`resultant_stack`."""
    f, n = rng.normal(size=(2, rows, 3))
    b = rng.normal(size=(rows, 5, 5)) * 10.0 ** rng.integers(-5, 5, size=(rows, 1, 1))
    x_power, y_power = np.indices((5, 5))
    b[:, x_power + y_power > 4] = 0.0
    return f, n, b, resultant_stack(rng, rows)[1]


def test_factored_resultants_rows_are_independent_at_the_block_cap(rng):
    """A stack of ``BLOCK_PAIRS`` rows, among them a non-finite f, n, b and
    q, b = 0, b of lower y-degree, b free of y, q with a = 0, a row whose
    resultant overflows double and one whose n b^2 does, gives each row
    the coefficients (value and sign, zeros included) and the error of its
    one-row call, without a numpy warning.  Each finite row equals the
    resultant of p = f - n b^2 formed in double to 1e-9 of its envelope."""
    f, n, b, q = factor_stack(rng, BLOCK_PAIRS)
    f[1, 0] = np.nan
    n[2, 1] = np.inf
    b[3, 1, 2] = np.nan
    q[4, 1, 0] = np.inf
    b[5] = 0.0
    b[6, :, 3:] = 0.0
    b[7, :, 1:] = 0.0
    q[8, 0, 2] = 0.0
    b[9] = np.abs(b[9]) * (1e100 / np.abs(b[9]).max())
    b[10] *= 1e160 / np.abs(b[10]).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, errors = factored_resultants(f, n, b, q)
        alone = [factored_resultants(f[k : k + 1], n[k : k + 1], b[k : k + 1], q[k : k + 1])
                 for k in range(BLOCK_PAIRS)]
    assert got.shape == (BLOCK_PAIRS, 21)
    assert [str(e) for e in errors[:11]] == (
        ["None"] + ["non-finite coefficients in p or q"] * 4 + ["None"] * 4
        + ["resultant coefficients overflow double precision",
           "non-finite coefficients in p or q"])
    for k, ((want,), (error,)) in enumerate(alone):
        assert np.array_equal(got[k], want)
        assert np.array_equal(np.signbit(got[k]), np.signbit(want))
        assert repr(errors[k]) == repr(error)
    ok = np.array([error is None for error in errors])
    p = -_smul(_smul(b[ok], b[ok]), n[ok, :, None])
    p[:, :3, 0] += f[ok]
    want, _ = quadratic_resultants(p, q[ok], 10)
    envelope = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got[ok] - want) <= 1e-9 * envelope)


def test_factored_resultants_peak_memory_at_the_block_cap(rng):
    """The traced peak of one call on ``BLOCK_PAIRS`` rows is at most
    2.85 MiB, as measured.  It depends on the shapes only, so the block
    cap cannot rise without the memory to carry it."""
    f, n, b, q = factor_stack(rng, BLOCK_PAIRS)
    factored_resultants(f[:1], n[:1], b[:1], q[:1])  # one-time costs are not the call's
    tracemalloc.start()
    try:
        factored_resultants(f, n, b, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.85 * 2**20
