"""Tests for the optical-optical linkage: polynomial construction against
direct vector-arithmetic oracles, degree structure, root recovery on
synthetic truths, spurious screening, degeneracy flags, and curve grids."""

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from arclink.attributables import (
    OpticalAttributable,
    circular_observer,
    synthesize_optical_attributable,
    synthetic_truth_state,
)
from arclink.config import AU_DAY, RunConfig
from arclink.constants import GM_SUN_AU3_DAY2
from arclink.errors import DegenerateConfigurationError, DomainError, NumericalError
from arclink.geometry import topocentric_coords
from arclink.kepler import CartesianState, KeplerianElements
from arclink import optical
from arclink.optical import (
    _newton_inputs,
    _newton_rows,
    _pair_rows,
    _q_lenz,
    _q_rows,
    _quadratic_root_rows,
    _screen,
    build_p_poly,
    build_q_poly,
    compute_optical_coefficients,
    count_zero_intersections,
    curve_grids,
    detect_degenerate_optical,
    emit_curve_samples,
    lenz_projection_direction,
    link_optical,
    link_optical_rows,
    optical_candidate_pairs,
    optical_candidate_rows,
    radial_velocities,
    radial_velocity_polys,
)
from arclink.polynomials import (
    BivariatePoly,
    coeffs_in_second_var,
    fft_evaluation_interpolation,
    quadratic_resultant,
    sylvester_matrix,
    sylvester_resultant,
)
from conftest import record_rows

MU = GM_SUN_AU3_DAY2
C_AU = AU_DAY.c_light

TRUTH = KeplerianElements(a=0.92, e=0.19, i=0.06, Omega=1.1, omega=2.4,
                          ell=0.7, epoch=53175.0)
TBAR1, TBAR2 = 53175.59, 53357.45


def synth_pair(truth=TRUTH, tbar1=TBAR1, tbar2=TBAR2, phase=0.0):
    eph = circular_observer(1.0, MU, phase=phase)
    att1 = synthesize_optical_attributable(truth, eph, tbar1, MU, C_AU)
    att2 = synthesize_optical_attributable(truth, eph, tbar2, MU, C_AU)
    obs1 = CartesianState(*eph.state(tbar1), tbar1)
    obs2 = CartesianState(*eph.state(tbar2), tbar2)
    return att1, att2, obs1, obs2, eph


# optical-screen seed 3, batch 1, pair (3, 15): two resultant roots polish
# to one rho1, within 1e-9, and each completes to two close rho2.
TWIN_ROOTS = (
    OpticalAttributable(6.049940379130704, -0.2022200722017594, 0.0017910294853175368,
                        -0.006190156024019707, 53001.05138133528),
    OpticalAttributable(0.20192898755080385, -0.01209006343548913, 0.009204773169318323,
                        0.004484602327592648, 53056.659825271294))


def observed_pair(att1, att2):
    """Two attributables with the states of the circular 1-au observer."""
    eph = circular_observer(1.0, MU)
    return (att1, att2, CartesianState(*eph.state(att1.tbar), att1.tbar),
            CartesianState(*eph.state(att2.tbar), att2.tbar))


def random_coeff_pair(rng):
    """Random, generically non-degenerate pair of epoch geometries."""
    el = KeplerianElements(
        a=rng.uniform(0.7, 2.5), e=rng.uniform(0.05, 0.5),
        i=rng.uniform(0.02, 0.7), Omega=rng.uniform(0, 2 * np.pi),
        omega=rng.uniform(0, 2 * np.pi), ell=rng.uniform(0, 2 * np.pi),
        epoch=53000.0)
    t1 = rng.uniform(52900.0, 53100.0)
    t2 = t1 + rng.uniform(30.0, 250.0)
    att1, att2, obs1, obs2, _ = synth_pair(el, t1, t2,
                                           phase=rng.uniform(0, 2 * np.pi))
    c1 = compute_optical_coefficients(att1, obs1.r, obs1.v)
    c2 = compute_optical_coefficients(att2, obs2.r, obs2.v)
    return c1, c2


def screened_coeff_pair(rng):
    """A random pair of epoch geometries drawn as the acceptance criteria
    draw theirs: no degeneracy flag, and both |E_i . W| / (|E_i| |W|) of
    at least 3e-2, W = D1 x D2."""
    while True:
        c1, c2 = random_coeff_pair(rng)
        W = np.cross(c1.D, c2.D)
        margin = min(abs(np.dot(c.E, W)) / (np.linalg.norm(c.E) * np.linalg.norm(W))
                     for c in (c1, c2))
        if not detect_degenerate_optical(c1, c2) and margin >= 3e-2:
            return c1, c2


def states_at(c1, c2, x, y, rhodot1, rhodot2):
    from arclink.geometry import body_position, body_velocity
    r1 = body_position(c1.q, x, c1.basis)
    v1 = body_velocity(c1.qdot, x, rhodot1, c1.att.alphadot, c1.att.deltadot, c1.basis)
    r2 = body_position(c2.q, y, c2.basis)
    v2 = body_velocity(c2.qdot, y, rhodot2, c2.att.alphadot, c2.att.deltadot, c2.basis)
    return r1, v1, r2, v2


class TestPolynomialConstruction:
    def test_angular_momentum_difference_oracle(self, rng):
        """With rhodot from the elimination, c1 - c2 must be parallel to
        W = D1 x D2 with magnitude -q/|W|^2 -- ties D,E,F,G, the radial
        velocity solution, and the quadratic together."""
        for _ in range(12):
            c1, c2 = random_coeff_pair(rng)
            qpoly = build_q_poly(c1, c2)
            W = np.cross(c1.D, c2.D)
            wsq = np.dot(W, W)
            for _ in range(6):
                x, y = rng.uniform(0.1, 3.0, size=2)
                rd1, rd2 = radial_velocities(c1, c2, x, y)
                r1, v1, r2, v2 = states_at(c1, c2, x, y, rd1, rd2)
                diff = np.cross(r1, v1) - np.cross(r2, v2)
                expected = -qpoly(x, y) / wsq * W
                scale = max(np.linalg.norm(np.cross(r1, v1)), 1e-12)
                assert np.linalg.norm(diff - expected) < 1e-10 * scale, (
                    f"c1-c2 not -q W/|W|^2 at ({x}, {y})"
                )

    def test_radial_velocity_polys_match_vector_solution(self, rng):
        for _ in range(10):
            c1, c2 = random_coeff_pair(rng)
            p1, p2 = radial_velocity_polys(c1, c2)
            for _ in range(8):
                x, y = rng.uniform(0.1, 3.0, size=2)
                rd1, rd2 = radial_velocities(c1, c2, x, y)
                assert abs(p1(x, y) - rd1) < 1e-10 * max(1.0, abs(rd1))
                assert abs(p2(x, y) - rd2) < 1e-10 * max(1.0, abs(rd2))

    def test_p_poly_against_direct_evaluation(self, rng):
        """p(x, y) must equal the defining expression evaluated with plain
        vector arithmetic at the same (x, y, rhodot1(x,y), rhodot2(x,y))."""
        for _ in range(12):
            c1, c2 = random_coeff_pair(rng)
            rd1p, rd2p = radial_velocity_polys(c1, c2)
            ppoly, v = build_p_poly(c1, c2, rd1p, rd2p, MU)
            for _ in range(8):
                x, y = rng.uniform(0.1, 3.0, size=2)
                rd1, rd2 = radial_velocities(c1, c2, x, y)
                r1, v1, r2, v2 = states_at(c1, c2, x, y, rd1, rd2)
                B = (np.dot(v1, v1) * np.dot(r1, v) - np.dot(v1, r1) * np.dot(v1, v)
                     + np.dot(v2, r2) * np.dot(v2, v))
                term1 = MU**2 * np.dot(r1, v) ** 2
                term2 = np.dot(r1, r1) * B**2
                direct = term1 - term2
                denom = abs(term1) + abs(term2) + 1e-300
                assert abs(ppoly(x, y) - direct) < 1e-9 * denom, (
                    f"p mismatch at ({x}, {y}): {ppoly(x, y)} vs {direct}"
                )

    @staticmethod
    def p_by_the_expanded_build(c1, c2, mu):
        """p as it was built when the solver eliminated rho2 from p itself:
        B, then p = mu^2 (r1.v)^2 - |r1|^2 B^2, in the same operations."""
        g = _pair_rows(c1, c2)
        j_polys = _q_rows(g)
        rd1, rd2 = j_polys[:, 1], j_polys[:, 2]
        v = optical.row_cross(g[:, 1, optical._ERHO], g[:, 1, optical._Q])
        e1v, q1v, qd1v, t1v, qd2v, t2v, _, _ = optical.row_dot(np.concatenate(
            [g[:, 0, optical._WITH_V[0]], g[:, 1, optical._WITH_V[1]], v[:, None]], axis=1),
            v[:, None]).T
        (qe1, qde1, qq1, qdq1, qdsq1, qdt1, qt1, k1), (qe2, qde2, _, qdq2, _, _, qt2, _) = \
            np.moveaxis(optical.row_dot(g[:, :, optical._EPOCH_LEFT],
                                        g[:, :, optical._EPOCH_RIGHT]), 0, -1)
        lam1, lam2 = qde1 + qt1, qde2 + qt2
        one, smul, x_poly = np.ones(1), optical._smul, optical._x_poly
        r1v = x_poly(q1v, e1v)
        rest1 = (2.0 * qde1)[:, None, None] * rd1
        rest1[:, :, 0] += np.array([qdsq1, 2.0 * qdt1, k1]).T
        inner = np.array([qe1 * qd1v + e1v * qdq1, qd1v + qe1 * t1v + e1v * lam1, t1v]).T
        rest23 = x_poly(qdq1 * qd1v, qdq1 * t1v + lam1 * qd1v, lam1 * t1v)
        dot2 = smul(rd2, x_poly(qe2, one).transpose(0, 2, 1))
        dot2[:, 0, :2] += np.array([qdq2, lam2]).T
        dot23 = smul(dot2, x_poly(qd2v, t2v).transpose(0, 2, 1))
        k_rd1 = (q1v - qe1 * e1v)[:, None, None] * rd1
        k_rd1[:, :, 0] -= inner
        bracket = smul(rd1, k_rd1)
        bracket[:, :4, :3] += smul(rest1, r1v)
        bracket[:, :3, :1] -= rest23
        bracket[:, :3] += dot23
        p = -smul(smul(bracket, bracket), x_poly(qq1, 2.0 * qe1, one))
        p[:, :3, :1] += (mu * mu) * smul(r1v, r1v)
        return p[0]

    def test_p_poly_equals_the_expanded_build_bitwise(self, rng):
        """``build_p_poly`` forms p from the factors that the solver's
        resultant reads, with the coefficients (value and sign) of the
        expanded build that the curves and criteria 1 and 8 read before."""
        for _ in range(12):
            c1, c2 = random_coeff_pair(rng)
            ppoly, _ = build_p_poly(c1, c2, *radial_velocity_polys(c1, c2), MU)
            want = BivariatePoly(self.p_by_the_expanded_build(c1, c2, MU)).coeffs
            assert np.array_equal(ppoly.coeffs, want)
            assert np.array_equal(np.signbit(ppoly.coeffs), np.signbit(want))

    def test_p_vanishes_when_lenz_projection_matches(self, rng):
        """p = 0 is implied by the projected Lenz equality at any state pair
        built from a common orbit sampled at the two epochs."""
        att1, att2, obs1, obs2, eph = synth_pair()
        c1 = compute_optical_coefficients(att1, obs1.r, obs1.v)
        c2 = compute_optical_coefficients(att2, obs2.r, obs2.v)
        rd1p, rd2p = radial_velocity_polys(c1, c2)
        ppoly, v = build_p_poly(c1, c2, rd1p, rd2p, MU)
        s1 = synthetic_truth_state(TRUTH, att1, MU, C_AU, eph)
        s2 = synthetic_truth_state(TRUTH, att2, MU, C_AU, eph)
        x = np.linalg.norm(s1.r - obs1.r)
        y = np.linalg.norm(s2.r - obs2.r)
        scale = MU**2 * max(1.0, np.dot(s1.r, v) ** 2)
        assert abs(ppoly(x, y)) < 1e-9 * scale

    def test_degree_structure(self, rng):
        """Total degree 10, degree 8 in rho2, and the per-power pattern of
        the rho1-degrees of the rho2-coefficients; the zeros beyond are
        structural, so the degrees are exact."""
        expected = [10, 8, 8, 6, 6, 4, 4, 2, 2]
        for _ in range(10):
            c1, c2 = random_coeff_pair(rng)
            rd1, rd2 = radial_velocity_polys(c1, c2)
            ppoly, _ = build_p_poly(c1, c2, rd1, rd2, MU)
            assert ppoly.total_degree == 10
            assert ppoly.degree_y == 8
            a = coeffs_in_second_var(ppoly)
            degs = [aj.degree for aj in a]
            assert degs == expected, f"coefficient degrees {degs}"

    def test_quadratic_structure(self, rng):
        c1, c2 = random_coeff_pair(rng)
        qpoly = build_q_poly(c1, c2)
        assert qpoly.total_degree == 2
        assert qpoly.degree_y == 2
        # no cross terms: only the five monomials 1, x, x^2, y, y^2
        nz = {(i, j) for i, j in zip(*np.nonzero(qpoly.coeffs))}
        assert nz <= {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)}

    def test_resultant_degree_bound(self, rng):
        """Unconstrained interpolation must put everything above degree 20
        at noise level."""
        c1, c2 = random_coeff_pair(rng)
        qpoly = build_q_poly(c1, c2)
        rd1, rd2 = radial_velocity_polys(c1, c2)
        ppoly, _ = build_p_poly(c1, c2, rd1, rd2, MU)
        S = sylvester_matrix(ppoly, qpoly)
        assert len(S) == 10
        res = fft_evaluation_interpolation(S, 32, degree_bound=None)
        c = np.zeros(32)
        c[: len(res.coeffs)] = res.coeffs
        top = np.max(np.abs(c))
        assert np.all(np.abs(c[21:]) < 1e-9 * top), (
            f"tail {np.max(np.abs(c[21:])) / top:.2e} above degree 20"
        )


def product_over_roots(ppoly, qpoly, x):
    """Res(x) = a^m prod p(x, beta) over the roots beta of q(x, .), the
    oracle of acceptance criterion 8 (sign (-1)^(2m) = 1)."""
    qy = np.array([npp.polyval(x, qpoly.coeffs[:, j])
                   for j in range(qpoly.coeffs.shape[1])])
    beta = npp.polyroots(qy)
    return (qy[-1] ** ppoly.degree_y * np.prod(ppoly(x, beta))).real


class TestClosedFormResultant:
    def test_matches_product_over_roots_and_sylvester(self, rng):
        """On screened random geometries, including at least one with
        |a/b| <= 1e-2 (where the pseudo-remainder form loses digits), the
        closed form equals the product over the roots of q at generic
        points and the Sylvester/FFT resultant coefficient by coefficient."""
        checked = small = 0
        for _ in range(200):
            if checked >= 12 and small >= 1:
                break
            c1, c2 = random_coeff_pair(rng)
            if detect_degenerate_optical(c1, c2):
                continue
            qpoly = build_q_poly(c1, c2)
            rd1, rd2 = radial_velocity_polys(c1, c2)
            ppoly, _ = build_p_poly(c1, c2, rd1, rd2, MU)
            ratio = abs(qpoly.coeffs[0, 2] / qpoly.coeffs[0, 1])
            res = quadratic_resultant(ppoly, qpoly)
            envelope = np.abs(res.coeffs)
            for x in rng.uniform(0.1, 2.0, size=10):
                oracle = product_over_roots(ppoly, qpoly, x)
                if abs(oracle) < 1e-2 * npp.polyval(x, envelope):
                    continue  # cancellation-dominated, as in criterion 8
                assert abs(res(x) - oracle) <= 1e-8 * abs(oracle), (
                    f"|a/b| = {ratio:.1e}, x = {x:.3f}: {res(x)} vs {oracle}")
            try:
                ref = sylvester_resultant(ppoly, qpoly, n_points=32)
            except NumericalError:
                continue
            mine, theirs = np.zeros(21), np.zeros(21)
            mine[: len(res.coeffs)] = res.coeffs / np.max(np.abs(res.coeffs))
            theirs[: len(ref.coeffs)] = ref.coeffs / np.max(np.abs(ref.coeffs))
            gap = np.max(np.abs(mine - theirs))
            assert gap < 1e-9, f"|a/b| = {ratio:.1e}: coefficient gap {gap:.1e}"
            checked += 1
            small += ratio <= 1e-2
        assert checked >= 12 and small >= 1, (checked, small)

    def test_linear_q_gives_substitution(self, rng):
        """At a = 0 the closed form needs no branch: it equals
        p_m (-b)^m p(x, -c/b), with p_m the leading y-coefficient of p."""
        c1, c2 = random_coeff_pair(rng)
        rd1, rd2 = radial_velocity_polys(c1, c2)
        ppoly, _ = build_p_poly(c1, c2, rd1, rd2, MU)
        qc = build_q_poly(c1, c2).coeffs.copy()
        qc[0, 2] = 0.0
        qlin = BivariatePoly(qc)
        assert qlin.degree_y == 1
        res = quadratic_resultant(ppoly, qlin)
        m, b = ppoly.degree_y, qc[0, 1]
        for x in np.linspace(0.2, 3.0, 8):
            c = npp.polyval(x, qc[:, 0])
            want = npp.polyval(x, ppoly.coeffs[:, m]) * (-b) ** m * ppoly(x, -c / b)
            assert abs(res(x) - want) <= 1e-9 * npp.polyval(x, np.abs(res.coeffs))

    def test_rejects_q_with_mixed_terms(self):
        p = BivariatePoly(np.array([[1.0, 2.0, 3.0]]))
        q = BivariatePoly(np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]))
        with pytest.raises(DomainError):
            quadratic_resultant(p, q)


class TestLinkOptical:
    def test_recovers_synthetic_truth(self):
        att1, att2, obs1, obs2, eph = synth_pair()
        sols = link_optical(att1, att2, obs1, obs2, RunConfig())
        assert len(sols) >= 1
        s1 = synthetic_truth_state(TRUTH, att1, MU, C_AU, eph)
        s2 = synthetic_truth_state(TRUTH, att2, MU, C_AU, eph)
        truth1 = topocentric_coords(s1.r, s1.v, obs1.r, obs1.v)
        truth2 = topocentric_coords(s2.r, s2.v, obs2.r, obs2.v)
        best = min(sols, key=lambda s: abs(s.rho1 - truth1[4]))
        assert abs(best.rho1 - truth1[4]) < 1e-6 * truth1[4]
        assert abs(best.rho2 - truth2[4]) < 1e-6 * truth2[4]
        assert abs(best.rhodot1 - truth1[5]) < 1e-6 * max(1e-3, abs(truth1[5]))
        assert abs(best.rhodot2 - truth2[5]) < 1e-6 * max(1e-3, abs(truth2[5]))
        # states reproduce the emission states
        assert np.linalg.norm(best.state1.r - s1.r) < 1e-8
        assert np.linalg.norm(best.state2.r - s2.r) < 1e-8
        # epochs are light-time corrected
        assert abs(best.state1.epoch - (TBAR1 - best.rho1 / C_AU)) < 1e-12
        assert abs(best.state2.epoch - (TBAR2 - best.rho2 / C_AU)) < 1e-12
        # elements match the generating orbit
        assert best.elliptic and best.elements1 is not None
        assert abs(best.elements1.a - TRUTH.a) < 1e-6
        assert abs(best.elements1.e - TRUTH.e) < 1e-6
        assert abs(best.compat_lenz) < 1e-8
        assert best.compat_anomaly is not None and abs(best.compat_anomaly) < 1e-8
        assert abs(best.energy_offset) < 1e-10

    def test_angular_momentum_equal_on_solutions(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        for sol in link_optical(att1, att2, obs1, obs2):
            cvec1 = np.cross(sol.state1.r, sol.state1.v)
            cvec2 = np.cross(sol.state2.r, sol.state2.v)
            assert np.linalg.norm(cvec1 - cvec2) < 1e-9 * np.linalg.norm(cvec1)

    def test_epoch_swap_recovers_truth_both_ways(self):
        # The acceptance screen projects the Laplace-Lenz difference on a
        # direction built from the *second* epoch, so swapping the epochs can
        # legitimately keep or drop borderline non-physical candidates (the
        # chi-square identification stage disposes of those).  The physical
        # solution, however, must survive in both orders, mirrored.
        att1, att2, obs1, obs2, eph = synth_pair()
        s1 = synthetic_truth_state(TRUTH, att1, MU, C_AU, eph)
        s2 = synthetic_truth_state(TRUTH, att2, MU, C_AU, eph)
        true1 = topocentric_coords(s1.r, s1.v, obs1.r, obs1.v)[4]
        true2 = topocentric_coords(s2.r, s2.v, obs2.r, obs2.v)[4]
        fwd = link_optical(att1, att2, obs1, obs2)
        rev = link_optical(att2, att1, obs2, obs1)
        hit_fwd = min(fwd, key=lambda s: abs(s.rho1 - true1))
        hit_rev = min(rev, key=lambda s: abs(s.rho2 - true1))
        assert abs(hit_fwd.rho1 - true1) < 1e-7 and abs(hit_fwd.rho2 - true2) < 1e-7
        assert abs(hit_rev.rho2 - true1) < 1e-7 and abs(hit_rev.rho1 - true2) < 1e-7
        # and the mirrored pair agrees between the two runs
        assert abs(hit_fwd.rho1 - hit_rev.rho2) < 1e-9
        assert abs(hit_fwd.rho2 - hit_rev.rho1) < 1e-9

    def test_spurious_candidates_are_separated(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        c1 = compute_optical_coefficients(att1, obs1.r, obs1.v)
        c2 = compute_optical_coefficients(att2, obs2.r, obs2.v)
        rho1, rho2, resid, accepted = optical_candidate_pairs(
            c1, c2, RunConfig())
        assert accepted.any(), "the true solution must be accepted"
        if (~accepted).any():
            worst_accepted = np.max(np.abs(resid[accepted]))
            best_discarded = np.min(np.abs(resid[~accepted]))
            assert best_discarded > 10.0 * max(worst_accepted, 1e-13), (
                f"margin too thin: {best_discarded} vs {worst_accepted}"
            )

    @staticmethod
    def screened_candidates(first, second):
        """The candidates of one pair and each one's Lenz residual relative
        to |L1| + |L2|."""
        att1, att2, obs1, obs2 = observed_pair(OpticalAttributable(*first),
                                               OpticalAttributable(*second))
        c1 = compute_optical_coefficients(att1, obs1.r, obs1.v)
        c2 = compute_optical_coefficients(att2, obs2.r, obs2.v)
        rho1, rho2, resid, accepted = optical_candidate_pairs(c1, c2, RunConfig())
        lenz = _screen(np.repeat(_pair_rows(c1, c2), len(rho1), axis=0), rho1, rho2,
                       RunConfig())["lenz"]
        return rho1, rho2, resid, accepted, resid / np.linalg.norm(lenz, axis=2).sum(axis=1)

    def test_screen_is_relative_to_the_lenz_vectors(self):
        """The Lenz screen is scale-free.  ``optical-survey`` seed 1, batch 1,
        pair (10, 11) has a far, hyperbolic candidate at (61.590394,
        67.270239) with |L1| + |L2| = 4.5e9: its residual reads about 1e-6
        in absolute terms and 3e-16 relative, and it is accepted.
        ``optical-screen`` seed 3, batch 3, pair (1, 3) has a converged
        candidate at (2.020028, 466.147092) whose residual is 9.1e-5 of
        |L1| + |L2|: it is rejected."""
        rho1, rho2, resid, accepted, rel = self.screened_candidates(
            (2.7532132762466994, -0.0935339839966355, 0.006380906107790178,
             0.017414108891258027, 53001.274046510356),
            (0.03494576277450372, 0.09900929567558979, 0.011496851923519758,
             0.0030734359329418486, 53060.01365847494))
        (far,) = np.nonzero((np.abs(rho1 - 61.590394) < 1e-6)
                            & (np.abs(rho2 - 67.270239) < 1e-6))
        assert accepted[far] and abs(rel[far]) < 1e-14 and abs(resid[far]) > 1e-7
        rho1, rho2, resid, accepted, rel = self.screened_candidates(
            (5.315438232037938, 0.18754814291177513, 0.004149876460550181,
             -0.0015191395143230077, 53003.15145528074),
            (0.36852763258067706, -0.16592821483711323, 0.010998208999948677,
             -0.001514737127946512, 53115.93950305008))
        (off,) = np.nonzero((np.abs(rho1 - 2.020028) < 1e-6)
                            & (np.abs(rho2 - 466.147092) < 1e-6))
        assert not accepted[off] and abs(rel[off]) > 1e-6

    @pytest.mark.parametrize("first, second, rho1, rho2", [
        # (alpha, delta, alphadot, deltadot, tbar) pairs from a seeded
        # survey panel, observed from the circular 1-au orbit: far (~3 au)
        # objects whose true root the Sylvester/FFT resultant misplaced.
        ((4.6441847123824775, -0.26952269411327784, 0.009249536129737649,
          -0.0007371600057184341, 53024.65291005029),
         (5.562912955091258, -0.3292738606431633, 0.010312486413625593,
          -0.0005265078015719778, 53117.56368933042),
         2.9156214222485173, 2.918657995870241),
        ((4.465210381944477, -0.3433114804699788, 0.010136681536515094,
          0.00016393419150505196, 53025.11089810365),
         (5.124446790463162, -0.3289458969106888, 0.009208520882503828,
          0.00021386966843141175, 53092.917511825515),
         2.948946756956308, 3.069662800025714),
        # seeded survey batch pairs and screen panels whose true root the
        # squared system's polish lost near a meeting of its two branches
        ((3.0666571529480033, -0.2661147616924191, 0.011415927022834789,
          -0.0026132785226009635, 53001.20593921723),
         (3.693719927411023, -0.4154587408700786, 0.009806035446310606,
          -0.0025718777628763448, 53059.80327272535),
         2.098765942553056, 1.8193597953060083),
        ((4.449391568361477, 0.04272234297087143, 0.006393786322940528,
          -0.0010161468049949848, 53001.07837584712),
         (4.857938618560619, -0.01243027629974402, 0.007353476100612099,
          -0.0009168504830261466, 53059.96303206088),
         3.442982194102259, 3.583742592190647),
        ((5.553708436136203, -0.2035584988405979, 0.004590962519794179,
          0.0009606772779048768, 53026.141579391304),
         (5.804181447354265, -0.16856185716082495, 0.005931041738112205,
          0.00056375464194175, 53072.7951046317),
         3.084826329657343, 3.715615531946251),
        ((6.187248828578211, -0.46533281285707967, 0.0004833562349407699,
          0.0022982693838994664, 53028.20831575504),
         (6.220584723096514, -0.4137992869659438, 0.002303922408710971,
          0.0020899845222782424, 53051.47708033562),
         3.3192998321660814, 3.6001621842217397),
    ])
    def test_recovers_far_survey_links(self, first, second, rho1, rho2):
        sols = link_optical(*observed_pair(OpticalAttributable(*first),
                                           OpticalAttributable(*second)), RunConfig())
        err = min((max(abs(s.rho1 - rho1) / rho1, abs(s.rho2 - rho2) / rho2)
                   for s in sols), default=np.inf)
        assert err < 1e-10, f"closest solution {err:.2e} relative off the truth"

    def test_keeps_every_solution_of_the_unsquared_system(self):
        """A seeded survey pair whose true ranges (3.2906, 3.0548) and a
        second solution of q = 0 and (L1 - L2) . v_hat = 0 at
        (2.673572, 2.215769) both come back, the latter with its Lenz
        residual at roundoff."""
        sols = link_optical(*observed_pair(
            OpticalAttributable(3.173885543391087, -0.4231200169214085, 0.00792188131009069,
                                -0.000996310309303623, 53000.10794336395),
            OpticalAttributable(3.364560409804399, -0.4505506506041187, 0.007705990897850195,
                                -0.0012631758756469792, 53024.457746642314)), RunConfig())
        truth = min(sols, key=lambda s: abs(s.rho1 - 3.2905539124858647))
        assert abs(truth.rho1 / 3.2905539124858647 - 1.0) < 1e-10
        assert abs(truth.rho2 / 3.0547667019411113 - 1.0) < 1e-10
        other = min(sols, key=lambda s: abs(s.rho1 - 2.673572))
        assert abs(other.rho1 - 2.673572) < 1e-6 and abs(other.rho2 - 2.215769) < 1e-6
        assert abs(other.lenz_residual) < 1e-12

    def test_link_past_a_turning_point_of_q(self):
        """``optical-survey`` seed 10, batch 3, pair (10, 4): the link lies
        near a turning point of q in rho1, where the resultant has four
        roots within 2% of each other.  The nearest one in the start
        window, rho1 = 1.7667, is past the turning point (q(rho1, .) has a
        discriminant of -4e-3 of b^2 + 4|ac|), and its vertex start is the
        one that reaches the truth."""
        sols = link_optical(*observed_pair(
            OpticalAttributable(3.6926326971778303, 0.09747229006465276, 0.020838735515157778,
                                0.001363833207253313, 53003.10551660894),
            OpticalAttributable(6.051070519778958, -0.09885336467774183, 0.019824337588395875,
                                -0.0022864538699986694, 53108.38772344018)), RunConfig())
        truth = min(sols, key=lambda s: abs(s.rho1 - 1.7783231727298296))
        assert abs(truth.rho1 / 1.7783231727298296 - 1.0) < 1e-10
        assert abs(truth.rho2 / 1.6988214858834585 - 1.0) < 1e-10

    def test_roots_polished_together_are_one_orbit(self):
        sols = link_optical(*observed_pair(*TWIN_ROOTS), RunConfig())
        rho1 = sorted(s.rho1 for s in sols)
        assert all(b - a > 1e-9 * max(1.0, b) for a, b in zip(rho1, rho1[1:])), rho1
        assert any(abs(r - 0.05276310845845263) <= 1e-9 for r in rho1)

    def test_rho2_quadratic_cases(self):
        """The completion's quadratic a y^2 + b y + c in rho2: two roots by
        the stable formula, one for a linear or a grazing quadratic (a
        discriminant of -4e-12 or -1.6e-2, within 1e-2 of b^2 + 4|ac|: the
        vertex), none for a zero quadratic or a discriminant further below
        zero (-4 and -0.4, all and 4.8e-2 of b^2 + 4|ac|), and a zero
        root."""
        with np.errstate(all="ignore"):  # the branches a row does not take
            y, exists = _quadratic_root_rows(
                np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
                np.array([-3.0, 2.0, -2.0, 0.0, 0.0, 0.0, -2.0, -2.0]),
                np.array([2.0, -4.0, 1.0 + 1e-12, 0.0, 1.0, 0.0, 1.004, 1.1]))
        assert exists.tolist() == [[True, True], [True, False], [True, False],
                                   [False, False], [False, False], [True, True],
                                   [True, False], [False, False]]
        assert y[exists].tolist() == [2.0, 1.0, 2.0, 1.0, 0.0, 0.0, 1.0]

    def test_requires_optical_kind(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        from arclink.attributables import RadarAttributable
        radar = RadarAttributable(1.0, 0.1, 1.0, 0.0, att1.tbar)
        with pytest.raises(DomainError):
            link_optical(radar, att2, obs1, obs2)

    def test_rejects_equal_epochs(self):
        att1, _, obs1, _, _ = synth_pair()
        with pytest.raises(DomainError):
            link_optical(att1, att1, obs1, obs1)

    def test_rejects_mismatched_observer_epoch(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        bad = CartesianState(obs1.r, obs1.v, obs1.epoch + 1.0)
        with pytest.raises(DomainError):
            link_optical(att1, att2, bad, obs2)


class TestStackedBlock:
    """A pair's elimination is row-wise arithmetic: the same in a block of
    one as in a mixed block, bit for bit."""

    def block(self, rng):
        pairs = [random_coeff_pair(rng) for _ in range(5)]
        att1, att2, obs1, obs2, _ = synth_pair()
        dead = OpticalAttributable(att2.alpha, att2.delta, 0.0, 0.0, att2.tbar)
        dead1 = OpticalAttributable(att1.alpha, att1.delta, 0.0, 0.0, att1.tbar)
        pairs.insert(2, (compute_optical_coefficients(dead1, obs1.r, obs1.v),
                         compute_optical_coefficients(dead, obs2.r, obs2.v)))
        twin1, twin2, obs1, obs2 = observed_pair(*TWIN_ROOTS)
        pairs.insert(4, (compute_optical_coefficients(twin1, obs1.r, obs1.v),
                         compute_optical_coefficients(twin2, obs2.r, obs2.v)))
        return [c1 for c1, _ in pairs], [c2 for _, c2 in pairs]

    def test_every_stage_matches_a_block_of_one(self, rng):
        c1s, c2s = self.block(rng)
        config = RunConfig()
        stacked = optical_candidate_rows(record_rows(c1s), record_rows(c2s), config)
        assert isinstance(stacked[2], DegenerateConfigurationError)
        assert sum(isinstance(c, DegenerateConfigurationError) for c in stacked) == 1
        for c1, c2, got in zip(c1s, c2s, stacked):
            (alone,) = optical_candidate_rows(c1.row[None], c2.row[None], config)
            if isinstance(alone, Exception):
                assert type(got) is type(alone) and str(got) == str(alone)
                continue
            assert got.rho1.size > 0
            # ranges polished together are one candidate range
            x = np.unique(got.rho1)
            assert (np.diff(x) > 1e-9 * np.maximum(1.0, x[1:])).all()
            for name in ("resultant", "roots", "starts", "steps", "converged", "rho1", "rho2",
                         "rhodot1",
                         "rhodot2", "r1", "v1", "t1", "r2", "v2", "t2",
                         "residual", "accepted"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(alone, name), err_msg=name)

    def test_solutions_match_a_block_of_one(self, rng):
        c1s, c2s = self.block(rng)
        config = RunConfig()
        for c1, c2, got in zip(c1s, c2s, link_optical_rows(record_rows(c1s), record_rows(c2s),
                                                          config).per_pair()):
            (alone,) = link_optical_rows(c1.row[None], c2.row[None], config).per_pair()
            if isinstance(alone, Exception):
                assert type(got) is type(alone)
                continue
            assert len(got) == len(alone) >= 1
            for a, b in zip(got, alone):
                assert (a.rho1, a.rho2, a.rhodot1, a.rhodot2, a.lenz_residual,
                        a.compat_lenz, a.energy_offset) == (
                    b.rho1, b.rho2, b.rhodot1, b.rhodot2, b.lenz_residual,
                    b.compat_lenz, b.energy_offset)
                for sa, sb in ((a.state1, b.state1), (a.state2, b.state2)):
                    assert sa.epoch == sb.epoch
                    np.testing.assert_array_equal(sa.r, sb.r)
                    np.testing.assert_array_equal(sa.v, sb.v)


class TestNewton:
    """The refinement of the starts on q = 0 and (L1 - L2) . v_hat = 0."""

    @staticmethod
    def residuals(c1, c2, rho):
        """:func:`_q_lenz` at the points rho (K, 2) of one pair."""
        g = _pair_rows(c1, c2)
        return _q_lenz(*_newton_inputs(g, _q_rows(g), np.zeros(len(rho), dtype=int)),
                       rho, MU)

    def test_jacobian_matches_central_differences(self, rng):
        """On screened random geometries, the residuals are q and mu times
        the screen's Lenz residual, and their chain-rule Jacobian agrees
        with central differences."""
        for _ in range(12):
            c1, c2 = screened_coeff_pair(rng)
            rho = rng.uniform(0.1, 3.0, size=(6, 2))
            (q, lenz), jac, _, norm = self.residuals(c1, c2, rho)
            np.testing.assert_allclose(q, build_q_poly(c1, c2)(*rho.T), rtol=1e-10,
                                       atol=1e-12 * np.abs(q).max())
            g = np.repeat(_pair_rows(c1, c2), len(rho), axis=0)
            screen = _screen(g, *rho.T, RunConfig())["residual"]
            np.testing.assert_allclose(lenz / MU, screen, rtol=0.0, atol=1e-12 * (norm / MU).max())
            for axis in range(2):
                h = np.zeros_like(rho)
                h[:, axis] = 1e-6 * np.maximum(1.0, rho[:, axis])
                (q_up, l_up), *_ = self.residuals(c1, c2, rho + h)
                (q_down, l_down), *_ = self.residuals(c1, c2, rho - h)
                for row, up, down in ((0, q_up, q_down), (1, l_up, l_down)):
                    numeric = (up - down) / (2.0 * h[:, axis])
                    analytic = jac[row][axis]
                    np.testing.assert_allclose(analytic, numeric, rtol=1e-6,
                                               atol=1e-7 * np.abs(jac[row]).max())

    def test_live_rows_match_one_row_calls(self, rng):
        """On a seeded block of 48 pairs, the Newton over all its starts
        gives each start the iterate, steps and verdict of its one-row call,
        bit for bit: the starts the filter holds back, those that converge
        and those that reach the step cap."""
        pairs = [random_coeff_pair(rng) for _ in range(48)]
        cands = optical_candidate_rows(record_rows(c1 for c1, _ in pairs),
                                       record_rows(c2 for _, c2 in pairs), RunConfig())
        g = np.concatenate([_pair_rows(c1, c2) for c1, c2 in pairs])
        start_pair = np.repeat(np.arange(len(pairs)), [len(c.starts) for c in cands])
        starts = np.concatenate([c.starts for c in cands])
        dots, jc = _newton_inputs(g, _q_rows(g), start_pair)
        rho, steps, converged = _newton_rows(dots, jc, starts, MU)
        np.testing.assert_array_equal(steps, np.concatenate([c.steps for c in cands]))
        assert (steps == 0).any() and converged.any()
        assert (steps == optical._NEWTON_STEPS).any()
        for k in range(len(starts)):
            alone = _newton_rows(dots[:, k : k + 1], jc[:, k : k + 1], starts[k : k + 1], MU)
            for name, got, want in zip(("rho", "steps", "converged"),
                                       (rho[k : k + 1], steps[k : k + 1],
                                        converged[k : k + 1]), alone):
                assert np.array_equal(got, want), (k, name)

    def test_exhausted_start_is_unconverged(self, monkeypatch):
        """A start that reaches the step cap is reported with the cap's
        steps and as unconverged, and its last iterate is no solution."""
        att1, att2, obs1, obs2, _ = synth_pair()
        c1 = compute_optical_coefficients(att1, obs1.r, obs1.v)
        c2 = compute_optical_coefficients(att2, obs2.r, obs2.v)
        truth = min(link_optical(att1, att2, obs1, obs2), key=lambda s: abs(s.compat_lenz))
        g = _pair_rows(c1, c2)
        inputs = _newton_inputs(g, _q_rows(g), np.zeros(1, dtype=int))
        start = np.array([[truth.rho1, truth.rho2]]) * 1.01
        rho, steps, converged = _newton_rows(*inputs, start, MU)
        assert converged.tolist() == [True] and 2 < steps[0] < optical._NEWTON_STEPS
        np.testing.assert_allclose(rho[0], [truth.rho1, truth.rho2], rtol=1e-12)
        monkeypatch.setattr(optical, "_NEWTON_STEPS", 2)
        rho, steps, converged = _newton_rows(*inputs, start, MU)
        assert converged.tolist() == [False] and steps.tolist() == [2]
        (cand,) = optical_candidate_rows(c1.row[None], c2.row[None], RunConfig())
        assert (cand.steps <= 2).all() and (cand.steps[~cand.converged] == 2).any()
        assert cand.rho1.size <= cand.converged.sum()
        monkeypatch.setattr(optical, "_NEWTON_STEPS", 0)
        (cand,) = optical_candidate_rows(c1.row[None], c2.row[None], RunConfig())
        assert cand.starts.shape[0] > 0 and not cand.converged.any()
        assert cand.rho1.size == 0 and link_optical(att1, att2, obs1, obs2) == []


class TestPairChecks:
    def test_rows_equal_the_one_row_checks(self):
        """``pair_check_rows`` on a stack of pairs gives each pair the error
        of ``check_optical_pair`` or ``check_radar_pair`` on it alone: the
        kinds before the epochs, whatever the other rows hold."""
        from arclink.attributables import RadarAttributable
        from arclink.radar import check_radar_pair

        att1, att2, obs1, obs2, _ = synth_pair()
        radar = RadarAttributable(att1.alpha, att1.delta, 1.2, 0.01, att1.tbar)
        same = OpticalAttributable(*att2.values, att1.tbar)
        pairs = [(att1, att2), (att2, att1), (att1, same), (radar, att2), (radar, same),
                 (att1, radar), (radar, radar)]
        for first_kind, check in (("optical", optical.check_optical_pair),
                                  ("radar", check_radar_pair)):
            errors = [None] * len(pairs)
            optical.pair_check_rows(first_kind, *(np.array([getattr(p[n], key) for p in pairs])
                                                  for key in ("kind", "tbar") for n in (0, 1)),
                                    errors)
            for (a, b), error in zip(pairs, errors):
                obs = {id(a): obs1 if a.tbar == att1.tbar else obs2,
                       id(b): obs1 if b.tbar == att1.tbar else obs2}
                if error is None:
                    check(a, b, obs[id(a)], obs[id(b)])
                    continue
                with pytest.raises(DomainError) as alone:
                    check(a, b, obs[id(a)], obs[id(b)])
                assert str(alone.value) == str(error)
            # pairs 2 and 4 have equal epochs; the kinds fail first
            kinds, epochs = (optical._PAIR_KINDS[first_kind],
                             "attributables must have distinct epochs")
            assert [e and str(e) for e in errors] == {
                "optical": [None, None, epochs, kinds, kinds, kinds, kinds],
                "radar": [kinds, kinds, kinds, None, epochs, kinds, kinds]}[first_kind]

    def test_one_row_check_names_the_observer_epoch(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        with pytest.raises(DomainError, match="observer state epoch"):
            optical.check_optical_pair(att1, att2, obs2, obs2)


class TestDegeneracies:
    def test_zero_rates_flag_quadratic(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        dead1 = OpticalAttributable(att1.alpha, att1.delta, 0.0, 0.0, att1.tbar)
        dead2 = OpticalAttributable(att2.alpha, att2.delta, 0.0, 0.0, att2.tbar)
        with pytest.raises(DegenerateConfigurationError) as exc:
            link_optical(dead1, dead2, obs1, obs2)
        assert "quadratic_degenerate" in exc.value.flags

    def test_zenith_flag(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        # point the epoch-2 line of sight along the observer radius
        theta = np.arctan2(obs2.r[1], obs2.r[0])
        zen = OpticalAttributable(theta % (2 * np.pi), 0.0,
                                  att2.alphadot, att2.deltadot, att2.tbar)
        c1 = compute_optical_coefficients(att1, obs1.r, obs1.v)
        c2 = compute_optical_coefficients(zen, obs2.r, obs2.v)
        assert "zenith" in detect_degenerate_optical(c1, c2)
        with pytest.raises(DegenerateConfigurationError):
            link_optical(att1, zen, obs1, obs2)

    def test_clean_geometry_has_no_flags(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        c1 = compute_optical_coefficients(att1, obs1.r, obs1.v)
        c2 = compute_optical_coefficients(att2, obs2.r, obs2.v)
        assert detect_degenerate_optical(c1, c2) == []


class TestCurves:
    def test_energy_poly_against_direct_evaluation(self, rng):
        """The squared energy-equality polynomial must reproduce
        (A^2 P1 P2 + mu^2 (P1 - P2))^2 - 4 mu^2 A^2 P1^2 P2 computed with
        plain vector arithmetic, A = (|v1|^2 - |v2|^2)/2, Pi = |ri|^2."""
        c1, c2 = random_coeff_pair(rng)
        rd1p, rd2p = radial_velocity_polys(c1, c2)
        from arclink.optical import energy_equality_poly
        import numpy.polynomial.polynomial as npp
        gpoly = energy_equality_poly(c1, c2, rd1p, rd2p, MU)
        for _ in range(12):
            x, y = rng.uniform(0.1, 3.0, size=2)
            rd1, rd2 = radial_velocities(c1, c2, x, y)
            r1, v1, r2, v2 = states_at(c1, c2, x, y, rd1, rd2)
            A = 0.5 * (np.dot(v1, v1) - np.dot(v2, v2))
            P1, P2 = np.dot(r1, r1), np.dot(r2, r2)
            core = A**2 * P1 * P2 + MU**2 * (P1 - P2)
            direct = core**2 - 4.0 * MU**2 * A**2 * P1**2 * P2
            # degree-24 cancellation: measure against the |coeff| envelope
            scale = npp.polyval2d(x, y, np.abs(gpoly.coeffs)) + 1e-300
            assert abs(gpoly(x, y) - direct) < 1e-12 * scale, (
                f"energy poly mismatch at ({x}, {y})"
            )

    def test_grids_vanish_at_solutions(self):
        # q and the projected-Lenz residual vanish at every accepted pair;
        # the squared energy equality vanishes only at pairs that actually
        # share the orbital energy -- of which the generating truth is one.
        att1, att2, obs1, obs2, eph = synth_pair()
        sols = link_optical(att1, att2, obs1, obs2)
        c1 = compute_optical_coefficients(att1, obs1.r, obs1.v)
        c2 = compute_optical_coefficients(att2, obs2.r, obs2.v)
        qpoly = build_q_poly(c1, c2)
        rd1, rd2 = radial_velocity_polys(c1, c2)
        from arclink.optical import energy_equality_poly
        gpoly = energy_equality_poly(c1, c2, rd1, rd2, MU)
        for sol in sols:
            qscale = np.max(np.abs(qpoly.coeffs))
            assert abs(qpoly(sol.rho1, sol.rho2)) < 1e-9 * qscale
            assert abs(sol.lenz_residual) < 1e-6
        s1 = synthetic_truth_state(TRUTH, att1, MU, C_AU, eph)
        s2 = synthetic_truth_state(TRUTH, att2, MU, C_AU, eph)
        true1 = topocentric_coords(s1.r, s1.v, obs1.r, obs1.v)[4]
        true2 = topocentric_coords(s2.r, s2.v, obs2.r, obs2.v)[4]
        genuine = min(sols, key=lambda s: abs(s.rho1 - true1))
        assert abs(genuine.energy_offset) < 1e-10
        # evaluate with |coefficients| for a roundoff envelope at that point
        import numpy.polynomial.polynomial as npp
        envelope = npp.polyval2d(true1, true2, np.abs(gpoly.coeffs))
        assert abs(gpoly(true1, true2)) < 1e-9 * envelope
        # accepted pairs that do NOT share the energy must not be zeros of g
        for sol in sols:
            if abs(sol.rho1 - genuine.rho1) > 1e-6:
                env = npp.polyval2d(sol.rho1, sol.rho2, np.abs(gpoly.coeffs))
                assert abs(gpoly(sol.rho1, sol.rho2)) > 1e-12 * env
                assert abs(sol.energy_offset) > 1e-8

    def test_lenz_grid_matches_residual_definition(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        sols = link_optical(att1, att2, obs1, obs2)
        grids = curve_grids(att1, att2, obs1, obs2,
                            bounds=((0.2, 1.5), (0.2, 1.5)), n=41)
        assert grids["q"].shape == (41, 41)
        # the lenz grid is the unsquared projection: interpolating it near
        # an accepted solution should give ~0
        sol = sols[0]
        i = np.searchsorted(grids["rho1"], sol.rho1)
        j = np.searchsorted(grids["rho2"], sol.rho2)
        window = grids["lenz"][max(i - 1, 0): i + 1, max(j - 1, 0): j + 1]
        assert np.min(np.abs(window)) < 5e-3, "lenz curve should pass nearby"

    def test_emit_writes_files(self, tmp_path):
        att1, att2, obs1, obs2, _ = synth_pair()
        grids = emit_curve_samples(att1, att2, obs1, obs2,
                                   directory=tmp_path,
                                   bounds=((0.2, 1.5), (0.2, 1.5)), n=21)
        for name in ("q", "p", "lenz", "energy_sq"):
            path = tmp_path / f"{name}_curve.csv"
            assert path.exists()
            lines = path.read_text().strip().split("\n")
            assert lines[0] == "rho1,rho2,value"
            assert len(lines) == 1 + 21 * 21
        assert set(grids["paths"]) == {"q", "p", "lenz", "energy_sq"}

    def test_count_zero_intersections_analytic(self):
        x = np.linspace(-2.0, 2.0, 201)
        X, Y = np.meshgrid(x, x, indexing="ij")
        circle = X**2 + Y**2 - 1.0
        line = X - Y
        assert count_zero_intersections(circle, line) == 2
        parabola = Y - X**2 + 2.0  # meets the circle nowhere in this window?
        assert count_zero_intersections(circle, parabola) == 0
        assert count_zero_intersections(circle, circle + 4.0) == 0

    def test_count_rejects_mismatched_shapes(self):
        with pytest.raises(DomainError):
            count_zero_intersections(np.zeros((3, 3)), np.zeros((4, 4)))
