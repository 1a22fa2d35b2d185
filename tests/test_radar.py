"""Tests for the radar-optical linkage: the affine angular-momentum form,
the linear elimination against a back-substitution oracle, the quartic
against direct vector arithmetic, the closed-form root solver against the
iterative one, truth recovery, and degeneracy detection."""

import dataclasses

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

import arclink.radar as radar
from arclink.attributables import (
    RadarAttributable,
    circular_observer,
    synthesize_optical_attributable,
    synthesize_radar_attributable,
    synthetic_truth_state,
)
from arclink.config import AU_DAY, RunConfig
from arclink.constants import GM_SUN_AU3_DAY2
from arclink.errors import (
    DegenerateConfigurationError,
    DomainError,
    PolarSingularityError,
)
from arclink.geometry import observation_basis, topocentric_coords
from arclink.kepler import CartesianState, KeplerianElements
from arclink.optical import compute_optical_coefficients, lenz_projection_direction
from arclink.polynomials import UnivariatePoly, aberth_roots
from arclink.radar import (
    build_quartic,
    detect_degenerate_radar,
    eliminate_linear,
    link_radar_optical,
    radar_coefficients,
    solve_quartic,
)

MU = GM_SUN_AU3_DAY2
C_AU = AU_DAY.c_light

TRUTH = KeplerianElements(a=1.18, e=0.22, i=0.12, Omega=0.8, omega=1.9,
                          ell=0.35, epoch=53200.0)
TBAR1, TBAR2 = 53201.3, 53294.7


def synth_pair(truth=TRUTH, tbar1=TBAR1, tbar2=TBAR2, phase=0.0):
    eph = circular_observer(1.0, MU, phase=phase)
    att1 = synthesize_radar_attributable(truth, eph, tbar1, MU, C_AU)
    att2 = synthesize_optical_attributable(truth, eph, tbar2, MU, C_AU)
    obs1 = CartesianState(*eph.state(tbar1), tbar1)
    obs2 = CartesianState(*eph.state(tbar2), tbar2)
    return att1, att2, obs1, obs2, eph


def random_pair(rng):
    el = KeplerianElements(
        a=rng.uniform(0.7, 2.5), e=rng.uniform(0.05, 0.5),
        i=rng.uniform(0.02, 0.7), Omega=rng.uniform(0, 2 * np.pi),
        omega=rng.uniform(0, 2 * np.pi), ell=rng.uniform(0, 2 * np.pi),
        epoch=53000.0)
    t1 = rng.uniform(52900.0, 53100.0)
    t2 = t1 + rng.uniform(30.0, 250.0)
    return synth_pair(el, t1, t2, phase=rng.uniform(0, 2 * np.pi))


def coeff_pair(att1, att2, obs1, obs2):
    rc1 = radar_coefficients(att1, obs1.r, obs1.v)
    oc2 = compute_optical_coefficients(att2, obs2.r, obs2.v)
    return rc1, oc2


class TestRadarCoefficients:
    def test_affine_form_matches_cross_product(self, rng):
        """A xi + B zeta + C must equal r x rdot with the velocity composed
        from arbitrary tangential components."""
        for _ in range(10):
            att1, _, obs1, _, _ = random_pair(rng)
            rc = radar_coefficients(att1, obs1.r, obs1.v)
            xi, zeta = rng.uniform(-0.05, 0.05, size=2)
            rdot = (obs1.v + att1.rhodot * rc.basis.e_rho
                    + xi * rc.basis.e_alpha + zeta * rc.basis.e_delta)
            c_direct = np.cross(rc.r, rdot)
            c_affine = rc.A * xi + rc.B * zeta + rc.C
            scale = max(np.linalg.norm(c_direct), 1e-12)
            assert np.linalg.norm(c_affine - c_direct) < 1e-12 * scale

    def test_cross_product_orthogonality(self, rng):
        att1, _, obs1, _, _ = random_pair(rng)
        rc = radar_coefficients(att1, obs1.r, obs1.v)
        rnorm = np.linalg.norm(rc.r)
        assert abs(np.dot(rc.A, rc.r)) < 1e-14 * rnorm**2
        assert abs(np.dot(rc.B, rc.r)) < 1e-14 * rnorm**2

    def test_zero_observer_state(self):
        att = RadarAttributable(0.4, 0.1, 1.3, 0.002, 53000.0)
        rc = radar_coefficients(att, np.zeros(3), np.zeros(3))
        assert np.allclose(rc.C, 0.0)
        assert np.allclose(rc.r, 1.3 * rc.basis.e_rho)

    def test_requires_positive_range(self):
        att = RadarAttributable(0.4, 0.1, -1.0, 0.0, 53000.0)
        with pytest.raises(DomainError):
            radar_coefficients(att, np.zeros(3), np.zeros(3))


class TestEliminateLinear:
    def test_back_substitution(self, rng):
        """xi(rho2), zeta(rho2), rhodot2(rho2) substituted into the vector
        angular-momentum equality must leave zero residual at any rho2."""
        for _ in range(10):
            att1, att2, obs1, obs2, _ = random_pair(rng)
            rc1, oc2 = coeff_pair(att1, att2, obs1, obs2)
            elim = eliminate_linear(rc1, oc2)
            for _ in range(5):
                rho2 = rng.uniform(0.05, 4.0)
                powers = np.array([1.0, rho2, rho2**2])
                xi, zeta = elim.X @ powers, elim.Z @ powers
                rhodot2 = elim.R @ powers
                lhs = rc1.A * xi + rc1.B * zeta + rc1.C
                rhs = (oc2.D * rhodot2 + oc2.E * rho2**2 + oc2.F * rho2
                       + oc2.G)
                scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-12)
                assert np.linalg.norm(lhs - rhs) < 1e-10 * scale

    def test_coefficient_signs(self, rng):
        att1, att2, obs1, obs2, _ = random_pair(rng)
        rc1, oc2 = coeff_pair(att1, att2, obs1, obs2)
        elim = eliminate_linear(rc1, oc2)
        gamma = 1.0 / np.dot(rc1.A, np.cross(rc1.B, oc2.D))
        assert np.isclose(elim.X[2],
                          gamma * np.dot(oc2.E, np.cross(rc1.B, oc2.D)),
                          rtol=1e-12)
        assert np.isclose(elim.Z[2],
                          -gamma * np.dot(oc2.E, np.cross(rc1.A, oc2.D)),
                          rtol=1e-12)
        assert np.isclose(elim.R[2],
                          -gamma * np.dot(oc2.E, np.cross(rc1.A, rc1.B)),
                          rtol=1e-12)

    def test_homogeneous_case_all_zero(self, rng):
        att1, att2, obs1, obs2, _ = random_pair(rng)
        rc1, oc2 = coeff_pair(att1, att2, obs1, obs2)
        hom = dataclasses.replace(oc2, E=np.zeros(3), F=np.zeros(3),
                                  G=rc1.C.copy())
        elim = eliminate_linear(rc1, hom)
        assert np.allclose(elim.X, 0.0) and np.allclose(elim.Z, 0.0)
        assert np.allclose(elim.R, 0.0)

    def test_degenerate_denominator_raises(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        rc1, oc2 = coeff_pair(att1, att2, obs1, obs2)
        # zero out D2 -> Cramer denominator vanishes
        broken = dataclasses.replace(oc2, D=np.zeros(3))
        with pytest.raises(DegenerateConfigurationError) as err:
            eliminate_linear(rc1, broken)
        assert "elimination_degenerate" in err.value.flags


def mp_quartic(rc1, oc2, elim, mu):
    """The projected Lenz equality as ascending coefficients in rho2, at 50
    digits from the same float inputs as ``build_quartic``, with plain
    polynomial products and the full rdot2 . v."""
    with mpmath.workdps(50):
        def mp(xs):
            return [mpmath.mpf(float(x)) for x in xs]

        def add(*polys):
            out = [mpmath.mpf(0)] * max(map(len, polys))
            for p in polys:
                for k, c in enumerate(p):
                    out[k] += c
            return out

        def mul(p, q):
            out = [mpmath.mpf(0)] * (len(p) + len(q) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(q):
                    out[i + j] += a * b
            return out

        def dot(vec_poly, u):
            return add(*(mul(p, [c]) for p, c in zip(vec_poly, u)))

        b1, b2 = rc1.basis, oc2.basis
        X, Z, R = mp(elim.X), mp(elim.Z), mp(elim.R)
        v, r1 = mp(lenz_projection_direction(oc2)), mp(rc1.r)
        qd1, er1 = mp(rc1.qdot), mp(b1.e_rho)
        ea1, ed1 = mp(b1.e_alpha), mp(b1.e_delta)
        rhodot1 = mpmath.mpf(float(rc1.att.rhodot))
        rdot1 = [add([qd1[i] + rhodot1 * er1[i]], mul(X, [ea1[i]]), mul(Z, [ed1[i]]))
                 for i in range(3)]
        speed1 = add(*(mul(p, p) for p in rdot1))
        r1_norm = mpmath.sqrt(sum(x * x for x in r1))
        r1_v = sum(a * b for a, b in zip(r1, v))
        term1 = add(mul(add(speed1, [-mpmath.mpf(float(mu)) / r1_norm]), [r1_v]),
                    mul(mul(dot(rdot1, r1), dot(rdot1, v)), [mpmath.mpf(-1)]))

        q2, qd2, er2 = mp(oc2.q), mp(oc2.qdot), mp(b2.e_rho)
        ea2, ed2 = mp(b2.e_alpha), mp(b2.e_delta)
        eta, dd = mpmath.mpf(float(oc2.eta)), mpmath.mpf(float(oc2.att.deltadot))
        rdot2 = [add([qd2[i], eta * ea2[i] + dd * ed2[i]], mul(R, [er2[i]]))
                 for i in range(3)]
        r2 = [[q2[i], er2[i]] for i in range(3)]
        rdot2_r2 = add(*(mul(a, b) for a, b in zip(rdot2, r2)))
        return np.array(add(term1, mul(rdot2_r2, dot(rdot2, v))), dtype=float)


class TestQuartic:
    def test_coefficients_match_50_digit_oracle(self, rng):
        """Every coefficient within 1e-11 of the coefficient envelope of the
        same quartic built at 50 digits."""
        for _ in range(30):
            att1, att2, obs1, obs2, _ = random_pair(rng)
            rc1, oc2 = coeff_pair(att1, att2, obs1, obs2)
            elim = eliminate_linear(rc1, oc2)
            got = build_quartic(rc1, oc2, elim, MU).coeffs
            want = mp_quartic(rc1, oc2, elim, MU)
            got = np.pad(got, (0, len(want) - len(got)))
            envelope = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-11 * envelope, (got, want)

    def test_degree_at_most_four(self, rng):
        for _ in range(20):
            att1, att2, obs1, obs2, _ = random_pair(rng)
            rc1, oc2 = coeff_pair(att1, att2, obs1, obs2)
            elim = eliminate_linear(rc1, oc2)
            quartic = build_quartic(rc1, oc2, elim, MU)
            assert quartic.degree <= 4, (
                f"degree {quartic.degree}: {quartic.coeffs}"
            )

    def test_against_direct_evaluation(self, rng):
        """The polynomial must match the projected Lenz difference computed
        with plain vectors at (rho2, xi(rho2), zeta(rho2), rhodot2(rho2))."""
        for _ in range(8):
            att1, att2, obs1, obs2, _ = random_pair(rng)
            rc1, oc2 = coeff_pair(att1, att2, obs1, obs2)
            elim = eliminate_linear(rc1, oc2)
            quartic = build_quartic(rc1, oc2, elim, MU)
            v = lenz_projection_direction(oc2)
            for _ in range(6):
                rho2 = rng.uniform(0.05, 4.0)
                powers = np.array([1.0, rho2, rho2**2])
                xi, zeta = elim.X @ powers, elim.Z @ powers
                rhodot2 = elim.R @ powers
                r1 = rc1.r
                rdot1 = (rc1.qdot + att1.rhodot * rc1.basis.e_rho
                         + xi * rc1.basis.e_alpha + zeta * rc1.basis.e_delta)
                r2 = oc2.q + rho2 * oc2.basis.e_rho
                rdot2 = (oc2.qdot + rhodot2 * oc2.basis.e_rho
                         + rho2 * (oc2.eta * oc2.basis.e_alpha
                                   + att2.deltadot * oc2.basis.e_delta))
                term1 = ((np.dot(rdot1, rdot1) - MU / np.linalg.norm(r1))
                         * np.dot(r1, v)
                         - np.dot(rdot1, r1) * np.dot(rdot1, v))
                term2 = np.dot(rdot2, r2) * np.dot(rdot2, v)
                direct = term1 + term2
                scale = abs(term1) + abs(term2) + 1e-300
                assert abs(quartic(rho2) - direct) < 1e-9 * scale

    def test_true_range_is_root(self, rng):
        for _ in range(6):
            el = KeplerianElements(
                a=rng.uniform(0.7, 2.5), e=rng.uniform(0.05, 0.5),
                i=rng.uniform(0.02, 0.7), Omega=rng.uniform(0, 2 * np.pi),
                omega=rng.uniform(0, 2 * np.pi), ell=rng.uniform(0, 2 * np.pi),
                epoch=53000.0)
            t1 = rng.uniform(52900.0, 53100.0)
            t2 = t1 + rng.uniform(30.0, 250.0)
            att1, att2, obs1, obs2, eph = synth_pair(
                el, t1, t2, phase=rng.uniform(0, 2 * np.pi))
            rc1, oc2 = coeff_pair(att1, att2, obs1, obs2)
            elim = eliminate_linear(rc1, oc2)
            quartic = build_quartic(rc1, oc2, elim, MU)
            s2 = synthetic_truth_state(el, att2, MU, C_AU, eph)
            true2 = topocentric_coords(s2.r, s2.v, obs2.r, obs2.v)[4]
            envelope = npp.polyval(true2, np.abs(quartic.coeffs))
            assert abs(quartic(true2)) < 1e-9 * envelope
            nearest = min(solve_quartic(quartic), key=lambda z: abs(z - true2))
            assert abs(nearest - true2) < 1e-8 * true2

    def test_rdot2_dot_v_properties(self, rng):
        """rdot2 . v must not depend on rhodot2 and must be linear in
        rho2."""
        att1, att2, obs1, obs2, _ = random_pair(rng)
        rc1, oc2 = coeff_pair(att1, att2, obs1, obs2)
        v = lenz_projection_direction(oc2)
        rate_dir = (oc2.eta * oc2.basis.e_alpha
                    + att2.deltadot * oc2.basis.e_delta)

        def rdot2_dot_v(rho2, rhodot2):
            rdot2 = oc2.qdot + rhodot2 * oc2.basis.e_rho + rho2 * rate_dir
            return np.dot(rdot2, v)

        base = rdot2_dot_v(1.3, 0.01)
        assert abs(rdot2_dot_v(1.3, -0.37) - base) < 1e-12
        vals = [rdot2_dot_v(x, 0.0) for x in (0.5, 1.0, 1.5)]
        second_diff = vals[0] - 2.0 * vals[1] + vals[2]
        assert abs(second_diff) < 1e-14 * max(abs(x) for x in vals)

    def test_zero_rates_degree_drop(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        frozen = dataclasses.replace(att2, alphadot=0.0, deltadot=0.0)
        rc1, oc2 = coeff_pair(att1, frozen, obs1, obs2)
        elim = eliminate_linear(rc1, oc2)
        quartic = build_quartic(rc1, oc2, elim, MU)
        assert quartic.degree <= 4
        assert np.all(np.isfinite(quartic.coeffs))


class TestSolveQuartic:
    def test_fourth_roots_of_unity(self):
        roots = sorted(solve_quartic(UnivariatePoly([-1.0, 0, 0, 0, 1.0])),
                       key=lambda z: (round(z.real, 8), round(z.imag, 8)))
        expected = sorted([1, -1, 1j, -1j],
                          key=lambda z: (round(z.real, 8), round(z.imag, 8)))
        for got, want in zip(roots, expected):
            assert abs(got - want) < 1e-12

    def test_double_root_reported_twice(self):
        # (x - 2)^2 (x^2 + 1)
        poly = UnivariatePoly([4.0, -4.0, 5.0, -4.0, 1.0])
        roots = solve_quartic(poly)
        near_two = [z for z in roots if abs(z - 2.0) < 1e-6]
        assert len(near_two) == 2
        imag = sorted((z for z in roots if abs(z.imag) > 0.5),
                      key=lambda z: z.imag)
        assert abs(imag[0] + 1j) < 1e-10 and abs(imag[1] - 1j) < 1e-10

    def test_agrees_with_iterative_solver(self, rng):
        def key(z):
            return (round(z.real, 6), round(z.imag, 6))

        for _ in range(1000):
            coeffs = rng.uniform(-1.0, 1.0, size=5)
            while abs(coeffs[-1]) < 0.1:
                coeffs[-1] = rng.uniform(-1.0, 1.0)
            poly = UnivariatePoly(coeffs)
            closed = sorted(solve_quartic(poly), key=key)
            iterative = sorted(aberth_roots(poly), key=key)
            assert len(closed) == len(iterative) == 4
            for a, b in zip(closed, iterative):
                assert abs(a - b) < 1e-10 * max(1.0, abs(b)), (
                    f"coeffs {coeffs}: {a} vs {b}"
                )

    def test_lower_degrees(self):
        roots = solve_quartic(UnivariatePoly([-6.0, 11.0, -6.0, 1.0]))
        assert sorted(round(z.real, 9) for z in roots) == [1.0, 2.0, 3.0]
        roots = solve_quartic(UnivariatePoly([2.0, -3.0, 1.0]))
        assert sorted(round(z.real, 9) for z in roots) == [1.0, 2.0]
        roots = solve_quartic(UnivariatePoly([-5.0, 2.0]))
        assert len(roots) == 1 and abs(roots[0] - 2.5) < 1e-14

    def test_biquadratic_branch(self):
        # x^4 - 5x^2 + 4 = (x^2-1)(x^2-4)
        roots = solve_quartic(UnivariatePoly([4.0, 0.0, -5.0, 0.0, 1.0]))
        assert sorted(round(z.real, 9) for z in roots) == [-2, -1, 1, 2]

    def test_degree_zero_raises(self):
        with pytest.raises(DomainError):
            solve_quartic(UnivariatePoly([3.0]))
        with pytest.raises(DomainError):
            solve_quartic(UnivariatePoly([0.0]))

    def test_noise_leading_coefficient_deflated(self):
        # cubic with a noise-level quartic term behaves as the cubic
        poly = UnivariatePoly([-6.0, 11.0, -6.0, 1.0, 1e-15])
        roots = solve_quartic(poly)
        assert len(roots) == 3
        assert sorted(round(z.real, 7) for z in roots) == [1.0, 2.0, 3.0]


class TestLinkRadarOptical:
    def test_recovers_synthetic_truth(self):
        att1, att2, obs1, obs2, eph = synth_pair()
        sols = link_radar_optical(att1, att2, obs1, obs2, RunConfig())
        assert len(sols) >= 1
        s1 = synthetic_truth_state(TRUTH, att1, MU, C_AU, eph)
        s2 = synthetic_truth_state(TRUTH, att2, MU, C_AU, eph)
        true1 = topocentric_coords(s1.r, s1.v, obs1.r, obs1.v)
        true2 = topocentric_coords(s2.r, s2.v, obs2.r, obs2.v)
        best = min(sols, key=lambda s: abs(s.rho2 - true2[4]))
        assert abs(best.rho2 - true2[4]) < 1e-8 * true2[4]
        assert best.rho1 == att1.rho and best.rhodot1 == att1.rhodot
        got = topocentric_coords(best.state1.r, best.state1.v,
                                 obs1.r, obs1.v)
        assert abs(got[2] - true1[2]) < 1e-8 * max(1e-3, abs(true1[2]))
        assert abs(got[3] - true1[3]) < 1e-8 * max(1e-3, abs(true1[3]))
        assert np.linalg.norm(best.state2.r - s2.r) < 1e-8
        assert abs(best.state1.epoch - (TBAR1 - att1.rho / C_AU)) < 1e-12
        assert abs(best.state2.epoch - (TBAR2 - best.rho2 / C_AU)) < 1e-12
        assert best.elements1 is not None
        assert abs(best.elements1.a - TRUTH.a) < 1e-6
        assert abs(best.elements1.e - TRUTH.e) < 1e-6
        assert abs(best.compat_lenz) < 1e-8
        assert abs(best.energy_offset) < 1e-10
        assert best.method == "radar-optical"

    def test_angular_momenta_match_on_solutions(self, rng):
        # roots at very large rho2 give nearly rectilinear candidates whose
        # angular momentum is tiny; the equality residual is judged against
        # the geometry scale (observer angular momentum), not the result.
        att1, att2, obs1, obs2, _ = random_pair(rng)
        sols = link_radar_optical(att1, att2, obs1, obs2)
        assert sols
        for sol in sols:
            c1 = np.cross(sol.state1.r, sol.state1.v)
            c2 = np.cross(sol.state2.r, sol.state2.v)
            scale = max(np.linalg.norm(c1), np.linalg.norm(c2),
                        np.linalg.norm(np.cross(obs1.r, obs1.v)))
            assert np.linalg.norm(c1 - c2) < 1e-9 * scale

    def test_projected_residual_at_roundoff(self, rng):
        """No squaring happened, so every root satisfies the projected
        equality directly -- not only the physical one.  Far-out roots can
        carry enormous range rates; there the metric's own floating-point
        cancellation floor (terms of size |rdot|^2 |r| / mu) dominates, so
        the bound is the larger of 1e-9 and that envelope."""

        def lenz_eval_floor(state):
            r, v = np.linalg.norm(state.r), np.linalg.norm(state.v)
            return ((v * v + MU / r) * r + abs(state.v @ state.r) * v) / MU

        eps = np.finfo(float).eps
        for _ in range(5):
            att1, att2, obs1, obs2, _ = random_pair(rng)
            sols = link_radar_optical(att1, att2, obs1, obs2)
            assert sols
            for sol in sols:
                floor = eps * (lenz_eval_floor(sol.state1)
                               + lenz_eval_floor(sol.state2))
                assert abs(sol.lenz_residual) < max(1e-9, 64.0 * floor)

    def test_filtered_roots_give_empty_list(self, monkeypatch):
        att1, att2, obs1, obs2, _ = synth_pair()
        assert link_radar_optical(att1, att2, obs1, obs2)
        monkeypatch.setattr(radar, "MIN_RHO", 1e6)
        sols = link_radar_optical(att1, att2, obs1, obs2)
        assert sols == []

    def test_kind_validation(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        with pytest.raises(DomainError):
            link_radar_optical(att2, att2, obs2, obs2)
        with pytest.raises(DomainError):
            link_radar_optical(att1, att1, obs1, obs1)

    def test_polar_radar_declination_raises(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        polar = dataclasses.replace(att1, delta=np.pi / 2 - 1e-12)
        with pytest.raises(PolarSingularityError):
            link_radar_optical(polar, att2, obs1, obs2)

    def test_epoch_mismatch_raises(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        bad = CartesianState(obs1.r, obs1.v, obs1.epoch + 0.5)
        with pytest.raises(DomainError):
            link_radar_optical(att1, att2, bad, obs2)


class TestDegeneracyDetection:
    def test_triple_product_identity(self, rng):
        """A1 . (B1 x D2) = (r1 . e_rho1)(r1 . D2) -- the factorization that
        explains which geometries break the elimination."""
        for _ in range(20):
            att1, att2, obs1, obs2, _ = random_pair(rng)
            rc1, oc2 = coeff_pair(att1, att2, obs1, obs2)
            lhs = np.dot(rc1.A, np.cross(rc1.B, oc2.D))
            rhs = np.dot(rc1.r, rc1.basis.e_rho) * np.dot(rc1.r, oc2.D)
            assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs), 1e-12)

    def test_sightline_in_position_plane_flagged(self):
        att1, _, obs1, _, _ = synth_pair()
        rc1 = radar_coefficients(att1, obs1.r, obs1.v)
        # build an epoch-2 geometry whose D2 is orthogonal to r1:
        # q2 and e_rho2 span a plane containing r1
        u = rc1.r / np.linalg.norm(rc1.r)
        w = np.cross(u, [0.0, 0.0, 1.0])
        w /= np.linalg.norm(w)
        q2 = 0.9 * u + 0.45 * w
        e2 = (u - 2.0 * w) / np.linalg.norm(u - 2.0 * w)
        from arclink.attributables import OpticalAttributable
        att2 = OpticalAttributable(
            alpha=np.arctan2(e2[1], e2[0]), delta=np.arcsin(e2[2]),
            alphadot=0.01, deltadot=-0.004, tbar=TBAR2)
        oc2 = compute_optical_coefficients(att2, q2, np.array([0.0, 0.01, 0.0]))
        flags = detect_degenerate_radar(rc1, oc2)
        assert "elimination_degenerate" in flags

    def test_zenith_flagged(self):
        att1, _, obs1, _, _ = synth_pair()
        rc1 = radar_coefficients(att1, obs1.r, obs1.v)
        q2 = np.array([0.6, 0.55, 0.2])
        e2 = q2 / np.linalg.norm(q2)
        from arclink.attributables import OpticalAttributable
        att2 = OpticalAttributable(
            alpha=np.arctan2(e2[1], e2[0]), delta=np.arcsin(e2[2]),
            alphadot=0.01, deltadot=-0.004, tbar=TBAR2)
        oc2 = compute_optical_coefficients(att2, q2, np.array([0.0, 0.01, 0.0]))
        flags = detect_degenerate_radar(rc1, oc2)
        assert "zenith" in flags and "elimination_degenerate" in flags

    def test_generic_geometry_clean(self):
        att1, att2, obs1, obs2, _ = synth_pair()
        rc1, oc2 = coeff_pair(att1, att2, obs1, obs2)
        assert detect_degenerate_radar(rc1, oc2) == []

    def test_link_raises_on_degenerate(self):
        att1, _, obs1, _, _ = synth_pair()
        rc1 = radar_coefficients(att1, obs1.r, obs1.v)
        u = rc1.r / np.linalg.norm(rc1.r)
        from arclink.attributables import OpticalAttributable
        att2 = OpticalAttributable(
            alpha=np.arctan2(u[1], u[0]), delta=np.arcsin(u[2]),
            alphadot=0.01, deltadot=-0.004, tbar=TBAR2)
        obs2 = CartesianState(0.8 * u, np.array([0.0, 0.01, 0.0]), TBAR2)
        with pytest.raises(DegenerateConfigurationError):
            link_radar_optical(att1, att2, obs1, obs2)
