"""Tests for two-body dynamics: first integrals, conversions, propagation.

The propagation oracle is an adaptive Runge-Kutta integration of the plain
two-body equations of motion, entirely independent of the element-space
solution being tested.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from arclink.constants import GM_SUN_AU3_DAY2
from arclink.errors import NonEllipticOrbitError, RectilinearOrbitError
from arclink.kepler import (
    CartesianState,
    KeplerianElements,
    angular_momentum,
    cartesian_to_keplerian,
    compatibility_residuals,
    element_state_jacobian,
    keplerian_to_cartesian,
    laplace_lenz,
    mean_motion,
    propagate_elements,
    propagate_kepler,
    propagation_jacobian,
    solve_kepler,
    state_element_jacobian,
    state_element_rows,
    two_body_energy,
    wrap_signed,
)

MU = GM_SUN_AU3_DAY2


def random_elements(rng, e_max=0.95, i_min=0.01):
    return KeplerianElements(
        a=rng.uniform(0.5, 3.0),
        e=rng.uniform(0.0, e_max),
        i=rng.uniform(i_min, math.pi - i_min),
        Omega=rng.uniform(0.0, 2 * math.pi),
        omega=rng.uniform(0.0, 2 * math.pi),
        ell=rng.uniform(0.0, 2 * math.pi),
        epoch=rng.uniform(50000.0, 55000.0),
    )


def random_state(rng, **kw):
    return keplerian_to_cartesian(random_elements(rng, **kw), MU)


def integrate_two_body(state, t_target, mu):
    """Independent oracle: adaptive RK on the raw equations of motion."""

    def rhs(_t, y):
        r = y[:3]
        rr = np.linalg.norm(r)
        return np.concatenate([y[3:], -mu * r / rr**3])

    sol = solve_ivp(
        rhs,
        (state.epoch, t_target),
        np.concatenate([state.r, state.v]),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=False,
    )
    assert sol.success
    y = sol.y[:, -1]
    return CartesianState(y[:3], y[3:], t_target)


class TestFirstIntegrals:
    def test_angular_momentum_is_cross_product(self, rng):
        s = random_state(rng)
        c = angular_momentum(s)
        manual = np.array(
            [
                s.r[1] * s.v[2] - s.r[2] * s.v[1],
                s.r[2] * s.v[0] - s.r[0] * s.v[2],
                s.r[0] * s.v[1] - s.r[1] * s.v[0],
            ]
        )
        assert np.allclose(c, manual, atol=1e-16)

    def test_lenz_two_forms_agree_and_orthogonal(self, rng):
        # (v x c)/mu - r/|r| must equal the expanded form used in code.
        worst_diff, worst_dot = 0.0, 0.0
        for _ in range(10_000):
            s = random_state(rng)
            L = laplace_lenz(s, MU)
            c = angular_momentum(s)
            alt = np.cross(s.v, c) / MU - s.r / np.linalg.norm(s.r)
            worst_diff = max(worst_diff, np.max(np.abs(L - alt)))
            worst_dot = max(worst_dot, abs(L @ c) / (np.linalg.norm(c) + 1e-300))
        assert worst_diff < 1e-11, f"Lenz forms disagree by {worst_diff:.3e}"
        assert worst_dot < 1e-12, f"L.c = {worst_dot:.3e} not orthogonal"

    def test_lenz_magnitude_is_eccentricity(self, rng):
        el = random_elements(rng)
        s = keplerian_to_cartesian(el, MU)
        assert abs(np.linalg.norm(laplace_lenz(s, MU)) - el.e) < 1e-11

    def test_energy_circular(self):
        # Circular orbit at radius a: energy = -mu/(2a), speed = sqrt(mu/a).
        a = 1.3
        v = math.sqrt(MU / a)
        s = CartesianState([a, 0, 0], [0, v, 0], 0.0)
        assert abs(two_body_energy(s, MU) - (-MU / (2 * a))) < 1e-16

    def test_energy_from_elements(self, rng):
        el = random_elements(rng)
        s = keplerian_to_cartesian(el, MU)
        assert abs(two_body_energy(s, MU) + MU / (2 * el.a)) < 1e-14

    def test_parabolic_speed_gives_zero_energy(self):
        r = np.array([0.9, 0.4, -0.2])
        vesc = math.sqrt(2 * MU / np.linalg.norm(r))
        vdir = np.array([0.1, 0.8, 0.3])
        s = CartesianState(r, vesc * vdir / np.linalg.norm(vdir), 0.0)
        assert abs(two_body_energy(s, MU)) < 1e-18


class TestKeplerEquation:
    def test_residual_below_tolerance(self, rng):
        e = 0.95
        ell = rng.uniform(-10 * math.pi, 10 * math.pi, 5000)
        E = solve_kepler(ell, e)
        assert np.max(np.abs(E - e * np.sin(E) - ell)) < 1e-13

    def test_circular_identity(self):
        assert solve_kepler(1.234, 0.0) == pytest.approx(1.234, abs=1e-15)

    def test_scalar_in_scalar_out(self):
        out = solve_kepler(0.5, 0.3)
        assert isinstance(out, float)

    def test_rejects_hyperbolic(self):
        with pytest.raises(NonEllipticOrbitError):
            solve_kepler(0.5, 1.0)


class TestElementConversions:
    def test_roundtrip(self, rng):
        for _ in range(500):
            el = random_elements(rng)
            s = keplerian_to_cartesian(el, MU)
            back = cartesian_to_keplerian(s, MU)
            assert abs(back.a - el.a) < 1e-10 * el.a, "semimajor axis"
            assert abs(back.e - el.e) < 1e-10, "eccentricity"
            assert abs(back.i - el.i) < 1e-10, "inclination"
            for name in ("Omega", "omega", "ell"):
                d = wrap_signed(getattr(back, name) - getattr(el, name))
                # angles of near-circular orbits degrade as e -> 0
                tol = 1e-9 if el.e > 1e-3 else 1e-5
                assert abs(d) < tol, f"{name}: {d:.3e} (e={el.e:.3e})"

    def test_state_roundtrip_through_elements(self, rng):
        # Even at tiny e/i the *state* must come back essentially exactly;
        # zeroing Omega/omega by convention perturbs it only at O(i), O(e).
        for e, i in [(0.0, 0.5), (1e-12, 0.5), (0.3, 0.0), (0.3, 1e-12), (0.0, 0.0)]:
            el = KeplerianElements(1.1, e, i, 0.7, 1.9, 2.3, 53000.0)
            s = keplerian_to_cartesian(el, MU)
            back = keplerian_to_cartesian(cartesian_to_keplerian(s, MU), MU)
            assert np.allclose(back.r, s.r, rtol=1e-10, atol=1e-11), (e, i)
            assert np.allclose(back.v, s.v, rtol=1e-10, atol=1e-11), (e, i)

    def test_degenerate_conventions(self):
        s = keplerian_to_cartesian(
            KeplerianElements(1.0, 0.0, 0.4, 1.0, 0.0, 0.3, 0.0), MU
        )
        el = cartesian_to_keplerian(s, MU)
        assert el.omega == 0.0, "circular orbit must report omega = 0"
        s2 = keplerian_to_cartesian(
            KeplerianElements(1.0, 0.2, 0.0, 0.0, 1.0, 0.3, 0.0), MU
        )
        el2 = cartesian_to_keplerian(s2, MU)
        assert el2.Omega == 0.0, "equatorial orbit must report Omega = 0"

    def test_hyperbolic_rejected(self):
        s = CartesianState([1.0, 0, 0], [0, 2 * math.sqrt(MU), 0], 0.0)
        with pytest.raises(NonEllipticOrbitError):
            cartesian_to_keplerian(s, MU)

    def test_rectilinear_rejected(self):
        s = CartesianState([1.0, 0, 0], [-0.01, 0, 0], 0.0)
        with pytest.raises(RectilinearOrbitError):
            cartesian_to_keplerian(s, MU)


class TestStateElementRows:
    def states(self, rng):
        """One block: near-circular (e ~ 1e-16), near-equatorial (i = 1e-12
        by construction), retrograde, hyperbolic and rectilinear states,
        then ordinary elliptic ones.  Those have 0.05 <= e <= 0.5 and
        i >= 0.1: towards e = 0 or 1, or i = 0, some elements are
        ill-conditioned in the state, and two correct roundings of the
        conversion part by more than 1e-14."""
        r0 = np.array([1.2, 0.3, 0.1])
        along = np.cross([0.0, 0.0, 1.0], r0)
        circular = math.sqrt(MU / np.linalg.norm(r0)) * along / np.linalg.norm(along)
        vy = 0.017
        special = [(r0, circular),
                   (np.array([1.0, 0.0, 0.0]), np.array([0.002, vy, 1e-12 * vy])),
                   (r0, np.array([0.004, -0.015, 0.002])),
                   (r0, 3.0 * circular),
                   (r0, -0.01 * r0)]
        ordinary = [keplerian_to_cartesian(replace(random_elements(rng, i_min=0.1),
                                                   e=rng.uniform(0.05, 0.5)), MU)
                    for _ in range(6)]
        return (np.array([r for r, _ in special] + [s.r for s in ordinary]),
                np.array([v for _, v in special] + [s.v for s in ordinary]))

    def test_rows_match_scalar_conversion(self, rng):
        r, v = self.states(rng)
        el, elliptic, _ = state_element_rows(r, v, MU)
        assert elliptic.tolist() == [True, True, True, False, False] + [True] * 6
        for k in range(len(r)):
            try:
                want = cartesian_to_keplerian(CartesianState(r[k], v[k], 0.0), MU)
            except (NonEllipticOrbitError, RectilinearOrbitError):
                assert not elliptic[k]
                continue
            got = el[:, k]
            assert abs(got[0] - want.a) <= 1e-14 * want.a, k
            assert abs(got[1] - want.e) <= 1e-14, k
            for angle, ref in zip(got[2:], (want.i, want.Omega, want.omega, want.ell)):
                assert abs(wrap_signed(angle - ref)) <= 1e-14, (k, angle, ref)
        assert el[1, 0] < 1e-10 and el[4, 0] == 0.0  # circular: omega = 0
        assert el[2, 1] == 0.0 and el[3, 1] == 0.0   # equatorial: i = Omega = 0
        assert el[2, 2] > math.pi / 2                # retrograde

    def test_rows_match_one_row_calls(self, rng):
        r, v = self.states(rng)
        block = state_element_rows(r, v, MU)
        for k in range(len(r)):
            for got, alone in zip(block, state_element_rows(r[k:k + 1], v[k:k + 1], MU)):
                np.testing.assert_array_equal(got[..., k], alone[..., 0], err_msg=f"row {k}")


class TestPropagation:
    def test_zero_dt_is_identity(self, rng):
        el = random_elements(rng)
        s0 = keplerian_to_cartesian(el, MU)
        s1 = propagate_kepler(el, el.epoch, MU)
        assert np.allclose(s1.r, s0.r, atol=1e-15)
        assert np.allclose(s1.v, s0.v, atol=1e-15)

    def test_full_period_closes(self, rng):
        el = random_elements(rng)
        period = 2 * math.pi / mean_motion(el.a, MU)
        s0 = keplerian_to_cartesian(el, MU)
        s1 = propagate_kepler(el, el.epoch + period, MU)
        assert np.allclose(s1.r, s0.r, rtol=1e-11, atol=1e-12)
        assert np.allclose(s1.v, s0.v, rtol=1e-11, atol=1e-12)

    def test_against_rk_integration(self):
        # Apophis-like orbit pushed half a year ahead.
        el = KeplerianElements(0.92, 0.189, 0.06, 3.6, 2.2, 4.3, 53175.0)
        target = el.epoch + 181.86
        ours = propagate_kepler(el, target, MU)
        oracle = integrate_two_body(keplerian_to_cartesian(el, MU), target, MU)
        scale = np.linalg.norm(oracle.r)
        vscale = np.linalg.norm(oracle.v)
        assert np.max(np.abs(ours.r - oracle.r)) / scale < 1e-9
        assert np.max(np.abs(ours.v - oracle.v)) / vscale < 1e-9

    def test_integrals_conserved(self, rng):
        for _ in range(200):
            el = random_elements(rng)
            s0 = keplerian_to_cartesian(el, MU)
            s1 = propagate_kepler(el, el.epoch + rng.uniform(-500, 500), MU)
            c0, c1 = angular_momentum(s0), angular_momentum(s1)
            L0, L1 = laplace_lenz(s0, MU), laplace_lenz(s1, MU)
            assert np.max(np.abs(c1 - c0)) < 1e-12 * np.linalg.norm(c0)
            assert np.max(np.abs(L1 - L0)) < 1e-12
            assert abs(two_body_energy(s1, MU) - two_body_energy(s0, MU)) < 1e-14


class TestPropagationJacobian:
    def test_structure(self, rng):
        el = random_elements(rng)
        dt = 182.0
        J = propagation_jacobian(el, el.epoch + dt, MU)
        n = mean_motion(el.a, MU)
        expect = np.eye(6)
        expect[5, 0] = -1.5 * (n / el.a) * dt
        assert np.allclose(J, expect, rtol=1e-15)

    def test_matches_finite_differences(self, rng):
        el = random_elements(rng, e_max=0.9, i_min=0.1)
        # keep clear of the degenerate-angle conventions
        el = replace(el, e=max(el.e, 0.05))
        dt = 150.0
        target = el.epoch + dt
        J = propagation_jacobian(el, target, MU)

        def prop_vec(vec):
            e = KeplerianElements(*vec, epoch=el.epoch)
            s = propagate_kepler(e, target, MU)
            return cartesian_to_keplerian(s, MU).as_array()

        x0 = el.as_array()
        for j in range(6):
            h = 1e-7 * max(1.0, abs(x0[j]))
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            col = (prop_vec(xp) - prop_vec(xm)) / (2 * h)
            col_exact = J[:, j]
            for i in range(6):
                d = col[i] - col_exact[i]
                if i >= 2:  # angle rows may wrap
                    d = wrap_signed(d)
                assert abs(d) <= 1e-6 * max(1.0, abs(col_exact[i])), (
                    f"entry ({i},{j}): fd={col[i]:.9e} exact={col_exact[i]:.9e}"
                )


class TestElementStateJacobian:
    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            el = random_elements(rng, e_max=0.85, i_min=0.1)
            el = replace(el, e=max(el.e, 0.05))
            J = element_state_jacobian(el, MU)
            x0 = el.as_array()
            scale = np.max(np.abs(J))
            for j in range(6):
                h = 1e-6 * max(1.0, abs(x0[j]))
                xp, xm = x0.copy(), x0.copy()
                xp[j] += h
                xm[j] -= h
                sp_ = keplerian_to_cartesian(KeplerianElements(*xp, epoch=el.epoch), MU)
                sm = keplerian_to_cartesian(KeplerianElements(*xm, epoch=el.epoch), MU)
                fd = np.concatenate([sp_.r - sm.r, sp_.v - sm.v]) / (2 * h)
                err = np.abs(fd - J[:, j])
                assert np.max(err) <= 1e-6 * scale + 1e-5 * np.abs(J[:, j]).max(), (
                    f"column {j}: max err {np.max(err):.3e}"
                )

    def test_inverse_consistency(self, rng):
        el = random_elements(rng, e_max=0.8, i_min=0.2)
        J = element_state_jacobian(el, MU)
        K = state_element_jacobian(el, MU)
        assert np.allclose(K @ J, np.eye(6), atol=1e-9)


class TestCompatibilityResiduals:
    def test_same_orbit_two_epochs(self, rng):
        el = random_elements(rng, e_max=0.9)
        s1 = propagate_kepler(el, el.epoch + 3.0, MU)
        s2 = propagate_kepler(el, el.epoch + 185.0, MU)
        e_rho2 = np.array([0.3, -0.5, 0.81])
        e_rho2 /= np.linalg.norm(e_rho2)
        lenz_res, anomaly_res = compatibility_residuals(
            s1, s2, cartesian_to_keplerian(s1, MU), cartesian_to_keplerian(s2, MU),
            e_rho2, MU)
        assert abs(lenz_res) < 1e-9
        assert anomaly_res is not None and abs(anomaly_res) < 1e-9

    def test_wraps_across_many_periods(self, rng):
        el = random_elements(rng, e_max=0.5)
        period = 2 * math.pi / mean_motion(el.a, MU)
        s1 = propagate_kepler(el, el.epoch, MU)
        s2 = propagate_kepler(el, el.epoch + 7.3 * period, MU)
        _, anomaly_res = compatibility_residuals(
            s1, s2, cartesian_to_keplerian(s1, MU), cartesian_to_keplerian(s2, MU),
            np.array([0.0, 0.0, 1.0]), MU)
        assert anomaly_res is not None and abs(anomaly_res) < 1e-8

    def test_non_elliptic_second_residual_is_none(self):
        s1 = CartesianState([1.0, 0, 0], [0, 2 * math.sqrt(MU), 0], 0.0)
        s2 = CartesianState([0.5, 0.5, 0], [0, 2 * math.sqrt(MU), 0], 10.0)
        for s in (s1, s2):
            with pytest.raises(NonEllipticOrbitError):
                cartesian_to_keplerian(s, MU)
        first, second = compatibility_residuals(s1, s2, None, None,
                                                np.array([1.0, 0, 0]), MU)
        assert second is None
        assert np.isfinite(first)
