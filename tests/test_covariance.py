"""Tests for covariance propagation: the constraint-map Jacobian against
finite differences, the implicit-derivative and column wiring against a
re-solve oracle (both linkage variants), pushed covariances against a
Monte-Carlo sample, and the container validation rules."""

import numpy as np
import pytest

import arclink.covariance as covariance
from arclink.attributables import (
    NoiseSpec,
    circular_observer,
    synthesize_optical_attributable,
    synthesize_radar_attributable,
    synthetic_truth_state,
)
from arclink.config import AU_DAY
from arclink.constants import GM_SUN_AU3_DAY2
from arclink.covariance import (
    AttributablePair,
    CovarianceMatrix,
    att_cartesian_jacobian,
    attach_covariances,
    cartesian_covariance,
    implicit_solution_jacobian,
    pair_with_values,
    psi,
    psi_jacobian,
    resolve_unknowns,
    solution_unknowns,
)
from arclink.errors import DomainError, NumericalError
from arclink.geometry import body_position, body_velocity, observation_basis
from arclink.kepler import CartesianState, KeplerianElements, laplace_lenz
from arclink.optical import link_optical
from arclink.radar import link_radar_optical

MU = GM_SUN_AU3_DAY2
C_AU = AU_DAY.c_light

TRUTH = KeplerianElements(a=0.92, e=0.19, i=0.06, Omega=1.2, omega=0.7,
                          ell=0.4, epoch=53100.0)
T1, T2 = 53105.0, 53201.0
NOISE = NoiseSpec()  # exact values, covariance attached


def random_state(rng, min_radius=0.3):
    while True:
        r = rng.uniform(-2.0, 2.0, size=3)
        if np.linalg.norm(r) >= min_radius:
            break
    v = rng.uniform(-0.02, 0.02, size=3)
    return CartesianState(r=r, v=v, epoch=0.0)


def epoch_coords(att, y_part):
    """Six per-epoch coordinates from an attributable plus its unknowns."""
    if att.kind == "optical":
        return (att.alpha, att.delta, att.alphadot, att.deltadot,
                y_part[0], y_part[1])
    return (att.alpha, att.delta, y_part[0], y_part[1], att.rho, att.rhodot)


def state_vector(coords, obs):
    """Stacked (r, rdot) from the six coordinates and the observer state."""
    alpha, delta, alphadot, deltadot, rho, rhodot = coords
    basis = observation_basis(alpha, delta)
    r = body_position(obs.r, rho, basis)
    v = body_velocity(obs.v, rho, rhodot, alphadot, deltadot, basis)
    return np.concatenate([r, v])


def make_solved_optical(truth=TRUTH, t1=T1, t2=T2, phase=0.3):
    eph = circular_observer(1.0, MU, phase=phase)
    att1 = synthesize_optical_attributable(truth, eph, t1, MU, C_AU, noise=NOISE)
    att2 = synthesize_optical_attributable(truth, eph, t2, MU, C_AU, noise=NOISE)
    obs1 = CartesianState(*eph.state(t1), t1)
    obs2 = CartesianState(*eph.state(t2), t2)
    sols = link_optical(att1, att2, obs1, obs2)
    truth1 = synthetic_truth_state(truth, att1, MU, C_AU, eph)
    rho_true = float(np.linalg.norm(truth1.r - obs1.r))
    sol = min(sols, key=lambda s: abs(s.rho1 - rho_true))
    return AttributablePair(att1, att2), sol, obs1, obs2


def make_solved_radar(truth=TRUTH, t1=T1, t2=T2, phase=0.3):
    eph = circular_observer(1.0, MU, phase=phase)
    radar_noise = NoiseSpec(sigma_rho=1e-8, sigma_rhodot=1e-9)
    att1 = synthesize_radar_attributable(truth, eph, t1, MU, C_AU,
                                         noise=radar_noise)
    att2 = synthesize_optical_attributable(truth, eph, t2, MU, C_AU, noise=NOISE)
    obs1 = CartesianState(*eph.state(t1), t1)
    obs2 = CartesianState(*eph.state(t2), t2)
    sols = link_radar_optical(att1, att2, obs1, obs2)
    truth2 = synthetic_truth_state(truth, att2, MU, C_AU, eph)
    rho_true = float(np.linalg.norm(truth2.r - obs2.r))
    sol = min(sols, key=lambda s: abs(s.rho2 - rho_true))
    return AttributablePair(att1, att2), sol, obs1, obs2


@pytest.fixture(scope="module")
def solved_optical():
    return make_solved_optical()


@pytest.fixture(scope="module")
def solved_radar():
    return make_solved_radar()


class TestPsiJacobian:
    def test_matches_central_differences(self, rng):
        """All twelve columns against central differences on random states."""
        for _ in range(100):
            s1, s2 = random_state(rng), random_state(rng)
            q2 = rng.uniform(-1.5, 1.5, size=3)
            J = psi_jacobian(s1, s2, q2, MU)
            x0 = np.concatenate([s1.r, s1.v, s2.r, s2.v])

            def eval_psi(x):
                a = CartesianState(r=x[0:3], v=x[3:6], epoch=0.0)
                b = CartesianState(r=x[6:9], v=x[9:12], epoch=0.0)
                return psi(a, b, q2, MU)

            fd = np.zeros((4, 12))
            for i in range(12):
                h = 1e-7 * max(1.0, abs(x0[i]))
                xp, xm = x0.copy(), x0.copy()
                xp[i] += h
                xm[i] -= h
                fd[:, i] = (eval_psi(xp) - eval_psi(xm)) / (2.0 * h)
            scale = max(1.0, np.max(np.abs(J)))
            err = np.max(np.abs(fd - J))
            assert err < 1e-6 * scale, \
                f"psi jacobian FD mismatch {err:.3e} at scale {scale:.3e}"

    def test_momentum_rows_are_product_rule(self, rng):
        """The first three rows applied to a first-epoch perturbation must
        reproduce the exact differential of r x rdot."""
        s1, s2 = random_state(rng), random_state(rng)
        q2 = rng.uniform(-1.5, 1.5, size=3)
        J = psi_jacobian(s1, s2, q2, MU)
        dr, dv = rng.uniform(-1, 1, size=3), rng.uniform(-1, 1, size=3)
        got = J[:3, 0:3] @ dr + J[:3, 3:6] @ dv
        want = np.cross(dr, s1.v) + np.cross(s1.r, dv)
        assert np.max(np.abs(got - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))

    def test_fourth_component_projects_on_position_cross_observer(self, rng):
        """psi[3] equals mu (L1 - L2) . (r2 x q2): the projection uses the
        body position, not the unit sightline."""
        s1, s2 = random_state(rng), random_state(rng)
        q2 = rng.uniform(-1.5, 1.5, size=3)
        w = np.cross(s2.r, q2)
        l1, l2 = laplace_lenz(s1, MU), laplace_lenz(s2, MU)
        want = MU * (l1 - l2) @ w
        got = psi(s1, s2, q2, MU)[3]
        assert abs(got - want) < 1e-12 * max(1.0, abs(want)), \
            f"fourth component {got} vs mu*(L1-L2).w {want}"

    def test_zero_first_position_raises(self):
        s1 = CartesianState(r=np.zeros(3), v=np.array([0.0, 0.01, 0.0]),
                            epoch=0.0)
        s2 = CartesianState(r=np.array([1.0, 0, 0]),
                            v=np.array([0, 0.01, 0]), epoch=0.0)
        with pytest.raises(DomainError):
            psi_jacobian(s1, s2, np.array([1.0, 0, 0]), MU)


class TestAttCartesianJacobian:
    def test_matches_central_differences(self, rng):
        obs = CartesianState(r=np.array([0.9, -0.3, 0.01]),
                             v=np.array([0.005, 0.015, -0.001]), epoch=0.0)
        for _ in range(20):
            coords = np.array([
                rng.uniform(0, 2 * np.pi), rng.uniform(-1.2, 1.2),
                rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                rng.uniform(0.1, 3.0), rng.uniform(-0.05, 0.05)])
            T = att_cartesian_jacobian(*coords)
            fd = np.zeros((6, 6))
            for i in range(6):
                h = 1e-7 * max(1.0, abs(coords[i]))
                cp, cm = coords.copy(), coords.copy()
                cp[i] += h
                cm[i] -= h
                fd[:, i] = (state_vector(cp, obs) - state_vector(cm, obs)) / (2 * h)
            err = np.max(np.abs(fd - T))
            assert err < 1e-6 * max(1.0, np.max(np.abs(T))), \
                f"coordinate jacobian FD mismatch {err:.3e}"

    def test_observer_does_not_enter(self, rng):
        """The map is observer + body offset, so the Jacobian in the angular
        coordinates is observer-independent: differencing two observers must
        give identical matrices."""
        coords = (1.1, -0.4, 0.02, -0.01, 1.7, 0.003)
        obs_a = CartesianState(r=np.array([1.0, 0, 0]),
                               v=np.array([0, 0.017, 0]), epoch=0.0)
        obs_b = CartesianState(r=np.array([-0.2, 0.8, 0.3]),
                               v=np.array([0.01, -0.002, 0.004]), epoch=0.0)
        T = att_cartesian_jacobian(*coords)
        for i in range(6):
            h = 1e-7
            cp, cm = np.array(coords), np.array(coords)
            cp[i] += h
            cm[i] -= h
            col_a = (state_vector(cp, obs_a) - state_vector(cm, obs_a)) / (2 * h)
            col_b = (state_vector(cp, obs_b) - state_vector(cm, obs_b)) / (2 * h)
            assert np.allclose(col_a, col_b, atol=1e-9)
            assert np.allclose(col_a, T[:, i], atol=1e-6)


class TestPhiAtSolutions:
    def test_phi_vanishes_at_optical_solution(self, solved_optical):
        """The solver enforces the projected form on v = unit sightline x q2;
        the covariance map projects on w = r2 x q2.  Both must vanish at a
        solution (parallel directions for positive range)."""
        pair, sol, obs1, obs2 = solved_optical
        phi = implicit_solution_jacobian(pair, sol, obs1, obs2, MU).phi
        c_scale = max(np.linalg.norm(np.cross(sol.state1.r, sol.state1.v)),
                      np.linalg.norm(np.cross(sol.state2.r, sol.state2.v)))
        w = np.cross(sol.state2.r, obs2.r)
        l_scale = MU * np.linalg.norm(w) * max(
            np.linalg.norm(laplace_lenz(sol.state1, MU)),
            np.linalg.norm(laplace_lenz(sol.state2, MU)), 1e-2)
        assert np.max(np.abs(phi[:3])) < 1e-7 * c_scale, \
            f"momentum residual {np.max(np.abs(phi[:3])):.3e}"
        assert abs(phi[3]) < 1e-7 * l_scale, f"projected residual {phi[3]:.3e}"

    def test_phi_vanishes_at_radar_solution(self, solved_radar):
        pair, sol, obs1, obs2 = solved_radar
        phi = implicit_solution_jacobian(pair, sol, obs1, obs2, MU).phi
        c_scale = max(np.linalg.norm(np.cross(sol.state1.r, sol.state1.v)),
                      np.linalg.norm(np.cross(sol.state2.r, sol.state2.v)))
        assert np.max(np.abs(phi[:3])) < 1e-7 * c_scale
        w = np.cross(sol.state2.r, obs2.r)
        l_scale = MU * np.linalg.norm(w) * max(
            np.linalg.norm(laplace_lenz(sol.state1, MU)),
            np.linalg.norm(laplace_lenz(sol.state2, MU)), 1e-2)
        assert abs(phi[3]) < 1e-7 * l_scale


class TestResolveUnknowns:
    def test_fixed_point_at_solution(self, solved_optical):
        pair, sol, obs1, obs2 = solved_optical
        y0 = solution_unknowns(pair, sol, obs1)
        y = resolve_unknowns(pair, y0, obs1, obs2, MU)
        assert np.max(np.abs(y - y0) / np.maximum(np.abs(y0), 1.0)) < 1e-10

    def test_converges_from_perturbed_start(self, solved_optical):
        pair, sol, obs1, obs2 = solved_optical
        y0 = solution_unknowns(pair, sol, obs1)
        y = resolve_unknowns(pair, y0 * (1.0 + 1e-3), obs1, obs2, MU)
        assert np.max(np.abs(y - y0) / np.maximum(np.abs(y0), 1.0)) < 1e-10

    def test_nonconvergence_raises(self, solved_optical):
        pair, sol, obs1, obs2 = solved_optical
        y0 = solution_unknowns(pair, sol, obs1)
        with pytest.raises(NumericalError):
            resolve_unknowns(pair, y0 * 1.5, obs1, obs2, MU, max_iter=2)


def implicit_fd_matrix(pair, sol, obs1, obs2, h_factor=1e-8):
    """Central-difference dY/dA via re-solving the constraint.

    The step balances truncation against the re-solve precision; for very
    sensitive geometries the caller shrinks it further so the difference
    stays in the linear regime.
    """
    y0 = solution_unknowns(pair, sol, obs1)
    a0 = pair.values
    fd = np.zeros((4, 8))
    for i in range(8):
        h = h_factor * max(1.0, abs(a0[i]))
        ap, am = a0.copy(), a0.copy()
        ap[i] += h
        am[i] -= h
        yp = resolve_unknowns(pair_with_values(pair, ap), y0, obs1, obs2, MU)
        ym = resolve_unknowns(pair_with_values(pair, am), y0, obs1, obs2, MU)
        fd[:, i] = (yp - ym) / (2.0 * h)
    return fd


class TestImplicitJacobian:
    def test_optical_matches_resolve_oracle(self, solved_optical):
        pair, sol, obs1, obs2 = solved_optical
        imp = implicit_solution_jacobian(pair, sol, obs1, obs2, MU)
        fd = implicit_fd_matrix(pair, sol, obs1, obs2)
        scale = max(1.0, np.max(np.abs(imp.dy_da)))
        err = np.max(np.abs(fd - imp.dy_da))
        assert err < 1e-5 * scale, \
            f"implicit jacobian FD mismatch {err:.3e} at scale {scale:.3e}"

    def test_radar_matches_resolve_oracle(self, solved_radar):
        pair, sol, obs1, obs2 = solved_radar
        imp = implicit_solution_jacobian(pair, sol, obs1, obs2, MU)
        fd = implicit_fd_matrix(pair, sol, obs1, obs2)
        scale = max(1.0, np.max(np.abs(imp.dy_da)))
        err = np.max(np.abs(fd - imp.dy_da))
        assert err < 1e-5 * scale, \
            f"implicit jacobian FD mismatch {err:.3e} at scale {scale:.3e}"

    def test_random_geometries(self, rng):
        """Same oracle over a handful of random solved optical pairs."""
        done = 0
        while done < 5:
            truth = KeplerianElements(
                a=rng.uniform(0.7, 2.2), e=rng.uniform(0.05, 0.4),
                i=rng.uniform(0.02, 0.6), Omega=rng.uniform(0, 2 * np.pi),
                omega=rng.uniform(0, 2 * np.pi), ell=rng.uniform(0, 2 * np.pi),
                epoch=53000.0)
            t1 = rng.uniform(52950.0, 53050.0)
            t2 = t1 + rng.uniform(50.0, 220.0)
            try:
                pair, sol, obs1, obs2 = make_solved_optical(
                    truth, t1, t2, phase=rng.uniform(0, 2 * np.pi))
            except Exception:
                continue
            imp = implicit_solution_jacobian(pair, sol, obs1, obs2, MU)
            scale = max(1.0, np.max(np.abs(imp.dy_da)))
            if not imp.condition < 1e10 or scale > 1e5:
                continue
            fd = implicit_fd_matrix(pair, sol, obs1, obs2,
                                    h_factor=min(1e-8, 1e-4 / scale))
            err = np.max(np.abs(fd - imp.dy_da))
            assert err < 1e-5 * scale, f"FD mismatch {err:.3e}"
            done += 1

    def test_cross_epoch_coupling_nonzero(self, solved_optical):
        """First-epoch range must respond to second-epoch angles."""
        pair, sol, obs1, obs2 = solved_optical
        imp = implicit_solution_jacobian(pair, sol, obs1, obs2, MU)
        assert abs(imp.dy_da[0, 4]) > 1e-6, \
            f"d(rho1)/d(alpha2) suspiciously small: {imp.dy_da[0, 4]:.3e}"

    def test_condition_flag_wiring(self, solved_optical, monkeypatch):
        pair, sol, obs1, obs2 = solved_optical
        imp = implicit_solution_jacobian(pair, sol, obs1, obs2, MU)
        assert imp.flags == ()
        monkeypatch.setattr(covariance, "CONDITION_LIMIT", 1.0)
        flagged = implicit_solution_jacobian(pair, sol, obs1, obs2, MU)
        assert "ill-conditioned-solution" in flagged.flags


def cartesian_fd_matrix(pair, sol, obs1, obs2, epoch_index):
    """Central-difference d(E_car^(i))/dA via re-solve + state assembly."""
    y0 = solution_unknowns(pair, sol, obs1)
    a0 = pair.values
    att = pair.att1 if epoch_index == 1 else pair.att2
    obs = obs1 if epoch_index == 1 else obs2
    fd = np.zeros((6, 8))
    for i in range(8):
        h = 1e-7 * max(1.0, abs(a0[i]))
        cols = []
        for sgn in (+1.0, -1.0):
            a = a0.copy()
            a[i] += sgn * h
            p = pair_with_values(pair, a)
            y = resolve_unknowns(p, y0, obs1, obs2, MU)
            patt = p.att1 if epoch_index == 1 else p.att2
            part = y[:2] if epoch_index == 1 else y[2:]
            cols.append(state_vector(epoch_coords(patt, part), obs))
        fd[:, i] = (cols[0] - cols[1]) / (2.0 * h)
    return fd


class TestCartesianCovariance:
    def test_column_wiring_optical(self, solved_optical):
        """Each epoch's six rows of the state Jacobian dX/dA against the
        re-solve oracle: the observed components enter directly, the
        unknowns through the implicit derivative."""
        pair, sol, obs1, obs2 = solved_optical
        imp = implicit_solution_jacobian(pair, sol, obs1, obs2, MU)
        for idx in (1, 2):
            M = imp.dx_da[6 * idx - 6:6 * idx]
            fd = cartesian_fd_matrix(pair, sol, obs1, obs2, idx)
            err = np.max(np.abs(fd - M))
            assert err < 1e-5 * max(1.0, np.max(np.abs(M))), \
                f"epoch {idx} chain mismatch {err:.3e}"

    def test_column_wiring_radar(self, solved_radar):
        """Radar first epoch: angles and (rho, rhodot) are observed, the
        angular rates come through the implicit derivative."""
        pair, sol, obs1, obs2 = solved_radar
        imp = implicit_solution_jacobian(pair, sol, obs1, obs2, MU)
        for idx in (1, 2):
            M = imp.dx_da[6 * idx - 6:6 * idx]
            fd = cartesian_fd_matrix(pair, sol, obs1, obs2, idx)
            err = np.max(np.abs(fd - M))
            assert err < 1e-5 * max(1.0, np.max(np.abs(M))), \
                f"epoch {idx} chain mismatch {err:.3e}"

    def test_zero_covariance_gives_zero(self, solved_optical):
        pair, sol, obs1, obs2 = solved_optical
        zero_pair = AttributablePair(pair.att1, pair.att2, np.zeros((8, 8)))
        cov = cartesian_covariance(zero_pair, sol, obs1, obs2, 1, MU)
        assert np.all(cov.matrix == 0.0)

    def test_quadratic_scaling(self, solved_optical):
        pair, sol, obs1, obs2 = solved_optical
        base = AttributablePair(pair.att1, pair.att2, np.eye(8))
        scaled = AttributablePair(pair.att1, pair.att2, 4.0 * np.eye(8))
        g1 = cartesian_covariance(base, sol, obs1, obs2, 1, MU).matrix
        g4 = cartesian_covariance(scaled, sol, obs1, obs2, 1, MU).matrix
        assert np.allclose(g4, 4.0 * g1, rtol=1e-13, atol=0.0)

    def test_symmetric_psd_output(self, solved_optical):
        pair, sol, obs1, obs2 = solved_optical
        for idx in (1, 2):
            cov = cartesian_covariance(pair, sol, obs1, obs2, idx, MU)
            m = cov.matrix
            assert np.max(np.abs(m - m.T)) == 0.0
            eig = np.linalg.eigvalsh(m)
            assert eig.min() >= -1e-10 * np.trace(m), \
                f"epoch {idx} min eigenvalue {eig.min():.3e}"

    def test_bad_epoch_index(self, solved_optical):
        pair, sol, obs1, obs2 = solved_optical
        with pytest.raises(DomainError):
            cartesian_covariance(pair, sol, obs1, obs2, 3, MU)

    def test_attach_fills_solution(self, solved_optical):
        pair, sol, obs1, obs2 = solved_optical
        attach_covariances(pair, sol, obs1, obs2)
        assert sol.covariance1 is not None and sol.covariance2 is not None
        assert sol.covariance1.shape == (6, 6)
        want = cartesian_covariance(pair, sol, obs1, obs2, 1, MU).matrix
        assert np.allclose(sol.covariance1, want, rtol=0, atol=0)
        for got, idx in ((sol.covariance1, 1), (sol.covariance2, 2)):
            M = cartesian_fd_matrix(pair, sol, obs1, obs2, idx)
            oracle = M @ pair.gamma @ M.T
            err = np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))
            assert err < 1e-6, f"epoch {idx} covariance off the oracle: {err:.3e}"

    def test_monte_carlo_epoch1(self, solved_optical, rng):
        """Sample attributables from their covariance, re-solve, and compare
        the sample covariance of the first-epoch state with the linear
        pushforward on the leading eigenvalue."""
        pair, sol, obs1, obs2 = solved_optical
        G = cartesian_covariance(pair, sol, obs1, obs2, 1, MU).matrix
        y0 = solution_unknowns(pair, sol, obs1)
        a0 = pair.values
        L = np.linalg.cholesky(pair.gamma + 1e-30 * np.eye(8))
        n = 2000
        samples = np.empty((n, 6))
        for k in range(n):
            a = a0 + L @ rng.standard_normal(8)
            p = pair_with_values(pair, a)
            y = resolve_unknowns(p, y0, obs1, obs2, MU)
            samples[k] = state_vector(epoch_coords(p.att1, y[:2]), obs1)
        sample_cov = np.cov(samples.T)
        lam_mc = np.linalg.eigvalsh(sample_cov)[-1]
        lam_an = np.linalg.eigvalsh(G)[-1]
        assert abs(lam_mc - lam_an) < 0.15 * lam_an, \
            f"leading eigenvalue MC {lam_mc:.6e} vs analytic {lam_an:.6e}"


class TestAttributablePair:
    def test_block_diagonal_default(self, solved_optical):
        pair, _, _, _ = solved_optical
        g = pair.gamma
        assert np.allclose(g[:4, :4], pair.att1.cov)
        assert np.allclose(g[4:, 4:], pair.att2.cov)
        assert np.all(g[:4, 4:] == 0.0)

    def test_missing_covariance_raises(self):
        eph = circular_observer(1.0, MU)
        a1 = synthesize_optical_attributable(TRUTH, eph, T1, MU, C_AU)
        a2 = synthesize_optical_attributable(TRUTH, eph, T2, MU, C_AU)
        assert a1.cov is None
        with pytest.raises(DomainError):
            AttributablePair(a1, a2)

    def test_wrong_ordering_rejected(self, solved_radar):
        pair, _, _, _ = solved_radar
        with pytest.raises(DomainError):
            AttributablePair(pair.att2, pair.att1, np.eye(8))

    def test_asymmetric_covariance_rejected(self, solved_optical):
        pair, _, _, _ = solved_optical
        g = np.eye(8)
        g[0, 1] = 0.5
        with pytest.raises(DomainError):
            AttributablePair(pair.att1, pair.att2, g)

    def test_indefinite_covariance_rejected(self, solved_optical):
        pair, _, _, _ = solved_optical
        g = np.eye(8)
        g[7, 7] = -0.5
        with pytest.raises(DomainError):
            AttributablePair(pair.att1, pair.att2, g)

    def test_values_roundtrip(self, solved_optical, solved_radar):
        for pair, _, _, _ in (solved_optical, solved_radar):
            clone = pair_with_values(pair, pair.values)
            assert np.allclose(clone.values, pair.values, rtol=0, atol=0)
            assert clone.att1.tbar == pair.att1.tbar


class TestCovarianceMatrix:
    def test_labels_and_dimension(self):
        cm = CovarianceMatrix(np.eye(4), label="attributable")
        assert cm.dimension == 4 and cm.label == "attributable"

    def test_asymmetry_rejected(self):
        m = np.eye(3)
        m[0, 2] = 1e-3
        with pytest.raises(DomainError):
            CovarianceMatrix(m, label="cartesian")

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            CovarianceMatrix(np.diag([1.0, -1e-3]), label="cartesian")

    def test_tiny_negative_tolerated(self):
        m = np.diag([1.0, 1.0, -5e-11])
        cm = CovarianceMatrix(m, label="cartesian")
        assert cm.matrix[2, 2] == -5e-11
