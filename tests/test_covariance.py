"""Tests for covariance propagation: the constraint-map Jacobian against
finite differences, the implicit-derivative and column wiring against a
re-solve oracle (both linkage variants), pushed covariances against a
Monte-Carlo sample, the container validation rules, and the screened
matrix checks against the rules that decompose every row."""

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
from arclink.errors import DomainError, NumericalError, linalg_rows
from arclink.geometry import body_position, body_velocity, observation_basis
from arclink.kepler import CartesianState, KeplerianElements, laplace_lenz
from arclink.optical import link_optical
from arclink.radar import link_radar_optical
from conftest import rotated

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

    @pytest.mark.parametrize("scale", [1e306, 1e307])
    def test_overflowing_push_is_quiet_numerical_error(self, solved_optical,
                                                       scale):
        """A huge but valid joint covariance overflows once pushed: the
        library raises NumericalError without numpy warnings (the test
        suite turns a RuntimeWarning into an error)."""
        pair, sol, obs1, obs2 = solved_optical
        huge = AttributablePair(pair.att1, pair.att2, scale * np.eye(8))
        with pytest.raises(NumericalError):
            cartesian_covariance(huge, sol, obs1, obs2, 1, MU)
        with pytest.raises(NumericalError):
            attach_covariances(huge, sol, obs1, obs2)

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

    def test_overflowing_covariance_rejected(self, solved_optical):
        """A joint covariance too large to check raises DomainError, with
        no overflow warning first."""
        pair, _, _, _ = solved_optical
        with pytest.raises(DomainError, match="not finite"):
            AttributablePair(pair.att1, pair.att2, np.full((8, 8), 1e308))

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

    def test_overflowing_matrix_rejected(self):
        """A matrix too large to check raises DomainError, with no overflow
        warning first."""
        with pytest.raises(DomainError, match="not finite"):
            CovarianceMatrix(np.full((4, 4), 1e308), label="attributable")

    def test_tiny_negative_tolerated(self):
        m = np.diag([1.0, 1.0, -5e-11])
        cm = CovarianceMatrix(m, label="cartesian")
        assert cm.matrix[2, 2] == -5e-11


# ---------------------------------------------------------------------------
# screened matrix checks


def reference_validated(m, psd_tol, what):
    """validated_rows as it was before the screen: eigvalsh of every
    usable row decides it."""
    sym = 0.5 * (m + m.mT)
    trace = np.trace(m, axis1=1, axis2=2)
    finite = np.isfinite(sym).all(axis=(1, 2)) & np.isfinite(trace)
    scale = np.abs(m).max(axis=(1, 2))
    skew = np.abs(m - m.mT).max(axis=(1, 2))
    usable = finite & ~(skew > 1e-12 * scale)
    eig, failed = linalg_rows(np.linalg.eigvalsh, m.shape[-1:], sym, usable)
    low, floor = eig[:, 0], -psd_tol * np.maximum(trace, 0.0)
    bad = {}
    for k in range(len(m)):
        if not finite[k]:
            bad[k] = f"{what} is not finite in double precision"
        elif not usable[k]:
            bad[k] = (f"{what} not symmetric: max asymmetry {skew[k]:.3e} "
                      f"exceeds 1.0e-12 of scale {scale[k]:.3e}")
        elif k in failed:
            bad[k] = f"{what} has no eigenvalues: {failed[k]}"
        elif low[k] < floor[k]:
            bad[k] = (f"{what} not positive semidefinite: min eigenvalue "
                      f"{low[k]:.3e} below {floor[k]:.3e}")
    return sym, bad


def conditioned(rng, kappa, n=4):
    """A matrix of 2-norm condition number kappa, its singular values
    geometric from 1 to 1/kappa, in random bases."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.geomspace(1.0, 1.0 / kappa, n)) @ v.T


class Counted:
    """A numpy.linalg function that records the stack it is called on."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, m, *rest):
        self.calls.append(np.array(m))
        return self.fn(m, *rest)


PSD_TOL = 1e-10
# lambda_min of each screened row, as a multiple of |floor|
PSD_MULTIPLES = (1.0, -0.4, -0.9, -1.1, -10.0)


def psd_stack(rng):
    """Rows of 6x6 matrices for validated_rows (psd_tol PSD_TOL): lambda_min
    at each PSD_MULTIPLES of |floor|, then trace 0, the zero matrix, a
    NaN, an asymmetric matrix, one whose symmetrization overflows, one whose
    factorization overflows, and 8 covariances, enough rows for the
    screen to run; with the rows that only eigvalsh can settle."""
    rest = np.array([3.0, 1.0, 0.5, 2e-3, 1e-6])
    rows = []
    for c in PSD_MULTIPLES:
        low = c * PSD_TOL * rest.sum() / (1.0 - c * PSD_TOL)  # c |floor| at its trace
        rows.append(rotated(rng, np.concatenate([[low], rest])))
    rows.append(rotated(rng, [1.0, -1.0, 0.5, -0.5, 0.0, 0.0]))
    rows.append(np.zeros((6, 6)))
    rows.append(np.full((6, 6), np.nan))
    asymmetric = rotated(rng, rest.tolist() + [1.0])
    asymmetric[0, 3] += 1e-9
    rows.append(asymmetric)
    rows.append(np.full((6, 6), 1e308))
    overflowing = np.eye(6)
    overflowing[0, 0], overflowing[0, 1], overflowing[1, 0] = 1e-10, 1e155, 1e155
    rows.append(overflowing)
    rows += [rotated(rng, rng.uniform(0.1, 2.0, 6)) for _ in range(8)]
    decomposed = [2, 3, 4, 5, 6, 10]  # -0.9, -1.1, -10, trace 0, zero, overflow
    return np.array(rows), decomposed


class TestScreenedChecks:
    def test_psd_screen_matches_eigvalsh_rule(self, rng, monkeypatch):
        m, decomposed = psd_stack(rng)
        with np.errstate(all="ignore"):  # as the stacked callers run it
            want_sym, want_bad = reference_validated(m, PSD_TOL, "cartesian covariance")
            counted = Counted(np.linalg.eigvalsh)
            monkeypatch.setattr(np.linalg, "eigvalsh", counted)
            sym, bad = covariance.validated_rows(m, PSD_TOL, "cartesian covariance")
        np.testing.assert_array_equal(sym, want_sym)
        assert bad == want_bad
        assert sorted(bad) == [3, 4, 5, 7, 8, 9, 10]
        (stack,) = counted.calls
        np.testing.assert_array_equal(stack, want_sym[decomposed])

    def test_one_failing_row_makes_no_per_row_call(self, rng, monkeypatch):
        """A stack of valid covariances with one below the floor: no row is
        factored alone, and eigvalsh sees that one row."""
        m = np.array([rotated(rng, rng.uniform(0.1, 2.0, 6)) for _ in range(64)])
        m[17] = rotated(rng, [-1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        counts = {}
        for name in ("eigvalsh", "cholesky", "eigh", "svd", "inv", "cond"):
            monkeypatch.setattr(np.linalg, name, counts.setdefault(name, Counted(
                getattr(np.linalg, name))))
        _, bad = covariance.validated_rows(m, PSD_TOL, "cartesian covariance")
        assert list(bad) == [17]
        assert [stack.shape for stack in counts.pop("eigvalsh").calls] == [(1, 6, 6)]
        assert all(not c.calls for c in counts.values())

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_empty_stacks(self, n):
        sym, bad = covariance.validated_rows(np.zeros((0, n, n)), PSD_TOL, "x")
        assert sym.shape == (0, n, n) and bad == {}
        empty = np.zeros((0, n, n))
        below = covariance.conditioned_rows(empty, np.zeros(0, dtype=bool), 1e12, empty)
        assert below.shape == (0,)

    @pytest.mark.parametrize("rows, decomposed", [(15, 15), (16, 0), (64, 0)])
    def test_small_stacks_skip_the_screen(self, rng, monkeypatch, rows, decomposed):
        """Below _SCREEN_ROWS rows eigvalsh of every row is the cheaper
        check; from there on a stack of valid covariances makes no call."""
        m = np.array([rotated(rng, rng.uniform(0.1, 2.0, 6)) for _ in range(rows)])
        counted = Counted(np.linalg.eigvalsh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        sym, bad = covariance.validated_rows(m, PSD_TOL, "cartesian covariance")
        assert bad == {} and np.array_equal(sym, 0.5 * (m + m.mT))
        assert sum(len(stack) for stack in counted.calls) == decomposed

    def test_condition_screen_matches_svd_rule(self, rng, monkeypatch):
        limit = 1e12
        m = np.array([conditioned(rng, kappa) for kappa in
                      (1e6, 0.4 * limit, 0.9 * limit, 1.1 * limit, 3 * limit, 100 * limit)]
                     + [np.ones((4, 4)), np.full((4, 4), np.nan),
                        1e-160 * np.diag([1.0, 1.0, 1.0, 1e-6]),  # kappa_F overflows
                        1e-145 * np.eye(4),  # a sum of squares near underflow
                        conditioned(rng, 10.0)])
        ok = np.ones(len(m), dtype=bool)
        ok[10] = False
        with np.errstate(all="ignore"):
            cond, _ = linalg_rows(np.linalg.cond, (), m, ok)
            inv, _ = linalg_rows(np.linalg.inv, (4, 4), m, ok)
            counted = Counted(np.linalg.cond)
            monkeypatch.setattr(np.linalg, "cond", counted)
            below = covariance.conditioned_rows(m, ok, limit, inv)
        np.testing.assert_array_equal(below, ~ok | (cond < limit))
        np.testing.assert_array_equal(below[:11], [1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1])
        # only the rows between limit/2 and 8 limit, the singular, the NaN
        # (whose SVD raises, so that linalg_rows calls each row alone) and
        # the two whose kappa_F cannot be trusted
        rows = [2, 3, 4, 6, 7, 8, 9]
        np.testing.assert_array_equal(counted.calls[0], m[rows])
        for stack, k in zip(counted.calls[1:], rows, strict=True):
            np.testing.assert_array_equal(stack, m[k])

    def test_returned_condition_numbers_decide_the_flag(self, solved_optical, monkeypatch):
        """Where the SVD condition numbers are returned, they decide the
        ill-conditioned flag: one cond call, and no inverse for a screen."""
        pair, sol, obs1, obs2 = solved_optical
        counts = {name: Counted(getattr(np.linalg, name)) for name in ("inv", "cond")}
        for name, counted in counts.items():
            monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(covariance, "CONDITION_LIMIT", 1.0)
        imp = implicit_solution_jacobian(pair, sol, obs1, obs2, MU)
        assert imp.flags == ("ill-conditioned-solution",)
        assert [stack.shape for stack in counts["cond"].calls] == [(1, 4, 4)]
        assert not counts["inv"].calls
