"""Tests for attribution-based selection: the predicted attributable against
the generator, the chi4 penalty against the Woodbury-identity and 50-digit
oracles and its invariance properties, and the accept/annotate behavior on
solved cases."""

import dataclasses

import mpmath
import numpy as np
import pytest

import arclink.selection as selection
from arclink.attributables import (
    AttributableColumns,
    NoiseSpec,
    circular_observer,
    synthesize_optical_attributable,
    synthetic_truth_state,
)
from arclink.config import AU_DAY, RunConfig
from arclink.constants import ARCSEC_RAD, GM_SUN_AU3_DAY2
from arclink.covariance import AttributablePair, attach_covariances
from arclink.errors import (
    DomainError,
    NonEllipticOrbitError,
    SelectionUnavailableError,
)
from arclink.geometry import topocentric_coords
from arclink.kepler import (
    CartesianState,
    KeplerianElements,
    cartesian_to_keplerian,
    propagate_kepler,
)
from arclink.optical import link_optical
from arclink.selection import (
    PredictedAttributable,
    compatibility_ok,
    element_covariance,
    identification_penalty,
    predict_attributable,
    select_solution_rows,
    select_solutions,
)
from conftest import gather, rotated

MU = GM_SUN_AU3_DAY2
C_AU = AU_DAY.c_light

TRUTH = KeplerianElements(a=0.92, e=0.19, i=0.06, Omega=1.2, omega=0.7,
                          ell=0.4, epoch=53100.0)
T1, T2 = 53105.0, 53201.0
NOISE = NoiseSpec()


def synth_case(noise=NOISE, rng=None, phase=0.3):
    eph = circular_observer(1.0, MU, phase=phase)
    att1 = synthesize_optical_attributable(TRUTH, eph, T1, MU, C_AU,
                                           noise=noise, rng=rng)
    att2 = synthesize_optical_attributable(TRUTH, eph, T2, MU, C_AU,
                                           noise=noise, rng=rng)
    obs1 = CartesianState(*eph.state(T1), T1)
    obs2 = CartesianState(*eph.state(T2), T2)
    return att1, att2, obs1, obs2, eph


def solved_case(noise=NOISE, rng=None):
    att1, att2, obs1, obs2, eph = synth_case(noise, rng)
    sols = link_optical(att1, att2, obs1, obs2)
    pair = AttributablePair(att1, att2)
    for sol in sols:
        attach_covariances(pair, sol, obs1, obs2)
    truth1 = synthetic_truth_state(TRUTH, att1, MU, C_AU, eph)
    rho_true = float(np.linalg.norm(truth1.r - obs1.r))
    genuine = min(sols, key=lambda s: abs(s.rho1 - rho_true))
    return sols, genuine, att2, obs2


def random_pd(rng, n=4, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T + 0.5 * np.eye(n))


def chi4_oracle(d, g_ap, g_a2):
    """d . (Gamma_Ap + Gamma_A2)^-1 d in 50 digits, of the double inputs."""
    with mpmath.workdps(50):
        total = mpmath.matrix(g_ap.tolist()) + mpmath.matrix(g_a2.tolist())
        dm = mpmath.matrix(d.tolist())
        return float((dm.T * mpmath.lu_solve(total, dm))[0])


# Positive-trace covariances, both singular along the fourth axis.
SHARED_NULL_AP, SHARED_NULL_A2 = np.diag([1.0, 2.0, 3.0, 0.0]), np.diag([4.0, 5.0, 6.0, 0.0])


class TestPredictAttributable:
    def test_matches_generating_attributable(self):
        """Exact orbit, zero covariance: the prediction must reproduce the
        synthesized attributable (light time included)."""
        att1, att2, obs1, obs2, eph = synth_case()
        truth1 = synthetic_truth_state(TRUTH, att1, MU, C_AU, eph)
        elements1 = cartesian_to_keplerian(truth1, MU)
        pred = predict_attributable(elements1, np.zeros((6, 6)), obs2,
                                    att2.tbar, MU, C_AU)
        err = np.max(np.abs(pred.values - att2.values))
        assert err < 1e-9, f"prediction off by {err:.3e}"
        assert np.all(pred.gamma == 0.0)

    def test_covariance_scales_quadratically(self):
        att1, att2, obs1, obs2, eph = synth_case()
        elements1 = cartesian_to_keplerian(
            synthetic_truth_state(TRUTH, att1, MU, C_AU, eph), MU)
        g = np.diag([1e-10, 1e-10, 1e-10, 1e-10, 1e-10, 1e-10])
        p1 = predict_attributable(elements1, g, obs2, att2.tbar, MU, C_AU)
        p4 = predict_attributable(elements1, 4.0 * g, obs2, att2.tbar, MU, C_AU)
        assert np.allclose(p4.gamma, 4.0 * p1.gamma, rtol=1e-13, atol=0.0)

    def test_hyperbolic_rejected(self):
        _, att2, _, obs2, _ = synth_case()
        bad = dataclasses.replace(TRUTH, e=1.3)
        with pytest.raises(NonEllipticOrbitError):
            predict_attributable(bad, np.zeros((6, 6)), obs2, att2.tbar,
                                 MU, C_AU)

    def test_monte_carlo_marginal(self, rng):
        """Sample elements, propagate and extract independently of the
        analytic chain; the sample covariance of the four observed
        components must match the pushed-forward marginal."""
        att1, att2, obs1, obs2, eph = synth_case()
        elements1 = cartesian_to_keplerian(
            synthetic_truth_state(TRUTH, att1, MU, C_AU, eph), MU)
        sig = np.array([2e-9, 2e-9, 2e-9, 2e-9, 2e-9, 2e-9])
        gamma1 = np.diag(sig**2)
        pred = predict_attributable(elements1, gamma1, obs2, att2.tbar,
                                    MU, C_AU)
        e0 = elements1.as_array()
        n = 3000
        samples = np.empty((n, 4))
        for k in range(n):
            e = e0 + sig * rng.standard_normal(6)
            el = KeplerianElements(*e, epoch=elements1.epoch)
            rho = 0.0
            for _ in range(5):
                s = propagate_kepler(el, att2.tbar - rho / C_AU, MU)
                rho = float(np.linalg.norm(s.r - obs2.r))
            samples[k] = topocentric_coords(s.r, s.v, obs2.r, obs2.v)[:4]
        sample_cov = np.cov(samples.T)
        lam_mc = np.linalg.eigvalsh(sample_cov)[-1]
        lam_an = np.linalg.eigvalsh(pred.gamma)[-1]
        assert abs(lam_mc - lam_an) < 0.15 * lam_an, \
            f"marginal eigenvalue MC {lam_mc:.6e} vs analytic {lam_an:.6e}"

    def test_overflowing_covariance_rejected(self):
        """A covariance too large to check raises DomainError, with no
        overflow warning first."""
        with pytest.raises(DomainError, match="not finite"):
            PredictedAttributable(values=np.zeros(4), gamma=np.full((4, 4), 1e308), tbar=0.0)

    def test_bad_covariance_shape(self):
        _, att2, _, obs2, _ = synth_case()
        with pytest.raises(DomainError):
            predict_attributable(TRUTH, np.zeros((4, 4)), obs2, att2.tbar,
                                 MU, C_AU)


class TestIdentificationPenalty:
    def pred(self, values, gamma, tbar=0.0):
        return PredictedAttributable(values=values, gamma=gamma, tbar=tbar)

    def test_zero_at_agreement(self, rng):
        g = random_pd(rng)
        v = np.array([1.0, -0.3, 0.01, 0.005])
        chi = identification_penalty(v, random_pd(rng), self.pred(v, g))
        assert chi == 0.0

    def test_nonnegative(self, rng):
        for _ in range(50):
            vp = rng.uniform(-0.5, 0.5, size=4)
            v2 = vp + rng.uniform(-0.2, 0.2, size=4)
            chi = identification_penalty(
                v2, random_pd(rng), self.pred(vp, random_pd(rng)))
            assert chi >= 0.0

    def test_woodbury_identity(self, rng):
        """The bracket form must equal the combined-covariance Mahalanobis
        distance (Gamma_Ap + Gamma_A2)^-1."""
        for _ in range(25):
            g_ap, g_a2 = random_pd(rng), random_pd(rng)
            vp = rng.uniform(-0.5, 0.5, size=4)
            v2 = vp + rng.uniform(-0.2, 0.2, size=4)
            chi = identification_penalty(v2, g_a2, self.pred(vp, g_ap))
            d = v2 - vp
            want = float(d @ np.linalg.solve(g_ap + g_a2, d))
            assert abs(chi - want) < 1e-10 * max(1.0, want), \
                f"chi4 {chi} vs combined-inverse form {want}"

    def test_angle_wrapping(self, rng):
        g_ap, g_a2 = random_pd(rng), random_pd(rng)
        vp = np.array([0.01, 0.2, 0.0, 0.0])
        v2 = vp + np.array([2.0 * np.pi, 0.0, 0.0, 0.0])
        v2[0] -= 1e-4  # just below a full turn: wrapped difference is small
        chi_wrapped = identification_penalty(v2, g_a2, self.pred(vp, g_ap))
        v_near = vp + np.array([-1e-4, 0.0, 0.0, 0.0])
        chi_near = identification_penalty(v_near, g_a2, self.pred(vp, g_ap))
        assert abs(chi_wrapped - chi_near) < 1e-9 * max(1.0, chi_near)

    def test_uninformative_second_attributable(self, rng):
        """Infinite second-epoch uncertainty collapses the bracket: the
        penalty must vanish regardless of the discrepancy."""
        g_ap = random_pd(rng)
        vp = np.zeros(4)
        v2 = np.array([0.3, -0.2, 0.05, 0.01])
        chi_ref = identification_penalty(v2, np.eye(4), self.pred(vp, g_ap))
        chi_wide = identification_penalty(v2, 1e12 * np.eye(4),
                                          self.pred(vp, g_ap))
        assert chi_wide < 1e-9 * max(1.0, chi_ref)

    def test_reparameterization_invariance(self, rng):
        """chi4 is a quadratic-form distance: any common invertible linear
        map on the vectors, applied congruently to both covariances, must
        leave it unchanged (differences kept small so wrapping is inert)."""
        for _ in range(10):
            g_ap, g_a2 = random_pd(rng, scale=1e-4), random_pd(rng, scale=1e-4)
            vp = rng.uniform(-0.05, 0.05, size=4)
            v2 = vp + rng.uniform(-0.02, 0.02, size=4)
            S = rng.uniform(-1, 1, (4, 4)) + 2.0 * np.eye(4)
            chi = identification_penalty(v2, g_a2, self.pred(vp, g_ap))
            chi_t = identification_penalty(
                S @ v2, S @ g_a2 @ S.T, self.pred(S @ vp, S @ g_ap @ S.T))
            assert abs(chi_t - chi) < 1e-8 * max(1.0, chi), \
                f"chi4 not invariant: {chi} vs {chi_t}"

    def test_scaling_homogeneity(self, rng):
        """Scaling both covariances by lambda scales chi4 by 1/lambda, so
        acceptance with threshold/lambda is unchanged."""
        g_ap, g_a2 = random_pd(rng), random_pd(rng)
        vp = np.zeros(4)
        v2 = np.array([0.1, 0.05, -0.02, 0.01])
        chi = identification_penalty(v2, g_a2, self.pred(vp, g_ap))
        lam = 37.5
        chi_l = identification_penalty(v2, lam * g_a2,
                                       self.pred(vp, lam * g_ap))
        assert abs(chi_l - chi / lam) < 1e-10 * max(1.0, chi / lam)

    def test_singular_covariances_raise(self, rng):
        vp, v2 = np.zeros(4), np.ones(4) * 0.1
        with pytest.raises(SelectionUnavailableError):
            identification_penalty(v2, np.zeros((4, 4)),
                                   self.pred(vp, random_pd(rng)))
        with pytest.raises(SelectionUnavailableError):
            identification_penalty(v2, random_pd(rng),
                                   self.pred(vp, np.zeros((4, 4))))

    def test_shared_singular_direction_raises(self):
        """Each covariance has a positive trace, but their sum is singular."""
        with pytest.raises(SelectionUnavailableError,
                           match="^combined covariance is singular: Singular matrix$"):
            identification_penalty(np.ones(4) * 0.1, SHARED_NULL_A2,
                                   self.pred(np.zeros(4), SHARED_NULL_AP))

    def test_mild_ill_conditioning_regularized(self):
        """A covariance with condition number beyond 1e12 is scored, not
        refused: the penalty stays finite."""
        g_ap = np.diag([1.0, 1.0, 1.0, 1e-13])
        chi = identification_penalty(np.array([0.1, 0.0, 0.0, 0.0]),
                                     np.eye(4),
                                     self.pred(np.zeros(4), g_ap))
        assert np.isfinite(chi) and chi >= 0.0

    def test_ill_conditioned_prediction_matches_oracle(self, rng):
        """Predicted covariances of condition number 1e13 to 1e16 beside a
        second one far smaller, as in the linked batches: chi4 within
        1e-9 of its 50-digit value on the same double inputs."""
        for kappa in np.geomspace(1e13, 1e16, 7):
            g_ap = 1e-6 * rotated(rng, np.geomspace(1.0, 1.0 / kappa, 4))
            g_a2 = 1e-11 * rotated(rng, rng.uniform(0.5, 2.0, 4))
            vp = rng.uniform(-0.5, 0.5, size=4)
            v2 = vp + 3e-6 * rng.standard_normal(4)
            want = chi4_oracle(v2 - vp, g_ap, g_a2)
            chi = identification_penalty(v2, g_a2, self.pred(vp, g_ap))
            assert abs(chi - want) <= 1e-9 * want, f"kappa {kappa:.1e}: {chi!r} vs {want!r}"


class TestSelectSolutions:
    def test_genuine_solution_accepted(self):
        sols, genuine, att2, obs2 = solved_case()
        accepted = select_solutions(sols, att2, obs2)
        assert genuine in accepted
        assert genuine.selected is True
        assert genuine.chi4 is not None and genuine.chi4 < 1.0, \
            f"noiseless genuine solution has chi4 = {genuine.chi4}"

    def test_chi4_under_noise(self, rng):
        """With applied 0.5-arcsec noise the genuine solution must still
        score far below the acceptance threshold."""
        noisy = NoiseSpec(apply=True)
        sols, genuine, att2, obs2 = solved_case(noise=noisy, rng=rng)
        select_solutions(sols, att2, obs2)
        assert genuine.chi4 is not None and genuine.chi4 < 25.0, \
            f"noisy genuine solution has chi4 = {genuine.chi4}"

    def test_displaced_attributable_rejected(self):
        """Moving the second attributable by many sigmas must blow up chi4
        and empty the accepted list for the genuine branch."""
        sols, genuine, att2, obs2 = solved_case()
        moved = dataclasses.replace(
            att2,
            alpha=att2.alpha + 3000.0 * ARCSEC_RAD,
            delta=att2.delta - 3000.0 * ARCSEC_RAD)
        accepted = select_solutions([genuine], moved, obs2)
        assert accepted == []
        assert genuine.selected is False
        assert genuine.chi4 > 100.0

    def test_nonelliptic_unselectable(self):
        sols, genuine, att2, obs2 = solved_case()
        (sol,) = gather([genuine], elliptic=False, has_chi4=False, has_selected=False)
        accepted = select_solutions([sol], att2, obs2)
        assert accepted == []
        assert sol.unselectable is True and sol.selected is False
        assert sol.chi4 is None

    def test_singular_covariance_flagged(self):
        sols, genuine, att2, obs2 = solved_case()
        (sol,) = gather([genuine], covariance=0.0, has_chi4=False, has_selected=False)
        accepted = select_solutions([sol], att2, obs2)  # att2.cov is regular
        assert accepted == []
        assert sol.unselectable is True
        assert "selection-unavailable" in sol.flags

    def test_shared_singular_direction_unselectable(self, monkeypatch):
        """A predicted and a second covariance singular along one shared
        direction: the solution is unselectable, and its pair has no
        error."""
        _, genuine, att2, obs2 = solved_case()
        predict = selection._predict_rows

        def singular_prediction(*args):
            pred = predict(*args)
            gamma = np.broadcast_to(1e-12 * SHARED_NULL_AP, pred.gamma.shape).copy()
            return dataclasses.replace(pred, gamma=gamma)

        monkeypatch.setattr(selection, "_predict_rows", singular_prediction)
        (sol,) = gather([genuine], has_chi4=False, has_selected=False)
        second = AttributableColumns.at([dataclasses.replace(att2, cov=1e-12 * SHARED_NULL_A2)],
                                        obs2.r[None], obs2.v[None])
        assert select_solution_rows(sol.rows, second, np.zeros(1, dtype=int)) == [None]
        assert sol.unselectable is True and sol.selected is False and sol.chi4 is None
        assert "selection-unavailable" in sol.flags

    def test_empty_input(self):
        _, _, att2, obs2 = solved_case()
        assert select_solutions([], att2, obs2) == []

    def test_threshold_from_config(self):
        sols, genuine, att2, obs2 = solved_case()
        tight = RunConfig(chi4_threshold=0.0)
        accepted = select_solutions([genuine], att2, obs2, config=tight)
        assert accepted == [] and genuine.selected is False

    def test_missing_gamma2_raises(self):
        sols, genuine, att2, obs2 = solved_case()
        bare = dataclasses.replace(att2, cov=None)
        with pytest.raises(DomainError):
            select_solutions([genuine], bare, obs2)

    def test_missing_solution_covariance_raises(self):
        sols, genuine, att2, obs2 = solved_case()
        (sol,) = gather([genuine], has_covariance=False)
        with pytest.raises(DomainError):
            element_covariance(sol, MU)

    def test_compatibility_diagnostic(self):
        _, genuine, _, _ = solved_case()
        assert compatibility_ok(genuine)
        assert not compatibility_ok(gather([genuine], compat_lenz=1.0)[0])
        assert not compatibility_ok(gather([genuine], has_compat_anomaly=False)[0])
