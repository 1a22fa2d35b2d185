"""Tests for attributable fits, synthesis, ephemerides, and file I/O."""

import json
import math

import numpy as np
import pytest

from arclink.attributables import (
    KeplerianEphemeris,
    NoiseSpec,
    ObservationArc,
    OpticalAttributable,
    RadarAttributable,
    SpinningStationEphemeris,
    TabulatedEphemeris,
    circular_observer,
    fit_optical_attributable,
    fit_radar_attributable,
    read_arc_csv,
    read_attributables,
    synthesize_optical_attributable,
    synthesize_radar_attributable,
    write_attributables,
)
from arclink.config import AU_DAY, KM_S
from arclink.constants import ARCSEC_RAD, GM_SUN_AU3_DAY2
from arclink.errors import DomainError, EphemerisError, FitError
from arclink.geometry import body_position, body_velocity, observation_basis
from arclink.kepler import KeplerianElements, _rot_x, _rot_z, propagate_kepler, solve_kepler

MU = GM_SUN_AU3_DAY2


def sample_truth():
    return KeplerianElements(a=0.92, e=0.19, i=0.06, Omega=1.1, omega=2.4,
                             ell=0.7, epoch=53175.0)


def scalar_kepler_state(el, t):
    """The observer state of ``el`` at ``t`` as the scalar propagation
    computed it: the mean anomaly wrapped twice, math.cos and math.sin of
    the eccentric anomaly, and R @ (perifocal vector)."""
    n = math.sqrt(MU / el.a**3)
    ell = (el.ell + n * (t - el.epoch)) % (2.0 * math.pi) % (2.0 * math.pi)
    E = solve_kepler(ell, el.e)
    cE, sE = math.cos(E), math.sin(E)
    b, beta = math.sqrt(1.0 - el.e * el.e), 1.0 - el.e * cE
    R = _rot_z(el.Omega % (2.0 * math.pi)) @ _rot_x(el.i) @ _rot_z(el.omega % (2.0 * math.pi))
    return (R @ np.array([el.a * (cE - el.e), el.a * b * sE, 0.0]),
            R @ np.array([-n * el.a * sE / beta, n * el.a * b * cE / beta, 0.0]))


class TestEphemerides:
    def test_circular_observer_geometry(self):
        eph = circular_observer(1.0, MU, phase=0.3)
        for t in (0.0, 100.0, 5000.0):
            q, qdot = eph.state(t)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12
            assert abs(np.dot(q, qdot)) < 1e-12
            assert abs(np.linalg.norm(qdot) - np.sqrt(MU)) < 1e-12

    def test_spinning_station(self):
        eph = SpinningStationEphemeris(radius=6378.0, rate=7.29e-5, phase=0.4, z=12.0)
        q, qdot = eph.state(1000.0)
        assert abs(np.hypot(q[0], q[1]) - 6378.0) < 1e-9
        assert q[2] == 12.0
        # velocity is the time derivative of position
        h = 1e-3
        qp, _ = eph.state(1000.0 + h)
        qm, _ = eph.state(1000.0 - h)
        np.testing.assert_allclose(qdot, (qp - qm) / (2 * h), atol=1e-9)

    def test_tabulated_matches_kepler(self):
        eph = KeplerianEphemeris(sample_truth(), MU)
        times = np.arange(53100.0, 53140.0 + 1e-9, 0.5)
        states = [eph.state(t) for t in times]
        tab = TabulatedEphemeris(times, np.array([s[0] for s in states]),
                                 np.array([s[1] for s in states]))
        rng = np.random.default_rng(7)
        for t in rng.uniform(53100.0, 53140.0, size=40):
            q_exact, v_exact = eph.state(t)
            q_tab, v_tab = tab.state(t)
            assert np.linalg.norm(q_tab - q_exact) < 1e-9, f"position at {t}"
            assert np.linalg.norm(v_tab - v_exact) < 1e-8, f"velocity at {t}"

    def test_tabulated_out_of_span(self):
        tab = TabulatedEphemeris(np.array([0.0, 1.0, 2.0]), np.zeros((3, 3)),
                                 np.zeros((3, 3)))
        with pytest.raises(EphemerisError):
            tab.state(-0.5)
        with pytest.raises(EphemerisError):
            tab.state(2.5)

    @pytest.mark.parametrize("kind", ["kepler", "circular", "spin", "table"])
    def test_states_rows_equal_one_row_calls(self, kind):
        """``states`` of 33 epochs equals ``state`` at each epoch alone, bit
        for bit, for an inclined elliptic observer orbit, a circular one, a
        spinning station and a table; the Keplerian rows also equal, to 4
        ulps, the scalar arithmetic that ``propagate_kepler`` had before it
        was their one-row case: math.cos and math.sin, and one
        matrix-vector product.  (They are equal bit for bit where numpy's
        cos, sin and matmul round as libm and a 3x3 product do.)"""
        rng = np.random.default_rng(24)
        inclined = KeplerianElements(a=1.3, e=0.4, i=0.7, Omega=5.1, omega=2.2, ell=4.0,
                                     epoch=53000.0)
        times = np.arange(53100.0, 53140.0 + 1e-9, 0.5)
        ref = circular_observer(1.0, MU, phase=0.3)
        eph = {"kepler": KeplerianEphemeris(inclined, MU), "circular": ref,
               "spin": SpinningStationEphemeris(4.26e-5, 6.3, phase=0.4, z=1e-6),
               "table": TabulatedEphemeris(times, *map(np.array, zip(*map(ref.state, times))))
               }[kind]
        ts = rng.uniform(53100.0, 53140.0, 33)
        q, qdot, errors = eph.states(ts)
        assert errors == [None] * len(ts)
        for k, t in enumerate(ts.tolist()):
            one = eph.state(t)
            assert np.array_equal(q[k], one[0]) and np.array_equal(qdot[k], one[1]), k
            if kind == "kepler":
                r, v = scalar_kepler_state(inclined, t)
                np.testing.assert_array_max_ulp(q[k], r, maxulp=4)
                np.testing.assert_array_max_ulp(qdot[k], v, maxulp=4)

    def test_tabulated_out_of_span_row_fails_alone(self):
        """An epoch outside the table fails its own row, with the message of
        a one-row call; the other rows are as alone."""
        tab = TabulatedEphemeris(np.array([0.0, 1.0, 2.0]), np.arange(9.0).reshape(3, 3),
                                 np.ones((3, 3)))
        ts = np.array([0.5, 2.5, 1.25, -0.5])
        q, qdot, errors = tab.states(ts)
        for k, t in enumerate(ts.tolist()):
            if 0.0 <= t <= 2.0:
                assert errors[k] is None
                assert np.array_equal(q[k], tab.state(t)[0])
                continue
            with pytest.raises(EphemerisError) as alone:
                tab.state(t)
            assert isinstance(errors[k], EphemerisError)
            assert str(errors[k]) == str(alone.value) == \
                f"epoch {t} outside tabulated span [0.0, 2.0]"

    def test_tabulated_csv_roundtrip(self, tmp_path):
        eph = circular_observer(1.0, MU)
        path = tmp_path / "obs.csv"
        with open(path, "w") as fh:
            fh.write("mjd,qx,qy,qz,vx,vy,vz\n")
            for mjd in np.arange(100.0, 110.01, 0.25):
                q, v = eph.state(mjd)
                fh.write(",".join(f"{x:.17g}" for x in [mjd, *q, *v]) + "\n")
        tab = TabulatedEphemeris.from_csv(path, AU_DAY)
        q_tab, v_tab = tab.state(105.3)
        q, v = eph.state(105.3)
        assert np.linalg.norm(q_tab - q) < 1e-11
        assert np.linalg.norm(v_tab - v) < 1e-10


class TestSynthesis:
    def test_optical_is_exact_model_inverse(self):
        """The synthesized attributable plus the emission-epoch truth state
        must satisfy r = q + rho * e_rho and the rate composition exactly."""
        truth = sample_truth()
        eph = circular_observer(1.0, MU)
        tbar = 53175.59
        att = synthesize_optical_attributable(truth, eph, tbar, MU,
                                              AU_DAY.c_light)
        q, qdot = eph.state(tbar)
        # reconstruct the emission state independently
        t = tbar
        for _ in range(20):
            s = propagate_kepler(truth, t, MU)
            t = tbar - np.linalg.norm(s.r - q) / AU_DAY.c_light
        s = propagate_kepler(truth, t, MU)
        rho = np.linalg.norm(s.r - q)
        basis = observation_basis(att.alpha, att.delta)
        np.testing.assert_allclose(body_position(q, rho, basis), s.r, atol=1e-13)
        rhodot = np.dot(s.v - qdot, basis.e_rho)
        r_dot = body_velocity(qdot, rho, rhodot, att.alphadot, att.deltadot, basis)
        np.testing.assert_allclose(r_dot, s.v, atol=1e-13)

    def test_lighttime_fixed_point(self):
        truth = sample_truth()
        eph = circular_observer(1.0, MU)
        tbar = 53200.0
        att = synthesize_optical_attributable(truth, eph, tbar, MU, AU_DAY.c_light)
        q, _ = eph.state(tbar)
        basis = observation_basis(att.alpha, att.delta)
        # the implied emission epoch satisfies its own defining equation
        t = tbar
        for _ in range(20):
            s = propagate_kepler(truth, t, MU)
            t = tbar - np.linalg.norm(s.r - q) / AU_DAY.c_light
        rho = np.linalg.norm(propagate_kepler(truth, t, MU).r - q)
        assert abs(t - (tbar - rho / AU_DAY.c_light)) < 1e-12

    def test_noise_covariance_without_perturbation(self):
        truth = sample_truth()
        eph = circular_observer(1.0, MU)
        clean = synthesize_optical_attributable(truth, eph, 53175.59, MU,
                                                AU_DAY.c_light)
        noise = NoiseSpec(sigma_angle=0.5 * ARCSEC_RAD, sigma_rate=0.5 * ARCSEC_RAD)
        att = synthesize_optical_attributable(truth, eph, 53175.59, MU,
                                              AU_DAY.c_light, noise=noise)
        assert att.cov is not None and clean.cov is None
        np.testing.assert_allclose(att.values, clean.values, rtol=0, atol=0)
        # tangent-plane convention: alpha variance carries 1/cos^2(delta)
        expected = (0.5 * ARCSEC_RAD / np.cos(att.delta)) ** 2
        assert abs(att.cov[0, 0] - expected) < 1e-30
        assert abs(att.cov[1, 1] - (0.5 * ARCSEC_RAD) ** 2) < 1e-30

    def test_noise_perturbs_when_applied(self, rng):
        truth = sample_truth()
        eph = circular_observer(1.0, MU)
        noise = NoiseSpec(sigma_angle=1e-6, sigma_rate=1e-8, apply=True)
        att = synthesize_optical_attributable(truth, eph, 53175.59, MU,
                                              AU_DAY.c_light, noise=noise, rng=rng)
        clean = synthesize_optical_attributable(truth, eph, 53175.59, MU,
                                                AU_DAY.c_light)
        diff = np.abs(att.values - clean.values)
        assert np.any(diff > 0), "apply=True must perturb the values"
        assert diff[0] < 1e-5 and diff[2] < 1e-7, "perturbation should be ~sigma"

    def test_radar_synthesis_range_consistency(self):
        truth = sample_truth()
        eph = circular_observer(1.0, MU)
        att = synthesize_radar_attributable(truth, eph, 53175.59, MU,
                                            AU_DAY.c_light)
        q, _ = eph.state(att.tbar)
        s = propagate_kepler(truth, att.tbar - att.rho / AU_DAY.c_light, MU)
        assert abs(np.linalg.norm(s.r - q) - att.rho) < 1e-12


class TestFits:
    def test_quadratic_track_recovered_exactly(self):
        t = np.array([-0.02, -0.01, 0.0, 0.012, 0.02]) + 53175.0
        tb = np.mean(t)
        a0, a1, a2 = 1.3, 0.02, -0.4
        d0, d1, d2 = -0.4, -0.015, 0.2
        arc = ObservationArc(
            times=t,
            alpha=a0 + a1 * (t - tb) + a2 * (t - tb) ** 2,
            delta=d0 + d1 * (t - tb) + d2 * (t - tb) ** 2,
            sigma_alpha=np.full(5, ARCSEC_RAD),
            sigma_delta=np.full(5, ARCSEC_RAD),
        )
        att = fit_optical_attributable(arc)
        assert abs(att.tbar - tb) < 1e-12
        assert abs(att.alpha - a0) < 1e-12
        assert abs(att.delta - d0) < 1e-12
        assert abs(att.alphadot - a1) < 1e-10
        assert abs(att.deltadot - d1) < 1e-10

    def test_alpha_unwraps_across_zero(self):
        t = np.linspace(-0.02, 0.02, 5) + 500.0
        alpha = (0.001 * (t - 500.0) / 0.02) % (2 * np.pi)  # crosses 2pi -> 0
        arc = ObservationArc(t, alpha, np.full(5, 0.3),
                             np.full(5, ARCSEC_RAD), np.full(5, ARCSEC_RAD))
        att = fit_optical_attributable(arc)
        assert min(att.alpha, 2 * np.pi - att.alpha) < 1e-10
        assert abs(att.alphadot - 0.05) < 1e-8

    def test_two_point_arc_uses_linear_fit(self):
        t = np.array([10.0, 10.1])
        arc = ObservationArc(t, np.array([1.0, 1.01]), np.array([0.2, 0.21]),
                             np.full(2, ARCSEC_RAD), np.full(2, ARCSEC_RAD))
        att = fit_optical_attributable(arc)
        assert abs(att.alphadot - 0.1) < 1e-9
        assert abs(att.deltadot - 0.1) < 1e-9

    def test_single_point_raises(self):
        arc = ObservationArc(np.array([1.0]), np.array([1.0]), np.array([0.0]),
                             np.array([ARCSEC_RAD]), np.array([ARCSEC_RAD]))
        with pytest.raises(FitError):
            fit_optical_attributable(arc)

    def test_fit_covariance_is_statistically_calibrated(self, rng):
        """Normalized errors of repeated noisy fits should be ~N(0,1):
        over 400 trials at least 98% must fall within 3 sigma."""
        t = np.linspace(-0.03, 0.03, 7) + 1000.0
        sigma = 1.0 * ARCSEC_RAD
        hits = 0
        trials = 400
        for _ in range(trials):
            noise = rng.standard_normal(7) * sigma
            arc = ObservationArc(t, 1.2 + 0.05 * (t - 1000.0) + noise,
                                 np.zeros(7) + 0.0,
                                 np.full(7, sigma), np.full(7, sigma))
            att = fit_optical_attributable(arc)
            z_val = (att.alpha - 1.2) / np.sqrt(att.cov[0, 0])
            z_rate = (att.alphadot - 0.05) / np.sqrt(att.cov[2, 2])
            if abs(z_val) < 3.0 and abs(z_rate) < 3.0:
                hits += 1
        assert hits / trials >= 0.98, f"coverage {hits}/{trials}"

    def test_radar_fit_recovers_range_rate(self):
        t = np.linspace(-0.01, 0.01, 5) + 200.0
        rho = 1.1 - 0.3 * (t - 200.0) + 2.0 * (t - 200.0) ** 2
        arc = ObservationArc(t, np.full(5, 0.7), np.full(5, 0.1),
                             np.full(5, ARCSEC_RAD), np.full(5, ARCSEC_RAD),
                             rho=rho, sigma_rho=np.full(5, 1e-8))
        att = fit_radar_attributable(arc)
        assert abs(att.rho - 1.1) < 1e-10
        assert abs(att.rhodot + 0.3) < 1e-8
        assert att.cov[2, 3] != 0.0, "range/range-rate cross term expected"

    def test_radar_fit_requires_ranges(self):
        arc = ObservationArc(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2),
                             np.full(2, ARCSEC_RAD), np.full(2, ARCSEC_RAD))
        with pytest.raises(FitError):
            fit_radar_attributable(arc)


class TestIO:
    def test_jsonl_roundtrip(self, tmp_path):
        cov = np.diag([1e-12, 2e-12, 3e-14, 4e-14])
        atts = [
            OpticalAttributable(1.1, -0.2, 0.01, -0.02, 53175.59, cov, "X05"),
            RadarAttributable(2.2, 0.3, 1.05, -0.001, 53176.0, None, "DSS-14"),
        ]
        path = tmp_path / "atts.jsonl"
        write_attributables(path, atts, AU_DAY)
        back = read_attributables(path, AU_DAY)
        assert isinstance(back[0], OpticalAttributable)
        assert isinstance(back[1], RadarAttributable)
        np.testing.assert_allclose(back[0].values, atts[0].values, rtol=1e-15)
        np.testing.assert_allclose(back[0].cov, cov, rtol=1e-15)
        assert back[0].station == "X05"
        assert back[1].cov is None
        assert abs(back[1].tbar - 53176.0) < 1e-9

    def test_kms_epochs_convert_to_seconds(self, tmp_path):
        att = OpticalAttributable(1.0, 0.5, 0.0, 0.0, 53175.0 * 86400.0, None)
        path = tmp_path / "a.jsonl"
        write_attributables(path, [att], KM_S)
        rec = json.loads(path.read_text().strip())
        assert abs(rec["tbar_mjd"] - 53175.0) < 1e-9
        back = read_attributables(path, KM_S)[0]
        assert abs(back.tbar - att.tbar) < 1e-3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_is_not_written(self, tmp_path, bad):
        """The lines are strict JSON: a NaN or an infinity raises before the
        file is opened, so no file is made."""
        att = OpticalAttributable(1.0, 0.5, bad, 0.0, 53175.0, None)
        path = tmp_path / "a.jsonl"
        with pytest.raises(ValueError):
            write_attributables(path, [att], AU_DAY)
        assert not path.exists()

    def test_units_mismatch_rejected(self, tmp_path):
        att = OpticalAttributable(1.0, 0.5, 0.0, 0.0, 53175.0, None)
        path = tmp_path / "a.jsonl"
        write_attributables(path, [att], AU_DAY)
        with pytest.raises(DomainError):
            read_attributables(path, KM_S)

    def test_frame_other_than_ecliptic_rejected(self, tmp_path):
        """Every vector lives in the ecliptic frame: a record in any other
        is refused, as one in other units is, not linked as ecliptic."""
        att = OpticalAttributable(1.0, 0.5, 0.0, 0.0, 53175.0, None)
        path = tmp_path / "a.jsonl"
        write_attributables(path, [att], AU_DAY)
        rec = json.loads(path.read_text())
        for frame in ("equatorial", 7, None, "Ecliptic"):
            path.write_text(json.dumps({**rec, "frame": frame}) + "\n")
            with pytest.raises(DomainError, match="frame"):
                read_attributables(path, AU_DAY)
        del rec["frame"]
        path.write_text(json.dumps(rec) + "\n")
        assert read_attributables(path, AU_DAY)[0].frame == "ecliptic"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "optical"}\n')
        with pytest.raises(DomainError):
            read_attributables(path, AU_DAY)
        path.write_text("not json at all\n")
        with pytest.raises(DomainError):
            read_attributables(path, AU_DAY)
        # Only JSON numbers are numbers: float() would read true, false and
        # numeric strings, and a huge integer overflows it.
        good = {"kind": "optical", "tbar_mjd": 53000.2, "values": [0.7, 0.1, 1e-3, 2e-3],
                "cov": [float(k == m) for k in range(4) for m in range(4)],
                "station": "", "frame": "ecliptic", "units": "au-day"}
        path.write_text(json.dumps(good) + "\n")
        assert read_attributables(path, AU_DAY)[0].tbar == 53000.2
        for bad in ({"tbar_mjd": True}, {"tbar_mjd": "53000.2"}, {"tbar_mjd": 10**400},
                    {"values": ["0.7", True, False, "1e-3"]}, {"values": [0.7, 0.1, True, 0]},
                    {"cov": [True] + good["cov"][1:]}, {"cov": ["1"] + good["cov"][1:]}):
            path.write_text(json.dumps({**good, **bad}) + "\n")
            with pytest.raises(DomainError, match="malformed"):
                read_attributables(path, AU_DAY)

    def test_arc_csv_with_default_sigmas(self, tmp_path):
        path = tmp_path / "arc.csv"
        path.write_text(
            "mjd,ra_deg,dec_deg\n"
            "53175.00,45.0,10.0\n"
            "53175.01,45.1,10.05\n"
            "53175.02,45.2,10.10\n"
        )
        arc = read_arc_csv(path, AU_DAY)
        assert arc.times.shape == (3,)
        np.testing.assert_allclose(arc.alpha, np.radians([45.0, 45.1, 45.2]))
        np.testing.assert_allclose(arc.sigma_alpha, 0.5 * ARCSEC_RAD)
        assert arc.rho is None

    def test_arc_csv_with_ranges_and_sigmas(self, tmp_path):
        path = tmp_path / "radar.csv"
        path.write_text(
            "mjd,ra_deg,dec_deg,rho,sigma_ra_arcsec,sigma_dec_arcsec,sigma_rho\n"
            "100.0,10.0,5.0,1.30,0.2,0.3,1e-7\n"
            "100.1,10.1,5.1,1.29,0.2,0.3,1e-7\n"
        )
        arc = read_arc_csv(path, AU_DAY)
        np.testing.assert_allclose(arc.rho, [1.30, 1.29])
        np.testing.assert_allclose(arc.sigma_alpha, 0.2 * ARCSEC_RAD)
        np.testing.assert_allclose(arc.sigma_rho, 1e-7)

    def test_arc_csv_missing_required_column(self, tmp_path):
        path = tmp_path / "arc.csv"
        path.write_text("mjd,ra_deg\n1.0,2.0\n")
        with pytest.raises(DomainError):
            read_arc_csv(path, AU_DAY)
