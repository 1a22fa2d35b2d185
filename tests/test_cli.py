"""End-to-end tests of the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes and file
outputs are asserted directly against temporary directories.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclink.attributables import (
    KeplerianEphemeris,
    OpticalAttributable,
    SpinningStationEphemeris,
    TabulatedEphemeris,
    circular_observer,
    read_attributables,
    write_attributables,
)
from arclink.cli import main, parse_ephemeris, solution_from_record
from arclink.config import AU_DAY, RunConfig, unit_system
from arclink.errors import EphemerisError
from arclink.kepler import CartesianState
from arclink.selection import select_solutions

ELEMENTS = {"a": 0.92, "e": 0.19, "i_deg": 3.44, "Omega_deg": 68.8,
            "omega_deg": 31.4, "ell_deg": 22.9, "epoch_mjd": 53100.0}
T1_MJD, T2_MJD = 53105.0, 53287.0
EPOCHS = f"{T1_MJD},{T2_MJD}"
EPH = "circular:radius=1.0"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def split_pair_file(root, stem="atts"):
    """One-record-per-file inputs from a two-record synth output."""
    lines = (root / f"{stem}.jsonl").read_text().splitlines()
    first, second = root / f"{stem}1.jsonl", root / f"{stem}2.jsonl"
    first.write_text(lines[0] + "\n")
    second.write_text(lines[1] + "\n")
    return first, second


def synth_standard(root, *extra, stem="atts"):
    elements = root / "elements.json"
    elements.write_text(json.dumps(ELEMENTS))
    code = run("synth", elements, "--ephemeris", EPH, "--epochs", EPOCHS,
               "--out", root / f"{stem}.jsonl", "--truth", root / f"{stem}_truth.json",
               "--seed", 7, *extra)
    assert code == 0, f"synth exited {code}"
    return split_pair_file(root, stem)


def zenith_attributable(tbar: float) -> OpticalAttributable:
    """Optical attributable staring straight up from a circular observer."""
    eph = circular_observer(1.0, AU_DAY.mu_default)
    q, _ = eph.state(tbar)
    alpha = math.atan2(q[1], q[0]) % (2.0 * math.pi)
    return OpticalAttributable(alpha, 0.0, 3e-3, 1e-3, tbar)


@pytest.fixture(scope="module")
def optical_case(tmp_path_factory):
    """Standard noiseless optical pair: synth output plus a linked run."""
    root = tmp_path_factory.mktemp("cli_optical")
    a1, a2 = synth_standard(root)
    out = root / "solutions.json"
    code = run("link-optical", a1, a2, "--ephemeris", EPH, "--out", out)
    assert code == 0, f"link-optical exited {code}"
    return root


@pytest.fixture(scope="module")
def radar_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_radar")
    a1, a2 = synth_standard(root, "--kind", "radar",
                            "--sigma-rho", "1e-8", "--sigma-rhodot", "1e-9")
    out = root / "solutions.json"
    code = run("link-radar-optical", a1, a2, "--ephemeris", EPH, "--out", out)
    assert code == 0, f"link-radar-optical exited {code}"
    return root


class TestSynth:
    def test_outputs_exist_with_truth(self, optical_case):
        atts = read_attributables(optical_case / "atts.jsonl", AU_DAY)
        assert len(atts) == 2
        assert [a.kind for a in atts] == ["optical", "optical"]
        assert all(a.cov is not None for a in atts)
        truth = json.loads((optical_case / "atts_truth.json").read_text())
        assert truth["kind"] == "optical"
        assert [e["tbar_mjd"] for e in truth["epochs"]] == [T1_MJD, T2_MJD]
        for epoch in truth["epochs"]:
            assert epoch["rho"] > 0.0
            assert len(epoch["state"]["r"]) == 3

    def test_radar_kind_first_record(self, radar_case):
        atts = read_attributables(radar_case / "atts.jsonl", AU_DAY)
        assert [a.kind for a in atts] == ["radar", "optical"]

    def test_deterministic_given_seed(self, tmp_path):
        elements = tmp_path / "el.json"
        elements.write_text(json.dumps(ELEMENTS))
        for stem in ("one", "two"):
            code = run("synth", elements, "--ephemeris", EPH,
                       "--epochs", EPOCHS, "--seed", 123, "--apply-noise",
                       "--out", tmp_path / f"{stem}.jsonl",
                       "--truth", tmp_path / f"{stem}_truth.json")
            assert code == 0
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()
        assert (tmp_path / "one_truth.json").read_bytes() == (tmp_path / "two_truth.json").read_bytes()

    def test_noise_flag_perturbs_values(self, tmp_path):
        elements = tmp_path / "el.json"
        elements.write_text(json.dumps(ELEMENTS))
        for stem, flags in (("clean", ()), ("noisy", ("--apply-noise",))):
            code = run("synth", elements, "--ephemeris", EPH,
                       "--epochs", EPOCHS, "--seed", 5, *flags,
                       "--out", tmp_path / f"{stem}.jsonl",
                       "--truth", tmp_path / f"{stem}_truth.json")
            assert code == 0
        clean = read_attributables(tmp_path / "clean.jsonl", AU_DAY)
        noisy = read_attributables(tmp_path / "noisy.jsonl", AU_DAY)
        moved = max(abs(noisy[i].values - clean[i].values).max() for i in range(2))
        assert moved > 1e-9, f"noise flag did not move the values ({moved=})"
        assert clean[0].cov is not None, "covariance should attach without noise"

    def test_bad_epochs_is_input_error(self, tmp_path):
        elements = tmp_path / "el.json"
        elements.write_text(json.dumps(ELEMENTS))
        code = run("synth", elements, "--ephemeris", EPH, "--epochs", "53105",
                   "--out", tmp_path / "x.jsonl", "--truth", tmp_path / "t.json")
        assert code == 2

    def test_malformed_elements_is_input_error(self, tmp_path):
        elements = tmp_path / "el.json"
        elements.write_text(json.dumps({"a": 0.92, "e": 0.19}))
        code = run("synth", elements, "--ephemeris", EPH, "--epochs", EPOCHS,
                   "--out", tmp_path / "x.jsonl", "--truth", tmp_path / "t.json")
        assert code == 2


class TestLinkOptical:
    def test_genuine_solution_matches_truth(self, optical_case):
        doc = json.loads((optical_case / "solutions.json").read_text())
        truth = json.loads((optical_case / "atts_truth.json").read_text())
        assert doc["format"] == "arclink-solutions"
        assert doc["units"] == "au-day"
        assert doc["errors"] == []
        selected = [s for s in doc["solutions"] if s["selected"]]
        assert len(selected) == 1, f"expected one accepted solution, got {len(selected)}"
        sol = selected[0]
        for key, epoch in (("rho1", 0), ("rho2", 1)):
            want = truth["epochs"][epoch]["rho"]
            assert abs(sol[key] - want) < 1e-6 * want, f"{key}={sol[key]} truth={want}"
        assert abs(sol["rhodot1"] - truth["epochs"][0]["rhodot"]) < 1e-6
        assert sol["pair"] == [0, 0]
        assert sol["chi4"] < 1.0
        assert sol["elliptic"] is True
        assert sol["elements1"]["a"] == pytest.approx(ELEMENTS["a"], rel=1e-6)
        assert sol["elements1"]["e"] == pytest.approx(ELEMENTS["e"], rel=1e-5)

    def test_covariances_serialized_square(self, optical_case):
        doc = json.loads((optical_case / "solutions.json").read_text())
        sol = next(s for s in doc["solutions"] if s["selected"])
        for key in ("covariance1", "covariance2"):
            assert sol[key] is not None and len(sol[key]) == 36
            m = np.array(sol[key]).reshape(6, 6)
            assert np.allclose(m, m.T), f"{key} not symmetric"

    def test_unselectable_alternatives_kept(self, optical_case):
        doc = json.loads((optical_case / "solutions.json").read_text())
        others = [s for s in doc["solutions"] if not s["selected"]]
        for s in others:
            if s["unselectable"]:
                assert s["chi4"] is None
                assert s["elliptic"] is False

    def test_deterministic_output(self, optical_case, tmp_path):
        out = tmp_path / "again.json"
        code = run("link-optical", optical_case / "atts1.jsonl",
                   optical_case / "atts2.jsonl", "--ephemeris", EPH, "--out", out)
        assert code == 0
        reference = (optical_case / "solutions.json").read_bytes()
        assert out.read_bytes() == reference, "same inputs must give identical bytes"

    def test_document_is_json_dumps_on_one_line(self, optical_case):
        """The piecewise writer gives exactly the text of ``json.dumps``."""
        text = (optical_case / "solutions.json").read_text()
        assert text == json.dumps(json.loads(text)) + "\n"

    def test_round_trip_chi4_recomputation(self, optical_case):
        doc = json.loads((optical_case / "solutions.json").read_text())
        units = unit_system(doc["units"])
        att2 = read_attributables(optical_case / "atts2.jsonl", units)[0]
        eph = parse_ephemeris(EPH, units, doc["mu"])
        obs2 = CartesianState(*eph.state(att2.tbar), att2.tbar)
        config = RunConfig(units=units, mu=doc["mu"],
                           chi4_threshold=doc["chi4_threshold"])
        checked = 0
        for rec in doc["solutions"]:
            if rec["chi4"] is None:
                continue
            sol = solution_from_record(rec, units)
            sol.chi4 = None
            select_solutions([sol], att2, obs2, config=config)
            assert abs(sol.chi4 - rec["chi4"]) <= 1e-12 * max(1.0, abs(rec["chi4"])), (
                f"re-ingested chi4 {sol.chi4} vs serialized {rec['chi4']}")
            assert sol.selected == rec["selected"]
            checked += 1
        assert checked >= 1

    def test_solution_record_round_trips_states(self, optical_case):
        doc = json.loads((optical_case / "solutions.json").read_text())
        units = unit_system(doc["units"])
        rec = next(s for s in doc["solutions"] if s["selected"])
        sol = solution_from_record(rec, units)
        assert sol.state1.epoch == units.mjd_to_internal(rec["state1"]["epoch_mjd"])
        assert sol.rho1 == rec["rho1"] and sol.rhodot2 == rec["rhodot2"]
        assert sol.elements2.a == rec["elements2"]["a"]
        assert np.array_equal(sol.covariance1, np.array(rec["covariance1"]).reshape(6, 6))

    def test_without_covariance_selection_skipped(self, optical_case, tmp_path):
        import dataclasses
        for stem in ("atts1", "atts2"):
            atts = read_attributables(optical_case / f"{stem}.jsonl", AU_DAY)
            bare = [dataclasses.replace(a, cov=None) for a in atts]
            write_attributables(tmp_path / f"{stem}.jsonl", bare, AU_DAY)
        out = tmp_path / "sol.json"
        code = run("link-optical", tmp_path / "atts1.jsonl", tmp_path / "atts2.jsonl",
                   "--ephemeris", EPH, "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["solutions"]) >= 1
        for s in doc["solutions"]:
            assert s["chi4"] is None and s["selected"] is None
            assert s["covariance1"] is None

    def test_empty_solution_set_is_success(self, optical_case, tmp_path):
        out = tmp_path / "none.json"
        code = run("link-optical", optical_case / "atts1.jsonl",
                   optical_case / "atts2.jsonl", "--ephemeris", EPH,
                   "--spurious-tol", "1e-300", "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["solutions"] == [] and doc["errors"] == []

    def test_batch_pair_indices(self, optical_case, tmp_path):
        one = (optical_case / "atts1.jsonl").read_text()
        (tmp_path / "double.jsonl").write_text(one + one)
        out = tmp_path / "batch.json"
        code = run("link-optical", tmp_path / "double.jsonl",
                   optical_case / "atts2.jsonl", "--ephemeris", EPH, "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        pairs = {tuple(s["pair"]) for s in doc["solutions"]}
        assert pairs == {(0, 0), (1, 0)}

    def test_chi4_threshold_flag(self, optical_case, tmp_path):
        out = tmp_path / "strict.json"
        code = run("link-optical", optical_case / "atts1.jsonl",
                   optical_case / "atts2.jsonl", "--ephemeris", EPH,
                   "--chi4-threshold", "0.0", "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["chi4_threshold"] == 0.0
        assert all(not s["selected"] for s in doc["solutions"] if s["chi4"] is not None)


class TestLinkRadarOptical:
    def test_genuine_solution_matches_truth(self, radar_case):
        doc = json.loads((radar_case / "solutions.json").read_text())
        truth = json.loads((radar_case / "atts_truth.json").read_text())
        assert doc["method"] == "radar-optical"
        best = min(doc["solutions"],
                   key=lambda s: abs(s["rho2"] - truth["epochs"][1]["rho"]))
        want = truth["epochs"][1]["rho"]
        assert abs(best["rho2"] - want) < 1e-6 * want
        assert best["rho1"] == pytest.approx(truth["epochs"][0]["rho"], abs=1e-10)
        assert best["chi4"] is not None and best["selected"] is True

    def test_zenith_geometry_exits_3(self, radar_case, tmp_path):
        zen = zenith_attributable(T2_MJD)
        write_attributables(tmp_path / "zen.jsonl", [zen], AU_DAY)
        out = tmp_path / "zen_sol.json"
        code = run("link-radar-optical", radar_case / "atts1.jsonl",
                   tmp_path / "zen.jsonl", "--ephemeris", EPH, "--out", out)
        assert code == 3, f"zenith geometry should exit 3, got {code}"
        doc = json.loads(out.read_text())
        assert doc["solutions"] == []
        assert doc["errors"][0]["code"] == "degenerate"
        assert "zenith" in doc["errors"][0]["flags"]

    def test_input_error_outranks_degeneracy(self, radar_case, tmp_path):
        zen = zenith_attributable(T2_MJD)
        same_epoch = zenith_attributable(T1_MJD)  # collides with the radar epoch
        write_attributables(tmp_path / "mixed.jsonl", [zen, same_epoch], AU_DAY)
        out = tmp_path / "mixed_sol.json"
        code = run("link-radar-optical", radar_case / "atts1.jsonl",
                   tmp_path / "mixed.jsonl", "--ephemeris", EPH, "--out", out)
        assert code == 2
        doc = json.loads(out.read_text())
        codes = sorted(e["code"] for e in doc["errors"])
        assert codes == ["degenerate", "input"]

    def test_kind_mismatch_is_input_error(self, optical_case, tmp_path):
        out = tmp_path / "sol.json"
        code = run("link-radar-optical", optical_case / "atts1.jsonl",
                   optical_case / "atts2.jsonl", "--ephemeris", EPH, "--out", out)
        assert code == 2
        doc = json.loads(out.read_text())
        assert all(e["code"] == "input" for e in doc["errors"])


class TestCurves:
    def test_writes_four_csvs(self, optical_case, tmp_path):
        outdir = tmp_path / "curves"
        code = run("curves", optical_case / "atts1.jsonl", optical_case / "atts2.jsonl",
                   "--ephemeris", EPH, "--grid", 17,
                   "--bounds", "0.05,1.5,0.05,1.5", "--out-dir", outdir)
        assert code == 0
        for name in ("q", "p", "lenz", "energy_sq"):
            lines = (outdir / f"{name}_curve.csv").read_text().splitlines()
            assert lines[0] == "rho1,rho2,value"
            assert len(lines) == 1 + 17 * 17

    def test_zero_curve_passes_through_solution(self, optical_case, tmp_path):
        doc = json.loads((optical_case / "solutions.json").read_text())
        sol = next(s for s in doc["solutions"] if s["selected"])
        span = 1e-4
        bounds = (f"{sol['rho1'] - span},{sol['rho1'] + span},"
                  f"{sol['rho2'] - span},{sol['rho2'] + span}")
        outdir = tmp_path / "zoom"
        code = run("curves", optical_case / "atts1.jsonl", optical_case / "atts2.jsonl",
                   "--ephemeris", EPH, "--grid", 3, "--bounds", bounds,
                   "--out-dir", outdir)
        assert code == 0
        rows = np.loadtxt(outdir / "q_curve.csv", delimiter=",", skiprows=1)
        center = rows[np.argmin((rows[:, 0] - sol["rho1"])**2
                                + (rows[:, 1] - sol["rho2"])**2)]
        assert abs(center[2]) < 1e-6, f"q at the solution should be ~0, got {center[2]}"

    def test_degenerate_geometry_exits_3(self, optical_case, tmp_path):
        zen = zenith_attributable(T2_MJD)
        write_attributables(tmp_path / "zen.jsonl", [zen], AU_DAY)
        code = run("curves", optical_case / "atts1.jsonl", tmp_path / "zen.jsonl",
                   "--ephemeris", EPH, "--grid", 5, "--out-dir", tmp_path / "c")
        assert code == 3


class TestEphemerisSpec:
    def test_circular(self):
        eph = parse_ephemeris("circular:radius=1.5,phase=0.25", AU_DAY, AU_DAY.mu_default)
        assert isinstance(eph, KeplerianEphemeris)
        q, qdot = eph.state(0.0)
        assert np.linalg.norm(q) == pytest.approx(1.5, rel=1e-12)
        assert math.atan2(q[1], q[0]) == pytest.approx(0.25, abs=1e-12)
        assert abs(np.dot(q, qdot)) < 1e-12

    def test_spin(self):
        eph = parse_ephemeris("spin:radius=2.0,rate=0.3,phase=0.1,z=0.5", AU_DAY, 1.0)
        assert isinstance(eph, SpinningStationEphemeris)
        q, _ = eph.state(0.0)
        assert q[2] == 0.5
        assert np.hypot(q[0], q[1]) == pytest.approx(2.0)

    def test_kepler_file(self, tmp_path):
        path = tmp_path / "el.json"
        path.write_text(json.dumps(ELEMENTS))
        eph = parse_ephemeris(f"kepler:{path}", AU_DAY, AU_DAY.mu_default)
        assert isinstance(eph, KeplerianEphemeris)
        assert eph.elements.a == ELEMENTS["a"]

    def test_csv_table(self, tmp_path):
        mu = AU_DAY.mu_default
        ref = circular_observer(1.0, mu)
        path = tmp_path / "eph.csv"
        with open(path, "w") as fh:
            fh.write("mjd,qx,qy,qz,vx,vy,vz\n")
            for mjd in np.linspace(53100.0, 53300.0, 201):
                q, v = ref.state(mjd)
                fh.write(",".join(repr(float(x)) for x in (mjd, *q, *v)) + "\n")
        eph = parse_ephemeris(str(path), AU_DAY, mu)
        assert isinstance(eph, TabulatedEphemeris)
        q_ref, v_ref = ref.state(53222.3)
        q_tab, v_tab = eph.state(53222.3)
        assert np.linalg.norm(q_tab - q_ref) < 1e-9
        assert np.linalg.norm(v_tab - v_ref) < 1e-9

    def test_bad_specs_raise(self):
        for spec in ("circular:radius=1.0,bogus=2",
                     "circular:phase=0.0",
                     "spin:radius=1.0",
                     "circular:radius",
                     "spin:radius=abc,rate=1"):
            with pytest.raises(EphemerisError):
                parse_ephemeris(spec, AU_DAY, 1.0)


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        code = run("link-optical", tmp_path / "nope.jsonl", tmp_path / "nope2.jsonl",
                   "--ephemeris", EPH, "--out", tmp_path / "x.json")
        assert code == 2

    def test_unknown_units_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("link-optical", "a", "b", "--units", "furlongs",
                "--ephemeris", EPH, "--out", tmp_path / "x.json")
        assert err.value.code == 2

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run("frobnicate")
        assert err.value.code == 2

    def test_malformed_jsonl_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "optical", "oops": true}\n')
        code = run("link-optical", bad, bad, "--ephemeris", EPH,
                   "--out", tmp_path / "x.json")
        assert code == 2

    @pytest.mark.parametrize("field, index, value", [
        ("values", 2, float("nan")),
        ("tbar_mjd", None, float("inf")),
        ("cov", 5, float("nan")),
    ])
    def test_non_finite_record_is_input_error(self, optical_case, tmp_path,
                                              capsys, field, index, value):
        good = (optical_case / "atts2.jsonl").read_text()
        rec = json.loads(good)
        if index is None:
            rec[field] = value
        else:
            rec[field][index] = value
        second = tmp_path / "second.jsonl"
        second.write_text(good + json.dumps(rec) + "\n")
        out = tmp_path / "x.json"
        capsys.readouterr()
        code = run("link-optical", optical_case / "atts1.jsonl", second,
                   "--ephemeris", EPH, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("arclink:") and err.count("\n") == 1, err
        assert "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("ephemeris, extra", [
        ("table with NaN rows", []),
        ("circular:radius=nan", []),
        ("circular:radius=inf", []),
        ("circular:radius=-1", []),
        ("spin:radius=4e-5,rate=nan", []),
        ("spin:radius=4e-5,rate=6.3,phase=inf", []),
        ("kepler with NaN", []),
        ("kepler with a < 0", []),
        (EPH, ["--mu=nan"]),
        (EPH, ["--mu=inf"]),
        (EPH, ["--mu=-1"]),
        (EPH, ["--spurious-tol=nan"]),
        (EPH, ["--spurious-tol=-1"]),
        (EPH, ["--chi4-threshold=nan"]),
        (EPH, ["--chi4-threshold=inf"]),
        (EPH, ["--chi4-threshold=-5"]),
    ], ids=["csv-nan", "circular-nan", "circular-inf", "circular-negative",
            "spin-nan", "spin-inf", "kepler-nan", "kepler-negative-a",
            "mu-nan", "mu-inf", "mu-negative", "spurious-tol-nan",
            "spurious-tol-negative", "chi4-threshold-nan", "chi4-threshold-inf",
            "chi4-threshold-negative"])
    def test_invalid_run_input_is_input_error(self, optical_case, tmp_path,
                                              capsys, ephemeris, extra):
        """Non-finite or invalid ephemeris specs, observer tables, elements
        files, --mu, --spurious-tol and --chi4-threshold values: exit 2 with
        one line on stderr, no output."""
        if ephemeris == "table with NaN rows":
            ref = circular_observer(1.0, AU_DAY.mu_default)
            ephemeris = tmp_path / "eph.csv"
            with open(ephemeris, "w") as fh:
                fh.write("mjd,qx,qy,qz,vx,vy,vz\n")
                for k, mjd in enumerate(np.linspace(53000.0, 53400.0, 201)):
                    q, v = ref.state(mjd)
                    row = [mjd, *q, *v]
                    if k in (50, 51, 52):
                        row[1] = float("nan")
                    fh.write(",".join(repr(float(x)) for x in row) + "\n")
        elif ephemeris.startswith("kepler with"):
            bad = {"a": float("nan")} if "NaN" in ephemeris else {"a": -1.0}
            elements = tmp_path / "observer.json"
            elements.write_text(json.dumps({**ELEMENTS, **bad}))
            ephemeris = f"kepler:{elements}"
        out = tmp_path / "x.json"
        capsys.readouterr()
        code = run("link-optical", optical_case / "atts1.jsonl",
                   optical_case / "atts2.jsonl", "--ephemeris", ephemeris,
                   "--out", out, *extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("arclink:") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("mu, message", [
        (1e60, "resultant coefficients overflow"),
        (1e154, "non-finite coefficients"),
    ])
    def test_overflowing_elimination_is_numerical_pair_error(
            self, optical_case, tmp_path, mu, message):
        out = tmp_path / "x.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("link-optical", optical_case / "atts1.jsonl",
                       optical_case / "atts2.jsonl", "--ephemeris", EPH,
                       "--out", out, f"--mu={mu!r}")
        assert code == 4
        errors = json.loads(out.read_text())["errors"]
        assert [e["code"] for e in errors] == ["numerical"]
        assert message in errors[0]["message"]

    def test_overflowing_rate_is_quiet_numerical_pair_error(
            self, optical_case, tmp_path):
        rec = json.loads((optical_case / "atts1.jsonl").read_text())
        rec["values"][2] = 1e300  # alphadot
        first = tmp_path / "first.jsonl"
        first.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "x.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("link-optical", first, optical_case / "atts2.jsonl",
                       "--ephemeris", EPH, "--out", out)
        assert code == 4
        errors = json.loads(out.read_text())["errors"]
        assert [e["code"] for e in errors] == ["numerical"]

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(spurious_tol=st.none() | st.floats(),
           chi4_threshold=st.none() | st.floats(),
           mu=st.none() | st.floats())
    def test_any_tolerance_flags_keep_the_contract(self, optical_case,
                                                   spurious_tol, chi4_threshold, mu):
        """Arbitrary floats (nan, inf, negatives included) for --spurious-tol,
        --chi4-threshold and --mu: a documented exit code, no traceback, and
        any output file strict JSON."""
        flags = [f"--{name}={value!r}" for name, value in (
            ("spurious-tol", spurious_tol), ("chi4-threshold", chi4_threshold),
            ("mu", mu)) if value is not None]
        out = optical_case / "fuzz.json"
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run("link-optical", optical_case / "atts1.jsonl",
                       optical_case / "atts2.jsonl", "--ephemeris", EPH,
                       "--out", out, *flags)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if out.exists():
            def reject(name):
                raise ValueError(f"non-JSON constant {name}")
            json.loads(out.read_text(), parse_constant=reject)

    @pytest.mark.parametrize("scale, code, error", [
        (1e308, 2, "input"),
        (1e306, 4, "numerical"),
        (1e304, 0, None),
    ])
    def test_huge_covariance_touches_only_its_pair(self, optical_case, tmp_path,
                                                   capsys, scale, code, error):
        """A finite but huge attributable covariance.  diag(1e308) overflows
        its own validation (an input error), diag(1e306) overflows once
        pushed to the Cartesian states (a numerical error), and diag(1e304)
        once propagated to the predicted attributable (its solutions stay,
        unselectable).  The other pair is solved and the batch is written."""
        good1 = (optical_case / "atts1.jsonl").read_text()
        huge = json.loads(good1)
        huge["cov"] = (scale * np.eye(4)).ravel().tolist()
        first = tmp_path / "first.jsonl"
        first.write_text(json.dumps(huge) + "\n" + good1)
        out = tmp_path / "x.json"
        capsys.readouterr()
        assert run("link-optical", first, optical_case / "atts2.jsonl",
                   "--ephemeris", EPH, "--out", out) == code
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(out.read_text())
        errors = [(e["pair"], e["code"]) for e in doc["errors"]]
        assert errors == ([] if error is None else [([0, 0], error)])
        huge_sols = [s for s in doc["solutions"] if s["pair"] == [0, 0]]
        assert len(huge_sols) == (2 if error is None else 0)
        assert all(s["unselectable"] for s in huge_sols)
        assert any("selection-unavailable" in s["flags"] for s in huge_sols) \
            == (error is None)
        assert any(s["pair"] == [1, 0] and s["selected"]
                   for s in doc["solutions"])

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(values=st.none() | st.lists(st.floats(), min_size=4, max_size=4),
           tbar_mjd=st.none() | st.floats(),
           cov=st.none()
           | st.lists(st.floats(-1e308, 1e308), max_size=20)
           | st.tuples(st.floats(-1e308, 1e308), st.floats(-1e308, 1e308),
                       st.integers(0, 15))
           | st.floats(1e-300, 1e308))
    def test_any_attributable_record_keeps_the_contract(
            self, optical_case, values, tbar_mjd, cov):
        """Arbitrary floats for the first record's values and tbar_mjd, and
        its cov drawn as a list of any length, as a diagonal of one value
        with one extra entry (any sign, mostly asymmetric), or as the
        record's own covariance scaled up to 1e308: a documented exit code,
        no traceback, and any output file strict JSON."""
        rec = json.loads((optical_case / "atts1.jsonl").read_text())
        if values is not None:
            rec["values"] = values
        if tbar_mjd is not None:
            rec["tbar_mjd"] = tbar_mjd
        if isinstance(cov, list):
            rec["cov"] = cov
        elif isinstance(cov, tuple):
            diagonal, extra, index = cov
            m = np.diag(np.full(4, diagonal)).ravel()
            m[index] = extra
            rec["cov"] = m.tolist()
        elif cov is not None:
            rec["cov"] = [cov / max(rec["cov"]) * x for x in rec["cov"]]
        first = optical_case / "fuzz_atts1.jsonl"
        first.write_text(json.dumps(rec) + "\n")
        out = optical_case / "fuzz.json"
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run("link-optical", first, optical_case / "atts2.jsonl",
                       "--ephemeris", EPH, "--out", out)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if out.exists():
            def reject(name):
                raise ValueError(f"non-JSON constant {name}")
            json.loads(out.read_text(), parse_constant=reject)

    def test_ephemeris_gap_fails_only_its_pairs(self, optical_case, tmp_path):
        ref = circular_observer(1.0, AU_DAY.mu_default)
        table = tmp_path / "eph.csv"
        with open(table, "w") as fh:
            fh.write("mjd,qx,qy,qz,vx,vy,vz\n")
            for mjd in np.linspace(53100.0, 53300.0, 201):
                q, v = ref.state(mjd)
                fh.write(",".join(repr(float(x)) for x in (mjd, *q, *v)) + "\n")
        good1 = (optical_case / "atts1.jsonl").read_text()
        uncovered = json.loads(good1)
        uncovered["tbar_mjd"] = 52900.0  # before the table starts
        first = tmp_path / "first.jsonl"
        first.write_text(good1 + json.dumps(uncovered) + "\n")
        good2 = (optical_case / "atts2.jsonl").read_text()
        second = tmp_path / "second.jsonl"
        second.write_text(good2 + good2)
        out = tmp_path / "gap.json"
        code = run("link-optical", first, second, "--ephemeris", table,
                   "--out", out)
        assert code == 2
        doc = json.loads(out.read_text())
        assert [e["pair"] for e in doc["errors"]] == [[1, 0], [1, 1]]
        for e in doc["errors"]:
            assert e["code"] == "input"
            assert "outside tabulated span" in e["message"]
        assert {tuple(s["pair"]) for s in doc["solutions"]} == {(0, 0), (0, 1)}
