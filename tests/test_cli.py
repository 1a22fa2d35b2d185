"""End-to-end tests of the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes and file
outputs are asserted directly against temporary directories.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arclink.attributables
import arclink.covariance
import arclink.optical
import arclink.radar
from arclink.attributables import (
    KeplerianEphemeris,
    NoiseSpec,
    OpticalAttributable,
    RadarAttributable,
    SpinningStationEphemeris,
    TabulatedEphemeris,
    circular_observer,
    read_attributables,
    synthesize_optical_attributable,
    synthesize_radar_attributable,
    write_attributables,
)
from arclink.cli import (
    build_parser,
    main,
    parse_ephemeris,
    solution_from_record,
    solution_record,
)
from arclink.config import AU_DAY, RunConfig, unit_system
from arclink.covariance import AttributablePair, attach_covariances
from arclink.errors import (
    DegenerateConfigurationError,
    EphemerisError,
    LinkageError,
    NumericalError,
)
from arclink.kepler import CartesianState, KeplerianElements
from arclink.optical import link_optical
from arclink.selection import select_solutions
from arclink.solutions import LinkageSolution
from conftest import gather

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

    def test_non_finite_truth_is_numerical(self, tmp_path, monkeypatch, capsys):
        """A truth record with a NaN is not written as ``null``: exit 4, no
        traceback, and neither output file is written."""
        import arclink.cli

        monkeypatch.setattr(arclink.cli, "topocentric_coords",
                            lambda *args: np.full(6, np.nan))
        elements = tmp_path / "elements.json"
        elements.write_text(json.dumps(ELEMENTS))
        out, truth = tmp_path / "atts.jsonl", tmp_path / "truth.json"
        capsys.readouterr()
        code = run("synth", elements, "--ephemeris", EPH, "--epochs", EPOCHS,
                   "--out", out, "--truth", truth)
        assert code == 4
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists() and not truth.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
    @pytest.mark.parametrize("name", ["angle", "rate", "rho", "rhodot"])
    def test_bad_sigma_is_input_error(self, tmp_path, capsys, name, value):
        """A noise sigma that is not finite, or is negative, is an input
        error before any file is written."""
        elements = tmp_path / "elements.json"
        elements.write_text(json.dumps(ELEMENTS))
        capsys.readouterr()
        code = run("synth", elements, "--ephemeris", EPH, "--epochs", EPOCHS,
                   "--out", tmp_path / "a.jsonl", "--truth", tmp_path / "t.json",
                   "--apply-noise", f"--sigma-{name}={value}")
        assert code == 2
        err = capsys.readouterr().err
        assert f"--sigma-{name} must be finite and >= 0" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["elements.json"]

    def test_overflowing_noise_is_numerical(self, tmp_path, capsys):
        """A finite sigma whose square overflows makes a non-finite
        covariance: exit 4, without a traceback or a numpy warning, and
        neither file is written."""
        elements = tmp_path / "elements.json"
        elements.write_text(json.dumps(ELEMENTS))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("synth", elements, "--ephemeris", EPH, "--epochs", EPOCHS,
                       "--out", tmp_path / "a.jsonl", "--truth", tmp_path / "t.json",
                       "--apply-noise", "--sigma-angle", "1e308")
        assert code == 4
        err = capsys.readouterr().err
        assert "non-finite value in the attributables" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["elements.json"]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_input_error(self, tmp_path, capsys, seed):
        elements = tmp_path / "elements.json"
        elements.write_text(json.dumps(ELEMENTS))
        capsys.readouterr()
        code = run("synth", elements, "--ephemeris", EPH, "--epochs", EPOCHS,
                   "--out", tmp_path / "a.jsonl", "--truth", tmp_path / "t.json",
                   "--seed", seed)
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_epochs_is_input_error(self, tmp_path):
        elements = tmp_path / "el.json"
        elements.write_text(json.dumps(ELEMENTS))
        code = run("synth", elements, "--ephemeris", EPH, "--epochs", "53105",
                   "--out", tmp_path / "x.jsonl", "--truth", tmp_path / "t.json")
        assert code == 2

    def test_malformed_elements_is_input_error(self, tmp_path, capsys):
        """Missing keys, and values that are not JSON numbers (float()
        would read a bool or a numeric string, and a huge integer overflows
        it): exit 2, one line on stderr, nothing written."""
        path = tmp_path / "el.json"
        for elements in ({"a": 0.92, "e": 0.19}, {**ELEMENTS, "a": "0.92"},
                         {**ELEMENTS, "e": True}, {**ELEMENTS, "i_deg": False},
                         {**ELEMENTS, "epoch_mjd": "53100"}, {**ELEMENTS, "ell_deg": 10**400}):
            path.write_text(json.dumps(elements))
            capsys.readouterr()
            code = run("synth", path, "--ephemeris", EPH, "--epochs", EPOCHS,
                       "--out", tmp_path / "x.jsonl", "--truth", tmp_path / "t.json")
            assert code == 2, elements
            err = capsys.readouterr().err
            assert err.startswith("arclink: malformed elements file") and err.count("\n") == 1
            assert not (tmp_path / "x.jsonl").exists() and not (tmp_path / "t.json").exists()


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

    def test_document_is_strict_json_with_shortest_digits(self, optical_case, radar_case):
        """A solutions document is one line of strict JSON, and each number
        in it is exactly the decimal that ``repr`` gives its value: the same
        value, with the same significant digits (the notation may differ)."""
        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        for case in (optical_case, radar_case):
            text = (case / "solutions.json").read_text()
            assert text.endswith("\n") and text.count("\n") == 1
            tokens = []
            doc = json.loads(text, parse_constant=reject,
                             parse_float=lambda tok: tokens.append(tok) or float(tok))
            assert doc["solutions"] and len(tokens) > 100
            assert any("e" in tok for tok in tokens)
            for tok in tokens:
                assert Decimal(tok) == Decimal(repr(float(tok))), tok

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
            (sol,) = gather([solution_from_record(rec, units)], has_chi4=False)
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

    def test_record_epochs_are_written_in_mjd(self, optical_case):
        """Every epoch of a record, of the states and of the elements, is
        written in MJD whatever the internal time unit: a record read in
        km-s units (epochs in seconds) is written back with its epochs."""
        doc = json.loads((optical_case / "solutions.json").read_text())
        rec = next(s for s in doc["solutions"] if s["elements1"] and s["elements2"])
        units = unit_system("km-s")
        again = solution_record(solution_from_record(rec, units), rec["pair"], units)
        for key in ("state1", "state2", "elements1", "elements2"):
            assert again[key]["epoch_mjd"] == pytest.approx(rec[key]["epoch_mjd"], rel=1e-15)

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
        """The standard pair with the second record's RA rate reversed has
        no candidate at all: exit 0 and an empty document."""
        (att2,) = read_attributables(optical_case / "atts2.jsonl", AU_DAY)
        reversed_ = dataclasses.replace(att2, alphadot=-att2.alphadot)
        write_attributables(tmp_path / "reversed.jsonl", [reversed_], AU_DAY)
        out = tmp_path / "none.json"
        code = run("link-optical", optical_case / "atts1.jsonl",
                   tmp_path / "reversed.jsonl", "--ephemeris", EPH, "--out", out)
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


    def test_link_does_not_import_scipy(self, optical_case, tmp_path):
        # Only a tabulated ephemeris and the curves subcommand need scipy.
        src = os.path.dirname(os.path.dirname(arclink.optical.__file__))
        script = ("import sys; from arclink.cli import main; "
                  "code = main(sys.argv[1:]); print(code, 'scipy' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", script, "link-optical", optical_case / "atts1.jsonl",
             optical_case / "atts2.jsonl", "--ephemeris", EPH, "--out", tmp_path / "s.json"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
        assert proc.stdout.split()[-2:] == ["0", "False"]


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

    def test_one_record_per_attributable(self, tmp_path, monkeypatch):
        """A 16 x 16 batch makes one coefficient record per attributable:
        16 radar records and 16 optical ones, each file's in one call of
        its row kernel, not one of each per pair."""
        rng = np.random.default_rng(11)
        mu, c_light = AU_DAY.mu_default, AU_DAY.c_light
        eph = circular_observer(1.0, mu)
        first, second = [], []
        for k in range(16):
            el = KeplerianElements(
                a=rng.uniform(0.8, 2.5), e=rng.uniform(0.05, 0.3),
                i=rng.uniform(0.02, 0.5), Omega=rng.uniform(0, 2 * np.pi),
                omega=rng.uniform(0, 2 * np.pi), ell=rng.uniform(0, 2 * np.pi),
                epoch=53000.0)
            first.append(synthesize_radar_attributable(el, eph, 53000.0 + 0.01 * k,
                                                       mu, c_light, NoiseSpec()))
            second.append(synthesize_optical_attributable(el, eph, 53040.0 + 0.01 * k,
                                                          mu, c_light, NoiseSpec()))
        paths = tmp_path / "radar.jsonl", tmp_path / "optical.jsonl"
        for path, atts in zip(paths, (first, second)):
            write_attributables(path, atts, AU_DAY)
        calls = {"radar": [], "optical": []}

        def counted(kind, fn):
            def wrapper(values, *args):
                calls[kind].append(len(values))
                return fn(values, *args)
            return wrapper

        monkeypatch.setattr(arclink.radar, "radar_coefficient_rows",
                            counted("radar", arclink.radar.radar_coefficient_rows))
        monkeypatch.setattr(arclink.optical, "optical_coefficient_rows",
                            counted("optical", arclink.optical.optical_coefficient_rows))
        out = tmp_path / "sol.json"
        assert run("link-radar-optical", *paths, "--ephemeris", EPH, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert {tuple(s["pair"]) for s in doc["solutions"]} >= {(k, k) for k in range(16)}
        assert calls == {"radar": [16], "optical": [16]}

    @pytest.mark.parametrize("stem, index", [("atts1", 3), ("atts2", 2), ("atts2", 3)],
                             ids=["rhodot", "alphadot", "deltadot"])
    def test_non_finite_quartic_is_numerical(self, radar_case, tmp_path, capsys, stem, index):
        """A radar range rate or an optical angular rate of 1e300 overflows
        the quartic: the pair fails as numerical (exit 4), with no
        traceback."""
        files = {name: radar_case / f"{name}.jsonl" for name in ("atts1", "atts2")}
        rec = json.loads(files[stem].read_text())
        rec["values"][index] = 1e300
        files[stem] = tmp_path / f"{stem}.jsonl"
        files[stem].write_text(json.dumps(rec) + "\n")
        out = tmp_path / "sol.json"
        capsys.readouterr()
        code = run("link-radar-optical", files["atts1"], files["atts2"], "--ephemeris", EPH,
                   "--out", out)
        assert code == 4
        assert "Traceback" not in capsys.readouterr().err
        (error,) = json.loads(out.read_text())["errors"]
        assert error["code"] == "numerical" and "non-finite quartic" in error["message"]

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

    @pytest.mark.parametrize("option, value", [
        ("--grid", "-3"), ("--grid", "0"), ("--grid", "1"),
        ("--bounds", "nan,1,0.1,1"), ("--bounds", "0.1,1,0.1,inf"),
        ("--bounds", "2,1,0.1,1"), ("--bounds", "0.1,1,1,1"),
    ])
    def test_bad_window_is_input_error(self, optical_case, tmp_path, capsys, option, value):
        """A grid of fewer than 2 points per axis, or a window bound that is
        not finite or not below its upper bound, is an input error before
        anything is sampled or written."""
        capsys.readouterr()
        code = run("curves", optical_case / "atts1.jsonl", optical_case / "atts2.jsonl",
                   "--ephemeris", EPH, f"{option}={value}", "--out-dir", tmp_path / "c")
        assert code == 2
        err = capsys.readouterr().err
        assert option in err and "Traceback" not in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("case, message", [
        ("empty first", "no attributable to sample"),
        ("empty second", "no attributable to sample"),
        ("radar first", "both attributables must be optical"),
        ("equal epochs", "attributables must have distinct epochs"),
    ])
    def test_unfit_pair_is_input_error(self, optical_case, radar_case, tmp_path, capsys,
                                       case, message):
        """The first record of each file is checked as ``link-optical``
        checks a pair: an empty file, a radar record or two records at one
        epoch exit 2 with one line on stderr, and no CSV is written."""
        first, second = optical_case / "atts1.jsonl", optical_case / "atts2.jsonl"
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        first, second = {"empty first": (empty, second), "empty second": (first, empty),
                         "radar first": (radar_case / "atts1.jsonl", second),
                         "equal epochs": (first, first)}[case]
        capsys.readouterr()
        code = run("curves", first, second, "--ephemeris", EPH, "--grid", 3,
                   "--out-dir", tmp_path / "c")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("arclink:") and err.count("\n") == 1 and message in err, err
        assert not (tmp_path / "c").exists()

    def test_non_finite_samples_are_numerical(self, optical_case, tmp_path, capsys):
        """An angular rate of 1e300 overflows the sampled curves: exit 4 with
        one line on stderr and no numpy warning (the suite makes a
        RuntimeWarning an error), and no CSV is written."""
        rec = json.loads((optical_case / "atts1.jsonl").read_text())
        rec["values"][2] = 1e300  # alphadot
        first = tmp_path / "first.jsonl"
        first.write_text(json.dumps(rec) + "\n")
        capsys.readouterr()
        code = run("curves", first, optical_case / "atts2.jsonl", "--ephemeris", EPH,
                   "--grid", 3, "--out-dir", tmp_path / "c")
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("arclink: numerical failure: non-finite samples") \
            and err.count("\n") == 1, err
        assert not (tmp_path / "c").exists()

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

    @pytest.mark.parametrize("where", ["attributables", "csv", "kepler", "synth", "curves",
                                       "deep-json", "deep-elements"])
    def test_undecodable_file_is_input_error(self, optical_case, tmp_path, capsys, where):
        """A file that is not UTF-8 text (it starts with the bytes FF FE), as
        an attributables file, an ephemeris table, a ``kepler:`` or ``synth``
        elements file or a ``curves`` input, and a JSON line or elements file
        nested too deeply to decode: exit 2, one line on stderr naming the
        file, no traceback and nothing written."""
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe" + json.dumps(ELEMENTS).encode())
        if where.startswith("deep"):
            bad.write_text("[" * 200_000 + "\n")
        good1, good2 = optical_case / "atts1.jsonl", optical_case / "atts2.jsonl"
        out = tmp_path / "x.json"
        argv = {
            "attributables": ["link-optical", bad, good2, "--ephemeris", EPH, "--out", out],
            "deep-json": ["link-optical", good1, bad, "--ephemeris", EPH, "--out", out],
            "csv": ["link-optical", good1, good2, "--ephemeris", bad, "--out", out],
            "kepler": ["link-optical", good1, good2, "--ephemeris", f"kepler:{bad}",
                       "--out", out],
            "deep-elements": ["link-optical", good1, good2, "--ephemeris", f"kepler:{bad}",
                              "--out", out],
            "synth": ["synth", bad, "--ephemeris", EPH, "--epochs", EPOCHS, "--out", out,
                      "--truth", tmp_path / "t.json"],
            "curves": ["curves", good1, bad, "--ephemeris", EPH, "--out-dir", out],
        }[where]
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"arclink: {bad}") and err.count("\n") == 1, err
        assert not out.exists() and not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("frame", "equatorial"),
        ("frame", 7),
        ("tbar_mjd", True),
        ("values", ["0.7", True, False, "1e-3"]),
    ])
    def test_record_in_another_frame_or_not_numbers_is_input_error(
            self, optical_case, tmp_path, capsys, field, value):
        """A record whose frame is not the ecliptic, or whose numbers are
        not JSON numbers, is bad input: exit 2, one line on stderr, no
        document."""
        good = (optical_case / "atts2.jsonl").read_text()
        second = tmp_path / "second.jsonl"
        second.write_text(good + json.dumps({**json.loads(good), field: value}) + "\n")
        out = tmp_path / "x.json"
        capsys.readouterr()
        code = run("link-optical", optical_case / "atts1.jsonl", second,
                   "--ephemeris", EPH, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("arclink: malformed attributable record") and \
            err.count("\n") == 1, err
        assert not out.exists()

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
        (EPH, ["--chi4-threshold=nan"]),
        (EPH, ["--chi4-threshold=inf"]),
        (EPH, ["--chi4-threshold=-5"]),
    ], ids=["csv-nan", "circular-nan", "circular-inf", "circular-negative",
            "spin-nan", "spin-inf", "kepler-nan", "kepler-negative-a",
            "mu-nan", "mu-inf", "mu-negative", "chi4-threshold-nan",
            "chi4-threshold-inf", "chi4-threshold-negative"])
    def test_invalid_run_input_is_input_error(self, optical_case, tmp_path,
                                              capsys, ephemeris, extra):
        """Non-finite or invalid ephemeris specs, observer tables, elements
        files, --mu and --chi4-threshold values: exit 2 with
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
    @given(chi4_threshold=st.none() | st.floats(),
           mu=st.none() | st.floats())
    def test_any_tolerance_flags_keep_the_contract(self, optical_case,
                                                   chi4_threshold, mu):
        """Arbitrary floats (nan, inf, negatives included) for
        --chi4-threshold and --mu: a documented exit code, no traceback, and
        any output file strict JSON."""
        flags = [f"--{name}={value!r}" for name, value in (
            ("chi4-threshold", chi4_threshold), ("mu", mu)) if value is not None]
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

    @pytest.mark.parametrize("spec", ["circular:radius=1e+308", "circular:radius=1e-120",
                                      "kepler:{elements}"])
    def test_observer_orbit_without_mean_motion_is_input_error(self, optical_case,
                                                               tmp_path, capsys, spec):
        """An observer orbit whose mean motion overflows (a**3 beyond double
        precision) or divides by zero (a**3 underflows) is bad input: exit 2
        without a traceback (it crashed the batch with OverflowError or
        ZeroDivisionError)."""
        elements = tmp_path / "observer.json"
        elements.write_text(json.dumps({**ELEMENTS, "a": 1e200, "e": 0.0}))
        capsys.readouterr()
        code = run("link-optical", optical_case / "atts1.jsonl",
                   optical_case / "atts2.jsonl", "--ephemeris",
                   spec.format(elements=elements), "--out", tmp_path / "x.json")
        assert code == 2
        assert "no mean motion" in capsys.readouterr().err

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(kind=st.sampled_from(["circular", "spin"]),
           known=st.fixed_dictionaries({}, optional={
               key: st.floats() | st.sampled_from([0.0, 1e308, -1e308, 1.0, 1e-120])
               for key in ("radius", "rate", "phase", "z")}),
           junk=st.lists(st.just("") | st.text(max_size=6)
                         | st.tuples(st.text(max_size=4), st.floats()), max_size=2))
    def test_any_ephemeris_spec_keeps_the_contract(self, optical_case, kind, known,
                                                   junk):
        """``circular:`` and ``spin:`` specs with arbitrary floats (nan,
        infinities, +-1e308, zero, negatives) for their parameters, plus
        unknown keys, parts without '=' and empty parts, run through main():
        a documented exit code, no traceback, and any output file strict
        JSON."""
        parts = [f"{key}={value!r}" for key, value in known.items()]
        parts += [p if isinstance(p, str) else f"{p[0]}={p[1]!r}" for p in junk]
        spec = f"{kind}:{','.join(parts)}"
        out = optical_case / "fuzz.json"
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("link-optical", optical_case / "atts1.jsonl",
                       optical_case / "atts2.jsonl", "--ephemeris", spec,
                       "--out", out)
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

    @pytest.mark.parametrize("command", ["link-optical", "curves"])
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(values=st.none() | st.lists(st.floats(), min_size=4, max_size=4),
           tbar_mjd=st.none() | st.floats(),
           cov=st.none()
           | st.lists(st.floats(-1e308, 1e308), max_size=20)
           | st.tuples(st.floats(-1e308, 1e308), st.floats(-1e308, 1e308),
                       st.integers(0, 15))
           | st.floats(1e-300, 1e308))
    def test_any_attributable_record_keeps_the_contract(
            self, optical_case, command, values, tbar_mjd, cov):
        """Arbitrary floats for the first record's values and tbar_mjd, and
        its cov drawn as a list of any length, as a diagonal of one value
        with one extra entry (any sign, mostly asymmetric), or as the
        record's own covariance scaled up to 1e308: a documented exit code,
        no traceback, and any solutions document strict JSON, any curve CSV
        finite."""
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
        if command == "link-optical":
            out = optical_case / "fuzz.json"
            out.unlink(missing_ok=True)
            output = ["--out", out]
        else:
            out = optical_case / "fuzz_curves"
            shutil.rmtree(out, ignore_errors=True)
            output = ["--grid", 3, "--out-dir", out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(command, first, optical_case / "atts2.jsonl",
                       "--ephemeris", EPH, *output)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if out.is_file():
            def reject(name):
                raise ValueError(f"non-JSON constant {name}")
            json.loads(out.read_text(), parse_constant=reject)
        for path in out.glob("*.csv") if out.is_dir() else ():
            assert np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1)).all(), path

    def test_non_finite_solution_is_numerical_pair_error(
            self, optical_case, tmp_path, monkeypatch, capsys):
        """A non-finite float in one solution's columns, in any field that
        its record writes (the epochs as written, in MJD), fails that pair
        alone: exit 4, no traceback, and the document stays strict JSON.
        The values are spoiled once the block's selection has filled its
        columns, just before the records are written."""
        import arclink.cli

        good = (optical_case / "atts1.jsonl").read_text()
        first = tmp_path / "first.jsonl"
        first.write_text(good + good)
        select = arclink.cli.select_solution_rows

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        def set_to(value, column, *index, has=None):
            def spoil(sols, rows):
                getattr(sols, column)[(rows, *index)] = value
                if has is not None:
                    getattr(sols, has)[rows] = True
            return spoil

        spoilers = {
            "rho1": set_to(math.nan, "rho", 0),
            "rho2": set_to(math.inf, "rho", 1),
            "rhodot1": set_to(-math.inf, "rhodot", 0),
            "rhodot2": set_to(math.nan, "rhodot", 1),
            "state1.epoch_mjd": set_to(math.inf, "t", 0),
            "state2.epoch_mjd": set_to(math.nan, "t", 1),
            "state2.v": set_to(math.inf, "v", 1, 1),
            "elements1.a": set_to(math.nan, "elements", 0, 0),
            "elements1.epoch_mjd": set_to(math.inf, "elements", 0, 6),
            "elements2.epoch_mjd": set_to(math.nan, "elements", 1, 6),
            "lenz_residual": set_to(math.nan, "lenz_residual"),
            "compat_lenz": set_to(math.inf, "compat_lenz"),
            "compat_anomaly": set_to(math.nan, "compat_anomaly"),
            "energy_offset": set_to(-math.inf, "energy_offset"),
            "covariance1": set_to(math.nan, "covariance", 0, 1, 1),
            "covariance2": set_to(math.inf, "covariance", 1, 5, 5),
            "chi4": set_to(math.inf, "chi4", has="has_chi4"),
        }
        for field, spoil in spoilers.items():
            def broken(sols, att2s, obs2s, config, spoil=spoil):
                out = select(sols, att2s, obs2s, config)
                # the block's second linked pair is (1, 0)
                spoil(sols, np.flatnonzero(sols.pair == 1))
                return out

            monkeypatch.setattr(arclink.cli, "select_solution_rows", broken)
            out = tmp_path / f"{field}.json"
            capsys.readouterr()
            code = run("link-optical", first, optical_case / "atts2.jsonl",
                       "--ephemeris", EPH, "--out", out)
            assert code == 4, field
            assert "Traceback" not in capsys.readouterr().err
            doc = json.loads(out.read_text(), parse_constant=reject)
            assert [(e["pair"], e["code"]) for e in doc["errors"]] == [([1, 0], "numerical")]
            assert doc["solutions"] and all(s["pair"] == [0, 0] for s in doc["solutions"])

    def test_huge_finite_values_are_written(self, optical_case, tmp_path, monkeypatch):
        """Finite values whose sum overflows are still finite: the pair is
        written, with its numbers exact."""
        import arclink.cli

        select = arclink.cli.select_solution_rows
        huge = [1.7e308, 1.7e308, -1.7e308, 5e-324]

        def spoiled(sols, att2s, obs2s, config):
            out = select(sols, att2s, obs2s, config)
            sols.covariance[:, 0, 0, :4] = huge
            sols.r[:, 0, 0] = 1.7e308
            return out

        monkeypatch.setattr(arclink.cli, "select_solution_rows", spoiled)
        out = tmp_path / "huge.json"
        code = run("link-optical", optical_case / "atts1.jsonl", optical_case / "atts2.jsonl",
                   "--ephemeris", EPH, "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["solutions"] and not doc["errors"]
        assert all(s["covariance1"][:4] == huge for s in doc["solutions"])
        assert all(s["state1"]["r"][0] == 1.7e308 for s in doc["solutions"])

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


class TestOptionTable:
    """Each command takes only the options that change its output."""

    def outcome(self, request, tmp_path, command, *options):
        """A run's exit status and the bytes of each file it wrote: link
        documents of the standard pairs, noisy ``synth`` output of seed 7,
        and ``curves`` on a 5 x 5 grid."""
        out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        out.mkdir()
        if command == "synth":
            (tmp_path / "elements.json").write_text(json.dumps(ELEMENTS))
            argv = [tmp_path / "elements.json", "--epochs", EPOCHS, "--apply-noise",
                    "--seed", 7, "--out", out / "atts.jsonl", "--truth", out / "truth.json"]
        else:
            case = request.getfixturevalue(
                "radar_case" if command == "link-radar-optical" else "optical_case")
            argv = [case / "atts1.jsonl", case / "atts2.jsonl",
                    *(["--grid", 5, "--out-dir", out] if command == "curves"
                      else ["--out", out / "doc.json"])]
        code = run(command, *argv, "--ephemeris", EPH, *options)
        return code, {path.name: path.read_bytes() for path in out.iterdir()}

    @pytest.mark.parametrize("command, option, value, kept", [
        ("link-optical", "--spurious-tol", "1e-300", False),
        ("link-optical", "--chi4-threshold", "0", True),
        ("link-optical", "--seed", "9", False),
        ("link-radar-optical", "--chi4-threshold", "0", True),
        ("link-radar-optical", "--spurious-tol", "1e-300", False),
        ("link-radar-optical", "--seed", "3", False),
        ("synth", "--seed", "8", True),
        ("synth", "--kind", "radar", True),
        ("synth", "--sigma-angle", "1", True),
        ("synth", "--sigma-rate", "1", True),
        ("synth", "--spurious-tol", "1e-300", False),
        ("synth", "--chi4-threshold", "0", False),
        ("synth", "--sigma-rho", "1", False),
        ("synth", "--sigma-rhodot", "1", False),
        ("curves", "--grid", "4", True),
        ("curves", "--bounds", "0.5,1,0.5,1", True),
        ("curves", "--seed", "4", False),
        ("curves", "--chi4-threshold", "1", False),
        ("curves", "--spurious-tol", "1e-300", False),
        *((command, option, value, True) for command in ("link-optical", "link-radar-optical",
                                                         "synth", "curves")
          for option, value in (("--mu", "3e-4"), ("--units", "km-s")))])
    def test_option_table(self, request, tmp_path, capsys, command, option, value, kept):
        """Each option a command keeps is read: its outcome differs from a
        run without it (``--units km-s`` on au-day inputs is their units
        mismatch).  An option a command would ignore is not taken: exit 2,
        without a traceback, and nothing is written.  The radar noise of
        ``synth`` is an option of ``--kind radar`` alone, so the default
        optical kind reports it on one line."""
        if kept:
            default = self.outcome(request, tmp_path, command)
            assert default[0] == 0
            assert self.outcome(request, tmp_path, command, option, value) != default
            return
        capsys.readouterr()
        if option in ("--sigma-rho", "--sigma-rhodot"):
            assert self.outcome(request, tmp_path, command, option, value)[0] == 2
            assert capsys.readouterr().err == f"arclink: {option} needs --kind radar\n"
        else:
            with pytest.raises(SystemExit) as exit_:
                self.outcome(request, tmp_path, command, option, value)
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {option}" in err and "Traceback" not in err
        assert not any(tmp_path.glob("run*/*"))

    def test_runs_in_one_process_share_no_parsed_state(self, optical_case, tmp_path):
        """The parser is built once per process.  A run without
        ``--chi4-threshold`` after one with it gets the default: it writes
        the document of the fixture's default run."""
        atts = optical_case / "atts1.jsonl", optical_case / "atts2.jsonl"
        tight, default = tmp_path / "tight.json", tmp_path / "default.json"
        assert run("link-optical", *atts, "--ephemeris", EPH, "--out", tight,
                   "--chi4-threshold", "0") == 0
        assert run("link-optical", *atts, "--ephemeris", EPH, "--out", default) == 0
        assert build_parser() is build_parser()
        assert json.loads(tight.read_bytes())["chi4_threshold"] == 0.0
        assert default.read_bytes() == (optical_case / "solutions.json").read_bytes()


def mixed_batch(root, huge_cov=None):
    """A seeded 6 x 6 batch with covariances: six bodies seen on two
    nights, plus one first-night record whose rates overflow to NaN in the
    elimination, one second-night record at the zenith (a degenerate
    geometry for its pairs), and one first-night epoch before the start
    of the tabulated ephemeris.  ``huge_cov`` replaces the covariance of
    the first first-night record by that multiple of the identity."""
    rng = np.random.default_rng(20261018)
    mu, c_light = AU_DAY.mu_default, AU_DAY.c_light
    ref = circular_observer(1.0, mu)
    first, second = [], []
    for _ in range(6):
        el = KeplerianElements(
            a=rng.uniform(0.8, 2.5), e=rng.uniform(0.05, 0.3),
            i=rng.uniform(0.02, 0.5), Omega=rng.uniform(0, 2 * np.pi),
            omega=rng.uniform(0, 2 * np.pi), ell=rng.uniform(0, 2 * np.pi),
            epoch=53000.0)
        t1 = 53000.0 + rng.uniform(0.0, 0.3)
        t2 = t1 + rng.uniform(20.0, 120.0)
        first.append(synthesize_optical_attributable(el, ref, t1, mu, c_light, NoiseSpec()))
        second.append(synthesize_optical_attributable(el, ref, t2, mu, c_light, NoiseSpec()))
    first[2] = OpticalAttributable(first[2].alpha, first[2].delta, 1e300,
                                   first[2].deltadot, first[2].tbar, first[2].cov)
    zenith = zenith_attributable(second[3].tbar)
    second[3] = OpticalAttributable(zenith.alpha, zenith.delta, zenith.alphadot,
                                    zenith.deltadot, zenith.tbar, second[3].cov)
    first[4] = OpticalAttributable(first[4].alpha, first[4].delta, first[4].alphadot,
                                   first[4].deltadot, 52990.0, first[4].cov)
    if huge_cov is not None:
        first[0] = dataclasses.replace(first[0], cov=huge_cov * np.eye(4))
    table = root / "eph.csv"
    with open(table, "w") as fh:
        fh.write("mjd,qx,qy,qz,vx,vy,vz\n")
        for mjd in np.linspace(52995.0, 53130.0, 541):
            q, v = ref.state(mjd)
            fh.write(",".join(repr(float(x)) for x in (mjd, *q, *v)) + "\n")
    paths = root / "first.jsonl", root / "second.jsonl"
    for path, atts in zip(paths, (first, second)):
        write_attributables(path, atts, AU_DAY)
    return (*paths, table)


def library_loop(first, second, table):
    """The solutions document's pairs, solved one at a time with
    ``link_optical``: solution records and (pair, code) of each error."""
    config = RunConfig()
    units = config.units
    eph = parse_ephemeris(str(table), units, config.mu_value)
    solutions, errors = [], []
    for i, a1 in enumerate(read_attributables(first, units)):
        for j, a2 in enumerate(read_attributables(second, units)):
            try:
                obs1 = CartesianState(*eph.state(a1.tbar), a1.tbar)
                obs2 = CartesianState(*eph.state(a2.tbar), a2.tbar)
                sols = link_optical(a1, a2, obs1, obs2, config)
                pair = AttributablePair(a1, a2)
                for sol in sols:
                    attach_covariances(pair, sol, obs1, obs2, config)
                select_solutions(sols, a2, obs2, config=config)
                solutions += [solution_record(sol, (i, j), units) for sol in sols]
            except DegenerateConfigurationError:
                errors.append(([i, j], "degenerate"))
            except NumericalError:
                errors.append(([i, j], "numerical"))
            except LinkageError:
                errors.append(([i, j], "input"))
    return json.loads(json.dumps(solutions)), errors


class TestStackedBatch:
    @pytest.mark.parametrize("block", [arclink.optical.BLOCK_PAIRS, 5, 1])
    def test_batch_equals_pair_loop(self, tmp_path, monkeypatch, block):
        """The CLI links a batch in stacked blocks; its document equals, field
        for field, the same pairs linked one at a time, with the same error
        codes, whatever the block size.  The 36 pairs run as one block at
        ``BLOCK_PAIRS``, as blocks of 4 and 5 at 5 and one by one at 1, and
        every block size writes the same bytes."""
        first, second, table = mixed_batch(tmp_path)
        documents = {}
        for size in {block, 5}:
            monkeypatch.setattr(arclink.optical, "BLOCK_PAIRS", size)
            out = tmp_path / f"batch{size}.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = run("link-optical", first, second, "--ephemeris", table,
                           "--out", out)
            documents[size] = out.read_bytes()
        assert documents[block] == documents[5]
        doc = json.loads(documents[block])
        solutions, errors = library_loop(first, second, table)
        assert code == 2
        assert [(e["pair"], e["code"]) for e in doc["errors"]] == errors
        codes = {code for _, code in errors}
        assert codes == {"input", "numerical", "degenerate"}
        assert len(doc["solutions"]) >= 6
        assert doc["solutions"] == solutions

    @pytest.mark.parametrize("block", [arclink.optical.BLOCK_PAIRS, 5])
    def test_overflowing_covariance_fails_only_its_pairs(self, tmp_path, monkeypatch,
                                                         block):
        """A diag(1e306) record overflows once pushed to the Cartesian
        states, in the stacked covariance pass of its block: the pairs of
        that record that have solutions fail as numerical, with the codes of
        the pair loop, and every other pair is as without it."""
        monkeypatch.setattr(arclink.optical, "BLOCK_PAIRS", block)
        docs = {}
        for name, huge in (("plain", None), ("huge", 1e306)):
            root = tmp_path / name
            root.mkdir()
            first, second, table = mixed_batch(root, huge_cov=huge)
            out = root / "batch.json"
            run("link-optical", first, second, "--ephemeris", table, "--out", out)
            docs[name] = json.loads(out.read_text())
            solutions, errors = library_loop(first, second, table)
            assert [(e["pair"], e["code"]) for e in docs[name]["errors"]] == errors
            assert docs[name]["solutions"] == solutions
        plain, huge = docs["plain"], docs["huge"]
        linked = sorted({tuple(s["pair"]) for s in plain["solutions"] if s["pair"][0] == 0})
        assert linked
        new = [(e["pair"], e["code"]) for e in huge["errors"] if e not in plain["errors"]]
        assert new == [([0, j], "numerical") for _, j in linked]
        assert [s for s in huge["solutions"] if s["pair"][0] != 0] == \
            [s for s in plain["solutions"] if s["pair"][0] != 0]


def copies(root, name, path, n):
    """A file of ``n`` copies of the one record in ``path``."""
    copy = root / name
    copy.write_text(path.read_text() * n)
    return copy


def block_lengths(monkeypatch):
    """The lengths of the blocks that ``link-optical`` links, in order."""
    lengths, link_rows = [], arclink.optical.link_optical_rows

    def recording(c1, c2, config):
        lengths.append(len(c1))
        return link_rows(c1, c2, config)

    monkeypatch.setattr(arclink.optical, "link_optical_rows", recording)
    return lengths


class TestEachQuantityOnce:
    @pytest.mark.parametrize("case, command", [("optical", "link-optical"),
                                               ("radar", "link-radar-optical")])
    def test_columns_from_assembly_to_document(self, request, tmp_path, monkeypatch,
                                                case, command):
        """A batch's solutions go from the linker's assembly to the
        document as columns: one element pass (``state_element_rows``) per
        block, and no solution view (LinkageSolution) is built.  Three pairs run as blocks
        of 2 and 1."""
        root = request.getfixturevalue(f"{case}_case")
        first = copies(tmp_path, "first.jsonl", root / "atts1.jsonl", 3)
        second = copies(tmp_path, "second.jsonl", root / "atts2.jsonl", 1)
        monkeypatch.setattr(arclink.optical, "BLOCK_PAIRS", 2)
        calls = {"state_element_rows": 0, "LinkageSolution": 0}
        element_rows, init = arclink.optical.state_element_rows, LinkageSolution.__init__

        def counted_rows(*args, **kwargs):
            calls["state_element_rows"] += 1
            return element_rows(*args, **kwargs)

        def counted_init(self, *args, **kwargs):
            calls["LinkageSolution"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(arclink.optical, "state_element_rows", counted_rows)
        monkeypatch.setattr(LinkageSolution, "__init__", counted_init)
        out = tmp_path / "out.json"
        assert run(command, first, second, "--ephemeris", EPH, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["errors"] == [] and len(doc["solutions"]) >= 3
        assert calls == {"state_element_rows": 2, "LinkageSolution": 0}


    @pytest.mark.parametrize("case, command", [("optical", "link-optical"),
                                               ("radar", "link-radar-optical")])
    def test_attributable_work_once_per_file(self, request, tmp_path, monkeypatch, case,
                                             command):
        """Three by two pairs run as blocks of 2: the ephemeris's ``states``
        and the coefficient kernel run once per file, on all its rows, and
        the joint-covariance check once per block; no scalar observer state,
        coefficient record or AttributablePair is made."""
        root = request.getfixturevalue(f"{case}_case")
        first = copies(tmp_path, "first.jsonl", root / "atts1.jsonl", 3)
        second = copies(tmp_path, "second.jsonl", root / "atts2.jsonl", 2)
        monkeypatch.setattr(arclink.optical, "BLOCK_PAIRS", 2)
        calls = {name: [] for name in ("states", case, "optical", "joint", "scalar")}

        def counted(name, fn, size=lambda values, *rest: len(values)):
            def wrapper(*args, **kwargs):
                calls[name].append(size(*args, **kwargs))
                return fn(*args, **kwargs)
            return wrapper

        states = arclink.attributables.KeplerianEphemeris.states
        monkeypatch.setattr(arclink.attributables.KeplerianEphemeris, "states",
                            counted("states", states, lambda eph, ts: len(ts)))
        kernels = [(arclink.optical, "optical_coefficient_rows", "optical")]
        if case == "radar":
            kernels.append((arclink.radar, "radar_coefficient_rows", "radar"))
        for module, name, key in kernels:
            monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
        validated = arclink.covariance.validated_rows
        monkeypatch.setattr(arclink.covariance, "validated_rows", counted(
            "joint", validated, lambda m, tol, what, **kw: (what, len(m))))
        for module, name in ((arclink.attributables.KeplerianEphemeris, "state"),
                             (arclink.optical, "compute_optical_coefficients"),
                             (arclink.radar, "radar_coefficients"),
                             (arclink.covariance, "AttributablePair")):
            monkeypatch.setattr(module, name, counted("scalar", getattr(module, name),
                                                      lambda *a, **k: name))
        out = tmp_path / "out.json"
        assert run(command, first, second, "--ephemeris", EPH, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["errors"] == [] and len(doc["solutions"]) >= 6
        joint = [n for what, n in calls.pop("joint") if what == "attributable covariance"]
        assert joint == [2, 2, 2]
        assert calls == {"states": [3, 2], case: [3] if case == "radar" else [3, 2],
                         "optical": [2] if case == "radar" else [3, 2], "scalar": []}

    def test_pair_errors_equal_the_library_calls(self, tmp_path, monkeypatch):
        """A block's pair errors, in blocks of 2, are those of the one-pair
        library calls, code and message, on records with a polar
        declination, an epoch equal to its partner's, an epoch outside the
        ephemeris table, an asymmetric covariance, one that is not positive
        semidefinite, none at all, and a radar record in an optical file,
        alone and together: a polar record at its partner's epoch, and a
        radar record outside the table."""
        first, second, table = mixed_batch(tmp_path)
        units = AU_DAY
        atts1, atts2 = read_attributables(first, units), read_attributables(second, units)
        base = atts1[0]
        sigma = np.sqrt(np.diag(base.cov))
        atts1 = [base,
                 dataclasses.replace(base, delta=math.pi / 2),
                 dataclasses.replace(atts1[1], cov=None),
                 RadarAttributable(base.alpha, base.delta, 1.2, 0.01, base.tbar + 0.1,
                                   np.diag(sigma**2)),
                 atts1[4],  # before the table
                 RadarAttributable(base.alpha, base.delta, 1.2, 0.01, atts1[4].tbar)]
        asym = atts2[0].cov.copy()
        asym[0, 1] += 1e-6 * asym.max()
        atts2 = [atts2[0], dataclasses.replace(atts2[1], cov=asym),
                 dataclasses.replace(atts2[2], cov=np.diag([1.0, 1.0, 1.0, -1.0]) * asym.max()),
                 dataclasses.replace(atts2[5], tbar=base.tbar)]
        write_attributables(first, atts1, units)
        write_attributables(second, atts2, units)
        monkeypatch.setattr(arclink.optical, "BLOCK_PAIRS", 2)
        out = tmp_path / "edge.json"
        assert run("link-optical", first, second, "--ephemeris", table, "--out", out) == 2
        got = [(e["pair"], e["code"], e["message"]) for e in json.loads(out.read_text())["errors"]]
        config = RunConfig()
        eph = parse_ephemeris(str(table), units, config.mu_value)
        want = []
        for i, a1 in enumerate(read_attributables(first, units)):
            for j, a2 in enumerate(read_attributables(second, units)):
                try:
                    obs1 = CartesianState(*eph.state(a1.tbar), a1.tbar)
                    obs2 = CartesianState(*eph.state(a2.tbar), a2.tbar)
                    sols = link_optical(a1, a2, obs1, obs2, config)
                    if a1.cov is not None and a2.cov is not None:
                        pair = AttributablePair(a1, a2)
                        for sol in sols:
                            attach_covariances(pair, sol, obs1, obs2, config)
                        select_solutions(sols, a2, obs2, config=config)
                except LinkageError as exc:
                    code = ("degenerate" if isinstance(exc, DegenerateConfigurationError)
                            else "numerical" if isinstance(exc, NumericalError) else "input")
                    want.append(([i, j], code, str(exc)))
        assert got == want
        messages = " ".join(message for _, _, message in got)
        for part in ("too close to a pole", "distinct epochs", "outside tabulated span",
                     "not symmetric", "not positive semidefinite", "must be optical"):
            assert part in messages, part


class TestBlockSplit:
    @pytest.mark.parametrize("n1, n2, expected", [
        (0, 1, []),
        (1, 1, [1]),
        (12, 12, [144]),
        (16, 16, [256]),
        (1, 257, [129, 128]),
    ], ids=["0", "1", "144", "256", "257"])
    def test_fewest_equal_blocks(self, optical_case, tmp_path, monkeypatch,
                                 n1, n2, expected):
        """A batch of N x M pairs is linked as the fewest blocks of at most
        ``BLOCK_PAIRS`` (256) pairs, equal to within one pair, the longer
        first; an empty batch links nothing and writes an empty document."""
        assert arclink.optical.BLOCK_PAIRS == 256
        first = copies(tmp_path, "first.jsonl", optical_case / "atts1.jsonl", n1)
        second = copies(tmp_path, "second.jsonl", optical_case / "atts2.jsonl", n2)
        lengths = block_lengths(monkeypatch)
        out = tmp_path / "batch.json"
        code = run("link-optical", first, second, "--ephemeris", EPH, "--out", out)
        assert code == 0
        assert lengths == expected
        doc = json.loads(out.read_text())
        assert doc["errors"] == []
        # every pair has the same solutions, in the batch's order
        pairs = [s["pair"] for s in doc["solutions"]]
        per_pair = len(pairs) // max(n1 * n2, 1)
        assert per_pair >= 1 or n1 * n2 == 0
        assert pairs == [[i, j] for i in range(n1) for j in range(n2) for _ in range(per_pair)]


class TestAtomicOutput:
    def test_out_in_missing_directory_links_nothing(self, optical_case, tmp_path,
                                                    monkeypatch, capsys):
        """The output is opened before the first block: an ``--out`` that
        cannot be written is an input error before any pair is linked."""
        lengths = block_lengths(monkeypatch)
        capsys.readouterr()
        code = run("link-optical", optical_case / "atts1.jsonl", optical_case / "atts2.jsonl",
                   "--ephemeris", EPH, "--out", tmp_path / "missing" / "out.json")
        assert code == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert lengths == []
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["link-optical", "synth"])
    def test_failed_rename_leaves_no_temp_file(self, optical_case, tmp_path, capsys,
                                               command):
        """An output path that names a directory is an input error, and the
        temp file written next to it is removed."""
        target = tmp_path / "target"
        target.mkdir()
        if command == "synth":
            elements = tmp_path / "elements.json"
            elements.write_text(json.dumps(ELEMENTS))
            argv = ("synth", elements, "--epochs", EPOCHS, "--out", tmp_path / "atts.jsonl",
                    "--truth", target)
        else:
            argv = ("link-optical", optical_case / "atts1.jsonl",
                    optical_case / "atts2.jsonl", "--out", target)
        capsys.readouterr()
        code = run(*argv, "--ephemeris", EPH)
        assert code == 2
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["target"] + (["elements.json"] if command == "synth" else []))
        assert os.listdir(target) == []

    def test_synth_out_directory_writes_neither_file(self, tmp_path, capsys):
        """``synth`` renames both files only once both are written, the
        attributables first: an ``--out`` that names a directory fails that
        first rename and leaves no truth file and no temp file."""
        target = tmp_path / "target"
        target.mkdir()
        elements = tmp_path / "elements.json"
        elements.write_text(json.dumps(ELEMENTS))
        capsys.readouterr()
        code = run("synth", elements, "--epochs", EPOCHS, "--out", target,
                   "--truth", tmp_path / "truth.json", "--ephemeris", EPH)
        assert code == 2
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["elements.json", "target"]
        assert os.listdir(target) == []

    def test_error_in_a_later_block_leaves_no_file(self, optical_case, tmp_path,
                                                   monkeypatch):
        """Records are written block by block to a temp file; an exception in
        the second block removes it, and ``--out`` is never created."""
        first = copies(tmp_path, "first.jsonl", optical_case / "atts1.jsonl", 1)
        cap = arclink.optical.BLOCK_PAIRS
        second = copies(tmp_path, "second.jsonl", optical_case / "atts2.jsonl", cap + 1)
        calls, link_rows = [], arclink.optical.link_optical_rows

        def failing(c1, c2, config):
            calls.append(len(c1))
            if len(calls) == 2:
                raise RuntimeError("second block")
            return link_rows(c1, c2, config)

        monkeypatch.setattr(arclink.optical, "link_optical_rows", failing)
        with pytest.raises(RuntimeError, match="second block"):
            run("link-optical", first, second, "--ephemeris", EPH,
                "--out", tmp_path / "out.json")
        assert calls == [cap // 2 + 1, cap // 2]
        assert sorted(os.listdir(tmp_path)) == ["first.jsonl", "second.jsonl"]
