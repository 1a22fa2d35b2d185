"""Self-tests of the benchmark's own machinery.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import filecmp
import json
import os

import pytest

import check
import generate
import pace
import tracing
from worker import solution_dict

from arclink.attributables import (
    NoiseSpec,
    circular_observer,
    synthesize_optical_attributable,
    synthetic_truth_state,
)
from arclink.config import AU_DAY
from arclink.covariance import AttributablePair, attach_covariances
from arclink.kepler import CartesianState, KeplerianElements
from arclink.optical import link_optical
from arclink.selection import select_solutions


def _files(directory):
    return sorted(os.listdir(directory))


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_generator_is_byte_identical_for_one_seed(tmp_path, workload):
    generate.generate(workload, 7, tmp_path / "a")
    generate.generate(workload, 7, tmp_path / "b")
    names = _files(tmp_path / "a")
    assert names == _files(tmp_path / "b")
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                                           shallow=False)
    assert mismatch == [] and errors == []


def test_generator_differs_across_seeds(tmp_path):
    generate.generate("optical-screen", 1, tmp_path / "a")
    generate.generate("optical-screen", 2, tmp_path / "b")
    for name in ("batch0_1.jsonl", "batch0_2.jsonl", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()


def test_generator_truth_matches_the_stratified_design(tmp_path):
    shape = generate.WORKLOADS["optical-survey"]
    generate.generate("optical-survey", 3, tmp_path)
    truth = json.loads((tmp_path / "truth.json").read_text())
    rho1 = sorted(link["rho1"] for links in truth["links"] for link in links)
    assert len(truth["links"]) == shape.batches
    assert len(rho1) == shape.batches * shape.n1
    # one linked object per equal-width band of first-epoch range
    width = (shape.rho1_range[1] - shape.rho1_range[0]) / len(rho1)
    for k, rho in enumerate(rho1):
        lo = shape.rho1_range[0] + k * width
        assert lo - 1e-6 <= rho <= lo + width + 1e-6


def test_accuracy_panel_is_the_same_on_every_seed(tmp_path):
    generate.generate("optical-survey", 1, tmp_path / "a")
    generate.generate("optical-survey", 2, tmp_path / "b")
    truth = [json.loads((tmp_path / d / "truth.json").read_text()) for d in "ab"]
    assert truth[0]["panel"] == truth[1]["panel"]
    assert len(truth[0]["panel"]) == generate.PANEL_LINKS
    assert all(links == [{**links[0], "pair": [0, 0]}] for links in truth[0]["panel"])
    for k in (0, generate.PANEL_LINKS - 1):
        assert ((tmp_path / "a" / f"panel{k}_1.jsonl").read_bytes()
                == (tmp_path / "b" / f"panel{k}_1.jsonl").read_bytes())


def test_noiseless_easy_link_scores_at_least_ten_digits():
    mu, c = AU_DAY.mu_default, AU_DAY.c_light
    truth = KeplerianElements(a=0.92, e=0.19, i=0.06, Omega=1.2, omega=0.7,
                              ell=0.4, epoch=53100.0)
    eph = circular_observer(1.0, mu)
    t1, t2 = 53105.0, 53287.0
    att1 = synthesize_optical_attributable(truth, eph, t1, mu, c, NoiseSpec())
    att2 = synthesize_optical_attributable(truth, eph, t2, mu, c, NoiseSpec())
    obs1 = CartesianState(*eph.state(t1), t1)
    obs2 = CartesianState(*eph.state(t2), t2)
    sols = link_optical(att1, att2, obs1, obs2)
    pair = AttributablePair(att1, att2)
    for s in sols:
        attach_covariances(pair, s, obs1, obs2)
    select_solutions(sols, att2, obs2)

    def rho(att):
        state = synthetic_truth_state(truth, att, mu, c, eph)
        return float(sum((state.r - eph.state(att.tbar)[0]) ** 2) ** 0.5)

    link = {"pair": [0, 0], "rho1": rho(att1), "rho2": rho(att2)}
    assert link["rho1"] < 2.0 and link["rho2"] < 2.0
    doc = {"solutions": [solution_dict(s, (0, 0)) for s in sols], "errors": []}
    acc = check.accuracy([doc], [[link]], [1])
    assert acc["recalled"] == 1
    assert acc["all_digits"][0] >= 10.0


def test_reference_seconds_take_the_slices_out_and_scale_by_their_speed():
    # 10 slices of 2 ms each: the machine runs at half the reference speed.
    assert pace.speed_factor(0.02, 10) == pytest.approx(0.5)
    assert pace.reference_seconds(1.02, 0.02, 10) == pytest.approx(0.5)
    assert pace.reference_seconds(0.004, 0.0, 0) == 0.004


def test_pacer_samples_busy_work_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    pacer = pace.Pacer()
    with pacer:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            sum(range(1000))
    assert pacer.slices >= 3
    assert 0.0 < pacer.spent < 0.1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _span(name, start, end, parent, counts=None):
    return tracing.Span(name, start, end, parent, None, counts or {})


def test_self_time_is_exact_on_a_nested_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),                        # 0
        _span("cli.link_optical", 1.0, 7.0, 0),                  # 1
        _span("optical.optical_candidate_pairs", 2.0, 6.0, 1),   # 2
        _span("optical.aberth_roots", 2.5, 3.0, 2),              # 3
        _span("optical.newton_polish", 3.0, 5.5, 2),             # 4
        _span("optical.evaluate_matrix", 3.25, 3.75, 4),         # 5
        _span("optical.evaluate_matrix", 4.0, 4.5, 4),           # 6
        _span("cli.solution_record", 8.0, 8.5, 0),               # 7
    ]
    assert tracing.self_times(spans) == [
        10.0 - 6.0 - 0.5, 6.0 - 4.0, 4.0 - 0.5 - 2.5, 0.5, 2.5 - 1.0, 0.5, 0.5, 0.5]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 4.0, -1), _span("b", 1.0, 3.0, 0), _span("c", 2.0, 3.5, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0 - 2.5)


def test_layer_times_account_for_the_root_span():
    spans = [
        _span("cli.main", 0.0, 1.0, -1),
        _span("cli.read_attributables", 0.0, 0.1, 0),
        _span("cli.link_optical", 0.2, 0.8, 0),
        _span("optical.aberth_roots", 0.3, 0.4, 2),
        _span("optical.evaluate_matrix", 0.5, 0.55, 2),
    ]
    layers = tracing.layer_metrics(spans, pairs=2, batches=1)
    assert layers["polynomials.roots_ms"] == pytest.approx(50.0)
    assert layers["polynomials.polish_ms"] == pytest.approx(25.0)
    assert layers["polynomials.det_evals_per_pair"] == 0.5
    assert layers["attributables.read_ms"] == pytest.approx(100.0)
    # every self time lands in one layer, so the layers add up to cli.main
    total = (sum(layers[k] for k in tracing.LAYER_TIMES) * 2
             + sum(layers[k] for k in tracing.BATCH_TIMES)) / 1e3
    assert total == pytest.approx(1.0)


def test_install_wraps_the_callers_binding_and_restores_it():
    import arclink.optical
    import arclink.polynomials
    original = arclink.optical.aberth_roots
    tracer = tracing.Tracer()
    uninstall = tracer.install({("arclink.optical", "aberth_roots"):
                                ("optical.aberth_roots", None)})
    try:
        assert arclink.optical.aberth_roots is not original
        assert arclink.polynomials.aberth_roots is original
    finally:
        uninstall()
    assert arclink.optical.aberth_roots is original


def _document():
    sol = {key: 0.0 for key in check.SOLUTION_KEYS}
    sol.update(pair=[0, 1], method="optical", rho1=1.5, rho2=2.0,
               state1={"epoch_mjd": 1.0, "r": [1.0, 0.0, 0.0], "v": [0.0, 1.0, 0.0]},
               state2={"epoch_mjd": 2.0, "r": [1.0, 0.0, 0.0], "v": [0.0, 1.0, 0.0]},
               elements1=None, elements2=None, elliptic=False, covariance1=None,
               covariance2=None, chi4=None, selected=None, unselectable=False,
               compat_anomaly=None, flags=[])
    return {"format": "arclink-solutions", "method": "optical", "units": "au-day",
            "mu": 3e-4, "chi4_threshold": 100.0, "solutions": [sol], "errors": []}


def test_check_document_accepts_the_schema_and_flags_breaks():
    doc = _document()
    assert check.check_document(doc, 0, 1, 2, "optical") == []
    assert check.check_document(doc, 4, 1, 2, "optical")      # exit code without errors
    broken = copy.deepcopy(doc)
    del broken["solutions"][0]["chi4"]
    assert check.check_document(broken, 0, 1, 2, "optical")
    broken = copy.deepcopy(doc)
    broken["solutions"][0]["pair"] = [1, 1]                    # outside 1 x 2
    assert check.check_document(broken, 0, 1, 2, "optical")


def test_compare_holds_cli_to_library_within_1e12():
    doc = _document()
    library = {"solutions": copy.deepcopy(doc["solutions"]), "errors": []}
    assert check.compare(doc, library) == []
    library["solutions"][0]["rho1"] *= 1 + 1e-13
    assert check.compare(doc, library) == []
    library["solutions"][0]["rho1"] *= 1 + 1e-11
    assert check.compare(doc, library)
    library = {"solutions": [], "errors": []}
    assert check.compare(doc, library)
