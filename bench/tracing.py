"""Spans around the package's cross-module calls, from outside the package.

The traced run replaces selected module attributes with timing wrappers
inside the benchmark process; ``src/`` is never edited.  A function is
wrapped under the name its *caller* looks it up by (``arclink.optical``
calls ``aberth_roots`` through ``arclink.optical.aberth_roots``), so a span
records both who called and what ran.  Spans stay in memory until the run
ends; per-layer metrics are computed from them afterwards.

Self time is a span's duration minus the part of it that its child spans
cover.  Every self time belongs to exactly one layer metric, so the layer
times add up to the traced time of ``cli.main``.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int              # index of the parent span, -1 for a root
    pair: tuple | None       # (batch, i, j) of the pair being linked
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _n_candidates(args, kwargs, out):
    rho1, _, _, accepted = out
    return {"candidates": len(rho1), "accepted": int(sum(bool(a) for a in accepted))}


def _n_returned(args, kwargs, out):
    return {"returned": len(out)}


def _attach_counts(args, kwargs, out):
    solution = args[1]
    return {"solutions": 1,
            "ill_conditioned": int("ill-conditioned-solution" in solution.flags)}


def _select_counts(args, kwargs, out):
    solutions = args[0]
    return {"solutions": len(solutions),
            "scored": sum(s.chi4 is not None for s in solutions),
            "selected": len(out),
            "unselectable": sum(bool(s.unselectable) for s in solutions)}


# (module, attribute) -> (span name, count extractor).  The span name is
# "<binding module>.<function>"; LAYER_TIMES below says which layer each
# span's self time belongs to.
WRAPPED = {
    ("arclink.cli", "read_attributables"): ("cli.read_attributables", _n_returned),
    ("arclink.cli", "link_optical"): ("cli.link_optical", None),
    ("arclink.cli", "link_radar_optical"): ("cli.link_radar_optical", None),
    ("arclink.cli", "attach_covariances"): ("cli.attach_covariances", _attach_counts),
    ("arclink.cli", "select_solutions"): ("cli.select_solutions", _select_counts),
    ("arclink.cli", "solution_record"): ("cli.solution_record", None),
    ("arclink.attributables", "KeplerianEphemeris.state"):
        ("attributables.KeplerianEphemeris.state", None),
    ("arclink.optical", "compute_optical_coefficients"):
        ("optical.compute_optical_coefficients", None),
    ("arclink.optical", "build_q_poly"): ("optical.build_q_poly", None),
    ("arclink.optical", "radial_velocity_polys"): ("optical.radial_velocity_polys", None),
    ("arclink.optical", "build_p_poly"): ("optical.build_p_poly", None),
    ("arclink.optical", "optical_candidate_pairs"):
        ("optical.optical_candidate_pairs", _n_candidates),
    ("arclink.optical", "sylvester_matrix"): ("optical.sylvester_matrix", None),
    ("arclink.optical", "fft_evaluation_interpolation"):
        ("optical.fft_evaluation_interpolation", None),
    ("arclink.optical", "aberth_roots"): ("optical.aberth_roots", None),
    ("arclink.optical", "real_positive_roots"):
        ("optical.real_positive_roots", _n_returned),
    ("arclink.optical", "newton_polish"): ("optical.newton_polish", None),
    ("arclink.optical", "evaluate_matrix"): ("optical.evaluate_matrix", None),
    ("arclink.optical", "observation_basis"): ("optical.observation_basis", None),
    ("arclink.optical", "cartesian_to_keplerian"): ("optical.cartesian_to_keplerian", None),
    ("arclink.optical", "compatibility_residuals"):
        ("optical.compatibility_residuals", None),
    ("arclink.optical", "body_position"): ("optical.body_position", None),
    ("arclink.optical", "body_velocity"): ("optical.body_velocity", None),
    ("arclink.optical", "laplace_lenz"): ("optical.laplace_lenz", None),
    ("arclink.optical", "two_body_energy"): ("optical.two_body_energy", None),
    ("arclink.radar", "radar_coefficients"): ("radar.radar_coefficients", None),
    ("arclink.radar", "compute_optical_coefficients"):
        ("radar.compute_optical_coefficients", None),
    ("arclink.radar", "eliminate_linear"): ("radar.eliminate_linear", None),
    ("arclink.radar", "build_quartic"): ("radar.build_quartic", None),
    ("arclink.radar", "solve_quartic"): ("radar.solve_quartic", None),
    ("arclink.radar", "real_positive_roots"): ("radar.real_positive_roots", _n_returned),
    ("arclink.radar", "observation_basis"): ("radar.observation_basis", None),
    ("arclink.radar", "cartesian_to_keplerian"): ("radar.cartesian_to_keplerian", None),
    ("arclink.radar", "compatibility_residuals"): ("radar.compatibility_residuals", None),
    ("arclink.radar", "body_position"): ("radar.body_position", None),
    ("arclink.radar", "body_velocity"): ("radar.body_velocity", None),
    ("arclink.radar", "two_body_energy"): ("radar.two_body_energy", None),
    ("arclink.covariance", "implicit_solution_jacobian"):
        ("covariance.implicit_solution_jacobian", None),
    ("arclink.covariance", "observation_basis"): ("covariance.observation_basis", None),
    ("arclink.selection", "predict_attributable"): ("selection.predict_attributable", None),
    ("arclink.selection", "propagate_elements"): ("selection.propagate_elements", None),
    ("arclink.selection", "propagation_jacobian"): ("selection.propagation_jacobian", None),
}

ROOT_SPAN = "cli.main"
EPHEMERIS_SPAN = "attributables.KeplerianEphemeris.state"
LINK_SPANS = ("cli.link_optical", "cli.link_radar_optical")

# Layer time metrics: self ms per pair summed over these spans.  The radar
# linker's positive-root filter is a polynomials function but belongs to
# the quartic solve, so polynomials.* measures the optical elimination only.
LAYER_TIMES = {
    "polynomials.resultant_ms": ("optical.sylvester_matrix",
                                 "optical.fft_evaluation_interpolation"),
    "polynomials.roots_ms": ("optical.aberth_roots", "optical.real_positive_roots"),
    "polynomials.polish_ms": ("optical.newton_polish", "optical.evaluate_matrix"),
    "optical.coefficients_ms": ("optical.compute_optical_coefficients",
                                "radar.compute_optical_coefficients"),
    "optical.pq_build_ms": ("optical.build_q_poly", "optical.radial_velocity_polys",
                            "optical.build_p_poly"),
    "optical.screen_ms": ("optical.optical_candidate_pairs",),
    "optical.assemble_ms": ("cli.link_optical",),
    "radar.quartic_ms": ("radar.radar_coefficients", "radar.eliminate_linear",
                         "radar.build_quartic"),
    "radar.solve_ms": ("radar.solve_quartic", "radar.real_positive_roots"),
    "radar.assemble_ms": ("cli.link_radar_optical",),
    "kepler.elements_ms": ("optical.cartesian_to_keplerian",
                           "radar.cartesian_to_keplerian"),
    "kepler.compat_ms": ("optical.compatibility_residuals",
                         "radar.compatibility_residuals"),
    "kepler.propagate_ms": ("selection.propagate_elements",
                            "selection.propagation_jacobian"),
    "kepler.invariants_ms": ("optical.laplace_lenz", "optical.two_body_energy",
                             "radar.two_body_energy"),
    "covariance.attach_ms": ("cli.attach_covariances",),
    "covariance.jacobian_ms": ("covariance.implicit_solution_jacobian",),
    "selection.select_ms": ("cli.select_solutions",),
    "selection.predict_ms": ("selection.predict_attributable",),
    "geometry.basis_ms": ("optical.observation_basis", "radar.observation_basis",
                          "covariance.observation_basis"),
    "geometry.body_ms": ("optical.body_position", "optical.body_velocity",
                         "radar.body_position", "radar.body_velocity"),
    "attributables.ephemeris_ms": ("attributables.KeplerianEphemeris.state",),
    "cli.record_ms": ("cli.solution_record",),
    "cli.loop_self_ms": (ROOT_SPAN,),
}
# Reported per batch, not per pair.
BATCH_TIMES = {"attributables.read_ms": ("cli.read_attributables",)}


class Tracer:
    """Collects spans from wrapped callables; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pair: tuple | None = None
        self.batch = 0
        self._index1: dict[int, int] = {}
        self._index2: dict[int, int] = {}

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(args, kwargs, out)``
        gives the span's counts."""
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if name in LINK_SPANS:
                self.pair = (self.batch, self._index1.get(id(args[0])),
                             self._index2.get(id(args[1])))
            span = Span(name, 0.0, 0.0, parent, self.pair)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, out)
            if name == "cli.read_attributables":
                # The CLI reads the first file, then the second.
                index = self._index2 if self._index1 else self._index1
                index.update({id(att): k for k, att in enumerate(out)})
            return out

        return traced

    def start_batch(self, batch: int) -> None:
        """Mark the next spans as belonging to ``batch``."""
        self.batch, self.pair = batch, None
        self._index1, self._index2 = {}, {}

    def install(self, wrapped=None):
        """Patch every entry of ``wrapped`` (default WRAPPED); return a
        function that restores the originals."""
        restore = []
        for (module_name, attr), (name, count) in (wrapped or WRAPPED).items():
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(name, original, count))
            restore.append((owner, leaf, original))

        def uninstall():
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)
        return uninstall

    def finish(self) -> None:
        """Give the observer-state spans that open each pair (the CLI loop
        calls them just before the pair's link call) that pair's id."""
        pending = []
        for span in self.spans:
            if span.name in LINK_SPANS:
                for opener in pending:
                    opener.pair = span.pair
                pending = []
            elif (span.name == EPHEMERIS_SPAN and span.parent >= 0
                  and self.spans[span.parent].name == ROOT_SPAN):
                pending.append(span)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def layer_metrics(spans: list[Span], pairs: int, batches: int) -> dict:
    """Per-layer metrics (name -> value) from one traced pass."""
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, int] = {}
    for span, own in zip(spans, selfs):
        by_name[span.name] = by_name.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            totals[f"{span.name}:{key}"] = totals.get(f"{span.name}:{key}", 0) + value

    def ms(names, per):
        return 1e3 * sum(by_name.get(n, 0.0) for n in names) / per

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {name: ms(names, pairs) for name, names in LAYER_TIMES.items()}
    out.update({name: ms(names, batches) for name, names in BATCH_TIMES.items()})
    candidates = totals.get("optical.optical_candidate_pairs:candidates", 0)
    solutions = totals.get("cli.select_solutions:solutions", 0)
    attached = totals.get("cli.attach_covariances:solutions", 0)
    scored = totals.get("cli.select_solutions:scored", 0)
    # Solutions built by the linkers: each converts two states to elements.
    built = n("optical.compatibility_residuals", "radar.compatibility_residuals")
    out.update({
        "polynomials.det_evals_per_pair": ratio(n("optical.evaluate_matrix"), pairs),
        "polynomials.real_positive_roots_per_pair": ratio(
            totals.get("optical.real_positive_roots:returned", 0), pairs),
        "optical.coefficients_per_pair": ratio(
            n("optical.compute_optical_coefficients",
              "radar.compute_optical_coefficients"), pairs),
        "optical.candidates_per_pair": ratio(candidates, pairs),
        "optical.accept_ratio": ratio(
            totals.get("optical.optical_candidate_pairs:accepted", 0), candidates),
        "radar.roots_per_pair": ratio(
            totals.get("radar.real_positive_roots:returned", 0), pairs),
        "kepler.elements_calls_per_solution": ratio(
            n("optical.cartesian_to_keplerian", "radar.cartesian_to_keplerian"), built),
        "covariance.jacobians_per_solution": ratio(
            n("covariance.implicit_solution_jacobian"), attached),
        "covariance.ill_conditioned_frac": ratio(
            totals.get("cli.attach_covariances:ill_conditioned", 0), attached),
        "selection.scored_per_pair": ratio(scored, pairs),
        "selection.selected_ratio": ratio(
            totals.get("cli.select_solutions:selected", 0), scored),
        "selection.unselectable_frac": ratio(
            totals.get("cli.select_solutions:unselectable", 0), solutions),
        "geometry.basis_calls_per_pair": ratio(
            n("optical.observation_basis", "radar.observation_basis",
              "covariance.observation_basis"), pairs),
        "attributables.ephemeris_calls_per_pair": ratio(
            n("attributables.KeplerianEphemeris.state"), pairs),
    })
    return out
