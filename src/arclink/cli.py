"""Batch command line for linking attributable files.

Subcommands
-----------
Each also takes ``--units``, ``--mu`` and ``--ephemeris``, and no option
it does not read (exit 2).  An option not given keeps its RunConfig default.

link-optical A1.jsonl A2.jsonl --out OUT [--chi4-threshold X]
    Link every attributable of the first file against every one of the
    second (cartesian product), keep the candidates whose unsquared Lenz
    residual is within ``optical._SCREEN_REL`` of |L1| + |L2|, attach
    covariances when both records carry one, score acceptance, and write
    one solutions JSON document.  Each file's attributables become columns
    (``attributables.AttributableColumns``) once: their observer states
    from one ``states`` call of the ephemeris, their coefficient records
    from one call of the row kernel (``optical.optical_coefficient_rows``),
    and the error of each that fails.  The pairs, in row-major order, run
    as the fewest blocks of at most ``optical.BLOCK_PAIRS``, of equal
    length to within one pair, each a pair of index arrays into the
    columns: the pair checks as array comparisons (a pair's first error is
    that of its observer states, its kinds, its epochs, then its records),
    the elimination as one stacked pass over the gathered records, the
    joint covariances gathered block-diagonally and checked in one pass
    (``covariance.joint_covariance_rows``), then the covariances
    (``covariance.attach_covariance_rows``) and the chi4 selection
    (``selection.select_solution_rows``) each as one stacked pass over the
    block's solutions.  A pair's numbers are those of ``link_optical``,
    ``attach_covariances`` and ``select_solutions`` on that pair alone.
    Each block's records are encoded straight from its columns and
    written out ``_RECORDS_PER_DUMP`` at a time, so memory holds one
    block's columns and a few records, not the batch's text.
link-radar-optical RAD.jsonl OPT.jsonl --out OUT [--chi4-threshold X]
    Same, first file radar attributables (``radar.radar_coefficient_rows``),
    second file optical, in the same blocks (``radar.link_radar_optical_rows``):
    a pair's numbers are those of ``link_radar_optical`` on that pair alone.
synth ELEMENTS.json --epochs T1,T2 --out OUT --truth TRUTH [--seed N] ...
    Synthesize a pair of attributables (plus a ground-truth JSON with the
    hidden ranges/rates) from known elements, optionally with noise drawn
    from ``--seed``.  Each ``--sigma-*`` must be finite and >= 0.
curves A1.jsonl A2.jsonl --out-dir DIR [--grid N] [--bounds lo1,hi1,lo2,hi2]
    Sample the four linkage curves (angular-momentum quadratic, projected
    Lenz polynomial, unsquared Lenz residual, squared energy equality) of
    the first record of each file, checked as ``link-optical`` checks a
    pair, on a range grid of at least 2 points per axis (``--grid``), over
    a window of finite bounds with lo < hi (``--bounds``), and write one
    CSV per curve.  An empty file is an input error, and a grid with a NaN
    or an infinity a numerical failure: no CSV is written.

Exit codes: 0 success (an empty solution set is a success), 2 input error,
3 degenerate observing geometry, 4 numerical failure.  In batch mode,
per-pair failures are recorded in the output document under ``errors`` and
the worst class decides the exit code (input > numerical > degenerate).

Documents are one line of JSON, written with orjson.  Floats carry their
shortest round-trip digits (up to 17 significant digits, lossless), so
re-ingesting a solutions file reproduces the numbers exactly.  Output is
strict JSON.  A block's solutions travel as columns
(``solutions.SolutionRows``) from the linker through the covariances and
the selection to the document, whose records are written straight from
them; one ``np.isfinite`` pass per column checks the values as written
(epochs in MJD), and a pair with a NaN or an infinity in any of its
records fails as numerical.  Any other document with one is not written
(exit 4).  Documents are written atomically: the text goes to
``OUT.tmp.<pid>`` next to ``OUT``, opened before the first pair is linked,
and is renamed over ``OUT`` at the end; on any failure the temp file is
removed and ``OUT`` is left as it was.  ``synth`` writes both its files so,
renamed into place only once both are written, the attributables first; if
the truth's rename fails, the new attributables file is removed too.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

import numpy as np
import orjson

from .attributables import (
    AttributableColumns,
    KeplerianEphemeris,
    NoiseSpec,
    SpinningStationEphemeris,
    TabulatedEphemeris,
    attributables_text,
    circular_observer,
    json_numbers,
    json_record,
    read_attributables,
    synthesize_optical_attributable,
    synthesize_radar_attributable,
    synthetic_truth_state,
    text_lines,
)
from .config import UNIT_SYSTEMS, RunConfig, UnitSystem, unit_system
from .constants import ARCSEC_RAD
from .covariance import (
    PairRows,
    attach_covariance_rows,
    attach_covariances,  # noqa: F401 (bench/tracing.py patches it)
    joint_covariance_rows,
)
from .errors import (
    DegenerateConfigurationError,
    DomainError,
    EphemerisError,
    LinkageError,
    NumericalError,
    fail_rows,
    merge_rows,
    ok_rows,
)
from .geometry import topocentric_coords
from .kepler import CartesianState, KeplerianElements
from . import optical, radar
from .optical import (  # noqa: F401 (bench/tracing.py patches link_optical)
    emit_curve_samples,
    link_optical,
)
from .radar import link_radar_optical  # noqa: F401 (bench/tracing.py patches it)
from .selection import (
    select_solution_rows,
    select_solutions,  # noqa: F401 (bench/tracing.py patches it)
)
from .solutions import _FLAGS, LinkageSolution, SolutionRows, optional

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_NUMERICAL = 4

SOLUTIONS_FORMAT = "arclink-solutions"

# The errors a command reports rather than raises.
_REPORTED = (LinkageError, OSError)
# How each of them is reported: its class (the first row that matches),
# its code in a document's ``errors``, the exit status and the prefix of
# its message on stderr.  A batch exits with the status of its worst code,
# and a later row is worse: input > numerical > degenerate.
_ERROR_CLASSES = (
    (DegenerateConfigurationError, "degenerate", EXIT_DEGENERATE, "degenerate geometry: "),
    (NumericalError, "numerical", EXIT_NUMERICAL, "numerical failure: "),
    (_REPORTED, "input", EXIT_INPUT, ""),
)


def _error_class(exc: Exception) -> tuple:
    """The row of ``_ERROR_CLASSES`` that reports ``exc``."""
    return next(row for row in _ERROR_CLASSES if isinstance(exc, row[0]))


# ---------------------------------------------------------------------------
# serialization


def _finite(value) -> bool:
    """Whether every float in ``value``, JSON-ready nested dicts and lists,
    is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(map(_finite, value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    return True


def _json(value, what: str) -> bytes:
    """``value`` as one line of strict JSON text, UTF-8: a NaN or infinity
    in it (which orjson would write as ``null``) raises NumericalError."""
    if not _finite(value):
        raise NumericalError(f"non-finite value in {what}")
    return orjson.dumps(value, option=orjson.OPT_SERIALIZE_NUMPY)


@contextlib.contextmanager
def _atomic_outputs(*paths: str):
    """Binary files for documents' texts, one per path, which replace
    ``paths`` with those texts and a newline each when the ``with`` block
    ends.  Each text goes to a temp file next to its path; once all are
    written, they are renamed over their paths in order.  On any exception,
    a rename's own included, the temp files are removed, and so are the
    paths already replaced: those that a failed rename came after, so that
    no document is left without the others."""
    tmps = [f"{path}.tmp.{os.getpid()}" for path in paths]
    replaced: list[str] = []
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(tmp, "wb")) for tmp in tmps]
            yield files
            for fh in files:
                fh.write(b"\n")
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
            replaced.append(path)
    except BaseException:
        for name in tmps + replaced:
            with contextlib.suppress(OSError):
                os.unlink(name)
        raise


def _state_record(state: CartesianState, units: UnitSystem) -> dict:
    return {
        "epoch_mjd": units.internal_to_mjd(state.epoch),
        "r": state.r.tolist(),
        "v": state.v.tolist(),
    }


def _elements_record(el, units: UnitSystem) -> dict | None:
    """Orbital elements with angles in radians (lossless round trip)."""
    if el is None:
        return None
    return {"a": el.a, "e": el.e, "i": el.i, "Omega": el.Omega,
            "omega": el.omega, "ell": el.ell,
            "epoch_mjd": units.internal_to_mjd(el.epoch)}


_ELEMENT_KEYS = ("a", "e", "i", "Omega", "omega", "ell", "epoch_mjd")
#: most records built, encoded and written at once.  On ``radar-followup``
#: (seed 1, one ``bench/run.py`` run each) encoding a whole block's records
#: at once raised ``peak_rss_mb`` from 44.2 to 46.3 MiB (``--seconds 5``),
#: and joining the pieces before writing them from 45.9 to 46.3 MiB
#: (``--seconds 10``).
_RECORDS_PER_DUMP = 32


def _written(sols: SolutionRows, units: UnitSystem) -> tuple[np.ndarray, np.ndarray]:
    """The epochs of the solutions' states (K, 2) and their element sets
    (K, 2, 7) as the records hold them: in MJD."""
    elements = sols.elements.copy()
    elements[:, :, 6] = units.internal_to_mjd(elements[:, :, 6])
    return units.internal_to_mjd(sols.t), elements


def _finite_rows(sols: SolutionRows, t: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Whether every float of each solution's record, as written (``t`` and
    ``elements`` of :func:`_written`), is finite: one pass per column, a
    column that can be None checked where it is not."""
    def where(finite, has):
        return finite | ~has

    return (np.isfinite(np.concatenate([sols.rho, sols.rhodot, t], axis=1)).all(axis=1)
            & np.isfinite(np.concatenate([sols.r, sols.v], axis=2)).all(axis=(1, 2))
            & np.isfinite(np.array([sols.lenz_residual, sols.compat_lenz,
                                    sols.energy_offset])).all(axis=0)
            & where(np.isfinite(elements).all(axis=2), sols.has_elements).all(axis=1)
            & where(np.isfinite(sols.covariance).all(axis=(2, 3)),
                    sols.has_covariance).all(axis=1)
            & where(np.isfinite(sols.compat_anomaly), sols.has_compat_anomaly)
            & where(np.isfinite(sols.chi4), sols.has_chi4))


def _records(sols: SolutionRows, take: np.ndarray, pair_index: list, t: np.ndarray,
             elements: np.ndarray) -> list[dict]:
    """The JSON-ready records of the solutions ``take`` of ``sols``, the
    n-th with the pair index pair_index[n], from the columns and the
    epochs as written (:func:`_written`)."""
    def state(epoch, r, v):
        return {"epoch_mjd": epoch, "r": r, "v": v}

    els = optional(elements[take].reshape(-1, 7), sols.has_elements[take].ravel())
    covs = optional(sols.covariance[take].reshape(-1, 36), sols.has_covariance[take].ravel())
    return [{
        "pair": list(index),
        "method": sols.method,
        "rho1": rho1, "rhodot1": rhodot1,
        "rho2": rho2, "rhodot2": rhodot2,
        "state1": state(t1, r1, v1),
        "state2": state(t2, r2, v2),
        "elements1": None if el1 is None else dict(zip(_ELEMENT_KEYS, el1)),
        "elements2": None if el2 is None else dict(zip(_ELEMENT_KEYS, el2)),
        "elliptic": elliptic,
        "lenz_residual": residual,
        "compat_lenz": lenz,
        "compat_anomaly": anomaly,
        "energy_offset": offset,
        "covariance1": cov1,
        "covariance2": cov2,
        "chi4": chi4,
        "selected": selected,
        "unselectable": unselectable,
        "flags": flags,
    } for index, (rho1, rho2), (rhodot1, rhodot2), (t1, t2), (r1, r2), (v1, v2), el1, el2,
        elliptic, residual, lenz, anomaly, offset, cov1, cov2, chi4, selected, unselectable,
        flags in zip(
        pair_index, sols.rho[take].tolist(), sols.rhodot[take].tolist(), t[take].tolist(),
        sols.r[take].tolist(), sols.v[take].tolist(), els[0::2], els[1::2],
        sols.elliptic[take].tolist(), sols.lenz_residual[take].tolist(),
        sols.compat_lenz[take].tolist(),
        optional(sols.compat_anomaly[take], sols.has_compat_anomaly[take]),
        sols.energy_offset[take].tolist(), covs[0::2], covs[1::2],
        optional(sols.chi4[take], sols.has_chi4[take]),
        optional(sols.selected[take], sols.has_selected[take]),
        sols.unselectable[take].tolist(), sols.flags(take))]


def solution_record(sol: LinkageSolution, pair_index: tuple[int, int],
                    units: UnitSystem) -> dict:
    """One linkage solution as a JSON-ready dict: the one-row case of a
    block's records, read from the solution's row of its block."""
    (record,) = _records(sol.rows, np.array([sol.k]), [pair_index], *_written(sol.rows, units))
    return record


def _encode_block(sols: SolutionRows, pairs: list, units: UnitSystem):
    """The records of the solutions of a block whose pairs ``pairs`` (i, j)
    have no error in ``sols.errors``, as pieces of JSON text without the
    brackets of their list, each with its number of records (at most
    ``_RECORDS_PER_DUMP``).  Before the first piece, a pair with a NaN or an
    infinity in a record, as written, gets a NumericalError in
    ``sols.errors`` instead."""
    t, elements = _written(sols, units)
    ok = ok_rows(sols.errors)
    non_finite = ok & (np.bincount(sols.pair[~_finite_rows(sols, t, elements)],
                                   minlength=len(pairs)) > 0)
    for m in non_finite.nonzero()[0]:
        sols.errors[m] = NumericalError("non-finite value in a solution")
    take = (ok & ~non_finite)[sols.pair].nonzero()[0]
    index = np.array(pairs, dtype=int).reshape(-1, 2)[sols.pair[take]].tolist()
    for start in range(0, len(take), _RECORDS_PER_DUMP):
        end = start + _RECORDS_PER_DUMP
        records = _records(sols, take[start:end], index[start:end], t, elements)
        yield orjson.dumps(records)[1:-1], len(records)


def solution_from_record(rec: dict, units: UnitSystem) -> LinkageSolution:
    """Rebuild a solution from its serialized record (inverse of
    :func:`solution_record`; the pair index is not part of the solution):
    the view of a block of one row, filled straight from the record."""
    def row(values, dtype=float):
        return np.array([values], dtype=dtype)

    def given(*keys):  # the values of keys, and whether each is not null
        values = [rec.get(key) for key in keys]
        return values, row([x is not None for x in values], bool)

    def epoch(value) -> float:
        return units.mjd_to_internal(float(value))

    states = (rec["state1"], rec["state2"])
    elements, has_elements = given("elements1", "elements2")
    covariance, has_covariance = given("covariance1", "covariance2")
    (anomaly, chi4, selected), has = given("compat_anomaly", "chi4", "selected")
    return LinkageSolution(SolutionRows(
        errors=[None], pair=np.zeros(1, dtype=int), method=rec.get("method", "optical"),
        rho=row([rec["rho1"], rec["rho2"]]), rhodot=row([rec["rhodot1"], rec["rhodot2"]]),
        r=row([s["r"] for s in states]), v=row([s["v"] for s in states]),
        t=row([epoch(s["epoch_mjd"]) for s in states]),
        elements=row([[0.0] * 7 if el is None else
                      [el[key] for key in _ELEMENT_KEYS[:6]] + [epoch(el["epoch_mjd"])]
                      for el in elements]),
        has_elements=has_elements, elliptic=row(rec["elliptic"], bool),
        lenz_residual=row(rec["lenz_residual"]), compat_lenz=row(rec["compat_lenz"]),
        compat_anomaly=row(anomaly or 0.0), has_compat_anomaly=has[:, 0],
        energy_offset=row(rec["energy_offset"]),
        covariance=row([np.zeros((6, 6)) if c is None else np.reshape(c, (6, 6))
                        for c in covariance]),
        has_covariance=has_covariance, chi4=row(chi4 or 0.0), has_chi4=has[:, 1],
        selected=row(selected or False, bool), has_selected=has[:, 2],
        unselectable=row(rec.get("unselectable", False), bool),
        **{column: row(name in rec.get("flags", []), bool) for name, column in _FLAGS}), 0)


# ---------------------------------------------------------------------------
# input parsing


def parse_ephemeris(spec: str, units: UnitSystem, mu: float):
    """Observer ephemeris from a CLI spec string.

    Forms: a CSV path (columns mjd,qx,qy,qz,vx,vy,vz), ``kepler:PATH.json``
    (elements file as in :func:`elements_from_file`),
    ``circular:radius=R[,phase=P]``, or
    ``spin:radius=R,rate=W[,phase=P][,z=Z]``.
    """
    kind, sep, rest = spec.partition(":")
    if not sep or kind not in ("kepler", "circular", "spin"):
        return TabulatedEphemeris.from_csv(spec, units)
    if kind == "kepler":
        return KeplerianEphemeris(elements_from_file(rest, units), mu)
    params = {}
    for part in rest.split(","):
        if not part:
            continue
        key, eq, value = part.partition("=")
        if not eq:
            raise EphemerisError(f"bad ephemeris parameter {part!r} in {spec!r}")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise EphemerisError(f"non-numeric ephemeris parameter {part!r}")
        if not math.isfinite(params[key.strip()]):
            raise EphemerisError(f"non-finite ephemeris parameter {part!r}")
    try:
        if kind == "circular":
            radius = params.pop("radius")
            phase = params.pop("phase", 0.0)
            if params:
                raise EphemerisError(f"unknown circular parameters {sorted(params)}")
            if radius <= 0.0:
                raise EphemerisError(f"circular radius must be positive, got {radius}")
            return circular_observer(radius, mu, phase)
        radius = params.pop("radius")
        rate = params.pop("rate")
        eph = SpinningStationEphemeris(radius, rate, params.pop("phase", 0.0),
                                       params.pop("z", 0.0))
        if params:
            raise EphemerisError(f"unknown spin parameters {sorted(params)}")
        return eph
    except KeyError as exc:
        raise EphemerisError(f"ephemeris spec {spec!r} missing parameter {exc}")


def elements_from_file(path: str, units: UnitSystem) -> KeplerianElements:
    """Elements JSON: a, e, i_deg, Omega_deg, omega_deg, ell_deg, epoch_mjd."""
    rec = json_record("".join(text_lines(path)), path)
    keys = ("a", "e", "i_deg", "Omega_deg", "omega_deg", "ell_deg", "epoch_mjd")
    try:
        a, e, i, Omega, omega, ell, epoch = (float(json_numbers(rec[k], k)) for k in keys)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed elements file {path}: {exc}") from None
    if not all(map(math.isfinite, (a, e, i, Omega, omega, ell, epoch))):
        raise DomainError(f"non-finite value in elements file {path}")
    if a <= 0.0 or not 0.0 <= e < 1.0:
        raise DomainError(f"elements file {path} is not an ellipse (a={a}, e={e})")
    return KeplerianElements(
        a=a, e=e, i=math.radians(i), Omega=math.radians(Omega),
        omega=math.radians(omega), ell=math.radians(ell),
        epoch=units.mjd_to_internal(epoch))


def _check_options(*options) -> None:
    """Raise DomainError unless each option (flag, value, zero_ok) is None,
    or finite and positive (or zero, where ``zero_ok``)."""
    for flag, value, zero_ok in options:
        if value is not None and not (math.isfinite(value) and (
                value > 0.0 or zero_ok and value == 0.0)):
            raise DomainError(f"{flag} must be finite and "
                              f"{'>= 0' if zero_ok else 'positive'}, got {value}")


def _config_from_args(args) -> RunConfig:
    """RunConfig with the fields whose options the user gave."""
    mu, chi4 = args.mu, getattr(args, "chi4_threshold", None)
    _check_options(("--mu", mu, False), ("--chi4-threshold", chi4, True))
    given = dict(units=args.units and unit_system(args.units), mu=mu, chi4_threshold=chi4)
    return RunConfig(**{name: value for name, value in given.items() if value is not None})


# ---------------------------------------------------------------------------
# subcommands


def _observer(eph, tbar: float) -> CartesianState:
    return CartesianState(*eph.state(tbar), tbar)


def _blocks(n1: int, n2: int, cap: int):
    """The crossed pairs (i, j) of ``n1`` and ``n2`` attributables, in
    row-major order, as the fewest blocks of at most ``cap`` pairs, their
    lengths equal to within one (the longer ones first): the arrays i and
    j of each block."""
    total = n1 * n2
    count = -(-total // cap)
    ends = np.cumsum([total // count + (k < total % count) for k in range(count)])
    for start, end in zip(np.concatenate([[0], ends[:-1]]), ends):
        yield np.divmod(np.arange(start, end), n2)


def _side(atts: list, eph, records):
    """One file's columns, observed from ``eph``, and the rows of its
    coefficient records from one call of ``records``, with the error of
    each that cannot be made, else None."""
    cols = AttributableColumns.observed(atts, eph)
    errors = [None] * len(atts)
    rows, _ = records(cols.values, cols.tbar, cols.q, cols.qdot, errors)
    return cols, rows, errors


def _cmd_link(args, method: str, kind1: str, records1, link_rows) -> int:
    """Link the crossed pairs of two files: the first file's attributables
    are of ``kind1`` and ``records1`` makes their coefficient records, and
    ``link_rows`` links a block."""
    config = _config_from_args(args)
    units = config.units
    atts1 = read_attributables(args.attributables1, units)
    atts2 = read_attributables(args.attributables2, units)
    eph = parse_ephemeris(args.ephemeris, units, config.mu_value)
    # Each file's columns, observer states and coefficient records, made once;
    # the error of an epoch the ephemeris rejects, or of a record that
    # cannot be made, fails each pair that uses it.
    with np.errstate(all="ignore"):
        cols1, rows1, recs1 = _side(atts1, eph, records1)
        cols2, rows2, recs2 = _side(atts2, eph, optical.optical_coefficient_rows)

    def link_block(i, j):
        """The block's pairs (i[k], j[k]) that pass their checks, linked as
        one stacked block and finished by ``finish_block``: the columns of
        their solutions, each such pair's place in the block, and the error
        of each pair that failed its checks, else None.  A pair's first
        error is that of its observer states, its checks
        (``optical.pair_check_rows``), then its records."""
        failed: list = [None] * len(i)

        def fail_with(errors, index):  # the attributables' own errors
            fail_rows(failed, ~ok_rows(errors)[index], lambda n: errors[index[n]])

        fail_with(cols1.errors, i)
        fail_with(cols2.errors, j)
        optical.pair_check_rows(kind1, cols1.kind[i], cols2.kind[j], cols1.tbar[i],
                                cols2.tbar[j], failed)
        fail_with(recs1, i)
        fail_with(recs2, j)
        linked = ok_rows(failed).nonzero()[0]
        i, j = i[linked], j[linked]
        sols = link_rows(rows1[i], rows2[j], config)
        finish_block(i, j, sols)
        return sols, linked, failed

    def finish_block(i, j, sols) -> None:
        """Covariances, then selection, for the linked pairs (i[k], j[k])
        whose two records carry a covariance: each stage one stacked pass
        over the columns of their solutions.  A pair's first error becomes
        its entry of ``sols.errors``."""
        errors = sols.errors
        covs = (ok_rows(errors) & cols1.has_cov[i] & cols2.has_cov[j]).nonzero()[0]
        gamma = np.zeros((len(i), 8, 8))
        gamma[covs], bad = joint_covariance_rows(cols1.cov[i[covs]], cols2.cov[j[covs]])
        merge_rows(errors, covs[list(bad)], map(DomainError, bad.values()))
        live = np.zeros(len(i), dtype=bool)
        live[covs] = True
        live &= ok_rows(errors)
        pairs = PairRows(kind1, np.concatenate([cols1.values[i], cols2.values[j]], axis=1),
                         np.array([cols1.q[i], cols2.q[j]]),
                         np.array([cols1.qdot[i], cols2.qdot[j]]), gamma, live)
        merge_rows(errors, range(len(i)), attach_covariance_rows(sols, pairs, config))
        live &= ok_rows(errors)
        merge_rows(errors, range(len(i)), select_solution_rows(
            sols, cols2, np.where(live, j, -1), config))

    head = _json({"format": SOLUTIONS_FORMAT, "method": method, "units": units.name,
                  "mu": config.mu_value, "chi4_threshold": config.chi4_threshold},
                 "the document")
    count, errors = 0, []
    with _atomic_outputs(args.out) as (out,):
        # the head's object, left open, then the solutions (each block's
        # records, without the brackets of their list, written as soon as
        # the block is done) and the errors
        out.write(head[:-1] + b',"solutions":[')
        # Overflow or NaN in a pair's arithmetic is left to the finiteness
        # checks, which make it that pair's error; numpy's warnings would
        # only repeat it on stderr.
        with np.errstate(all="ignore"):
            for i, j in _blocks(len(atts1), len(atts2), optical.BLOCK_PAIRS):
                # the block's columns are released once written, before the
                # next block is linked
                sols, linked, failed = link_block(i, j)
                pairs = list(zip(i[linked].tolist(), j[linked].tolist()))
                for text, written in _encode_block(sols, pairs, units):
                    if count:
                        out.write(b",")
                    out.write(text)
                    count += written
                for n, error in zip(linked, sols.errors):
                    failed[n] = error
                errors += [{"pair": pair, "code": _error_class(exc)[1],
                            "flags": getattr(exc, "flags", []), "message": str(exc)}
                           for pair, exc in zip(np.array([i, j]).T.tolist(), failed)
                           if exc is not None]
        out.write(b'],"errors":' + _json(errors, "the errors") + b"}")
    print(f"{args.out}: {count} solution(s), {len(errors)} failed pair(s)")
    codes = {e["code"] for e in errors}
    return next((status for _, code, status, _ in reversed(_ERROR_CLASSES) if code in codes),
                EXIT_OK)


def cmd_link_optical(args) -> int:
    return _cmd_link(args, "optical", "optical", optical.optical_coefficient_rows,
                     optical.link_optical_rows)


def cmd_link_radar_optical(args) -> int:
    return _cmd_link(args, "radar-optical", "radar", radar.radar_coefficient_rows,
                     radar.link_radar_optical_rows)


def cmd_synth(args) -> int:
    config = _config_from_args(args)
    _check_options(*((f"--sigma-{name}", getattr(args, f"sigma_{name}"), True)
                     for name in ("angle", "rate", "rho", "rhodot")))
    units = config.units
    mu, c_light = config.mu_value, units.c_light
    elements = elements_from_file(args.elements, units)
    eph = parse_ephemeris(args.ephemeris, units, mu)
    try:
        t1_mjd, t2_mjd = (float(p) for p in args.epochs.split(","))
    except ValueError:
        raise DomainError(f"--epochs wants 'MJD1,MJD2', got {args.epochs!r}")
    t1, t2 = units.mjd_to_internal(t1_mjd), units.mjd_to_internal(t2_mjd)

    radar_noise = {f"sigma_{name}": getattr(args, f"sigma_{name}")
                   for name in ("rho", "rhodot") if getattr(args, f"sigma_{name}") is not None}
    if radar_noise and args.kind != "radar":
        # an optical first record has no range to perturb
        raise DomainError(f"--{min(radar_noise).replace('_', '-')} needs --kind radar")
    noise = NoiseSpec(sigma_angle=args.sigma_angle * ARCSEC_RAD,
                      sigma_rate=args.sigma_rate * ARCSEC_RAD,
                      apply=args.apply_noise, **radar_noise)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        # numpy takes no negative seed, and the truth file stores it as a
        # 64-bit integer
        raise DomainError(f"--seed must be in [0, 2**64), got {args.seed}")
    rng = np.random.default_rng(args.seed)
    # Overflow (a huge sigma squared) is reported as a non-finite value
    # below; numpy's warnings would only repeat it on stderr.
    with np.errstate(all="ignore"):
        if args.kind == "radar":
            att1 = synthesize_radar_attributable(elements, eph, t1, mu, c_light,
                                                 noise, rng)
        else:
            att1 = synthesize_optical_attributable(elements, eph, t1, mu, c_light,
                                                   noise, rng)
        att2 = synthesize_optical_attributable(elements, eph, t2, mu, c_light,
                                               noise, rng)

    truth = {"format": "arclink-truth", "units": units.name, "mu": mu,
             "kind": args.kind, "seed": args.seed,
             "elements": _elements_record(elements, units), "epochs": []}
    for att in (att1, att2):
        state = synthetic_truth_state(elements, att, mu, c_light, eph)
        q, qdot = eph.state(att.tbar)
        coords = topocentric_coords(state.r, state.v, q, qdot)
        truth["epochs"].append({
            "tbar_mjd": units.internal_to_mjd(att.tbar),
            "alpha": coords[0], "delta": coords[1],
            "alphadot": coords[2], "deltadot": coords[3],
            "rho": coords[4], "rhodot": coords[5],
            "state": _state_record(state, units),
        })
    # Both texts are checked before either file is written, and both files
    # are replaced together, the attributables first.
    text = _json(truth, "the ground truth")
    try:
        atts_text = attributables_text([att1, att2], units)
    except ValueError:
        raise NumericalError("non-finite value in the attributables") from None
    with _atomic_outputs(args.out, args.truth) as (atts_out, truth_out):
        atts_out.write(atts_text.encode())
        truth_out.write(text)
    print(f"{args.out}: 2 attributable(s); {args.truth}: ground truth")
    return EXIT_OK


def _first_record(path: str, units: UnitSystem):
    """The first attributable of the file ``path``."""
    atts = read_attributables(path, units)
    if not atts:
        raise DomainError(f"{path}: no attributable to sample")
    return atts[0]


def cmd_curves(args) -> int:
    config = _config_from_args(args)
    units = config.units
    att1 = _first_record(args.attributables1, units)
    att2 = _first_record(args.attributables2, units)
    eph = parse_ephemeris(args.ephemeris, units, config.mu_value)
    try:
        lo1, hi1, lo2, hi2 = (float(p) for p in args.bounds.split(","))
    except ValueError:
        raise DomainError(f"--bounds wants 'lo1,hi1,lo2,hi2', got {args.bounds!r}")
    if not all(map(math.isfinite, (lo1, hi1, lo2, hi2))) or not (lo1 < hi1 and lo2 < hi2):
        raise DomainError(f"--bounds wants finite ranges with lo < hi, got {args.bounds!r}")
    if args.grid < 2:
        raise DomainError(f"--grid must be at least 2, got {args.grid}")
    obs1, obs2 = _observer(eph, att1.tbar), _observer(eph, att2.tbar)
    optical.check_optical_pair(att1, att2, obs1, obs2)
    grids = emit_curve_samples(att1, att2, obs1, obs2, ((lo1, hi1), (lo2, hi2)), args.grid,
                               config, args.out_dir)
    for name, path in grids["paths"].items():
        print(f"{name}: {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was and gives each call a namespace of its own."""
    parser = argparse.ArgumentParser(
        prog="arclink",
        description="Link two short-arc attributables into preliminary orbits.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--units", choices=list(UNIT_SYSTEMS),
                        help=f"unit system (default {RunConfig.units.name})")
    common.add_argument("--mu", type=float,
                        help="gravitational parameter (default per unit system)")
    common.add_argument("--ephemeris", required=True,
                        help="observer ephemeris: CSV path, kepler:FILE.json, "
                             "circular:radius=R[,phase=P], or "
                             "spin:radius=R,rate=W[,phase=P][,z=Z]")
    chi4 = argparse.ArgumentParser(add_help=False)
    chi4.add_argument("--chi4-threshold", type=float, help="acceptance threshold on the "
                      f"identification penalty (default {RunConfig.chi4_threshold:g})")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("link-optical", parents=[common, chi4],
                       help="link two optical attributable files")
    p.add_argument("attributables1")
    p.add_argument("attributables2")
    p.add_argument("--out", required=True, help="solutions JSON path")
    p.set_defaults(func=cmd_link_optical)

    p = sub.add_parser("link-radar-optical", parents=[common, chi4],
                       help="link a radar attributable file with an optical one")
    p.add_argument("attributables1", help="radar attributables (first epoch)")
    p.add_argument("attributables2", help="optical attributables (second epoch)")
    p.add_argument("--out", required=True, help="solutions JSON path")
    p.set_defaults(func=cmd_link_radar_optical)

    p = sub.add_parser("synth", parents=[common],
                       help="synthesize an attributable pair from elements")
    p.add_argument("elements", help="elements JSON "
                   "(a, e, i_deg, Omega_deg, omega_deg, ell_deg, epoch_mjd)")
    p.add_argument("--epochs", required=True, help="mean epochs 'MJD1,MJD2'")
    p.add_argument("--seed", type=int, help="seed of the noise generator")
    p.add_argument("--kind", choices=["optical", "radar"], default="optical",
                   help="kind of the first attributable (second is optical)")
    p.add_argument("--sigma-angle", type=float, default=0.5,
                   help="angle noise, arcsec (default %(default)s)")
    p.add_argument("--sigma-rate", type=float, default=0.5,
                   help="rate noise, arcsec per time unit (default %(default)s)")
    p.add_argument("--sigma-rho", type=float,
                   help=f"range noise, length units (--kind radar only; default "
                        f"{NoiseSpec.sigma_rho})")
    p.add_argument("--sigma-rhodot", type=float,
                   help=f"range-rate noise (--kind radar only; default "
                        f"{NoiseSpec.sigma_rhodot})")
    p.add_argument("--apply-noise", action="store_true",
                   help="perturb the values (covariance is attached either way)")
    p.add_argument("--out", required=True, help="attributables JSONL path")
    p.add_argument("--truth", required=True, help="ground-truth JSON path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("curves", parents=[common],
                       help="sample the linkage zero-curves on a range grid")
    p.add_argument("attributables1")
    p.add_argument("attributables2")
    p.add_argument("--grid", type=int, default=81,
                   help="grid points per axis (default %(default)s)")
    p.add_argument("--bounds", default="0.01,4.0,0.01,4.0",
                   help="rho1/rho2 window 'lo1,hi1,lo2,hi2' (default %(default)s)")
    p.add_argument("--out-dir", required=True, help="directory for curve CSVs")
    p.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _REPORTED as exc:
        _, _, status, prefix = _error_class(exc)
        print(f"arclink: {prefix}{exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
