"""Covariance propagation and chi4 selection run on stacks of solutions;
each row's arithmetic and outcome must not depend on the stack.  A stack
of 13 solutions (not a multiple of a SIMD width) holds a true link, a
non-link, a non-elliptic solution, a singular predicted covariance, an
ill-conditioned dPhi/dY and an overflowing push; every output of the
stacked calls equals the one-row calls bit for bit."""

import numpy as np
import pytest

import arclink.covariance as covariance
from arclink.attributables import (
    AttributableColumns,
    NoiseSpec,
    circular_observer,
    synthesize_optical_attributable,
    synthesize_radar_attributable,
    synthetic_truth_state,
)
from arclink.config import AU_DAY
from arclink.covariance import (
    AttributablePair,
    attach_covariance_rows,
    attach_covariances,
    implicit_solution_jacobian,
    implicit_solution_rows,
    pair_rows,
)
from arclink.errors import NumericalError, linalg_rows
from arclink.kepler import CartesianState, KeplerianElements
from arclink.optical import link_optical
from arclink.radar import link_radar_optical
from arclink.selection import select_solution_rows, select_solutions
from conftest import gather

MU = AU_DAY.mu_default
C_AU = AU_DAY.c_light
T1, T2 = 53105.0, 53180.0
TRUTHS = [
    KeplerianElements(a=0.92, e=0.19, i=0.06, Omega=1.2, omega=0.7, ell=0.4, epoch=53100.0),
    KeplerianElements(a=1.6, e=0.12, i=0.3, Omega=4.0, omega=2.1, ell=2.2, epoch=53100.0),
    KeplerianElements(a=2.4, e=0.25, i=0.15, Omega=0.3, omega=5.0, ell=4.4, epoch=53100.0),
    KeplerianElements(a=1.2, e=0.3, i=0.4, Omega=2.5, omega=1.0, ell=5.6, epoch=53100.0),
    KeplerianElements(a=3.0, e=0.08, i=0.2, Omega=5.5, omega=3.3, ell=1.1, epoch=53100.0),
] + [KeplerianElements(a=rng.uniform(0.9, 2.5), e=rng.uniform(0.05, 0.3),
                       i=rng.uniform(0.02, 0.5), Omega=rng.uniform(0, 2 * np.pi),
                       omega=rng.uniform(0, 2 * np.pi), ell=rng.uniform(0, 2 * np.pi),
                       epoch=53100.0)
     for rng in [np.random.default_rng(5)] for _ in range(3)]
TRUE_LINK, NON_LINK, NON_ELLIPTIC, SINGULAR, OVERFLOW = 0, 1, 2, 5, 11
ROWS = 13


def observed(kind, truth, eph):
    synth = synthesize_radar_attributable if kind == "radar" else synthesize_optical_attributable
    noise = NoiseSpec(sigma_rho=1e-8, sigma_rhodot=1e-9) if kind == "radar" else NoiseSpec()
    return synth(truth, eph, T1, MU, C_AU, noise=noise), synthesize_optical_attributable(
        truth, eph, T2, MU, C_AU, noise=NoiseSpec())


def solved_rows(kind="optical"):
    """13 rows (pair, solution, obs1, obs2, att2): the true link, then
    elliptic solutions of crossed pairs (non-links), with rows made
    non-elliptic, singular and overflowing as named above."""
    eph = circular_observer(1.0, MU, phase=0.3)
    obs1 = CartesianState(*eph.state(T1), T1)
    obs2 = CartesianState(*eph.state(T2), T2)
    link = link_radar_optical if kind == "radar" else link_optical
    atts = [observed(kind, truth, eph) for truth in TRUTHS]
    rows = []
    n = len(TRUTHS)
    for i, j in [(0, 0)] + [(i, j) for i in range(n) for j in range(n) if i != j]:
        a1, a2 = atts[i][0], atts[j][1]
        sols = link(a1, a2, obs1, obs2)
        if i == j == 0:  # the true link first
            truth1 = synthetic_truth_state(TRUTHS[0], a1, MU, C_AU, eph)
            sols.sort(key=lambda s: np.linalg.norm(s.state1.r - truth1.r))
        rows += [(AttributablePair(a1, a2), s, obs1, obs2, a2) for s in sols]
    rows = [rows[0]] + [r for r in rows[1:] if r[1].elliptic][:ROWS - 1]
    assert len(rows) == ROWS
    pair, sol, *rest = rows[NON_ELLIPTIC]
    rows[NON_ELLIPTIC] = (pair, gather([sol], elliptic=False)[0], *rest)
    pair, *rest = rows[SINGULAR]
    rows[SINGULAR] = (AttributablePair(pair.att1, pair.att2, np.zeros((8, 8))), *rest)
    pair, *rest = rows[OVERFLOW]
    rows[OVERFLOW] = (AttributablePair(pair.att1, pair.att2, 1e306 * np.eye(8)), *rest)
    return rows


def fresh(rows):
    """The rows with copies of their solutions, each in a block of its
    own, nothing attached yet."""
    return [(p, gather([s])[0], o1, o2, a2) for p, s, o1, o2, a2 in rows]


def columns(rows):
    return [list(x) for x in zip(*rows)]


def same_error(got, alone):
    assert type(got) is type(alone) and str(got) == str(alone)


@pytest.fixture(scope="module", params=["optical", "radar"])
def rows(request):
    return solved_rows(request.param)


@pytest.fixture
def ill_limit(rows, monkeypatch):
    """CONDITION_LIMIT at the median condition number of the rows, so that
    the rows at or above it are flagged as ill-conditioned and the others
    not."""
    pairs, sols, obs1s, obs2s, _ = columns(rows)
    imp, _ = implicit_solution_rows(pairs, gather(sols), obs1s, obs2s, MU)
    limit = np.median(imp.condition)
    monkeypatch.setattr(covariance, "CONDITION_LIMIT", limit)
    return limit


def test_implicit_derivatives_match_one_row_calls(rows, ill_limit):
    pairs, sols, obs1s, obs2s, _ = columns(rows)
    imp, errors = implicit_solution_rows(pairs, gather(sols), obs1s, obs2s, MU)
    assert errors == [None] * ROWS
    for k, (pair, sol, obs1, obs2, _) in enumerate(rows):
        alone = implicit_solution_jacobian(pair, sol, obs1, obs2, MU)
        for name in ("dy_da", "dx_da", "phi", "condition"):
            np.testing.assert_array_equal(getattr(imp, name)[k], getattr(alone, name),
                                          err_msg=f"row {k} {name}")
        assert alone.flags == (("ill-conditioned-solution",)
                               if imp.condition[k] >= ill_limit else ())


def test_covariances_match_one_row_calls(rows, ill_limit):
    single = fresh(rows)
    pairs, sols, obs1s, obs2s, _ = columns(fresh(rows))
    stack = gather(sols)[0].rows
    errors = attach_covariance_rows(stack, pair_rows(pairs, obs1s, obs2s))
    assert [k for k, e in enumerate(errors) if e is not None] == [OVERFLOW]
    assert isinstance(errors[OVERFLOW], NumericalError)
    assert 0 < stack.ill_conditioned.sum() < ROWS - 1
    for k, ((pair, sol, obs1, obs2, _), (got,)) in enumerate(zip(single, stack.per_pair())):
        try:
            attach_covariances(pair, sol, obs1, obs2)
        except NumericalError as exc:
            same_error(errors[k], exc)
            assert got.covariance1 is None and got.covariance2 is None
            continue
        np.testing.assert_array_equal(got.covariance1, sol.covariance1, err_msg=f"row {k}")
        np.testing.assert_array_equal(got.covariance2, sol.covariance2, err_msg=f"row {k}")
        assert got.flags == sol.flags


def attached(rows):
    """Fresh copies of the rows, with covariances attached one row at a
    time where they can be."""
    out = fresh(rows)
    for pair, sol, obs1, obs2, _ in out:
        try:
            attach_covariances(pair, sol, obs1, obs2)
        except NumericalError:
            pass
    return out


def test_selection_matches_one_row_calls(rows, ill_limit):
    stacked, single = attached(rows), attached(rows)
    _, sols, _, obs2s, att2s = columns(stacked)
    stack = gather(sols)[0].rows
    second = AttributableColumns.at(att2s, np.array([o.r for o in obs2s]),
                                    np.array([o.v for o in obs2s]))
    outcomes = select_solution_rows(stack, second, np.arange(ROWS))
    sols = [got for (got,) in stack.per_pair()]
    for k, ((_, sol, _, obs2, att2), out, got) in enumerate(zip(single, outcomes, sols)):
        try:
            accepted = select_solutions([sol], att2, obs2)
        except Exception as exc:
            same_error(out, exc)
            continue
        assert out is None and got.selected is bool(accepted)
        assert (got.chi4, got.selected, got.unselectable, got.flags) == (
            sol.chi4, sol.selected, sol.unselectable, sol.flags), f"row {k}"
    assert sols[TRUE_LINK].selected is True
    assert sols[NON_LINK].selected is False and sols[NON_LINK].chi4 > 100.0
    assert sols[NON_ELLIPTIC].unselectable and sols[NON_ELLIPTIC].chi4 is None
    assert "selection-unavailable" not in sols[NON_ELLIPTIC].flags
    assert sols[SINGULAR].unselectable
    assert "selection-unavailable" in sols[SINGULAR].flags
    assert isinstance(outcomes[OVERFLOW], Exception)  # no covariance attached
    assert sum(s.unselectable for s in sols) == 2


def test_one_group_equals_its_rows_in_a_larger_stack(rows):
    """select_solutions on one pair's solutions equals the same solutions
    scored among all the others."""
    stacked, single = attached(rows), attached(rows)
    keep = [k for k in range(ROWS) if k != OVERFLOW]
    stack = gather([stacked[k][1] for k in keep], pair=np.zeros(len(keep), dtype=int))[0].rows
    second = AttributableColumns.at([stacked[0][4]], stacked[0][3].r[None],
                                    stacked[0][3].v[None])
    assert select_solution_rows(stack, second, np.zeros(1, dtype=int)) == [None]
    (group,) = stack.per_pair()
    for k, got in zip(keep, group):
        _, sol, _, obs2, _ = single[k]
        select_solutions([sol], stacked[0][4], obs2)
        assert (got.chi4, got.selected, got.unselectable, got.flags) == (
            sol.chi4, sol.selected, sol.unselectable, sol.flags), f"row {k}"


def _one_row(fn, m):
    """``fn`` on one matrix: its result, or the message of its LinAlgError."""
    try:
        return fn(m)
    except np.linalg.LinAlgError as exc:
        return str(exc)


@pytest.mark.parametrize("fn, bad", [
    (np.linalg.inv, np.outer([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 2.0, 0.5])),  # rank one
    (np.linalg.eigvals, np.full((4, 4), np.nan)),
], ids=["inv-singular", "eigvals-nan"])
def test_linalg_rows_fallback_fails_only_the_bad_row(fn, bad):
    """One bad matrix makes the stacked LAPACK call raise: each row is then
    called alone, the bad row gets NaN and the message of its own call,
    and every other row equals its one-row call bit for bit, complex
    eigenvalues staying complex."""
    m = np.random.default_rng(7).standard_normal((5, 4, 4))
    m[1] = np.diag([1.0, 2.0, 3.0, 4.0])  # real eigenvalues beside complex ones
    m[3] = bad
    with pytest.raises(np.linalg.LinAlgError):
        fn(m)
    out, failed = linalg_rows(fn, (4, 4) if fn is np.linalg.inv else (4,), m,
                              np.ones(len(m), dtype=bool))
    assert failed == {3: _one_row(fn, bad)}
    assert np.isnan(out[3]).all()
    for k in (0, 1, 2, 4):
        assert np.array_equal(out[k], fn(m[k])), f"row {k}"
    if fn is np.linalg.eigvals:
        assert out.dtype == complex and np.abs(out[[0, 2, 4]].imag).max() > 0.0
