"""A linkage solution is a read-only view of one row of the block its
linker assembled.  The one-solution and one-pair calls fill only the rows
of the views they are given, views of two blocks are refused, and every
field has the plain Python type a caller prints or compares: a numpy
scalar would print as ``np.float64(...)``."""

import numpy as np
import pytest

from arclink.attributables import (
    NoiseSpec,
    circular_observer,
    synthesize_optical_attributable,
    synthesize_radar_attributable,
    synthetic_truth_state,
)
from arclink.config import AU_DAY
from arclink.covariance import AttributablePair, attach_covariances, implicit_solution_rows
from arclink.errors import DomainError
from arclink.kepler import CartesianState, KeplerianElements
from arclink.optical import link_optical
from arclink.radar import link_radar_optical
from arclink.selection import select_solutions
from arclink.solutions import FIELDS, LinkageSolution

MU = AU_DAY.mu_default
C_AU = AU_DAY.c_light
TRUTH = KeplerianElements(a=0.92, e=0.19, i=0.06, Omega=1.2, omega=0.7, ell=0.4,
                          epoch=53100.0)
T1 = 53105.0

# The type of each field, as the solution dataclass held it: a tuple where
# the field can be None.
TYPES = {
    "rho1": float, "rho2": float, "rhodot1": float, "rhodot2": float,
    "state1": CartesianState, "state2": CartesianState,
    "elements1": (KeplerianElements, type(None)), "elements2": (KeplerianElements, type(None)),
    "elliptic": bool, "lenz_residual": float, "compat_lenz": float,
    "compat_anomaly": (float, type(None)), "energy_offset": float, "method": str,
    "flags": list, "covariance1": (np.ndarray, type(None)),
    "covariance2": (np.ndarray, type(None)), "chi4": (float, type(None)),
    "selected": (bool, type(None)), "unselectable": bool,
}


def solved(kind, t2):
    """The pair's solutions, the genuine one, and (pair, obs1, obs2, att2)."""
    eph = circular_observer(1.0, MU, phase=0.3)
    obs1 = CartesianState(*eph.state(T1), T1)
    obs2 = CartesianState(*eph.state(t2), t2)
    att2 = synthesize_optical_attributable(TRUTH, eph, t2, MU, C_AU, noise=NoiseSpec())
    if kind == "radar":
        att1 = synthesize_radar_attributable(TRUTH, eph, T1, MU, C_AU, noise=NoiseSpec(
            sigma_rho=1e-8, sigma_rhodot=1e-9))
        sols = link_radar_optical(att1, att2, obs1, obs2)
    else:
        att1 = synthesize_optical_attributable(TRUTH, eph, T1, MU, C_AU, noise=NoiseSpec())
        sols = link_optical(att1, att2, obs1, obs2)
    truth1 = synthetic_truth_state(TRUTH, att1, MU, C_AU, eph)
    genuine = min(sols, key=lambda s: np.linalg.norm(s.state1.r - truth1.r))
    return sols, genuine, (AttributablePair(att1, att2), obs1, obs2, att2)


def test_attach_fills_only_its_own_row():
    sols, genuine, (pair, obs1, obs2, _) = solved("optical", 53201.0)
    assert len(sols) == 3 and len({id(s.rows) for s in sols}) == 1
    attach_covariances(pair, genuine, obs1, obs2)
    assert genuine.covariance1.shape == genuine.covariance2.shape == (6, 6)
    for sol in sols:
        if sol is not genuine:
            assert sol.covariance1 is None and sol.covariance2 is None


def test_select_scores_only_the_given_solutions():
    sols, genuine, (pair, obs1, obs2, att2) = solved("optical", 53201.0)
    for sol in sols:
        attach_covariances(pair, sol, obs1, obs2)
    assert select_solutions([genuine], att2, obs2) == [genuine]
    assert genuine.chi4 < 1.0 and genuine.selected is True
    others = [sol for sol in sols if sol is not genuine]
    assert len(others) == 2
    for sol in others:
        assert sol.chi4 is None and sol.selected is None and sol.unselectable is False


def test_views_of_two_blocks_are_refused():
    first, _, (pair, obs1, obs2, att2) = solved("optical", 53201.0)
    second, _, _ = solved("optical", 53201.0)
    for sol in first + second:
        attach_covariances(pair, sol, obs1, obs2)
    mixed = [first[0], second[0]]
    with pytest.raises(DomainError, match="one block"):
        select_solutions(mixed, att2, obs2)
    with pytest.raises(DomainError, match="one block"):
        implicit_solution_rows([pair, pair], mixed, [obs1] * 2, [obs2] * 2, MU)
    assert all(sol.chi4 is None for sol in mixed)


def assert_plain_types(sol: LinkageSolution):
    for name in FIELDS:
        allowed = TYPES[name] if isinstance(TYPES[name], tuple) else (TYPES[name],)
        assert type(getattr(sol, name)) in allowed, (name, type(getattr(sol, name)))
    for state in (sol.state1, sol.state2):
        assert type(state.epoch) is float
        assert state.r.dtype == state.v.dtype == float and state.r.shape == (3,)
    for el in (sol.elements1, sol.elements2):
        if el is not None:
            assert all(type(getattr(el, key)) is float
                       for key in ("a", "e", "i", "Omega", "omega", "ell", "epoch"))
    assert all(type(flag) is str for flag in sol.flags)
    assert "np." not in repr(sol)


@pytest.mark.parametrize("kind, t2", [("optical", 53201.0), ("radar", 53287.0)])
def test_fields_have_plain_python_types(kind, t2):
    """Before and after the covariance and selection stages, so that both
    the None and the filled form of each optional field are seen."""
    sols, _, (pair, obs1, obs2, att2) = solved(kind, t2)
    for sol in sols:
        assert_plain_types(sol)
        assert sol.covariance1 is sol.chi4 is sol.selected is None
    for sol in sols:
        attach_covariances(pair, sol, obs1, obs2)
    select_solutions(sols, att2, obs2)
    assert {sol.elements1 is None for sol in sols} == ({True, False} if kind == "radar"
                                                       else {False})
    for sol in sols:
        assert_plain_types(sol)
        assert sol.covariance1.shape == (6, 6) and sol.selected is not None
