"""Tests for the topocentric observation geometry."""

import math

import numpy as np
import pytest
import sympy as sp

from arclink.errors import DomainError, PolarSingularityError
from arclink.geometry import (
    body_position,
    body_velocity,
    observation_basis,
    topocentric_coords,
)

N_PROPERTY_SAMPLES = 10_000


def _sympy_basis():
    """Symbolic triad straight from the defining partial derivatives."""
    a, d = sp.symbols("a d", real=True)
    e_rho = sp.Matrix([sp.cos(d) * sp.cos(a), sp.cos(d) * sp.sin(a), sp.sin(d)])
    e_alpha = e_rho.diff(a) / sp.cos(d)
    e_delta = e_rho.diff(d)
    return a, d, e_rho, e_alpha, e_delta


class TestObservationBasis:
    @pytest.mark.parametrize(
        "alpha,delta",
        [(0.0, 0.0), (1.3, 0.7), (4.0, -1.2), (2 * math.pi - 0.01, 1.45)],
    )
    def test_matches_symbolic_definition(self, alpha, delta):
        a, d, e_rho, e_alpha, e_delta = _sympy_basis()
        subs = {a: alpha, d: delta}
        basis = observation_basis(alpha, delta)
        for got, sym in ((basis.e_rho, e_rho), (basis.e_alpha, e_alpha), (basis.e_delta, e_delta)):
            want = np.array([float(c.subs(subs)) for c in sym])
            assert np.allclose(got, want, atol=1e-14), f"alpha={alpha} delta={delta}"

    def test_orthonormal_right_handed_everywhere(self, rng):
        alphas = rng.uniform(0.0, 2 * math.pi, N_PROPERTY_SAMPLES)
        deltas = rng.uniform(-1.4, 1.4, N_PROPERTY_SAMPLES)
        worst = 0.0
        for alpha, delta in zip(alphas[:2000], deltas[:2000]):
            b = observation_basis(alpha, delta)
            M = np.stack([b.e_rho, b.e_alpha, b.e_delta])
            worst = max(worst, np.max(np.abs(M @ M.T - np.eye(3))))
            worst = max(worst, np.max(np.abs(np.cross(b.e_rho, b.e_alpha) - b.e_delta)))
        assert worst < 1e-12, f"orthonormality violated by {worst:.3e}"

    @pytest.mark.parametrize("delta", [math.pi / 2, -math.pi / 2, math.pi / 2 - 1e-10])
    def test_polar_singularity_raises(self, delta):
        with pytest.raises(PolarSingularityError):
            observation_basis(0.3, delta)


class TestComposition:
    def test_position_is_affine_in_rho(self, rng):
        basis = observation_basis(1.0, 0.2)
        q = rng.normal(size=3)
        r1 = body_position(q, 1.0, basis)
        r2 = body_position(q, 2.5, basis)
        assert np.allclose(r2 - r1, 1.5 * basis.e_rho, atol=1e-15)

    def test_velocity_superposition(self, rng):
        # The velocity composition is linear in (rhodot, alphadot, deltadot).
        basis = observation_basis(0.4, -0.9)
        qdot = rng.normal(size=3)
        rho = 1.7
        base = body_velocity(qdot, rho, 0.0, 0.0, 0.0, basis)
        v_all = body_velocity(qdot, rho, 0.3, -0.2, 0.5, basis)
        v_sum = (
            body_velocity(qdot, rho, 0.3, 0.0, 0.0, basis)
            + body_velocity(qdot, rho, 0.0, -0.2, 0.0, basis)
            + body_velocity(qdot, rho, 0.0, 0.0, 0.5, basis)
            - 2.0 * base
        )
        assert np.allclose(v_all, v_sum, atol=1e-14)

    def test_nonpositive_rho_rejected(self):
        basis = observation_basis(0.0, 0.0)
        with pytest.raises(DomainError):
            body_position(np.zeros(3), 0.0, basis)
        with pytest.raises(DomainError):
            body_velocity(np.zeros(3), -1.0, 0.0, 0.0, 0.0, basis)

    def test_topocentric_roundtrip(self, rng):
        for _ in range(300):
            alpha = rng.uniform(0, 2 * math.pi)
            delta = rng.uniform(-1.4, 1.4)
            rho = rng.uniform(0.05, 4.0)
            rhodot, alphadot, deltadot = rng.normal(scale=0.02, size=3)
            q = rng.normal(scale=1.0, size=3)
            qdot = rng.normal(scale=0.01, size=3)
            basis = observation_basis(alpha, delta)
            r = body_position(q, rho, basis)
            v = body_velocity(qdot, rho, rhodot, alphadot, deltadot, basis)
            got = topocentric_coords(r, v, q, qdot)
            want = (alpha, delta, alphadot, deltadot, rho, rhodot)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12), (
                f"roundtrip failed: {got} vs {want}"
            )
