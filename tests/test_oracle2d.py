"""Latitude-longitude finite-difference oracle for the 1-D reductions."""

import numpy as np
import pytest

from reebflow import BasicPotential, metric_state
from reebflow.oracle2d import (
    OracleFields,
    compare_profiles,
    laplacian_2d,
    lift,
    make_sphere_grid,
    oracle_fields,
    sample_profile,
)


@pytest.fixture(scope="module")
def sphere256():
    return make_sphere_grid(256, 8)


class TestGrid:
    def test_staggered_nodes(self, sphere256):
        th = np.asarray(sphere256.theta, float)
        assert th[0] == pytest.approx(float(sphere256.h) / 2)
        assert 0 < th[0] and th[-1] < np.pi
        x = np.asarray(sphere256.x, float)
        assert np.all(np.diff(x) > 0)
        assert -1 < x[0] and x[-1] < 1

    def test_default_shape(self):
        g = make_sphere_grid()
        assert g.n_theta == 512 and g.n_az == 8
        assert g.theta.dtype == np.longdouble


class TestLaplacian:
    def test_axisymmetric_eigenfunction(self, sphere256):
        f = lift(sphere256, lambda x: (3 * x**2 - 1) / 2)
        lap = laplacian_2d(sphere256, f)
        assert float(np.abs(lap + 24.0 * f).max()) < 1e-10

    def test_azimuthal_eigenfunction(self):
        # sin^2(theta) cos(2 az) is a degree-2 harmonic; its reflection
        # across the poles is even, so the ghost padding stays valid
        g = make_sphere_grid(256, 64)
        th = np.asarray(g.theta, float)[:, None]
        az = np.asarray(g.az, float)[None, :]
        y = np.sin(th) ** 2 * np.cos(2 * az)
        lap = np.asarray(laplacian_2d(g, y), float)
        assert np.abs(lap + 24.0 * y).max() < 1e-5

    def test_constant_annihilated(self, sphere256):
        f = lift(sphere256, lambda x: 0.0 * x + 3.0)
        assert float(np.abs(laplacian_2d(sphere256, f)).max()) < 1e-12


class TestOracleFields:
    def test_round_structure(self, sphere256):
        fields = oracle_fields(sphere256, lambda x: 0.0 * x)
        assert isinstance(fields, OracleFields)
        assert np.abs(fields.ratio - 1.0).max() == 0.0
        assert np.abs(fields.lap_phi).max() < 1e-15
        assert np.abs(fields.scalar_curvature - 4.0).max() < 1e-12

    def test_matches_moment_reduction(self, sphere256, grid128):
        def fx(x):
            return 0.05 * (x**3 - x) + 0.02

        phi = BasicPotential.from_callable(grid128, fx)
        state = metric_state(phi)
        fields = oracle_fields(sphere256, fx)
        dev = compare_profiles(
            fields,
            grid128.x,
            state.ratio,
            grid128.laplacian(phi.values),
            state.scalar_curvature,
            state.grad_norm_sq(phi.values),
        )
        assert dev["ratio"] < 1e-10
        assert dev["lap_phi"] < 1e-10
        assert dev["scalar_curvature"] < 1e-6
        assert dev["grad_norm_sq"] < 1e-10

    def test_inadmissible_rejected(self, sphere256):
        with pytest.raises(ValueError):
            oracle_fields(sphere256, lambda x: 3.0 * (1 - x**2))


class TestSampling:
    def test_roundtrip_to_moment_points(self, sphere256, grid128):
        profile = np.asarray(lift(sphere256, lambda x: x)[:, 0], float)
        sampled = sample_profile(sphere256, profile, grid128.x)
        assert np.abs(sampled - grid128.x).max() < 1e-12

    def test_sampling_is_exact_for_degree_seven(self, sphere256, grid128):
        # away from the pole reflection, the 8-node stencil reproduces any
        # polynomial of degree 7 in theta; degree 5 would leave ~h^6 errors
        theta = np.asarray(sphere256.theta, float)
        x = grid128.x[np.abs(grid128.x) < 0.9]
        theta_x = np.arccos(-x)
        sampled = sample_profile(sphere256, (theta - 1.5) ** 7, x)
        assert np.abs(sampled - (theta_x - 1.5) ** 7).max() < 1e-13
