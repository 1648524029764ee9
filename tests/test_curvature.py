"""Curvature contractions, characteristic integrand, Calabi energy."""

import numpy as np
import pytest

from reebflow import (
    BasicPotential,
    ConfigurationError,
    calabi_bound,
    metric_state,
    round_tensor_contractions,
    verify_round_characteristic_integrand,
)
from reebflow.curvature import MAX_CURVATURE, MAX_DIMENSION, MAX_EPS
from reebflow.transverse import SCALAR_TARGET
from tests.conftest import calabi

# frozen after grid-doubling agreement to 13 digits (n = 128 / 256 / 384)
FROZEN_CALABI_BUMP = 2.1602202429598808e01


class TestRoundContractions:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("c", [4.0, 2.5])
    def test_closed_forms(self, m, c):
        model = round_tensor_contractions(m, c)
        assert model.scalar == pytest.approx(model.scalar_closed_form, abs=1e-12)
        assert model.riemann_norm_sq == pytest.approx(
            model.riemann_closed_form, abs=1e-12
        )
        assert model.ricci_norm_sq == pytest.approx(
            0.25 * c**2 * m * (m + 1) ** 2, abs=1e-12
        )
        # the constant-curvature tensor is its own trace part
        assert model.q_norm_sq == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_trace_chain_at_target(self, m):
        model = round_tensor_contractions(m, 4.0)
        chain = model.scalar**2 - model.ricci_norm_sq
        assert chain == pytest.approx(4 * m * (m - 1) * (m + 1) ** 2, abs=1e-12)

    def test_homogeneity(self):
        a = round_tensor_contractions(3, 2.0)
        b = round_tensor_contractions(3, 4.0)
        assert b.scalar == pytest.approx(2 * a.scalar, rel=1e-14)
        assert b.riemann_norm_sq == pytest.approx(4 * a.riemann_norm_sq, rel=1e-14)
        assert b.ricci_norm_sq == pytest.approx(4 * a.ricci_norm_sq, rel=1e-14)

    def test_sphere_values(self):
        model = round_tensor_contractions(2, 4.0)
        assert model.scalar == 12.0
        assert model.riemann_norm_sq == 48.0

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            round_tensor_contractions(0, 4.0)
        with pytest.raises(ConfigurationError):
            round_tensor_contractions(2, 0.0)
        with pytest.raises(ConfigurationError):
            round_tensor_contractions(2, -1.0)
        for c in (2.0 * MAX_CURVATURE, np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="curvature constant"):
                round_tensor_contractions(1, c)

    def test_finite_at_the_limits(self):
        # at the largest m and c every contraction and the integrand are
        # finite
        report = verify_round_characteristic_integrand(MAX_DIMENSION, MAX_CURVATURE)
        model = report.model
        values = [model.scalar, model.ricci_norm_sq, model.riemann_norm_sq, report.integrand]
        assert np.isfinite(values).all()


class TestCharacteristicIntegrand:
    @pytest.mark.parametrize("m", [2, 3])
    def test_vanishes_at_target(self, m):
        report = verify_round_characteristic_integrand(m, 4.0)
        assert abs(report.integrand) < 1e-12
        assert report.sign == 0

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_sign_tracks_curvature_excess(self, m):
        assert verify_round_characteristic_integrand(m, 5.0).sign == -1
        assert verify_round_characteristic_integrand(m, 3.0).sign == 1

    def test_degenerate_dimension(self):
        with pytest.raises(ConfigurationError):
            verify_round_characteristic_integrand(1, 4.0)


class TestQNormField:
    """|Q|^2 = K^2 - S^2 at m = 1, with the Gauss curvature K taken through
    the plain float64 conformal-factor formula and S from metric_state's
    longdouble chain: every m = 1 metric has pointwise constant
    holomorphic sectional curvature, so the two chains must agree."""

    @staticmethod
    def q_norm(state):
        gauss = (SCALAR_TARGET - 0.5 * state.grid.laplacian(np.log(state.ratio))) / state.ratio
        return gauss**2 - state.scalar_curvature**2

    def test_round_is_exactly_zero(self, ref128):
        assert np.abs(self.q_norm(ref128)).max() == 0.0

    def test_deformed_vanishes_between_pipelines(self, base128):
        # the two chains agree to spectral-roundoff level
        assert np.abs(self.q_norm(base128)).max() < 1e-8


class TestCalabi:
    def test_round_is_zero(self, grid128):
        assert calabi(metric_state(BasicPotential.zero(grid128))) == pytest.approx(
            0.0, abs=1e-20
        )

    def test_frozen_bump_value(self, grid128):
        phi = BasicPotential.from_callable(
            grid128, lambda x: 0.1 * (3 * x**2 - 1) / 2
        )
        assert calabi(metric_state(phi)) == pytest.approx(FROZEN_CALABI_BUMP, rel=1e-12)

    def test_bound_values(self):
        assert calabi_bound(0.05) == pytest.approx(0.81, abs=1e-15)
        assert calabi_bound(0.05, m=2) == pytest.approx(4.84, abs=1e-12)
        # an eps that is not positive and finite or is above MAX_EPS, and an
        # m outside [1, MAX_DIMENSION], are refused; at the limits the bound
        # is finite.  The floor of an eps that a pinch at n nodes can reach
        # is the pinch's own check (test_flow, test_io_cli)
        for eps, m in [(0.0, 1), (np.inf, 1), (np.nan, 1), (1e151, 1), (0.05, 0),
                       (0.05, MAX_DIMENSION + 1)]:
            with pytest.raises(ConfigurationError):
                calabi_bound(eps, m=m)
        assert np.isfinite(calabi_bound(MAX_EPS, m=MAX_DIMENSION))
        assert 0.0 < calabi_bound(1e-300) < 1e-298

    def test_bound_dominates_small_deviations(self, base128):
        # any |S - 4| <= eps structure has Calabi energy below the bound
        eps = float(np.abs(base128.scalar_curvature - 4.0).max()) + 1e-12
        assert calabi(base128) < calabi_bound(eps)
