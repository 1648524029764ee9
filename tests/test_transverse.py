"""Grid operators, metric states, admissibility, spectrum."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import legendre

from reebflow import (
    BasicPotential,
    ConfigurationError,
    FlowPolicy,
    GridMismatchError,
    InadmissibleError,
    InvariantViolation,
    admissibility,
    make_grid,
    metric_state,
    reference_state,
    relative_state,
    run_flow,
    spectrum,
)
from reebflow import transverse
from reebflow.transverse import SCALAR_TARGET, log_mean_exp


PARITY_SIZES = [8, 9, 63, 64, 128, 256]


def legendre_values(k, x):
    c = np.zeros(k + 1)
    c[k] = 1.0
    return legendre.legval(x, c)


def longdouble_deriv(grid, f):
    """d/dx through the longdouble transform halves: the route of the
    float64 Grid.deriv, handed the extended-precision tables."""
    tables = grid._ld
    c_even, c_odd = grid._forward(np.asarray(f, dtype=np.longdouble), tables)
    return grid._synthesis(*transverse._legder(c_even, c_odd), tables)


def longdouble_scalar_curvature(grid, ratio_ld):
    """S r = 4 - Lap(log r)/2 with r, log r and the Laplacian all in
    extended precision."""
    return (SCALAR_TARGET - grid._laplacian_ld(np.log(ratio_ld)) / 2) / ratio_ld


class TestGrid:
    def test_make_grid_validates(self):
        with pytest.raises(ConfigurationError):
            make_grid(4)
        with pytest.raises(ConfigurationError):
            make_grid(96.5)

    def test_longdouble_precision_is_checked(self, monkeypatch):
        # the check reads the epsilon of np.longdouble; an 80-bit type
        # (2^-63) passes, float64 (2^-52) is refused
        assert transverse._LONGDOUBLE_EPS <= transverse._LONGDOUBLE_EPS_MAX
        monkeypatch.setattr(transverse, "_LONGDOUBLE_EPS", 2.0**-52)
        with pytest.raises(InvariantViolation, match="epsilon 2.220e-16"):
            make_grid.__wrapped__(16)

    def test_nodes_inside_interval(self, grid96):
        assert grid96.x.min() > -1.0
        assert grid96.x.max() < 1.0
        assert np.all(np.diff(grid96.x) > 0)

    def test_weights_normalized(self, grid96):
        # reference measure dx/2 has total mass one
        np.testing.assert_allclose(grid96.w.sum(), 1.0, rtol=0, atol=1e-15)

    def test_coeff_roundtrip(self, grid96, rng):
        # Gauss quadrature with the grid's weights inverts from_coeffs:
        # c_k = (2k+1) int f P_k dx/2 is exact for degree < n
        c = rng.standard_normal(grid96.n)
        f = grid96.from_coeffs(c)
        k = np.arange(grid96.n)
        back = (2 * k + 1) * (grid96.vander.T @ (grid96.w * f))
        np.testing.assert_allclose(back, c, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [8, 9, 64, 128, 256])
    def test_legder_matches_numpy(self, n):
        # the coefficients of P_j' for each j, split by parity and joined
        for j in range(n):
            c = np.zeros(n, dtype=np.longdouble)
            c[j] = 1.0
            d_even, d_odd = transverse._legder(c[0::2], c[1::2])
            d = np.empty(n, dtype=np.longdouble)
            d[0::2], d[1::2] = d_even, d_odd
            expected = np.zeros(n)
            dc = legendre.legder(np.eye(j + 1)[j])
            expected[: len(dc)] = dc
            assert np.array_equal(d, expected.astype(np.longdouble))

    @pytest.mark.parametrize("n", PARITY_SIZES)
    def test_grid_is_parity_symmetric(self, n):
        # the parity split of the transforms relies on all three, exactly
        grid = make_grid(n)
        assert np.array_equal(grid.x[::-1], -grid.x)
        assert np.array_equal(grid.w[::-1], grid.w)
        assert np.array_equal(grid._ld.w[::-1], grid._ld.w)
        x, _ = transverse._nodes_weights_ld(n)
        v = transverse._vander_ld(n, x)
        assert np.array_equal(v[::-1], v * (-1.0) ** np.arange(n))
        # so the float64 table mirrored from half the nodes is the direct one
        assert np.array_equal(grid.vander, v.astype(np.float64))

    @pytest.mark.parametrize("n", PARITY_SIZES)
    def test_transforms_match_full_products(self, n):
        grid = make_grid(n)
        x, w = transverse._nodes_weights_ld(n)
        v = transverse._vander_ld(n, x)
        k = np.arange(n)
        fwd = (2 * k + 1)[:, None] * (v.T * (w / 2)[None, :])
        gap = k[None, :] - k[:, None]
        dcoef = np.where((gap > 0) & (gap % 2 == 1), 2 * k[:, None] + 1, 0).astype(np.longdouble)
        lam = (-4 * k * (k + 1)).astype(np.longdouble)
        rng = np.random.default_rng(n)
        for _ in range(3):
            f = grid.from_coeffs(rng.standard_normal(n)).astype(np.longdouble)
            lap = v @ (lam * (fwd @ (f - (w / 2) @ f)))
            df = v @ (dcoef @ (fwd @ f))
            assert np.abs(grid._laplacian_ld(f) - lap).max() <= 1e-17 * np.abs(lap).max()
            # the longdouble tables give the derivative to 1e-17 too (the
            # reference of TestFloat64Transforms); the float64 route of
            # Grid.deriv to float64 rounding, at most 1.2e-15 of the sup
            # measured (n = 128)
            assert np.abs(longdouble_deriv(grid, f) - df).max() <= 1e-17 * np.abs(df).max()
            assert np.abs(grid.deriv(f) - df).max() <= 1e-14 * np.abs(df).max()

    @pytest.mark.parametrize("rows", [1, 3, 33])
    @pytest.mark.parametrize("n", PARITY_SIZES)
    def test_stacked_transforms_match_each_row(self, n, rows):
        # a stack of fields, grid on the last axis, gives each row the bits
        # of its own 1-D longdouble Laplacian; in float64 a stack is one
        # BLAS matrix product and a row one matrix-vector product, which
        # differ in the last bits (at most 1.4e-15 of the sup measured)
        grid = make_grid(n)
        rng = np.random.default_rng(n * 100 + rows)
        stack = 3.0 * rng.standard_normal((rows, n)) + 5.0
        out = grid._laplacian_ld(stack)
        assert out.shape == (rows, n) and out.dtype == np.longdouble
        assert np.array_equal(out, np.array([grid._laplacian_ld(f) for f in stack]))
        for op in (grid._laplacian_64, grid.deriv):
            out = op(stack)
            assert out.shape == (rows, n) and out.dtype == np.float64
            each = np.array([op(f) for f in stack])
            assert np.abs(out - each).max() <= 1e-14 * np.abs(each).max()

    @pytest.mark.parametrize("shape", [(3, 95), (96, 3), (2, 3, 97), ()])
    def test_stacked_transforms_refuse_another_last_axis(self, grid96, shape):
        for op in (grid96._laplacian_ld, grid96._laplacian_64, grid96.deriv):
            with pytest.raises(GridMismatchError):
                op(np.zeros(shape))

    @pytest.mark.parametrize("n", PARITY_SIZES)
    def test_no_full_longdouble_table(self, n):
        # the transform halves, in longdouble and their float64 roundings
        grid = make_grid(n)
        for tables, dtype in ((grid._ld, np.longdouble), (grid._f64, np.float64)):
            assert all(t.dtype == dtype and t.shape != (n, n) for t in tables)
            # a Laplacian makes one multiply-add per entry of the 2-D
            # tables: 2 n ceil(n/2), which is n^2 for even n
            assert sum(t.size for t in tables if t.ndim == 2) == 2 * n * ((n + 1) // 2)
        for t64, t in zip(grid._f64, grid._ld):
            assert np.array_equal(t64, t.astype(np.float64))
        # the float64 synthesis halves are those of vander, and w the grid's
        h = (n + 1) // 2
        assert np.array_equal(grid._f64.syn_even, grid.vander[:h, 0::2])
        assert np.array_equal(grid._f64.syn_odd, grid.vander[:h, 1::2])
        assert np.array_equal(grid._f64.w, grid.w)

    @pytest.mark.parametrize("shape", [(95,), (97,), (96, 2)])
    def test_deriv_refuses_a_field_of_another_shape(self, grid96, shape):
        with pytest.raises(GridMismatchError):
            grid96.deriv(np.zeros(shape))

    def test_integrate_moments(self, grid128):
        # int x^k dx/2 = 1/(k+1) for even k, 0 for odd k
        for k in range(9):
            expected = 1.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(grid128.integrate(grid128.x**k) - expected) < 1e-15

    def test_deriv_polynomial_exact(self, grid96):
        f = grid96.x**5 - 2.0 * grid96.x**2
        expected = 5.0 * grid96.x**4 - 4.0 * grid96.x
        np.testing.assert_allclose(grid96.deriv(f), expected, rtol=0, atol=1e-11)

    def test_from_coeffs_matches_legval(self, grid96):
        # a short coefficient vector is padded with zeros
        rng = np.random.default_rng(5)
        for degree in (0, 5, 12, grid96.n - 1):
            c = rng.standard_normal(degree + 1) * 0.6 ** np.arange(degree + 1)
            np.testing.assert_allclose(
                grid96.from_coeffs(c), legendre.legval(grid96.x, c), rtol=0, atol=1e-13
            )

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 10])
    def test_laplacian_eigenfunctions(self, grid128, k):
        # Lap P_k = -4 k (k+1) P_k for the reference operator
        pk = legendre_values(k, grid128.x)
        lap = grid128.laplacian(pk)
        np.testing.assert_allclose(
            lap, -4.0 * k * (k + 1) * pk, rtol=0, atol=1e-9 * max(1, k**2)
        )

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_laplacian_integrates_to_zero(self, seed):
        grid = make_grid(64)
        coeffs = np.random.default_rng(seed).standard_normal(12) * 0.1
        f = legendre.legval(grid.x, coeffs)
        assert abs(grid.integrate(grid.laplacian(f))) < 1e-10


class TestFloat64Transforms:
    """The transforms that end a chain run in float64: the Laplacian of
    log r in the scalar curvature, read off the float64 ratio, and every
    derivative.  Against a longdouble reference on flow records, both err
    by float64 rounding amplified like n^2: at most 1.0e-11 of the sup for
    the derivative of h_s (0.3(1 - x^2), n = 256) and 4.4e-12 for S (0.1x,
    n = 256), under 1.6e-16 n^2 at each n measured.  The bound is
    1e-15 n^2."""

    @pytest.mark.parametrize("n", [33, 64, 128, 256])
    @pytest.mark.parametrize("psi", [
        lambda x: 0.3 * (1.0 - x * x),
        lambda x: 0.1 * x,
        lambda x: 0.05 * (x**3 - x) + 0.02,
    ], ids=["bump", "odd", "cubic"])
    def test_against_a_longdouble_reference(self, n, psi):
        grid = make_grid(n)
        base = metric_state(BasicPotential.from_callable(grid, psi))
        traj = run_flow(base, s_end=1.0, policy=FlowPolicy(record_stride=20))
        assert traj.completed and len(traj.records) == 11
        bound = 1e-15 * n**2
        for rec in traj.records:
            state = relative_state(base, rec.v)
            dh = longdouble_deriv(grid, rec.h)
            assert np.abs(grid.deriv(rec.h) - dh).max() <= bound * np.abs(dh).max()
            scalar = longdouble_scalar_curvature(grid, state.potential._kept_ratio_ld)
            err = np.abs(state.scalar_curvature - scalar).max()
            assert err <= bound * np.abs(scalar).max()


class TestPotentials:
    def test_mean_osc_sup(self, grid96):
        phi = BasicPotential.from_callable(grid96, lambda x: x)
        assert abs(grid96.integrate(phi.values)) < 1e-15
        np.testing.assert_allclose(phi.osc(), phi.values.max() - phi.values.min())
        np.testing.assert_allclose(phi.sup(), np.abs(phi.values).max())

    def test_shifted(self, grid96):
        phi = BasicPotential.from_callable(grid96, lambda x: x**2)
        np.testing.assert_allclose(phi.shifted(2.5).values, phi.values + 2.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, grid96, bad):
        values = np.zeros(grid96.n)
        values[3] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            BasicPotential(values=values, grid=grid96)
        with pytest.raises(ConfigurationError, match="non-finite"):
            BasicPotential.from_callable(grid96, lambda x: bad * x)

    def test_grid_mismatch_raises(self, grid96, grid128):
        phi = BasicPotential.zero(grid96)
        with pytest.raises(GridMismatchError):
            BasicPotential(values=np.zeros(grid128.n), grid=grid96)
        del phi

    def test_admissibility_margin(self, grid96):
        ok, margin = admissibility(BasicPotential.zero(grid96))
        assert ok and abs(margin - 1.0) < 1e-14
        # 3 (1 - x^2) bends the structure past positivity
        bad = BasicPotential.from_callable(grid96, lambda x: 3.0 * (1.0 - x * x))
        ok_bad, margin_bad = admissibility(bad)
        assert not ok_bad and margin_bad < 0


class TestMetricState:
    def test_round_state(self, grid128):
        state = reference_state(grid128)
        np.testing.assert_allclose(state.ratio, 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            state.scalar_curvature, SCALAR_TARGET, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(state.ricci_potential, 0.0, rtol=0, atol=1e-13)
        assert abs((grid128.w * state.ratio) @ np.ones(grid128.n) - 1.0) < 1e-14

    def test_inadmissible_raises(self, grid96):
        with pytest.raises(InadmissibleError):
            metric_state(
                BasicPotential.from_callable(grid96, lambda x: 3.0 * (1.0 - x * x))
            )

    def test_nan_potential_raises(self, grid96):
        # a NaN potential is refused where it is made; a NaN ratio (margin)
        # fails every comparison, so it must not pass as positive either
        values = np.zeros(grid96.n)
        values[grid96.n // 2] = np.nan
        with pytest.raises(ConfigurationError):
            metric_state(BasicPotential(values=values, grid=grid96))
        ratio = np.ones(grid96.n, dtype=np.longdouble)
        ratio[grid96.n // 2] = np.nan
        with pytest.raises(InadmissibleError) as exc:
            transverse._admissible(ratio)
        assert np.isnan(exc.value.margin)

    def test_ricci_potential_from_the_ratio_alone(self, psi128, counts):
        # the ratio-only helper gives metric_state's h and c bit for bit
        state = metric_state(psi128)
        counts.clear()
        h, c = transverse._ricci_potential(psi128.grid, state.ratio, psi128.values)
        assert counts == {}
        np.testing.assert_array_equal(h, state.ricci_potential)
        assert c == state.norm_constant

    def test_fields_are_computed_on_first_read(self, psi128, counts):
        # construction forms and checks the ratio (one longdouble
        # Laplacian, which the potential keeps); h and c are read off it,
        # and S applies one float64 Laplacian, of log r, once.  A fresh
        # potential: psi128 may keep its own.
        grid = psi128.grid
        counts.clear()
        state = metric_state(BasicPotential(values=psi128.values, grid=grid))
        assert counts["laplacian"] == 1
        h, c = state.ricci_potential, state.norm_constant
        assert counts == {"laplacian": 1}
        scalar = state.scalar_curvature
        assert counts == {"laplacian": 1, "laplacian64": 1}
        assert state.scalar_curvature is scalar
        assert counts == {"laplacian": 1, "laplacian64": 1}
        # the same bits as the formulas applied directly
        expected_h, expected_c = transverse._ricci_potential(grid, state.ratio, psi128.values)
        np.testing.assert_array_equal(h, expected_h)
        assert c == expected_c
        # a fresh potential applies its own Laplacian, not the one psi128 keeps
        ratio = (1.0 + grid._laplacian_ld(psi128.values) / 4.0).astype(np.float64)
        np.testing.assert_array_equal(state.ratio, ratio)
        expected_s = (SCALAR_TARGET - grid._laplacian_64(np.log(ratio)) / 2) / ratio
        np.testing.assert_array_equal(scalar, expected_s)
        for field in (state.ratio, h, scalar):
            assert not field.flags.writeable
        # an inadmissible potential still raises where the state is made
        with pytest.raises(InadmissibleError):
            metric_state(BasicPotential.from_callable(grid, lambda x: 3.0 * (1.0 - x * x)))

    def test_ratio_affine_in_potential(self, grid128):
        phi = BasicPotential.from_callable(grid128, lambda x: 0.1 * x)
        state = metric_state(phi)
        expected = 1.0 + grid128.laplacian(phi.values) / 4.0
        np.testing.assert_allclose(state.ratio, expected, rtol=0, atol=1e-13)

    def test_scalar_curvature_formula(self, grid128):
        # S = (SCALAR_TARGET - Lap(log r)/2) / r, checked against the
        # same quantities assembled from the public grid operators
        phi = BasicPotential.from_callable(grid128, lambda x: 0.1 * x)
        state = metric_state(phi)
        rebuilt = (
            SCALAR_TARGET - 0.5 * grid128.laplacian(np.log(state.ratio))
        ) / state.ratio
        np.testing.assert_allclose(
            state.scalar_curvature, rebuilt, rtol=0, atol=5e-7
        )

    def test_ricci_potential_normalization(self, grid128):
        phi = BasicPotential.from_callable(grid128, lambda x: 0.2 * (1 - x * x))
        state = metric_state(phi)
        # int e^h dmu_phi = 1 by construction
        assert abs((grid128.w * state.ratio) @ np.exp(state.ricci_potential) - 1.0) < 1e-13

    def test_grad_norm_sq(self, grid128):
        state = reference_state(grid128)
        f = 0.3 * grid128.x
        expected = 4.0 * (1.0 - grid128.x**2) * 0.09
        np.testing.assert_allclose(state.grad_norm_sq(f), expected, rtol=0, atol=1e-13)

    def test_measure_mass(self, base128):
        assert abs((base128.grid.w * base128.ratio).sum() - 1.0) < 1e-14


class TestLogMeanExp:
    def test_matches_naive_for_small_values(self, grid96):
        z = 0.3 * grid96.x
        naive = np.log(grid96.integrate(np.exp(z)))
        assert abs(log_mean_exp(grid96.w, z) - naive) < 1e-14

    def test_no_overflow_for_large_values(self, grid96):
        z = 800.0 + 0.1 * grid96.x
        val = log_mean_exp(grid96.w, z)
        assert np.isfinite(val) and 799.0 < val < 801.0

    def test_stack_matches_each_row(self, grid128, rng):
        # a stack gives one value per row, each with the bits of that row
        # alone, including rows large enough to overflow exp
        z = rng.standard_normal((5, grid128.n)) + np.array([0.0, 1.0, -3.0, 700.0, 800.0])[:, None]
        rows = [log_mean_exp(grid128.w, row) for row in z]
        assert all(isinstance(value, float) for value in rows)
        assert log_mean_exp(grid128.w, z).tolist() == rows


class TestRowDots:
    """The per-row integrals of a stack are one np.vecdot, and a quadrature
    over its rows sums by np.cumsum: both keep the bits of the per-row
    loops they replace (the functionals' rules, the flow records' c_s and
    Calabi energy, the Ricci potential's constant)."""

    @pytest.mark.parametrize("n", [128, 256])
    def test_vecdot_has_the_bits_of_each_row_dot(self, n, rng):
        w = make_grid(n).w
        rows = rng.standard_normal((48, n))
        assert np.vecdot(rows, w).tolist() == [float(w @ row) for row in rows]
        assert np.vecdot(w, rows).tolist() == [float(w @ row) for row in rows]

    def test_cumsum_adds_in_the_loop_order(self, rng):
        terms = rng.standard_normal(48) * np.logspace(-8, 8, 48)
        total = 0.0
        for term in terms:
            total += term
        assert float(np.cumsum(terms)[-1]) == total
        total = 0.0
        for term in terms:
            total -= term
        assert float(-np.cumsum(terms)[-1]) == total


class TestSpectrum:
    def test_round_eigenvalues(self, ref128):
        res = spectrum(ref128, k=8)
        for k in range(9):
            target = -4.0 * k * (k + 1)
            tol = 1e-8 * max(abs(target), 1.0)
            assert abs(res.eigenvalues[k] - target) < tol

    def test_obstruction_flag(self, ref128):
        res = spectrum(ref128, k=4)
        assert res.has_obstruction
        assert res.obstruction_gap < 1e-8

    def test_resolution_guard(self, grid96):
        from reebflow import ResolutionError

        with pytest.raises(ResolutionError):
            spectrum(reference_state(grid96), k=64)

    def test_deformed_spectrum_shifts(self, base128):
        res = spectrum(base128, k=6)
        assert res.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
        assert np.all(np.diff(res.eigenvalues) < 0)

    def test_deformed_spectrum_matches_general_eigvals(self, base128):
        # Lap f = lambda r f, solved as the nonsymmetric problem of Lap / r
        grid = base128.grid
        res = spectrum(base128, k=6)
        dense = np.linalg.eigvals(grid.lap / base128.ratio[:, None])
        expected = np.sort(dense.real)[::-1][:7]
        assert np.all(np.abs(res.eigenvalues - expected) <= 1e-9 * (1 + np.abs(expected)))
