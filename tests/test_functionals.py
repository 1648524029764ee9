"""Energy functionals: frozen values, identities, and bound reports."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reebflow import (
    BasicPotential,
    ConfigurationError,
    FunctionalLedger,
    InadmissibleError,
    admissibility,
    eval_F,
    make_grid,
    metric_state,
    mobius_potential,
    random_potential,
    reference_state,
    relative_state,
    verify_cocycle,
    verify_mabuchi_f_relation,
)
from reebflow.functionals import MabuchiReport, _Ray
from reebflow.transverse import M_DIM, SCALAR_TARGET, _ratio_ld, log_mean_exp
from tests.conftest import psi_bump, rhs

# Frozen reference values for phi = 0.1 x on the round base.  I and J
# have closed forms (I = 2 eps^2 / 3, J = I / 2 for eps x); F and K were
# frozen after grid-doubling agreement to 13 digits.
FROZEN_I = 0.02 / 3.0
FROZEN_J = 0.01 / 3.0
FROZEN_F = 4.433190719833457e-06
FROZEN_K = 5.395322763893058e-05


def ledger(phi, base):
    return FunctionalLedger.evaluate("phi", phi, base)


@pytest.fixture(scope="module")
def linear128(grid128):
    return BasicPotential.from_callable(grid128, lambda x: 0.1 * x)


class TestFrozenValues:
    def test_I_closed_form(self, linear128, ref128):
        assert ledger(linear128, ref128).I == pytest.approx(FROZEN_I, rel=1e-13)

    def test_J_closed_form(self, linear128, ref128):
        assert ledger(linear128, ref128).J == pytest.approx(FROZEN_J, rel=1e-13)

    def test_F_frozen(self, linear128, ref128):
        f0, f = eval_F(linear128, ref128)
        assert f0 == pytest.approx(FROZEN_J, rel=1e-13)  # mean-free phi: F0 = J
        assert f == pytest.approx(FROZEN_F, rel=1e-10)

    def test_K_frozen(self, linear128, ref128):
        assert ledger(linear128, ref128).K == pytest.approx(FROZEN_K, rel=1e-10)

    def test_zero_potential_annihilates(self, grid128, ref128):
        zero = BasicPotential.zero(grid128)
        led = ledger(zero, ref128)
        assert led.I == 0.0
        assert led.J == 0.0
        f0, f = eval_F(zero, ref128)
        assert abs(f0) < 1e-16 and abs(f) < 1e-14
        assert abs(led.K) < 1e-14


class TestIdentities:
    def test_j_collapse(self, ref128, grid128, rng):
        for _ in range(5):
            phi = random_potential(grid128, rng)
            led = ledger(phi, ref128)
            assert led.J == pytest.approx(led.I / 2.0, abs=1e-14)

    def test_translation_invariance(self, ref128, grid128, rng):
        phi = random_potential(grid128, rng)
        _, f = eval_F(phi, ref128)
        for c in (-4.2, 0.7, 3.9):
            _, f_c = eval_F(phi.shifted(c), ref128)
            assert f_c == pytest.approx(f, abs=1e-12)
            # F0 drops by exactly c (unit base mass)
            f0, _ = eval_F(phi, ref128)
            f0_c, _ = eval_F(phi.shifted(c), ref128)
            assert f0_c == pytest.approx(f0 - c, abs=1e-12)

    def test_cocycle_and_antisymmetry(self, ref128, grid128, rng):
        psi = random_potential(grid128, rng)
        phi = random_potential(grid128, rng)
        rep = verify_cocycle(
            FunctionalLedger.evaluate("psi", psi, ref128),
            FunctionalLedger.evaluate("phi", phi, ref128),
            ref128,
        )
        assert abs(rep.cocycle_f0) < 1e-12
        assert abs(rep.cocycle_f) < 1e-12
        assert abs(rep.antisym_f0) < 1e-12
        assert abs(rep.antisym_f) < 1e-12

    def test_sandwich(self, ref128, grid128, rng):
        # I <= (m+1)(I - J) <= m I from one ledger, as the identity suite
        # reads it; at m = 1 both slacks collapse to zero
        phi = random_potential(grid128, rng)
        led = FunctionalLedger.evaluate("s", phi, ref128)
        mid = (M_DIM + 1) * (led.I - led.J)
        assert led.I >= 0 and led.J >= 0
        assert abs(mid - led.I) < 1e-12 and abs(M_DIM * led.I - mid) < 1e-12

    def test_mabuchi_relation(self, ref128, grid128, rng):
        phi = random_potential(grid128, rng)
        rep = verify_mabuchi_f_relation(FunctionalLedger.evaluate("phi", phi, ref128), ref128)
        assert abs(rep.residual) < 1e-10
        assert rep.inequality_slack >= 0.0

    def test_f0_ray_derivative(self, ref128, linear128, grid128):
        # d/ds F0(s phi) = -int phi dmu_{s phi}, checked at s = 0.5
        phi = linear128
        h = 1e-4
        up = BasicPotential(values=(0.5 + h) * phi.values, grid=grid128)
        dn = BasicPotential(values=(0.5 - h) * phi.values, grid=grid128)
        fd = (eval_F(up, ref128)[0] - eval_F(dn, ref128)[0]) / (2.0 * h)
        mid = relative_state(ref128, BasicPotential(values=0.5 * phi.values, grid=grid128))
        expected = -float((grid128.w * mid.ratio) @ phi.values)
        assert fd == pytest.approx(expected, rel=1e-6)

    def test_k_energy_path_independence(self, ref128, grid128, rng):
        # the ledger's K on the linear ray t phi against K summed along the
        # quadratic reparametrization t^2 phi of the same ray
        phi = random_potential(grid128, rng)
        k_quad = _per_node_ray(phi, ref128)[2]
        assert k_quad == pytest.approx(ledger(phi, ref128).K, abs=1e-8)

    def test_k_energy_vanishes_on_automorphisms(self, ref128, grid128):
        for lam in (1.5, 2.0, 4.0):
            mob = mobius_potential(lam, grid128)
            assert abs(ledger(mob, ref128).K) < 1e-10

    def test_i_minus_j_derivative(self, ref128, linear128, grid128):
        # d/dt (I - J)(t phi) = -(1/4) int phi_t Lap_t phidot dmu_t
        phi = linear128
        h = 1e-4
        t0 = 0.6

        def imj(t):
            led = ledger(BasicPotential(values=t * phi.values, grid=grid128), ref128)
            return led.I - led.J

        fd = (imj(t0 + h) - imj(t0 - h)) / (2.0 * h)
        state = relative_state(
            ref128, BasicPotential(values=t0 * phi.values, grid=grid128)
        )
        lap_t = grid128.laplacian(phi.values) / state.ratio
        expected = -0.25 * float((grid128.w * state.ratio) @ (t0 * phi.values * lap_t))
        assert fd == pytest.approx(expected, rel=1e-5)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_collapse_property(self, seed):
        grid = make_grid(64)
        ref = reference_state(grid)
        phi = random_potential(grid, np.random.default_rng(seed), degree=8)
        led = ledger(phi, ref)
        assert abs(led.J - led.I / 2.0) < 1e-13
        assert led.I >= -1e-15


class TestBoundReports:
    def test_shift_bound(self, ref128, grid128, rng):
        # |I_{base + shift}(phi - shift) - I_base(phi)| <= (m+1) Osc(shift):
        # both I-values see the same deformed structure
        phi = random_potential(grid128, rng)
        shift = random_potential(grid128, rng, amplitude=0.1)
        rel = BasicPotential(values=phi.values - shift.values, grid=grid128)
        lhs = abs(ledger(rel, relative_state(ref128, shift)).I - ledger(phi, ref128).I)
        assert lhs <= (M_DIM + 1) * shift.osc() + 1e-12

    def test_osc_bound(self, ref128, grid128):
        # oscillation dominates I for admissible potentials
        phi = BasicPotential.from_callable(grid128, lambda x: 0.1 * (1 - x * x))
        assert ledger(phi, ref128).I <= phi.osc()


class TestRandomPotential:
    def test_margin_and_determinism(self, grid128):
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        phi_a = random_potential(grid128, rng_a, min_margin=0.2)
        phi_b = random_potential(grid128, rng_b, min_margin=0.2)
        np.testing.assert_array_equal(phi_a.values, phi_b.values)
        state = metric_state(phi_a)
        assert state.ratio.min() >= 0.2


class TestLedger:
    def test_row_fields(self, ref128, grid128, rng):
        phi = random_potential(grid128, rng)
        led = FunctionalLedger.evaluate("probe", phi, ref128)
        assert led.tag == "probe"
        assert led.J == pytest.approx(led.I / 2.0, abs=1e-13)
        assert np.isfinite([led.F0, led.F, led.K, led.osc, led.margin]).all()
        assert led.margin > 0
        assert led.osc == pytest.approx(phi.osc())


def _gauss01(n):
    t, w = np.polynomial.legendre.leggauss(n)
    return (t + 1.0) / 2.0, w / 2.0


def _functionals_from_full_states(phi, base):
    """I, J, F0, F and K with every ray ratio taken from a full
    metric_state(psi + s phi), the way the functionals were first built."""
    grid = phi.grid
    w = grid.w

    def ratio(s):
        scaled = BasicPotential(values=s * phi.values, grid=grid)
        return relative_state(base, scaled).ratio

    i_val = float(w @ (phi.values * (base.ratio - ratio(1.0))))
    j_val = 0.0
    for sj, wj in zip(*_gauss01(32)):
        j_val += wj * float(w @ (sj * phi.values * (base.ratio - ratio(sj)))) / sj
    f0 = j_val - float(w @ (phi.values * base.ratio))
    z = base.ricci_potential - 2.0 * phi.values
    f = f0 - log_mean_exp(w * base.ratio, z) / 2.0
    lap_phi = grid.laplacian(phi.values)
    k_val = 0.0
    for tj, wj in zip(*_gauss01(48)):
        r = ratio(tj)
        k_val -= wj * (
            4.0 * float(w @ (phi.values * (1.0 - r)))
            - 0.5 * float(w @ (lap_phi * np.log(r)))
        )
    return i_val, j_val, f0, f, k_val


def _node_ratio(phi, base):
    """The ratio r(psi) + s Lap(phi)/4 of psi + s phi at one node s, formed
    and cast on its own from fresh Laplacians of psi and phi."""
    ratio_psi = 1.0 + phi.grid._laplacian_ld(base.potential.values) / 4.0
    quarter_ld = phi.grid._laplacian_ld(phi.values) / 4.0
    return lambda s: (ratio_psi + np.longdouble(s) * quarter_ld).astype(np.float64)


def _per_node_ray(phi, base):
    """J, linear K and quadratic K summed node by node from those ratios,
    as the ray first summed them."""
    w, values = phi.grid.w, phi.values
    lap = phi.grid._laplacian_ld(values).astype(np.float64)
    ratio = _node_ratio(phi, base)

    j_val = 0.0
    for sj, wj in zip(*_gauss01(32)):
        r = ratio(sj)
        assert r.min() > 0.0
        j_val += wj * float(w @ (sj * values * (base.ratio - r))) / sj

    def k_energy(a, adot):
        total = 0.0
        for tj, wj in zip(*_gauss01(48)):
            r = ratio(a(tj))
            assert r.min() > 0.0
            inner = adot(tj) * (
                SCALAR_TARGET * float(w @ (values * (1.0 - r)))
                - 0.5 * float(w @ (lap * np.log(r)))
            )
            total -= wj * inner
        return float(total)

    return (
        float(j_val),
        k_energy(lambda t: t, lambda t: 1.0),
        k_energy(lambda t: t * t, lambda t: 2.0 * t),
    )


class TestAffineRay:
    """The functionals read ray ratios off r(psi) + s Lap(phi)/4."""

    @pytest.mark.parametrize(
        "n, deformed", [(64, False), (128, False), (256, False), (128, True)],
        ids=["ref64", "ref128", "ref256", "base128"],
    )
    def test_node_rows_match_the_per_node_loop(self, n, deformed, base128):
        # all of a rule's ratios formed as one array give the same bits as
        # forming and checking them one node at a time
        grid = make_grid(n)
        base = base128 if deformed else reference_state(grid)
        rng = np.random.default_rng(n + deformed)
        for _ in range(3):
            phi = random_potential(grid, rng, amplitude=0.05)
            j_ref, k_lin_ref, _ = _per_node_ray(phi, base)
            led = ledger(phi, base)
            assert led.J == j_ref
            assert led.K == k_lin_ref

    @pytest.mark.parametrize("deformed", [False, True], ids=["ref128", "base128"])
    def test_relative_state_has_the_ledgers_ratio(self, deformed, ref128, base128, grid128, counts):
        # the state of psi + phi and the ledger's ray at s = 1 read one
        # ratio, bit for bit; with phi's Laplacian kept, the state applies
        # none
        base = base128 if deformed else ref128
        phi = random_potential(grid128, np.random.default_rng(7), amplitude=0.05)
        led = FunctionalLedger.evaluate("phi", phi, base)
        counts.clear()
        state = relative_state(base, phi)
        assert counts == {"metric_state": 1}
        np.testing.assert_array_equal(state.ratio, led._ratio)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_ratio_matches_the_laplacian_of_the_total(self, n):
        # r(psi + phi) from the ratio psi keeps and the Laplacian phi keeps,
        # against a fresh Laplacian of the float64 total: they differ by the
        # Laplacian of the sum's rounding, at most the top eigenvalue 4 n^2
        # times eps |psi + phi| (measured 5.6e-14, 2.4e-13 and 1.1e-12 at
        # n = 64, 128 and 256, against bounds of 1.1e-12, 4.4e-12 and 1.7e-11)
        grid = make_grid(n)
        base = metric_state(psi_bump(grid))
        rng = np.random.default_rng(n)
        for _ in range(3):
            phi = random_potential(grid, rng, amplitude=0.05)
            total = base.potential.values + phi.values
            exact = 1.0 + grid._laplacian_ld(total) / 4.0
            tol = 4 * n**2 * np.finfo(np.float64).eps * np.abs(total).max()
            assert np.abs(_ratio_ld(base.potential, phi) - exact).max() <= tol
            state = relative_state(base, phi)
            assert np.abs(state.ratio - exact.astype(np.float64)).max() <= tol
            np.testing.assert_array_equal(state.potential.values, total)

    def test_first_nonpositive_node_sets_the_margin(self, ref128, grid128):
        # the ray of 0.8 (1 - x^2) turns nonpositive partway, at s > 0.625:
        # the error of each rule carries the margin of its first such Gauss
        # node (the ledger checks s = 1 first, so the rules are called on
        # the ray itself)
        phi = BasicPotential.from_callable(grid128, lambda x: 0.8 * (1 - x * x))
        ratio = _node_ratio(phi, ref128)
        rules = [
            (lambda p, b: _Ray(p, b).j_value(), _gauss01(32)[0]),
            (lambda p, b: _Ray(p, b).k_energy(), _gauss01(48)[0]),
        ]
        for fn, nodes in rules:
            node_margins = [float(ratio(sj).min()) for sj in nodes]
            first = next(j for j, m in enumerate(node_margins) if not m > 0.0)
            # partway, and not where the ray's minimum is
            assert 0 < first < len(nodes) - 1
            assert min(node_margins[first + 1:]) < node_margins[first]
            with pytest.raises(InadmissibleError) as exc:
                fn(phi, ref128)
            assert exc.value.margin == node_margins[first]

    def test_matches_full_states_on_deformed_base(self, base128, grid128):
        phi = random_potential(grid128, np.random.default_rng(31), amplitude=0.05)
        assert metric_state(
            BasicPotential(values=base128.potential.values + phi.values, grid=grid128)
        ).ratio.min() > 0.1
        i_ref, j_ref, f0_ref, f_ref, k_ref = _functionals_from_full_states(phi, base128)
        f0, f = eval_F(phi, base128)
        led = FunctionalLedger.evaluate("deformed", phi, base128)
        assert abs(led.I - i_ref) <= 1e-13
        assert abs(led.J - j_ref) <= 1e-13
        assert abs(f0 - f0_ref) <= 1e-13
        assert abs(f - f_ref) <= 1e-13
        assert abs(led.K - k_ref) <= 1e-13
        assert (led.F0, led.F) == (f0, f)

    def test_mabuchi_report_reads_h_off_the_ray(self, ref128, grid128, counts):
        # one Laplacian in the ledger of a fresh potential and none in that
        # of the draw, which keeps it from its admissibility test; none and
        # no state in the report, and on the reference base the same bits
        # as the report built from the full state of phi
        rng = np.random.default_rng(11)
        for _ in range(3):
            phi = random_potential(grid128, rng)
            counts.clear()
            fresh = FunctionalLedger.evaluate("phi", BasicPotential(phi.values, grid128), ref128)
            assert counts == {"laplacian": 1}
            counts.clear()
            led = FunctionalLedger.evaluate("phi", phi, ref128)
            assert counts == {}
            assert fresh.row() == led.row()
            counts.clear()
            rep = verify_mabuchi_f_relation(led, ref128)
            assert counts == {}
            state = relative_state(ref128, phi)
            k_val = _Ray(phi, ref128).k_energy()
            _, f_val = eval_F(phi, ref128)
            h_base = float(grid128.w @ (ref128.ratio * ref128.ricci_potential))
            h_state = float(grid128.w @ (state.ratio * state.ricci_potential))
            assert (led.K, led.F) == (k_val, f_val)
            assert rep == MabuchiReport(
                h_base_mean=h_base,
                h_state_mean=h_state,
                residual=k_val - 2 * (M_DIM + 1) * f_val - 2 * (h_base - h_state),
                inequality_slack=-2.0 * h_state,
            )
            assert rep.inequality_slack >= -1e-10

    def test_inadmissible_potential_raises(self, ref128, grid128):
        # r = 1 - 1.6 + 4.8 x^2 at s = 1: negative for |x| < 0.35, and at
        # every ray node with s > 0.625
        phi = BasicPotential.from_callable(grid128, lambda x: 0.8 * (1 - x * x))
        ok, margin = admissibility(phi)
        assert not ok
        with pytest.raises(InadmissibleError) as exc:
            FunctionalLedger.evaluate("bad", phi, ref128)
        assert exc.value.margin == margin
        with pytest.raises(InadmissibleError) as exc:
            eval_F(phi, ref128)
        assert exc.value.margin <= 0.0

    def test_nan_potential_raises(self, ref128, grid128):
        # refused where it is made, before any functional reads it
        values = np.zeros(grid128.n)
        values[grid128.n // 2] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            ledger(BasicPotential(values=values, grid=grid128), ref128)


class TestSmallMarginProperty:
    # the ratio of a * phi is 1 + a Lap(phi)/4, affine in a, so a seeded
    # series can be scaled until the minimum of its ratio is the drawn margin
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        margin=st.floats(min_value=1e-3, max_value=0.5),
    )
    def test_states_ledgers_and_flow_rhs_are_finite(self, seed, margin):
        grid = make_grid(64)
        ref = reference_state(grid)
        series = random_potential(grid, np.random.default_rng(seed))
        scale = 4.0 * (margin - 1.0) / grid.laplacian(series.values).min()
        phi = BasicPotential(values=scale * series.values, grid=grid)
        state = metric_state(phi)
        assert state.ratio.min() == pytest.approx(margin, rel=1e-9)
        fields = (state.ratio, state.scalar_curvature, state.ricci_potential)
        assert all(np.isfinite(f).all() for f in fields)
        assert np.isfinite(state.norm_constant)
        assert np.isfinite(FunctionalLedger.evaluate("p", phi, ref).row()[1:]).all()
        assert np.isfinite(rhs(phi, ref)).all()
