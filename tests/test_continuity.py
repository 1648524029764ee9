"""Newton solver, continuity path, diagnostics, automorphism scans."""

import re

import numpy as np
import pytest

from reebflow import continuity

from reebflow import (
    BasicPotential,
    ConfigurationError,
    FunctionalLedger,
    GridMismatchError,
    InadmissibleError,
    PathPolicy,
    SolverError,
    epsilon_pinching,
    eval_F,
    ma_defect,
    ma_jacobian,
    metric_state,
    mobius_potential,
    mt_scan,
    path_diagnostics,
    reference_state,
    relative_state,
    run_continuity_path,
    solve_ma_at_t,
)
from reebflow.transverse import M_DIM
from tests.conftest import psi_bump


def record_ts(path):
    return np.array([r.t for r in path.records])


@pytest.fixture(scope="module")
def adaptive(base128):
    return run_continuity_path(base128)


@pytest.fixture(scope="module")
def gauss(base128):
    return run_continuity_path(base128, records=48)


class TestDefectAndJacobian:
    def test_round_zero_defect(self, grid128, ref128):
        zero = BasicPotential.zero(grid128)
        np.testing.assert_allclose(
            ma_defect(zero, 0.5, ref128), 0.0, rtol=0, atol=1e-15
        )

    def test_manufactured_endpoint_defect(self, grid128, base128, psi128):
        # phi_1 = -psi + c*/2 solves the endpoint equation over the psi base
        phi1 = BasicPotential(
            values=-psi128.values + base128.norm_constant / 2.0, grid=grid128
        )
        assert np.abs(ma_defect(phi1, 1.0, base128)).max() < 1e-12

    def test_jacobian_matches_fd(self, grid96):
        base = metric_state(psi_bump(grid96))
        phi = BasicPotential.from_callable(grid96, lambda x: 0.05 * np.sin(2 * x))
        t = 0.4
        jac = ma_jacobian(phi, t, base)
        eps = 1e-6
        fd = np.empty_like(jac)
        for j in range(grid96.n):
            e = np.zeros(grid96.n)
            e[j] = eps
            up = ma_defect(BasicPotential(values=phi.values + e, grid=grid96), t, base)
            dn = ma_defect(BasicPotential(values=phi.values - e, grid=grid96), t, base)
            fd[:, j] = (up - dn) / (2 * eps)
        rel = np.abs(jac - fd).max() / np.abs(jac).max()
        assert rel < 1e-8


class TestNewtonSolve:
    def test_interior_t_converges(self, grid96):
        base = metric_state(psi_bump(grid96))
        phi = solve_ma_at_t(0.5, base, BasicPotential.zero(grid96))
        assert np.abs(ma_defect(phi, 0.5, base)).max() < 1e-10

    def test_round_base_trivial_solution(self, grid96):
        ref = reference_state(grid96)
        phi = solve_ma_at_t(0.7, ref, BasicPotential.zero(grid96))
        # phi = 0 solves every t over the round base
        assert np.abs(phi.values).max() < 1e-12

    def test_t_out_of_range(self, grid96):
        ref = reference_state(grid96)
        with pytest.raises(ConfigurationError):
            solve_ma_at_t(0.0, ref, BasicPotential.zero(grid96))
        with pytest.raises(ConfigurationError):
            solve_ma_at_t(1.5, ref, BasicPotential.zero(grid96))

    def test_inadmissible_guess_rejected(self, grid96):
        ref = reference_state(grid96)
        bad = BasicPotential.from_callable(grid96, lambda x: 3.0 * (1 - x * x))
        with pytest.raises(ConfigurationError):
            solve_ma_at_t(0.5, ref, bad)
        # a NaN margin is not admissible either
        values = np.zeros(grid96.n)
        values[grid96.n // 2] = np.nan
        with pytest.raises(ConfigurationError):
            solve_ma_at_t(0.5, ref, BasicPotential(values=values, grid=grid96))

    def test_overflowing_guess_is_a_solver_error(self, grid96, monkeypatch):
        # e^{h - 2t(-400)} overflows: the residual is infinite, and Newton
        # stops before any linear solve
        def solve(*args, **kwargs):
            raise AssertionError("linear solve called on a non-finite residual")

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(np.linalg, "lstsq", solve)
        guess = BasicPotential.from_callable(grid96, lambda x: np.full_like(x, -400.0))
        with np.errstate(over="ignore"), pytest.raises(SolverError) as info:
            solve_ma_at_t(1.0, reference_state(grid96), guess)
        assert info.value.trace == [np.inf]

    def test_linalg_error_is_a_solver_error(self, base96, monkeypatch):
        # below t = 1 the step is an LU solve, and lstsq is never reached
        def solve(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        def lstsq(*args, **kwargs):
            raise AssertionError("lstsq called below t = 1")

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        with pytest.raises(SolverError, match="Newton step failed at t = 0.5") as info:
            solve_ma_at_t(0.5, base96, BasicPotential.zero(base96.grid))
        assert len(info.value.trace) == 1

    def test_linalg_error_at_the_kernel_is_a_solver_error(self, base96, monkeypatch):
        # at t = 1 the step is an LU solve of the system bordered by the
        # Moebius tangent, one row and column larger than the Jacobian
        shapes = []

        def solve(a, b):
            shapes.append(a.shape)
            raise np.linalg.LinAlgError("Singular matrix")

        def lstsq(*args, **kwargs):
            raise AssertionError("lstsq called at t = 1")

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        with pytest.raises(SolverError, match="Newton step failed at t = 1: Singular") as info:
            solve_ma_at_t(1.0, base96, BasicPotential.zero(base96.grid))
        assert len(info.value.trace) == 1
        assert shapes == [(97, 97)]

    def test_non_finite_step_is_a_solver_error(self, base96, monkeypatch):
        # an ill-conditioned LU solve may return NaN or inf without raising;
        # no potential holds such values, so the solve fails as a solver
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
        with pytest.raises(SolverError, match="Newton step is not finite at t = 0.5"):
            solve_ma_at_t(0.5, base96, BasicPotential.zero(base96.grid))

    @pytest.mark.parametrize(
        "field, value",
        [("newton_tol", value)
         for value in (0.0, -1e-3, float("nan"), float("inf"), 1e-300, 1e-16)],
    )
    def test_policy_tolerances_and_caps_checked(self, field, value):
        with pytest.raises(ConfigurationError):
            PathPolicy(**{field: value})

    def test_newton_tol_floor_is_float64_epsilon(self):
        eps = float(np.finfo(np.float64).eps)
        assert PathPolicy(newton_tol=eps).newton_tol == eps
        with pytest.raises(ConfigurationError, match="at least 2.22e-16"):
            PathPolicy(newton_tol=eps / 2)

    def test_iteration_cap(self, grid96, monkeypatch):
        monkeypatch.setattr(continuity, "_MAX_ITERATIONS", 1)
        base = metric_state(psi_bump(grid96))
        with pytest.raises(SolverError, match="within 1 iterations"):
            solve_ma_at_t(1.0, base, BasicPotential.zero(grid96), PathPolicy(newton_tol=1e-10))


class TestContinuityPath:
    def test_completes_and_orders(self, adaptive):
        assert adaptive.completed and adaptive.failure is None
        ts = record_ts(adaptive)
        assert np.all(np.diff(ts) > 0)
        assert ts[0] == pytest.approx(0.1) and ts[-1] == pytest.approx(1.0)

    def test_manufactured_recovery(self, adaptive, base128, psi128):
        expected = -psi128.values + base128.norm_constant / 2.0
        err = np.abs(adaptive.endpoint().phi.values - expected).max()
        assert err < 1e-9

    def test_residuals_below_policy(self, adaptive):
        assert max(r.residual for r in adaptive.records) < 1e-10

    def test_monotone_energy(self, adaptive):
        imj = adaptive.i_minus_j()
        assert np.diff(imj).min() > -1e-8

    def test_gauss_records_and_weights(self, gauss):
        assert len(gauss.records) == 49  # 48 nodes + endpoint
        assert gauss.record_weights is not None
        nodes, weights = np.polynomial.legendre.leggauss(48)
        np.testing.assert_allclose(
            record_ts(gauss)[:-1], (nodes + 1.0) / 2.0, rtol=0, atol=1e-14
        )
        assert (weights / 2.0).sum() == pytest.approx(1.0, abs=1e-14)
        assert gauss.record_weights[-1] == 0.0

    def test_energy_identity(self, gauss, base128):
        # the Einstein base is the state of the path's last record; F at a
        # state built afresh from its phi gives the same residual
        diag = path_diagnostics(gauss, base128)
        assert abs(diag.energy_identity_residual) < 1e-12
        se = relative_state(base128, gauss.endpoint().phi)
        _, f_se = eval_F(base128.potential, se)
        expected = f_se - float(gauss.record_weights @ gauss.i_minus_j())
        assert diag.energy_identity_residual == expected

    def test_curvature_identity_along_path(self, adaptive, base128):
        diag = path_diagnostics(adaptive, base128)
        assert diag.curvature_identity_residual < 1e-7
        assert diag.energy_identity_residual is None  # no record weights

    def test_pair_bounds(self, adaptive):
        # over every pair of records, |J_j - J_i| and |(I-J)_j - (I-J)_i| / m
        # are at most osc(phi_j - phi_i)
        recs = adaptive.records
        imj = adaptive.i_minus_j()
        slack_j = slack_ij = np.inf
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                diff = recs[j].phi.values - recs[i].phi.values
                osc = float(diff.max() - diff.min())
                slack_j = min(slack_j, osc - abs(recs[j].ledger.J - recs[i].ledger.J))
                slack_ij = min(slack_ij, M_DIM * osc - abs(imj[j] - imj[i]))
        assert slack_j > -1e-12
        assert slack_ij > -1e-12

    def test_decay_profile_is_the_records_f_t(self, adaptive):
        rec = adaptive.records[0]
        expected = (1 - rec.t) ** (1 / 6) * (1 + 2 * (1 - rec.t) * rec.c0_norm) ** (5 / 6)
        assert rec.f_t == pytest.approx(expected, rel=1e-14)
        assert adaptive.endpoint().f_t == 0.0

    def test_records_past_t_end_rejected(self, base96, counts):
        # the Gauss nodes of (0, 1) reach 0.966 > t_end: refused before any
        # solve
        counts.clear()
        with pytest.raises(ConfigurationError, match=r"\(0, t_end\]"):
            run_continuity_path(base96, t_start=0.1, t_end=0.5, records=6)
        assert counts == {}

    @pytest.mark.parametrize("records", [0, -2])
    def test_record_count_below_one_rejected(self, base96, counts, records):
        counts.clear()
        with pytest.raises(ConfigurationError, match="at least 1 Gauss record"):
            run_continuity_path(base96, records=records)
        assert counts == {}

    def test_diagnostics_need_records(self, base128):
        path = run_continuity_path(base128, records=1)
        assert len(path.records) < 3
        with pytest.raises(ConfigurationError):
            path_diagnostics(path, base128)


class TestOperatorCounts:
    def test_newton_applies_one_laplacian_per_candidate(self, base96, counts):
        # a solve that never backtracks: one Laplacian for the guess, one
        # per Newton candidate and one for the polished iterate; each step
        # is an LU solve below t = 1
        counts.clear()
        phi = solve_ma_at_t(0.5, base96, BasicPotential.zero(base96.grid))
        solves = counts["solve"]
        assert solves >= 3
        assert counts == {"laplacian": solves + 1, "solve": solves}
        assert np.abs(ma_defect(phi, 0.5, base96)).max() < 1e-10

    def test_newton_at_the_kernel_steps_by_bordered_lu(self, base96, counts):
        # one LU solve of the bordered system per step, and no lstsq; each
        # step's Moebius tangent takes one derivative
        counts.clear()
        phi = solve_ma_at_t(1.0, base96, BasicPotential.zero(base96.grid))
        solves = counts["solve"]
        assert solves >= 3
        assert counts == {"laplacian": solves + 1, "solve": solves, "deriv64": solves}
        assert np.abs(ma_defect(phi, 1.0, base96)).max() < 1e-10

    def test_warm_start_reuses_the_guess_laplacian(self, base96, counts):
        # a solve returns its iterate with the Laplacian of its last
        # evaluation kept: a solve warm-started from it applies none for
        # the guess, one fewer than from a fresh copy of the same values,
        # and lands on the same bits; the ledger of its result applies none
        guess = solve_ma_at_t(0.5, base96, BasicPotential.zero(base96.grid))
        fresh = BasicPotential(values=guess.values, grid=base96.grid)
        counts.clear()
        phi = solve_ma_at_t(0.55, base96, guess)
        solves = counts["solve"]
        assert solves >= 2
        assert counts == {"laplacian": solves, "solve": solves}
        counts.clear()
        np.testing.assert_array_equal(solve_ma_at_t(0.55, base96, fresh).values, phi.values)
        assert counts == {"laplacian": solves + 1, "solve": solves}
        counts.clear()
        FunctionalLedger.evaluate("phi", phi, base96)
        assert counts == {}

    def test_path_newton_iterations_pinned(self, base128, counts, monkeypatch):
        # the n = 128 path suite's two paths take 135 Newton iterations
        # (one Jacobian and one LU solve each; 205 from warm starts alone),
        # the steps at t = 1 among them, bordered; no lstsq
        ts = []
        real_jacobian = continuity._jacobian

        def jacobian(kept, t, rhs):
            ts.append(t)
            return real_jacobian(kept, t, rhs)

        monkeypatch.setattr(continuity, "_jacobian", jacobian)
        for records in (None, 48):
            assert run_continuity_path(base128, records=records).completed
        assert len(ts) == 135
        assert sum(t == 1.0 for t in ts) >= 2
        assert counts["solve"] == len(ts)
        assert "lstsq" not in counts

    def test_defect_reads_one_ratio(self, base96, counts):
        # the defect Newton evaluates, bit for bit, from the one Laplacian
        # phi keeps; no state is built.  It is the ratio of the state of
        # base + phi over the base's ratio, less e^{h - t(m+1) phi}, to
        # rounding
        phi = BasicPotential.from_callable(base96.grid, lambda x: 0.05 * np.sin(2 * x))
        counts.clear()
        defect = ma_defect(phi, 0.4, base96)
        assert counts == {"laplacian": 1}
        np.testing.assert_array_equal(defect, TestPredictorAndKernel.evaluate(phi, 0.4, base96)[1])
        rhs = np.exp(base96.ricci_potential - 0.4 * 2 * phi.values)
        np.testing.assert_allclose(
            defect, relative_state(base96, phi).ratio / base96.ratio - rhs, rtol=0, atol=1e-14
        )

    def test_diagnostics_read_the_records_states(self, base96, counts):
        # each record keeps the state of base + phi_t, built from the kept
        # ratio of the base and Lap(phi_t) with no Laplacian; the
        # diagnostics build no state and apply one Laplacian per record, a
        # float64 one of log r for its scalar curvature, which the state
        # keeps; Lap(phi_t) is the one phi_t kept from its Newton solve
        path = run_continuity_path(base96)
        end = path.endpoint()
        np.testing.assert_array_equal(end.state.ratio, relative_state(base96, end.phi).ratio)
        # the residual is the sup of the defect Newton evaluates at phi_t
        _, defect, _ = TestPredictorAndKernel.evaluate(end.phi, end.t, base96)
        assert end.residual == float(np.abs(defect).max())
        assert len(path.records) == 19
        counts.clear()
        path_diagnostics(path, base96)
        assert counts == {"laplacian64": len(path.records)}
        counts.clear()
        path_diagnostics(path, base96)
        assert counts == {}

    def test_defect_of_inadmissible_potential_raises(self, ref96):
        # with the margin of the float64 ratio Newton evaluates
        bad = BasicPotential.from_callable(ref96.grid, lambda x: 3.0 * (1 - x * x))
        with pytest.raises(InadmissibleError) as exc:
            ma_defect(bad, 0.5, ref96)
        ratio = TestPredictorAndKernel.evaluate(bad, 0.5, ref96)[0]
        assert exc.value.margin == float(ratio.min()) < 0.0


class TestPredictorAndKernel:
    """The march's predicted guesses and the bordered step at t = 1."""

    @staticmethod
    def evaluate(phi, t, base):
        """The float64 ratio of base + phi, the defect at t and its
        e^{h - t(m+1) phi}, as Newton forms them."""
        lap = phi._lap_ld.astype(np.float64)
        rhs = np.exp(base.ricci_potential - t * (M_DIM + 1) * phi.values)
        return base.ratio + lap / 4.0, 1.0 + lap / (4.0 * base.ratio) - rhs, rhs

    @pytest.mark.parametrize("t", [0.4, 1.0])
    def test_kept_jacobian_part_is_bit_identical(self, base96, t):
        # Lap/(4 r_base) plus the diagonal t(m+1) e^{h - t(m+1) phi}, each
        # entry one sum, as the kept part plus the diagonal forms it
        phi = BasicPotential.from_callable(base96.grid, lambda x: 0.05 * np.sin(2 * x))
        rhs = self.evaluate(phi, t, base96)[2]
        grid = base96.grid
        expected = grid.lap / (4.0 * base96.ratio)[:, None] + np.diag(t * (M_DIM + 1) * rhs)
        jac = continuity._jacobian(continuity._kept_jacobian(base96), t, rhs)
        assert np.array_equal(jac, expected)
        assert np.array_equal(ma_jacobian(phi, t, base96), expected)

    def test_tangent_matches_the_central_difference(self, base96):
        # dphi/dt from the polishing solve's second column, against
        # (phi(t+h) - phi(t-h)) / 2h, whose error falls like h^2
        kept = continuity._kept_jacobian(base96)
        phi, tangent = continuity._newton(
            0.5, base96, BasicPotential.zero(base96.grid), PathPolicy(), kept
        )
        errors = []
        for h in (0.02, 0.01):
            up, dn = (solve_ma_at_t(0.5 + sign * h, base96, phi) for sign in (1, -1))
            errors.append(np.abs((up.values - dn.values) / (2 * h) - tangent).max())
        scale = np.abs(tangent).max()
        assert errors[1] < 1e-4 * scale
        assert 3.5 < errors[0] / errors[1] < 4.5

    def test_no_tangent_at_the_kernel(self, base96):
        kept = continuity._kept_jacobian(base96)
        _, tangent = continuity._newton(
            1.0, base96, BasicPotential.zero(base96.grid), PathPolicy(), kept
        )
        assert tangent is None

    def test_hermite_prediction_is_exact_on_cubics(self, grid96):
        # the extrapolant through two (t, phi_t, phi_t') reproduces a cubic
        # in t; with one point it is the Euler step
        coeffs = [np.cos(j * grid96.x) for j in range(4)]

        def point(t):
            phi = sum(c * t**j for j, c in enumerate(coeffs))
            dphi = sum(j * c * t ** (j - 1) for j, c in enumerate(coeffs) if j)
            return t, BasicPotential(values=phi, grid=grid96), dphi

        t2, phi2, _ = point(0.7)
        guess = continuity._predicted(0.7, point(0.55), point(0.45))
        np.testing.assert_allclose(guess.values, phi2.values, rtol=0, atol=1e-13)
        t1, phi1, dphi1 = point(0.55)
        np.testing.assert_array_equal(
            continuity._predicted(0.7, point(0.55), None).values,
            phi1.values + (0.7 - t1) * dphi1,
        )

    def test_inadmissible_prediction_falls_back_to_the_warm_start(self, base96, monkeypatch):
        kept = continuity._kept_jacobian(base96)
        phi = solve_ma_at_t(0.5, base96, BasicPotential.zero(base96.grid))
        bad = BasicPotential.from_callable(base96.grid, lambda x: 3.0 * (1 - x * x))
        assert self.evaluate(bad, 0.55, base96)[0].min() < continuity._MARGIN_FLOOR
        fell_back = continuity._newton(0.55, base96, bad, PathPolicy(), kept, fallback=phi)
        warm = continuity._newton(0.55, base96, phi, PathPolicy(), kept)
        np.testing.assert_array_equal(fell_back[0].values, warm[0].values)
        np.testing.assert_array_equal(fell_back[1], warm[1])
        # a march whose every prediction leaves the cone completes from
        # its warm starts
        predictions = []

        def predicted(*args):
            predictions.append(args[0])
            return bad

        monkeypatch.setattr(continuity, "_predicted", predicted)
        path = run_continuity_path(base96)
        assert path.completed and len(predictions) >= len(path.records) - 1
        assert max(r.residual for r in path.records) < 1e-10

    def test_bordered_step_is_lstsq_off_the_kernel(self, base128):
        # at the first t = 1 iterate of the path, the bordered step and the
        # minimum-norm least-squares step agree once each loses its part
        # along the Moebius tangent k; the bordered one has none
        grid = base128.grid
        path = run_continuity_path(base128, t_end=0.95)
        phi = path.endpoint().phi
        ratio, defect, rhs = self.evaluate(phi, 1.0, base128)
        jac = continuity._jacobian(continuity._kept_jacobian(base128), 1.0, rhs)
        k = continuity._mobius_tangent(grid, base128.potential.values + phi.values, ratio)
        step = np.linalg.solve(continuity._bordered(jac, k, base128), np.append(-defect, 0.0))
        bordered, mu = step[:-1], step[-1]
        least = np.linalg.lstsq(jac, -defect, rcond=1e-10)[0]
        unit = k / np.linalg.norm(k)
        off = least - (unit @ least) * unit
        assert abs(unit @ bordered) < 1e-12 * np.linalg.norm(bordered)
        assert np.linalg.norm(bordered - off) < 1e-10 * np.linalg.norm(off)
        assert abs(mu) < 1e-10 * np.abs(defect).max()

    @pytest.mark.parametrize("psi", [
        lambda x: 0.3 * (1.0 - x * x),
        lambda x: 0.1 * x,
        lambda x: 0.05 * (x**3 - x) + 0.02,
    ])
    def test_mobius_tangent_is_the_kernel_at_the_endpoint(self, grid96, psi):
        # at the Einstein endpoint k spans the right kernel of J and
        # w r_base k the left one, also off the round structure
        base = metric_state(BasicPotential.from_callable(grid96, psi))
        phi = solve_ma_at_t(1.0, base, BasicPotential.zero(grid96))
        ratio, _, rhs = self.evaluate(phi, 1.0, base)
        jac = continuity._jacobian(continuity._kept_jacobian(base), 1.0, rhs)
        k = continuity._mobius_tangent(grid96, base.potential.values + phi.values, ratio)
        left = grid96.w * base.ratio * k
        norm = np.linalg.norm(jac)
        assert np.linalg.norm(jac @ k) < 1e-14 * norm * np.linalg.norm(k)
        assert np.linalg.norm(left @ jac) < 1e-14 * norm * np.linalg.norm(left)


class TestGridMismatch:
    """A potential meeting a base on another grid raises GridMismatchError
    before any arithmetic."""

    ENTRY_POINTS = {
        "solve_ma_at_t": lambda phi, base: solve_ma_at_t(0.5, base, phi),
        "ma_defect": lambda phi, base: ma_defect(phi, 0.5, base),
        "relative_state": lambda phi, base: relative_state(base, phi),
        "FunctionalLedger.evaluate": lambda phi, base: FunctionalLedger.evaluate("phi", phi, base),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_potential_on_another_grid(self, base128, grid96, counts, entry):
        counts.clear()
        with pytest.raises(GridMismatchError, match="96-node grid, base on a 128-node grid"):
            self.ENTRY_POINTS[entry](BasicPotential.zero(grid96), base128)
        assert counts == {}


STUB_TRACE = [1.0, 0.5, 0.25]


def _newton_fails_past(t_fail, monkeypatch):
    """The solver the march calls raises SolverError for t > t_fail."""
    real = continuity._newton

    def solve(t, *args, **kwargs):
        if t > t_fail:
            raise SolverError(f"stub failure at t = {t}", trace=STUB_TRACE)
        return real(t, *args, **kwargs)

    monkeypatch.setattr(continuity, "_newton", solve)


@pytest.fixture
def newton_fails_past_half(monkeypatch):
    _newton_fails_past(0.5, monkeypatch)


@pytest.fixture
def newton_fails_everywhere(monkeypatch):
    _newton_fails_past(0.0, monkeypatch)


class TestStepperFailures:
    FLOOR = re.compile(r"step floor 0\.0001 reached at t = (\S+)$")

    def test_adaptive_path_stops_at_the_floor(self, base96, newton_fails_past_half):
        path = run_continuity_path(base96)
        assert not path.completed
        ts = record_ts(path)
        assert 0.45 < ts[-1] <= 0.5
        assert path.failure == f"step floor 0.0001 reached at t = {ts[-1]:.6g}"
        assert path.record_weights is None

    def test_recorded_path_stops_at_the_floor(self, base96, newton_fails_past_half):
        path = run_continuity_path(base96, records=6)
        assert not path.completed
        match = self.FLOOR.match(path.failure)
        assert match and 0.45 < float(match.group(1)) <= 0.5
        nodes, weights = np.polynomial.legendre.leggauss(6)
        kept = (nodes + 1.0) / 2.0 <= 0.5
        np.testing.assert_allclose(record_ts(path), (nodes[kept] + 1.0) / 2.0, atol=1e-14)
        np.testing.assert_allclose(path.record_weights, weights[kept] / 2.0, atol=1e-14)

    def test_pinching_path_stalls(self, base96, newton_fails_past_half):
        with pytest.raises(SolverError, match="pinching path stalled at t = ") as info:
            epsilon_pinching(base96, eps=1e-3)
        assert info.value.trace == STUB_TRACE

    @pytest.mark.parametrize("records", [None, 6])
    def test_path_fails_at_its_start(self, base96, newton_fails_everywhere, records):
        # the start solve is at t_start, or at the first Gauss node
        t_first = 0.1 if records is None else (np.polynomial.legendre.leggauss(6)[0][0] + 1) / 2
        path = run_continuity_path(base96, records=records)
        assert path.records == ()
        assert not path.completed
        assert path.failure == f"stub failure at t = {t_first}"

    def test_pinching_path_fails_at_its_start(self, base96, newton_fails_everywhere):
        with pytest.raises(
            SolverError, match=r"pinching path failed at its start t = 0\.1: stub failure"
        ) as info:
            epsilon_pinching(base96, eps=1e-3)
        assert info.value.trace == STUB_TRACE


class TestMobius:
    def test_closed_form_j(self, grid256, ref256):
        for lam in (2.0, 4.0, 16.0):
            mob = mobius_potential(lam, grid256)
            a = (lam**2 - 1.0) / (lam**2 + 1.0)
            expected = np.log(lam) / a - 1.0
            ledger = FunctionalLedger.evaluate("mobius", mob, ref256)
            assert ledger.J == pytest.approx(expected, rel=1e-12)

    def test_mean_free(self, grid256):
        mob = mobius_potential(3.0, grid256)
        assert abs(grid256.integrate(mob.values)) < 1e-14

    def test_identity_at_one(self, grid256):
        mob = mobius_potential(1.0, grid256)
        assert np.abs(mob.values).max() < 1e-14

    def test_invalid_lambda(self, grid256):
        # not positive, or lam^2 (1 + x) overflows at the last node: refused
        # by name before any arithmetic, so numpy raises nothing
        with np.errstate(all="raise"):
            for lam in (0.0, -2.0, 1e300, 1e154, np.inf):
                with pytest.raises(ConfigurationError, match=re.escape(f"got lam = {lam}")):
                    mobius_potential(lam, grid256)

    def test_min_ratio_resolved(self, grid256):
        # min r along the family is 1 / lambda^2, attained at the pole the
        # grid excludes, so the node minimum sits just above it
        state = metric_state(mobius_potential(4.0, grid256))
        assert state.ratio.min() >= 1.0 / 16.0
        assert state.ratio.min() == pytest.approx(1.0 / 16.0, rel=1e-3)


class TestScan:
    def test_mobius_f_flat(self, grid256, ref256):
        members = [(lam, mobius_potential(lam, grid256)) for lam in (1, 2, 4, 8)]
        scan = mt_scan("mobius", members, ref256)
        assert scan.name == "mobius"
        assert max(abs(f) for f in scan.f_values) < 1e-6
        assert np.all(np.diff(scan.j_values) > 0)
        assert abs(scan.c1) < 1e-8  # flat family: no properness slope

    def test_bump_family_positive_slope(self, grid128, ref128):
        def bump(eps):
            return BasicPotential.from_callable(
                grid128, lambda x: eps * (3 * x**2 - 1) / 2
            )

        members = [(eps, bump(eps)) for eps in (0.05, 0.08, 0.11, 0.14)]
        scan = mt_scan("bump", members, ref128)
        assert scan.c1 > 0.0
        assert all(np.isfinite(scan.f_values))

    def test_inadmissible_member_raises(self, grid128, ref128):
        # eps P2 leaves the admissible cone at eps = 1/6
        good, bad = (
            BasicPotential.from_callable(grid128, lambda x, e=eps: e * (3 * x**2 - 1) / 2)
            for eps in (0.1, 0.4)
        )
        with pytest.raises(InadmissibleError):
            mt_scan("bump", [(0.1, good), (0.4, bad)], ref128)

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_members_rejected(self, grid96, ref96, counts, count):
        # one member leaves the two-parameter fit undetermined (NaN)
        members = [(2.0, mobius_potential(2.0, grid96))][:count]
        counts.clear()
        with pytest.raises(ConfigurationError, match="at least 2 members"):
            mt_scan("mobius", members, ref96)
        assert counts == {}

    def test_equal_j_values_rejected(self, grid96, ref96):
        # equal members fix only one of the fit's two constants
        members = [(2.0, mobius_potential(2.0, grid96))] * 2
        with pytest.raises(ConfigurationError, match="2 distinct J values"):
            mt_scan("mobius", members, ref96)

    def test_one_laplacian_per_member(self, grid96, ref96, counts):
        # J and F of a member come off one ray, so J is computed once; one
        # lstsq fits the profile
        members = [(lam, mobius_potential(lam, grid96)) for lam in (1.0, 2.0, 4.0)]
        counts.clear()
        mt_scan("mobius", members, ref96)
        assert counts == {"laplacian": 3, "lstsq": 1}
