"""Normalized flow stepping, maximum-principle monitors, pinching."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from reebflow import continuity, flow, transverse, verification
from reebflow import (
    BasicPotential,
    ConfigurationError,
    FlowPolicy,
    InadmissibleError,
    epsilon_pinching,
    metric_state,
    relative_state,
    run_flow,
    smoothing_monitors,
)
from reebflow.transverse import M_DIM, SCALAR_TARGET
from tests.conftest import calabi, count_laplacians, rhs

MP1 = M_DIM + 1


@pytest.fixture(scope="module")
def traj96(base96):
    return run_flow(base96, s_end=1.0)


class TestRhs:
    def test_round_fixed_point(self, grid128, ref128):
        assert np.abs(rhs(BasicPotential.zero(grid128), ref128)).max() < 1e-13

    def test_inadmissible_raises(self, grid96, ref96):
        v = BasicPotential.from_callable(grid96, lambda x: 3.0 * (1.0 - x * x))
        with pytest.raises(InadmissibleError):
            rhs(v, ref96)

    def test_matches_record_vdot(self, traj96, base96):
        rec = traj96.records[-1]
        assert np.array_equal(rhs(rec.v, base96), rec.vdot)

    def test_einstein_translate_fixed_point(self, grid128, base128, psi128):
        # v = -psi + const reaches a round total structure, where the
        # rhs cancels exactly against the base Ricci potential
        v = BasicPotential(values=-psi128.values + 0.3, grid=grid128)
        assert np.abs(rhs(v, base128) - 2.0 * 0.3 + base128.norm_constant).max() < 1e-12

    def test_directional_linearization(self, traj96, base96):
        # d/de rhs(v + e u) = Lap_s u / 4 + (m+1) u at each record state
        grid = base96.potential.grid
        rec = traj96.records[len(traj96.records) // 2]
        state = metric_state(
            BasicPotential(
                values=base96.potential.values + rec.v.values, grid=grid
            )
        )
        u = rec.vdot
        eps = 1e-6
        up = rhs(BasicPotential(values=rec.v.values + eps * u, grid=grid), base96)
        dn = rhs(BasicPotential(values=rec.v.values - eps * u, grid=grid), base96)
        fd = (up - dn) / (2 * eps)
        analytic = 0.25 * grid.laplacian(u) / state.ratio + MP1 * u
        rel = np.abs(fd - analytic).max() / max(np.abs(analytic).max(), 1e-30)
        assert rel < 1e-6


class TestRunFlow:
    def test_round_base_stationary(self, grid128, ref128):
        traj = run_flow(ref128, s_end=1.0, policy=FlowPolicy(record_stride=100))
        assert traj.completed
        assert max(r.v.sup() for r in traj.records) < 1e-10
        assert max(r.monitors.sup_vdot for r in traj.records) < 1e-10

    def test_monitor_bounds_hold(self, traj96):
        assert traj96.completed and traj96.failure is None
        for rec in traj96.records:
            m = rec.monitors
            assert m.bound_a_slack >= -1e-10
            assert m.bound_b_slack >= -1e-10
            assert m.bound_c_min >= -1e-10
            assert m.bound_d_slack >= -1e-10
            assert m.constancy_dev < 1e-12

    def test_ricci_potential_decays(self, traj96):
        first = traj96.records[0].monitors
        last = traj96.endpoint().monitors
        assert last.sup_h < 0.05 * first.sup_h
        assert last.s_pinch < 0.05 * first.s_pinch

    def test_records_cover_interval(self, traj96):
        ss = [r.s for r in traj96.records]
        assert ss[0] == 0.0
        assert ss[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(ss) > 0)
        assert traj96.record_at(0.5).s == pytest.approx(0.5, abs=0.02)

    def test_step_halving_converges(self, base128):
        # mean-free endpoint is second order in ds: the successive
        # differences shrink by a factor near 4 (measured 4.8e-9 and
        # 1.2e-9, 3.98); the constant mode is gauge (it grows like
        # e^{(m+1)s}) and is projected out
        ends = []
        for ds in (1e-3, 5e-4, 2.5e-4):
            traj = run_flow(
                base128, s_end=2.0, policy=FlowPolicy(ds=ds, record_stride=10**6)
            )
            assert traj.completed
            v = traj.endpoint().v
            ends.append(v.values - (base128.grid.w * base128.ratio) @ v.values)
        coarse, fine = (np.abs(a - b).max() for a, b in zip(ends, ends[1:]))
        assert fine < 1e-6
        assert coarse > 3.0 * fine

    @pytest.mark.parametrize(
        "kwargs",
        [{"ds": 0.0}, {"ds": -1e-3}, {"ds": float("nan")},
         {"record_stride": 0}, {"record_stride": -1}, {"record_stride": 2.5},
         {"ds": 1e-9}, {"ds": math.inf}, {"ds": 0.2}, {"ds": 1e300}],
    )
    def test_policy_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FlowPolicy(**kwargs)

    def test_policy_bounds_are_inclusive(self):
        assert FlowPolicy(ds=flow.MAX_DS).ds == flow.MAX_DS
        assert FlowPolicy(ds=flow._DS_FLOOR).ds == flow._DS_FLOOR

    def test_invalid_s_end(self, ref128):
        with pytest.raises(ConfigurationError):
            run_flow(ref128, s_end=0.0)

    @pytest.mark.parametrize("s_end", [math.inf, math.nan, 200.0])
    def test_s_end_beyond_float_range(self, ref96, s_end):
        # e^{2(m+1) s} in the records overflows float64 past s ~ 177.4
        assert 177.0 < flow.S_END_MAX < 178.0
        with pytest.raises(ConfigurationError):
            run_flow(ref96, s_end=s_end)

    def test_nan_step_halves_to_the_floor(self, base96, monkeypatch):
        # a NaN candidate ratio is not admissible: the step is halved,
        # never accepted, until the floor stops the march
        real_step = flow._ChordSolver.__call__
        solves = []
        policy = FlowPolicy(ds=1e-3, record_stride=10)
        # the graded start's accepted steps up to the record at s = 0.02
        accepted = len(list(flow._steps(base96, 0.02, policy))) - 1
        assert accepted == 41

        def step(self, q, b):
            solves.append(1)
            x = real_step(self, q, b)
            return x if len(solves) <= accepted else np.full_like(x, np.nan)

        monkeypatch.setattr(flow._ChordSolver, "__call__", step)
        traj = run_flow(base96, s_end=1.0, policy=policy)
        assert not traj.completed
        assert traj.failure == "step floor 1e-06 reached at s = 0.02"
        assert [r.s for r in traj.records] == pytest.approx([0.0, 0.01, 0.02])
        assert all(np.isfinite(r.v.values).all() for r in traj.records)
        # the accepted steps, then 1e-3 halved ten times to below 1e-6
        assert len(solves) == accepted + 10

    @pytest.mark.parametrize("stride", [10**6, 10])
    def test_laplacians_per_record_not_per_step(self, base96, monkeypatch, stride):
        # between records the march carries the ratio by a float64 matvec
        # of each step's increment: no Laplacian per attempted step; each
        # record re-anchors the carried ratio (one longdouble Laplacian),
        # and its block applies one float64 Laplacian per row for the
        # scalar curvature, which gives Lap_s h_s too, and one float64
        # derivative of h_s; min Lap_0 h_0 is read off the s = 0 row, so
        # the set-up applies none.  The record at s = 0 applies no
        # longdouble one: its ratio is the one the base's potential keeps.
        # No record builds a state
        calls = Counter()
        real_state = transverse.MetricState.__init__
        real_step = flow._ChordSolver.__call__

        def state(self, *args, **kwargs):
            calls["state"] += 1
            real_state(self, *args, **kwargs)

        def step(self, q, b):
            calls["step"] += 1
            return real_step(self, q, b)

        count_laplacians(monkeypatch, calls)
        monkeypatch.setattr(transverse.MetricState, "__init__", state)
        monkeypatch.setattr(flow._ChordSolver, "__call__", step)
        traj = run_flow(base96, s_end=0.2, policy=FlowPolicy(record_stride=stride))
        assert traj.completed
        # the graded start's steps to s = 0.2, one more with records at
        # every multiple of 0.05, whose gaps it splits evenly
        assert calls["step"] == (60 if stride > 40 else 61)
        assert len(traj.records) == (2 if stride > 40 else 5)
        assert calls["state"] == 0
        assert calls["laplacian"] == len(traj.records) - 1
        assert calls["laplacian64"] == calls["deriv64"] == len(traj.records)

    def test_records_carry_lap_h_min(self, base96, traj96):
        # the state of base + v, whose ratio the record keeps, gives
        # |dh_s|^2 by the record's own route, one float64 derivative of
        # h_s, a matrix-vector product where the record block's is a
        # matrix product: the same to 1e-11 of the sup (7.5e-15 measured)
        for rec in traj96.records[:: len(traj96.records) // 3]:
            state = relative_state(base96, rec.v)
            np.testing.assert_array_equal(rec.ratio, state.ratio)
            dh2 = state.grad_norm_sq(rec.h).max()
            assert abs(rec.monitors.sup_dh2 - dh2) <= 1e-11 * dh2


class TestLapHIdentity:
    """At m = 1, r = 1 + Lap(psi + v)/4 and S r = 4 - Lap(log r)/2 give
    Lap_s h_s = Lap(-log r - 2(psi + v))/r = 2 (S - 4) exactly, so a record
    reads min Lap_s h_s off its scalar curvature and bound (c) is the
    minimum principle for S^T."""

    @pytest.mark.parametrize("n", [33, 64, 128])
    @pytest.mark.parametrize("psi", [
        lambda x: 0.3 * (1.0 - x * x),
        lambda x: 0.1 * x,
        lambda x: 0.3 * (1.0 - x * x) + 0.05 * x**3,
    ], ids=["bump", "odd", "bump-cubic"])
    def test_lap_h_is_twice_the_scalar_pinch(self, n, psi):
        # against a Laplacian of h_s: at most 3.6e-12 of the sup of
        # |Lap_s h_s| over the records, measured on 0.1x at n = 128.
        # Against 2 (S - 4) of one state per record, whose float64
        # Laplacian of log r is a matrix-vector product where the record
        # block's is a matrix product: the two round apart on the scale of
        # S, not of S - 4, which 0.1x keeps small; at most 5.6e-13 of the
        # sup of 2|S| (0.1x at n = 128, 9.2e-12 of the sup of |Lap_s h_s|)
        grid = transverse.make_grid(n)
        base = metric_state(BasicPotential.from_callable(grid, psi))
        traj = run_flow(base, s_end=1.0, policy=FlowPolicy(record_stride=10))
        assert traj.completed and len(traj.records) == 21
        sup, worst, sup_s, worst_state = 0.0, 0.0, 0.0, 0.0
        for rec in traj.records:
            state = relative_state(base, rec.v)
            pinch = 2.0 * (state.scalar_curvature - SCALAR_TARGET)
            sup_s = max(sup_s, 2.0 * float(np.abs(state.scalar_curvature).max()))
            worst_state = max(worst_state, abs(rec.monitors.lap_h_min - float(pinch.min())))
            lap_h = grid.laplacian(rec.h) / state.ratio
            sup = max(sup, float(np.abs(lap_h).max()))
            worst = max(worst, abs(rec.monitors.lap_h_min - float(lap_h.min())))
        assert worst <= 1e-11 * sup
        assert worst_state <= 1e-11 * sup_s


def reference_record(base, s, v_values):
    """h, vdot and the monitors of the record at (s, v) as one metric state
    of base + v gives them, record by record; Lap_s h_s as 2 (S - 4), as
    the records take it (``TestLapHIdentity``)."""
    grid = base.potential.grid
    v = BasicPotential(values=v_values, grid=grid)
    state = relative_state(base, v)
    h = state.ricci_potential
    vdot = rhs(v, base)
    dh2 = state.grad_norm_sq(h)
    lap_h = 2.0 * (state.scalar_curvature - SCALAR_TARGET)
    c_s = float((grid.w * state.ratio) @ (h + vdot))
    growth = math.exp(MP1 * s)
    h0_norm = float(np.abs(base.ricci_potential).max())
    lap0_h0 = 2.0 * (base.scalar_curvature - SCALAR_TARGET)
    sup_vdot = float(np.abs(vdot).max())
    monitors = flow.FlowMonitors(
        sup_vdot=sup_vdot,
        sup_h=float(np.abs(h).max()),
        sup_dh2=float(dh2.max()),
        c_s=c_s,
        constancy_dev=float(np.abs(h + vdot - c_s).max()),
        bound_a_slack=growth * h0_norm - sup_vdot,
        bound_b_slack=4.0 * growth**2 * h0_norm**2 - float((h**2 + 0.5 * s * dh2).max()),
        bound_c_min=float((lap_h / growth).min() - lap0_h0.min()),
        bound_d_slack=growth * h0_norm - abs(c_s),
        s_pinch=float(np.abs(state.scalar_curvature - SCALAR_TARGET).max()),
        lap_h_min=float(lap_h.min()),
        calabi=calabi(state),
    )
    return h, vdot, monitors


# the monitors read off the float64 scalar curvature or derivative
FLOAT64_MONITORS = ("sup_dh2", "bound_b_slack", "bound_c_min", "s_pinch", "lap_h_min", "calabi")


class TestRecordBlocks:
    """Records are built a block of anchored steps at a time, with the bits
    one metric state per record gives."""

    @pytest.fixture
    def block_sizes(self, monkeypatch):
        sizes = []
        real_records = flow._make_flow_records

        def records(block, *args):
            sizes.append(len(block))
            return real_records(block, *args)

        monkeypatch.setattr(flow, "_make_flow_records", records)
        return sizes

    @staticmethod
    def base(n):
        grid = transverse.make_grid(n)
        return metric_state(
            BasicPotential.from_callable(grid, lambda x: 0.3 * (1.0 - x * x) + 0.05 * x**3)
        )

    @staticmethod
    def assert_records_match(base, records, march):
        anchored = [(s, v) for s, v, _, is_anchored in march if is_anchored]
        assert len(records) == len(anchored)
        expected = []
        for rec, (s, v) in zip(records, anchored):
            h, vdot, monitors = reference_record(base, s, v)
            assert rec.s == s and np.array_equal(rec.v.values, v)
            assert np.array_equal(rec.h, h) and np.array_equal(rec.vdot, vdot)
            assert np.array_equal(rec.ratio, relative_state(base, rec.v).ratio)
            expected.append(monitors)
        # the monitors read off S^T or |dh_s|^2 come from float64 matrix
        # products over the block, where a state takes matrix-vector
        # products: they agree to 1e-11 of the column's sup (at most
        # 4.7e-14 measured here, 3.7e-13 at n = 256); the rest bit for bit
        for name in (field.name for field in dataclasses.fields(flow.FlowMonitors)):
            got = np.array([getattr(rec.monitors, name) for rec in records])
            want = np.array([getattr(monitors, name) for monitors in expected])
            if name in FLOAT64_MONITORS:
                assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max(), name
            else:
                assert np.array_equal(got, want), name

    @pytest.mark.parametrize("n, s_end, blocks", [
        (33, 0.5, [32, 32, 32, 5]),
        (64, 0.4, [32, 32, 17]),
        (96, 0.2, [32, 9]),
    ])
    def test_blocks_match_one_state_per_record(self, n, s_end, blocks, block_sizes):
        # a record at every multiple of 0.005: full blocks, then a partial one
        assert flow._RECORD_BLOCK == 32
        base = self.base(n)
        policy = FlowPolicy(record_stride=1)
        traj = run_flow(base, s_end=s_end, policy=policy)
        assert traj.completed and block_sizes == blocks
        self.assert_records_match(base, traj.records, flow._steps(base, s_end, policy))

    def test_stopped_march_keeps_its_records(self, monkeypatch, block_sizes):
        # NaN candidates after the accepted steps up to s = 0.04, with a
        # record at every multiple of 1e-3, halve the step to the floor:
        # the 41 records so far, a full block and a partial one, come back
        base = self.base(64)
        policy = FlowPolicy(ds=1e-3, record_stride=1)
        march = list(flow._steps(base, 0.04, policy))
        real_step = flow._ChordSolver.__call__
        solves = []

        def step(self, q, b):
            solves.append(1)
            x = real_step(self, q, b)
            return x if len(solves) < len(march) else np.full_like(x, np.nan)

        monkeypatch.setattr(flow._ChordSolver, "__call__", step)
        traj = run_flow(base, s_end=1.0, policy=policy)
        assert not traj.completed
        assert traj.failure.startswith("step floor 1e-06 reached at s = 0.04")
        assert block_sizes == [32, 9]
        self.assert_records_match(base, traj.records, march)


class TestCarriedRatio:
    """The march carries the volume ratio as r(v + delta) = r(v) +
    Lap(delta)/4 and re-anchors it to the exact ratio at every record."""

    @pytest.fixture
    def linearized(self, base96, monkeypatch):
        """Logs the ratio each step linearizes about, with v, and whether
        the march took an anchored step just before it."""
        log = []
        flags = {"in_records": False, "fresh": True}
        real_rhs, real_records, real_steps = flow._rhs, flow._make_flow_records, flow._steps

        def rhs(ratio, v_values, base):
            # a record block's vdot is read off its ratios; log the steps only
            if not flags["in_records"]:
                log.append((ratio, np.array(v_values), flags["fresh"]))
                flags["fresh"] = False
            return real_rhs(ratio, v_values, base)

        def records(*args):
            flags["in_records"] = True
            try:
                return real_records(*args)
            finally:
                flags["in_records"] = False

        def steps(*args):
            for step in real_steps(*args):
                yield step
                if step[3]:
                    flags["fresh"] = True

        monkeypatch.setattr(flow, "_rhs", rhs)
        monkeypatch.setattr(flow, "_make_flow_records", records)
        monkeypatch.setattr(flow, "_steps", steps)
        return log

    def _exact(self, base, v_values):
        grid = base.potential.grid
        # a fresh Laplacian of the total psi + v
        total = base.potential.values + v_values
        return transverse._admissible(1.0 + grid._laplacian_ld(total) / 4.0)

    def test_drift_is_bounded(self, base96, linearized):
        # each step linearizes about its extrapolated point v + omega d,
        # whose ratio is carried as r + omega Lap(d)/4; measured at n = 96
        # to s = 2: 3.6e-13 relative with a re-anchor at every record,
        # 2.2e-12 when the ratio is carried throughout
        traj = run_flow(base96, s_end=2.0)
        assert traj.completed
        assert len(linearized) >= 400
        drift = 0.0
        for r, v, _ in linearized:
            exact = self._exact(base96, v)
            drift = max(drift, float(np.abs(r - exact).max() / np.abs(exact).max()))
        assert drift < 1e-12

    def test_record_re_anchors_to_the_exact_ratio(self, base96, linearized, monkeypatch):
        # a step linearizes about v + omega d with the ratio r + omega
        # Lap(d)/4; right after a record, r is the exact ratio of the
        # record's v.  With ds = 2^-8 and records at multiples of 2^-6,
        # every step from s = 3/64 on (past the graded start) is exactly
        # ds, so omega = 1 there; omega = 0 on the first step
        deltas = []
        real_step = flow._ChordSolver.__call__

        def step(self, q, b):
            deltas.append(real_step(self, q, b))
            return deltas[-1]

        monkeypatch.setattr(flow._ChordSolver, "__call__", step)
        traj = run_flow(base96, s_end=0.25, policy=FlowPolicy(ds=2.0**-8, record_stride=4))
        assert traj.completed and len(traj.records) == 17
        after = [k for k, (_, _, fresh) in enumerate(linearized) if fresh]
        # the first step and the step after each record but the last
        assert len(after) == len(traj.records) - 1
        grid = base96.potential.grid
        checked = [rec.s for rec in traj.records[:-1] if rec.s == 0.0 or rec.s >= 0.0625]
        assert len(checked) == 13
        for k, rec in zip(after, traj.records):
            if rec.s not in checked:
                continue
            r, v, _ = linearized[k]
            omega, d = (1.0, deltas[k - 1]) if k else (0.0, np.zeros(grid.n))
            exact = transverse._ratio_ld(base96.potential, rec.v)
            lap_d = grid.lap @ (d - grid.w @ d)
            assert np.array_equal(v, rec.v.values + omega * d)
            assert np.array_equal(r, transverse._admissible(exact + omega * lap_d / 4.0))

    def test_round_reference_applies_no_step_laplacian(self, ref128, counts):
        traj = run_flow(ref128, s_end=1.0, policy=FlowPolicy(record_stride=20))
        assert traj.completed and len(traj.records) == 11
        # one longdouble Laplacian per record less the anchor at s = 0
        # (the base's kept one), none per step, and none for min Lap_0
        # h_0, which the s = 0 record holds; one float64 Laplacian, of
        # log r, and one float64 derivative, of h_s, per record
        assert counts["laplacian"] == len(traj.records) - 1
        assert counts["laplacian64"] == counts["deriv64"] == len(traj.records)
        assert all(not r.v.values.any() for r in traj.records)
        assert all(not r.vdot.any() for r in traj.records)


@pytest.fixture
def step_log(monkeypatch):
    """Logs each flow step solve as (q, b, x) and, for each dense
    factorization, the number of step solves begun before it."""
    log = {"steps": [], "factorizations": [], "begun": 0}
    real_step, real_solve = flow._ChordSolver.__call__, np.linalg.solve

    def step(self, q, b):
        log["begun"] += 1
        x = real_step(self, q, b)
        log["steps"].append((q, b, x))
        return x

    def solve(a, b):
        log["factorizations"].append(log["begun"])
        return real_solve(a, b)

    monkeypatch.setattr(flow._ChordSolver, "__call__", step)
    monkeypatch.setattr(np.linalg, "solve", solve)
    log["exact"] = real_solve
    return log


class TestChordStep:
    def test_matches_a_dense_solve(self, base96, step_log):
        # the graded start refreshes the inverse at steps 10, 15, 20, 25
        # and 29, the tail's doublings at steps 71 and 173: 8
        # factorizations with the first; every other step reuses it.  The
        # stop bounds the predicted error left, rate/(1 - rate) sup|dx|, by
        # _CHORD_TOL sup|x|.  A stop after one sweep reads its rate off the
        # start's error, which may predict it low: each step is within
        # 2.8e-9 of the dense solve (step 174)
        run_flow(base96, s_end=1.0, policy=FlowPolicy(record_stride=10**6))
        steps = step_log["steps"]
        assert len(steps) == 220
        assert len(step_log["factorizations"]) <= 8
        lap = base96.potential.grid.lap
        for q, b, x in steps:
            exact = step_log["exact"](np.eye(len(b)) - q[:, None] * lap, b)
            assert np.abs(x - exact).max() <= 5 * flow._CHORD_TOL * np.abs(exact).max()

    def test_flow_iteration_holds_the_stop(self, base128, step_log):
        # the psi march to s = 2 and the pinching flow at n = 128 (the
        # benchmark's flow iteration): each of the 844 steps is within
        # _CHORD_TOL of the dense solve, at most 9.2e-10.  Without the
        # drift refresh, the pinching flow's steps that keep an inverse of
        # half their q held a top mode that the sweeps do not contract, and
        # drifted up to 8.5e-9 until the measured rate saw it
        assert run_flow(base128, s_end=2.0).completed
        epsilon_pinching(base128, eps=0.05)
        steps = step_log["steps"]
        assert len(steps) == 844
        lap = base128.potential.grid.lap
        for q, b, x in steps:
            exact = step_log["exact"](np.eye(len(b)) - q[:, None] * lap, b)
            assert np.abs(x - exact).max() <= flow._CHORD_TOL * np.abs(exact).max()

    @staticmethod
    def kept_solver(base, q):
        """A chord solver whose kept inverse is that of the step matrix at
        q, and a counter of the products with it until it is refreshed."""
        products = Counter()

        class Kept(np.ndarray):
            def __matmul__(self, other):
                products["kept"] += 1
                return np.asarray(self) @ other

        solver = flow._ChordSolver(base.potential.grid.lap)
        solver(q, np.ones_like(q))
        solver.inverse = solver.inverse.view(Kept)
        return solver, products

    def test_rate_that_predicts_a_miss_refreshes_within_two_sweeps(self, base96, step_log):
        # a step 1.3 times the kept one's, a drift below _CHORD_DRIFT: the
        # first sweep or the second predicts a miss, and the call refreshes
        # its inverse after at most the start product and two sweeps; the
        # fresh inverse solves to rounding
        q = FlowPolicy().ds / (4.0 * 1.5 * base96.ratio)
        solver, products = self.kept_solver(base96, q)
        b = q * rhs(BasicPotential.zero(base96.grid), base96)
        step_log["factorizations"].clear()
        x = solver(1.3 * q, b)
        assert len(step_log["factorizations"]) == 1 and 0 < products["kept"] <= 3
        exact = step_log["exact"](np.eye(len(b)) - 1.3 * q[:, None] * solver.lap, b)
        assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()

    @pytest.mark.parametrize("growth, swept", [(1.5, False), (2.0, False), (1.45, True)])
    def test_drift_refreshes_before_any_sweep(self, base96, step_log, growth, swept):
        # once q has grown by _CHORD_DRIFT = 1/2 from the kept inverse's,
        # the call refreshes it before sweeping: the top Laplacian modes
        # would contract by only about the drift per sweep, unseen by the
        # measured rate (not at all from a drift of 1)
        assert flow._CHORD_DRIFT == 0.5
        q = FlowPolicy().ds / (4.0 * 1.5 * base96.ratio)
        solver, products = self.kept_solver(base96, q)
        b = q * rhs(BasicPotential.zero(base96.grid), base96)
        step_log["factorizations"].clear()
        solver(growth * q, b)
        assert len(step_log["factorizations"]) == 1
        assert (products["kept"] > 0) == swept

    def test_same_matrix_takes_one_sweep(self, base96, step_log):
        # the kept inverse of this very matrix: the start product and one
        # sweep, whose correction is at rounding
        q = FlowPolicy().ds / (4.0 * 1.5 * base96.ratio)
        solver, products = self.kept_solver(base96, q)
        step_log["factorizations"].clear()
        solver(q, q * rhs(BasicPotential.zero(base96.grid), base96))
        assert step_log["factorizations"] == [] and products["kept"] == 2

    def test_nan_refreshes_and_is_returned(self, base96, step_log):
        # a NaN has no rate: the call refreshes and returns the NaN, which
        # the march rejects as a candidate
        q = FlowPolicy().ds / (4.0 * 1.5 * base96.ratio)
        solver, products = self.kept_solver(base96, q)
        step_log["factorizations"].clear()
        b = np.ones_like(q)
        b[3] = np.nan
        x = solver(q, b)
        assert len(step_log["factorizations"]) == 1 and products["kept"] == 2
        assert np.isnan(x).any()

    def test_halving_refreshes_the_inverse(self, base96, step_log, monkeypatch):
        # steps 150 and 151 reuse the inverse; reject step 150 twice, and
        # its retry at a quarter of the step drifts q past _CHORD_DRIFT and
        # makes a fresh factorization (one halving, to about 0.55 of the
        # kept q, keeps the inverse).  With ds = 2^-8 every step past the
        # graded start is exactly ds, so the retry has omega = 1/4 and its
        # system is q = (ds/4)/(4 a r*), a = 6/5, at its own extrapolated
        # ratio r*
        policy = FlowPolicy(ds=2.0**-8, record_stride=4)
        march = [s for s, *_ in flow._steps(base96, 1.0, policy)]
        assert np.diff(march)[148:150].tolist() == [policy.ds, policy.ds]
        assert not {150, 151} & set(step_log["factorizations"])
        step_log.update(steps=[], factorizations=[], begun=0)
        real_admissible = flow._admissible
        rejected, extrapolated = [], []

        def admissible(ratio):
            if step_log["begun"] == 150 and len(rejected) < 2:
                rejected.append(150)
                raise InadmissibleError(0.0)
            checked = real_admissible(ratio)
            if rejected and not extrapolated:
                # the retry's first check is of its extrapolated ratio
                extrapolated.append(checked)
            return checked

        monkeypatch.setattr(flow, "_admissible", admissible)
        march = [s for s, *_ in flow._steps(base96, 1.0, policy)]
        assert rejected == [150, 150] and march[-1] == 1.0
        assert np.diff(march)[149] == 0.25 * policy.ds
        q_retry = step_log["steps"][150][0]
        a = (1.0 + 2.0 * 0.25) / (1.0 + 0.25)
        assert np.array_equal(q_retry, 0.25 * policy.ds / (4.0 * a * extrapolated[0]))
        assert 151 in step_log["factorizations"]

    def test_round_reference_factors_once(self, ref128, step_log):
        # a zero right-hand side is solved by the first inverse forever
        traj = run_flow(ref128, s_end=5.0, policy=FlowPolicy(record_stride=100))
        assert traj.completed
        assert len(step_log["steps"]) == 1020
        assert step_log["factorizations"] == [1]
        assert all(not r.v.values.any() for r in traj.records)


class TestBDF2Step:
    def test_first_step_is_linearly_implicit_euler(self, base96, step_log):
        # omega = 0: (I - h Lap/(4r)) delta = h rhs, r the base's own ratio,
        # h the graded start's first step
        h = FlowPolicy().ds * flow._START_FRACTION
        run_flow(base96, s_end=h)
        (_, _, x), = step_log["steps"]
        grid = base96.potential.grid
        ratio = transverse._admissible(1.0 + grid._laplacian_ld(base96.potential.values) / 4.0)
        a = np.eye(grid.n) - (h / (4.0 * ratio))[:, None] * grid.lap
        exact = step_log["exact"](a, h * rhs(BasicPotential.zero(grid), base96))
        assert np.abs(x - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_rejection_halves_the_step(self, base96, monkeypatch):
        # at step 15 of the graded start the gap to s = 0.01 is 1.48 caps,
        # so the step is half the gap, 0.74 of the cap; a rejected step is
        # retried at half its own length (a quarter of the gap), not split
        # by half the cap (a third of the gap)
        policy = FlowPolicy()
        unrejected = np.diff([s for s, *_ in flow._steps(base96, 0.05, policy)])
        cap = policy.ds * flow._START_FRACTION * flow._GROWTH**14
        assert unrejected[14] == pytest.approx(0.74 * cap, abs=0.01 * cap)
        solves, rejected = [], []
        real_step, real_admissible = flow._ChordSolver.__call__, flow._admissible

        def step(self, q, b):
            solves.append(1)
            return real_step(self, q, b)

        def admissible(ratio):
            if len(solves) == 15 and not rejected:
                rejected.append(15)
                raise InadmissibleError(0.0)
            return real_admissible(ratio)

        monkeypatch.setattr(flow._ChordSolver, "__call__", step)
        monkeypatch.setattr(flow, "_admissible", admissible)
        steps = np.diff([s for s, *_ in flow._steps(base96, 0.05, policy)])
        assert rejected == [15]
        assert np.array_equal(steps[:14], unrejected[:14])
        assert steps[14] == pytest.approx(0.5 * unrejected[14], rel=1e-12)

    def test_rejected_step_varies_omega(self, base96, monkeypatch):
        # a rejected candidate at step 100 is retried at half the step
        # (omega = 1/2); the cap then grows by a tenth per step, and the
        # even split of the gaps to the records takes the step back to ds
        # through 2/3 of it (omega = 4/3, then 3/2), four steps more in
        # all.  Each step's extrapolated point is v + omega d
        policy = FlowPolicy()
        unrejected = list(flow._steps(base96, 1.0, policy))
        solves, rejected, extrapolated = [], [], []
        real_step, real_admissible, real_rhs = (
            flow._ChordSolver.__call__, flow._admissible, flow._rhs)

        def step(self, q, b):
            solves.append(1)
            return real_step(self, q, b)

        def admissible(ratio):
            if len(solves) == 100 and not rejected:
                rejected.append(100)
                raise InadmissibleError(0.0)
            return real_admissible(ratio)

        def rhs(ratio, v_values, base):
            extrapolated.append(np.array(v_values))
            return real_rhs(ratio, v_values, base)

        monkeypatch.setattr(flow._ChordSolver, "__call__", step)
        monkeypatch.setattr(flow, "_admissible", admissible)
        monkeypatch.setattr(flow, "_rhs", rhs)
        march = list(flow._steps(base96, 1.0, policy))
        assert rejected == [100] and march[-1][0] == pytest.approx(1.0, abs=1e-12)
        assert len(march) == len(unrejected) + 4
        vs = [v for _, v, _, _ in march]
        # solve k (from 0) starts from accepted step k, or k - 1 past the rejection
        omegas = []
        for k in range(98, 112):
            n = k if k < 100 else k - 1
            d = vs[n] - vs[n - 1]
            omegas.append(float((extrapolated[k] - vs[n]) @ d / (d @ d)))
        assert omegas == pytest.approx(
            [1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 4 / 3, 1.0, 1.0, 1.5, 1.0, 1.0], rel=1e-9
        )
        # measured 9.4e-7 relative at s = 1
        v_end, v_ref = march[-1][1], unrejected[-1][1]
        assert np.abs(v_end - v_ref).max() < 2e-6 * np.abs(v_ref).max()


class TestTail:
    """Past the last record time s_last the march targets s_end alone: it
    holds each step for _TAIL_HOLD steps, then doubles it up to _TAIL_DS,
    and no step is anchored, s_end's included."""

    @pytest.mark.parametrize("s_last", [0.0, 0.5, 1.0])
    def test_no_anchored_step_past_s_last(self, base96, s_last, counts):
        # up to s_last the march is the one without a tail, bit for bit,
        # anchored at every record time; past it no step is anchored, so
        # it applies no Laplacian
        policy = FlowPolicy()
        counts.clear()
        march = list(flow._steps(base96, 3.0, policy, s_last=s_last))
        laplacians = counts["laplacian"]
        tail_start = next(i for i, step in enumerate(march) if step[0] > s_last + flow._S_TOL)
        assert march[-1][0] == 3.0
        assert not any(is_anchored for *_, is_anchored in march[tail_start:])
        full = list(flow._steps(base96, 3.0, policy))
        head = [step for step in full if step[0] <= s_last + flow._S_TOL]
        assert len(head) == tail_start
        for (s, v, ratio, is_anchored), ref in zip(march, head):
            assert (s, is_anchored) == (ref[0], ref[3])
            assert np.array_equal(v, ref[1]) and np.array_equal(ratio, ref[2])
        anchors = sum(is_anchored for *_, is_anchored in head) - 1
        assert laplacians == anchors
        assert len(march) < len(full)

    @pytest.mark.parametrize("from_round", [True, False])
    def test_steps_change_once_per_hold_by_at_most_two(self, ref96, base96, from_round):
        # from the round reference the tail starts at s = 0 with the graded
        # start's first step; from base96 at s = 1, after the record there
        base, s_last = (ref96, 0.0) if from_round else (base96, 1.0)
        s = np.array([s for s, *_ in flow._steps(base, 5.0, FlowPolicy(), s_last=s_last)])
        in_tail = s[:-1] >= s_last - flow._S_TOL
        tail = np.diff(s)[in_tail]
        # from the step that reached s_last, if any, through the tail
        steps = np.diff(s)[max(0, np.argmax(in_tail) - 1):]
        ratio = steps[1:] / steps[:-1]
        assert ratio.min() >= 1.0 - 1e-9 and ratio.max() <= 2.0 + 1e-9
        # tail step k + 1 differs from step k: a change ends each hold
        changes = np.flatnonzero(np.abs(tail[1:] / tail[:-1] - 1.0) > 1e-9)
        assert len(changes) >= 3
        assert np.diff(changes, prepend=-1).min() >= flow._TAIL_HOLD
        assert flow._TAIL_DS / 2.0 < tail.max() <= flow._TAIL_DS * (1.0 + 1e-9)


class TestFlowSuiteMarch:
    def test_march_lengths(self, monkeypatch):
        # each march makes one chord solver: the psi march takes the 422
        # steps to s = 2 and a tail of 82 to s = 5, the round march a tail
        # from s = 0 alone
        steps = Counter()
        real_step = flow._ChordSolver.__call__

        def step(self, q, b):
            steps[id(self)] += 1
            return real_step(self, q, b)

        monkeypatch.setattr(flow._ChordSolver, "__call__", step)
        grid = transverse.make_grid(64)
        verification.flow_suite(n=64, path_endpoint=BasicPotential.zero(grid))
        assert sorted(steps.values()) == [144, 504]

    def test_records_equal_the_shorter_march(self, grid96, base96):
        # the flow suite builds its s in [0, 2] records off the march to
        # s = 5, whose tail past s = 2 takes no record
        short = run_flow(base96, s_end=2.0)
        _, traj = verification.flow_suite(n=96, path_endpoint=BasicPotential.zero(grid96))
        assert (traj.completed, traj.failure, traj.policy) == (
            short.completed, short.failure, short.policy)
        assert len(traj.records) == len(short.records) == 201
        for a, b in zip(traj.records, short.records):
            assert a.s == b.s and a.monitors == b.monitors
            for field in ("h", "vdot"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
            assert np.array_equal(a.v.values, b.v.values)

    def test_stationarity_reads_every_step(self, monkeypatch):
        # increments eps and then -eps on the round reference's last two
        # steps: v is exactly 0 at s_end and nonzero at the step before it;
        # no step after s = 0 is anchored
        eps = 1e-9
        grid = transverse.make_grid(64)
        march = flow._steps(transverse.reference_state(grid), 5.0, FlowPolicy(), s_last=0.0)
        total = len(list(march)) - 1
        real_step = flow._ChordSolver.__call__
        round_steps = []

        def step(self, q, b):
            x = real_step(self, q, b)
            # the round march's right-hand side starts out exactly zero
            if round_steps or not b.any():
                round_steps.append(1)
                if len(round_steps) in (total - 1, total):
                    x = np.full_like(x, eps if len(round_steps) == total - 1 else -eps)
            return x

        monkeypatch.setattr(flow._ChordSolver, "__call__", step)
        checks, _ = verification.flow_suite(n=64, path_endpoint=BasicPotential.zero(grid))
        assert len(round_steps) == total <= 150
        stationary = next(c for c in checks if c.name == "flow-stationary-round")
        assert not stationary.passed and stationary.value >= eps


class TestSmoothing:
    def test_report_fields(self, base96):
        traj = run_flow(base96, s_end=2.0, policy=FlowPolicy(record_stride=50))
        rep = smoothing_monitors(traj)
        assert rep.worst_a_slack >= -1e-10
        assert rep.worst_b_slack >= -1e-10
        assert rep.worst_c_min >= -1e-10
        assert rep.worst_d_slack >= -1e-10
        assert rep.max_constancy_dev < 1e-12
        assert rep.u_bound_slack is not None and rep.u_bound_slack > 0
        assert rep.sandwich_held is not None

    def test_time_one_section_reads_one_ratio(self, base96, traj96, counts):
        # the sandwich reads the volume ratio the record at s = 1 keeps: no
        # Laplacian, no state
        counts.clear()
        rep = smoothing_monitors(traj96)
        assert counts == {}
        # the same numbers, bit for bit, as a full state of base + v_1
        rec1 = traj96.record_at(1.0)
        full = relative_state(base96, rec1.v)
        assert rep.sandwich_lo_margin == float(full.ratio.min()) - 0.5
        assert rep.sandwich_hi_margin == 1.0 - float(full.ratio.max())

    def test_short_trajectory_rejected(self, base96):
        traj = run_flow(base96, s_end=0.5, policy=FlowPolicy(record_stride=10**6))
        short = type(traj)(
            initial=traj.initial,
            records=traj.records[:1],
            policy=traj.policy,
            completed=True,
            failure=None,
        )
        with pytest.raises(ConfigurationError):
            smoothing_monitors(short)

    @pytest.mark.parametrize("stride", [300, 10**6])
    def test_no_time_one_section_without_a_record_at_one(self, base96, stride):
        # records at s = 0.9 and 1.2 (stride 300) or at 0 and 2 only: none
        # is the time-one section
        traj = run_flow(base96, s_end=2.0, policy=FlowPolicy(record_stride=stride))
        assert all(abs(r.s - 1.0) > 0.05 for r in traj.records)
        rep = smoothing_monitors(traj)
        assert rep.u_bound_slack is None
        assert rep.sandwich_held is None

    def test_no_time_one_section_when_flow_is_short(self, base96):
        traj = run_flow(base96, s_end=0.5, policy=FlowPolicy(record_stride=100))
        rep = smoothing_monitors(traj)
        assert rep.u_bound_slack is None
        assert rep.sandwich_held is None


class TestPinching:
    def test_pinch_from_bump(self, base96):
        res = epsilon_pinching(base96, eps=0.1)
        assert res.achieved <= 0.1
        assert res.h_at_path <= 0.05 + 1e-12
        assert 0.1 < res.path_t < 1.0
        assert res.calabi <= res.calabi_bound_value
        assert res.flow_h_slack > 0
        assert res.flow_dh2_slack > 0
        assert res.flow_lap_h_min > 0
        # the sandwich is reported, not assumed: the lower side holds,
        # the upper side may overshoot 1 by O(h) during relaxation
        assert res.smoothing.sandwich_lo_margin > 0
        assert res.smoothing.sandwich_hi_margin > -0.01
        assert res.trajectory.completed

    def test_invalid_eps(self, base96, counts):
        # an eps whose Calabi bound is not a finite positive number, or
        # one below the floor _PINCH_EPS_PER_N4 n^4 (2.5e-9 at n = 96), is
        # refused before the continuity stage starts
        counts.clear()
        floor = flow._PINCH_EPS_PER_N4 * 96**4
        for eps in (0.0, math.nan, math.inf, 1e300, 1e-300, 2e-10, 0.5 * floor):
            with pytest.raises(ConfigurationError):
                epsilon_pinching(base96, eps=eps)
        assert counts == {}

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_eps_at_the_floor_is_attained(self, n):
        # the floor grows like n^4 and lies at least 40 times above the
        # pinch measured (5.2e-19 n^4; 58 times at n = 16); a tenth leaves
        # room for the last bits that vary with the BLAS threads
        eps = flow._PINCH_EPS_PER_N4 * n**4
        grid = transverse.make_grid(n)
        base = transverse.metric_state(
            BasicPotential.from_callable(grid, lambda x: 0.3 * (1.0 - x * x)))
        assert epsilon_pinching(base, eps).achieved <= eps / 10.0

    def test_endpoint_read_off_the_last_record(self, base96, counts, monkeypatch):
        # once the flow has returned, no state is built and no Laplacian
        # applied: the time-one section of the smoothing report reads the
        # record's ratio, and the pinch and the Calabi energy are the last
        # record's columns
        real_run_flow = flow.run_flow
        after_flow = {}

        def run(state, s_end):
            trajectory = real_run_flow(state, s_end=s_end)
            after_flow.update(counts)
            return trajectory

        monkeypatch.setattr(flow, "run_flow", run)
        counts.clear()
        res = epsilon_pinching(base96, eps=0.1)
        rest = counts - Counter(after_flow)
        assert rest == {}
        # the time-one section, bit for bit, as a full state of base + v_1
        rec1 = res.trajectory.record_at(1.0)
        full = relative_state(res.trajectory.initial, rec1.v)
        assert res.smoothing.sandwich_lo_margin == float(full.ratio.min()) - 0.5
        assert res.smoothing.sandwich_hi_margin == 1.0 - float(full.ratio.max())
        end = res.trajectory.endpoint()
        assert res.achieved == end.monitors.s_pinch
        assert res.calabi == end.monitors.calabi

    def test_continuity_stage_reads_h_off_the_ratio(self, base96, counts, monkeypatch):
        # Newton aside (with the Laplacian of its predicted guess), each
        # accepted t builds one state, whose ratio (which gives h) is
        # formed from the ratio the base keeps and the Laplacian phi_t
        # keeps, and applies none; the state at the stop is the flow's
        # base, whose scalar curvature is never read
        newton = Counter()
        real_solve = continuity._newton

        def solve(*args, **kwargs):
            before = counts["laplacian"]
            try:
                solved = real_solve(*args, **kwargs)
            finally:
                newton["laplacian"] += counts["laplacian"] - before
            newton["accepted"] += 1
            return solved

        class Stop(Exception):
            pass

        stage = {}

        def stop(state, s_end):
            stage.update(counts, state=state)
            raise Stop

        monkeypatch.setattr(continuity, "_newton", solve)
        monkeypatch.setattr(flow, "run_flow", stop)
        counts.clear()
        with pytest.raises(Stop):
            epsilon_pinching(base96, eps=0.1)
        assert newton["accepted"] > 2
        assert stage["metric_state"] == newton["accepted"]
        assert stage["laplacian"] == newton["laplacian"]
        assert np.abs(stage["state"].ricci_potential).max() <= 0.05
