"""Normalized transverse Ricci flow in potential form, with monitors.

The flow evolves a potential v over a fixed base structure by

    dv/ds = log r_base(v) + (m+1) v - h_base,      v(0) = 0,

whose fixed points satisfy the Einstein equation r_base(v) =
exp(h_base - (m+1)v).  The constant mode is deliberately left free: it
grows like e^{(m+1)s} (v and v + c e^{(m+1)s} trace the same geometry),
so all convergence statements are up to a constant, and the monitors
work with the per-state Ricci potential h_s, which renormalizes itself.

Stepping is second-order semi-implicit BDF2 with variable steps (the
implicit-explicit splitting of Ascher, Ruuth and Wetton, SIAM J. Numer.
Anal. 32, 1995): each step linearizes log r_base(v) about a point
extrapolated from the last two states and advances its Laplacian part
implicitly by the two-step backward difference, while the zeroth-order
(m+1)v term stays explicit at the extrapolated point.  The first step has
no history and is linearly implicit Euler.  The Laplacian is what makes
the problem stiff; the zeroth-order term is harmless at Delta s = 5e-3.
The start is graded: the fast early modes decay within s ~ 0.05, so the
first step is Delta s/16 and each accepted step lets the next grow by a
tenth, up to Delta s after about 30 steps.  Steps are shortened to land
on every record time, the gap to it split evenly.  At the default Delta s = 5e-3 the march to s = 2 takes 422 steps,
and its records are off by at most 5e-4 of a column's sup, against 9.5e-3
for the first-order step at 1e-3 in 2,000 steps and 3.0e-2 for uniform
BDF2 steps of 5e-3, whose first records under-resolve the transient
(benchmarks/FLOW_ACCURACY.md).

A march that records nothing past some flow time s_last (the flow
suite's march to s = 5 records up to s = 2, its round reference march
nothing after s = 0) steps freely after it: it targets s_end alone,
holds each step length for three steps and then doubles it, up to 0.04.
A ratio of 2 between steps keeps variable-step BDF2 zero-stable (below
1 + sqrt 2), and the constant steps of a hold reuse one kept inverse.
The flow suite's psi march takes 504 steps (82 of them after s = 2), the
round one 144; v at s = 5, mean-free, is off a march at Delta s/4 by
6.7e-10 of its sup (1.7e-11 with no tail), far inside the
path-consistency tolerance 1e-5.

The step matrix I - Delta s Lap/(4 a r), with a = 3/2 at a constant step
(1 on the first), moves only by O(Delta s) from one step to the next, so
the march keeps one inverse of it and reuses it by defect correction (the
chord method): each step starts from the kept inverse applied to the
right-hand side and makes at most five sweeps x += P (b - A x), two
float64 matvecs each.  As stiff solvers stop their simplified Newton
iterations (Hairer and Wanner, Solving Ordinary Differential Equations
II, IV.8), the sweeps stop on their measured contraction rate theta, the
ratio of the last two corrections: once the error left, predicted as
theta/(1 - theta) times the last correction, is at most 1e-9 of the
solution's sup, far below the step's own time error, 5e-4 of a column's
sup.  The records of the march below differ from those of a stop at
1e-11 by at most 4.5e-9 of a column's sup.  As soon as the rate reaches
1 or predicts that the sweeps left end above the stop (the growing steps
of the graded start, a halving or doubling of the step, the fast early
transient) the inverse is refreshed from this step's matrix and the step
is redone from it.  The march of the psi = 0.3(1-x^2) base to s = 2 at
n = 128 makes 6 factorizations in its 422 steps, the last on the step
from s = 0.46.

Between anchors the march carries only the volume ratio r_base(v), in
extended precision.  The ratio is affine in the potential, r(v + delta) =
r(v) + Lap(delta)/4, so each attempted step forms its candidate's ratio
from the carried one and a float64 matvec of the dense Laplacian with the
step's mean-free increment, and casts and checks it as metric_state does.
That ratio is the admissibility test of the candidate and, once the step
is accepted, the carried ratio; the next step reuses the same matvec for
the ratio at its extrapolated point, and no step applies an
extended-precision Laplacian or builds a metric state.  ``_steps``
re-anchors the carried ratio to the exact one, from the base's kept ratio
and a Laplacian of v (``transverse._ratio_ld``), only at the steps that
become records: s = 0, each record time (the multiples of record_stride *
Delta s) and the final time up to s_last.  So the drift of the carry
spans at most one record interval (about 1e-12 relative at n = 128), or
the tail, which no record reads (3e-10 over the flow suite's, where the
growing constant mode of v rounds in each increment's mean).

Monitor quantities are recomputed from scratch at every record, from its
anchored ratio, never evolved, so the maximum-principle checks are
independent of stepper error.  One function (``_flow``) marches and
records every recorded flow: run_flow's and the flow suite's.  It builds
the records a block of _RECORD_BLOCK anchored steps at a time: h_s,
dv/ds, |dh_s|^2, c_s and the scalar curvature are formed for the whole
block as (rows, n) arrays by the formulas a metric state uses
(``transverse._ricci_potential``, ``_grad_norm_sq`` and
``_scalar_curvature``, which take a stack as they take one field), and
no state is built.  Lap_s h_s is read off the scalar curvature: at m = 1,
r = 1 + Lap(psi + v)/4 and S^T r = 4 - Lap(log r)/2 give

    Lap_s h_s = Lap(-log r - 2(psi + v))/r = 2 (S^T - 4)

exactly.  So each record applies two Laplacians, its anchor and the
scalar curvature's, and one derivative, of h_s for |dh_s|^2, and keeps
its float64 volume ratio, from which smoothing_monitors reads the metric
sandwich at s = 1.  The monitors are

    (a)  sup|dv/ds|  <=  e^{(m+1)s} sup|h_0|
    (b)  sup(h_s^2 + (s/2)|dh_s|_s^2)  <=  4 e^{2(m+1)s} sup|h_0|^2
    (c)  min e^{-(m+1)s} Lap_s h_s  >=  min Lap_0 h_0
    (d)  |c_s|  <=  e^{(m+1)s} sup|h_0|,  where  h_s = -dv/ds + c_s

Bound (c) is the minimum-principle form, here the minimum principle for
S^T: e^{-(m+1)s} Lap_s h_s = 2 e^{-(m+1)s} (S^T - 2m(m+1)) is a
supersolution of the flow's heat operator, so its spatial minimum is
nondecreasing in s; comparing values at a fixed grid point would be
strictly stronger than what holds.

plus the achieved scalar-curvature pinching max|S^T - 2m(m+1)| and the
Calabi energy int (S^T - 2m(m+1))^2 dmu_s, which epsilon_pinching reads
off its last record; an eps below the pinch the flow can attain at n
nodes, _PINCH_EPS_PER_N4 n^4, is refused before any work.
smoothing_monitors adds a discrete C^{1/2} seminorm of h_1 (geodesic
distance of the round quotient), which feeds the fitted smoothing
constants when the flow starts from a continuity-path state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from numpy.typing import NDArray

from .continuity import PathPolicy, _march
from .curvature import calabi_bound
from .errors import (
    ConfigurationError,
    InadmissibleError,
    InvariantViolation,
    SolverError,
)
from .functionals import relative_state
from .transverse import (
    M_DIM,
    SCALAR_TARGET,
    BasicPotential,
    MetricState,
    _admissible,
    _grad_norm_sq,
    _ratio_ld,
    _ricci_potential,
    _scalar_curvature,
)

__all__ = [
    "FlowPolicy",
    "FlowMonitors",
    "FlowRecord",
    "FlowTrajectory",
    "SmoothingReport",
    "PinchResult",
    "flow_rhs",
    "run_flow",
    "holder_seminorm",
    "smoothing_monitors",
    "epsilon_pinching",
]

MP1 = M_DIM + 1
# the records evaluate e^{2(m+1)s}; past this flow time it overflows float64
S_END_MAX = math.log(sys.float_info.max) / (2 * MP1)
# the march stops once s is within this of s_end
_S_TOL = 1e-12
# the chord step: the most sweeps from a kept inverse, and the error left
# that the sweeps' rate predicts, relative to the sup of the solution, at
# which they stop: far below the step's own time error (about 5e-4 of a
# column's sup at the default ds, benchmarks/FLOW_ACCURACY.md)
_CHORD_SWEEPS = 5
_CHORD_TOL = 1e-9
# the graded start: the first step is this fraction of FlowPolicy.ds, and
# each accepted step lets the next grow by _GROWTH, up to FlowPolicy.ds
_START_FRACTION = 1.0 / 16.0
_GROWTH = 1.1
# the tail after the last record time: each step length is held for
# _TAIL_HOLD accepted steps and then doubled, up to _TAIL_DS (or
# FlowPolicy.ds if larger); a step ratio of 2 is below 1 + sqrt(2), where
# variable-step BDF2 stays zero-stable
_TAIL_HOLD = 3
_TAIL_DS = 0.04
# the floor of the step's halvings and of FlowPolicy.ds; the most steps
# s_end / ds of a march (S_END_MAX at the default ds takes 35,400)
_DS_FLOOR = 1e-6
MAX_FLOW_STEPS = 100_000
# the largest FlowPolicy.ds, 20 times the default: a larger step leaves
# the fast early modes (they decay within s ~ 0.05) unresolved, and one
# above s_end makes a single step of the whole run
MAX_DS = 0.1
_PINCH_T_START = 0.1  # the pinching path's first t
# the least pinching eps is this times n^4, above the float64 roundoff of
# S^T where the achieved pinch stops.  From t = 1 that was at most
# 2.3e-19 n^4 (3.8e-12 at n = 128, 5.1e-11 at 512) over n = 16 to 512 and
# the bases 0.3(1-x^2), 0.1x and 0.05(x^3-x)+0.02, so the floor is at
# least 40 times the pinch attained (43 at n = 16, 278 from n = 64 up);
# at MAX_GRID it is 1.1e-5
_PINCH_EPS_PER_N4 = 1e-17
# anchored steps whose records are built together, as (rows, n) arrays
_RECORD_BLOCK = 32


def _rhs(ratio: NDArray, v_values: NDArray, base: MetricState) -> NDArray[np.float64]:
    """log r_base(v) + (m+1) v - h_base from the volume ratio r of base + v."""
    return np.log(ratio / base.ratio) + MP1 * v_values - base.ricci_potential


def flow_rhs(v: BasicPotential, base: MetricState) -> NDArray[np.float64]:
    """Right-hand side log r_base(v) + (m+1) v - h_base, pointwise, from
    the ratio of the state of base + v alone.

    Raises InadmissibleError when base + v is not positive.
    """
    return _rhs(relative_state(base, v).ratio, v.values, base)


def holder_seminorm(grid, f: NDArray, k: float = 0.5) -> float:
    """Discrete C^{0,k} seminorm with the geodesic distance of the round
    quotient (a sphere of radius 1/2): d = |theta_i - theta_j| / 2."""
    theta = np.arccos(np.clip(-np.asarray(grid.x), -1.0, 1.0))
    d = np.abs(theta[:, None] - theta[None, :]) / 2.0
    mask = d > 0
    df = np.abs(np.asarray(f)[:, None] - np.asarray(f)[None, :])
    return float((df[mask] / d[mask] ** k).max())


@dataclass(frozen=True)
class FlowPolicy:
    """The step ds (between the constants _DS_FLOOR and MAX_DS, reached
    after the graded start, halved on an inadmissible candidate, never
    below _DS_FLOOR) and a record at every multiple of record_stride * ds
    in flow time.  The defaults take 422 BDF2 steps to s = 2 and record
    at multiples of 0.01."""

    ds: float = 5e-3
    record_stride: int = 2

    def __post_init__(self):
        if not (_DS_FLOOR <= self.ds <= MAX_DS):
            raise ConfigurationError(f"ds must lie in [{_DS_FLOOR}, {MAX_DS}], got {self.ds}")
        stride = self.record_stride
        if not (isinstance(stride, (int, np.integer)) and stride >= 1):
            raise ConfigurationError(
                f"record_stride must be an integer >= 1, got {stride!r}"
            )


@dataclass(frozen=True)
class FlowMonitors:
    sup_vdot: float
    sup_h: float
    sup_dh2: float
    c_s: float
    constancy_dev: float   # sup |h_s + vdot - c_s|, zero in exact arithmetic
    bound_a_slack: float
    bound_b_slack: float
    bound_c_min: float
    bound_d_slack: float
    s_pinch: float         # max |S^T - 2m(m+1)|
    lap_h_min: float       # min Lap_s h_s
    calabi: float          # int (S^T - 2m(m+1))^2 dmu_s


@dataclass(frozen=True, eq=False)
class FlowRecord:
    s: float
    v: BasicPotential
    h: NDArray[np.float64]
    vdot: NDArray[np.float64]
    ratio: NDArray[np.float64]  # volume ratio of base + v, read-only
    monitors: FlowMonitors


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    initial: MetricState
    records: tuple[FlowRecord, ...]
    policy: FlowPolicy
    completed: bool
    failure: Optional[str]

    def endpoint(self) -> FlowRecord:
        return self.records[-1]

    def record_at(self, s: float) -> FlowRecord:
        """Record nearest to flow time s."""
        idx = int(np.argmin([abs(r.s - s) for r in self.records]))
        return self.records[idx]


def _make_flow_records(
    block: list[tuple[float, NDArray, NDArray[np.longdouble]]],
    base: MetricState,
    lap0_min: Optional[float],
) -> list[FlowRecord]:
    """The records of base + v at the anchored steps (s, v, ratio_ld) of
    block, whose exact volume ratios the march has formed already, against
    the bounds sup|h_0|, read off base, and min Lap_0 h_0 = lap0_min, which
    is read off the block's first row when None (a block that starts at
    s = 0).

    Each field is formed for the whole block at once, as a (rows, n)
    array, by the formulas a metric state of base + v applies to one row
    (``transverse``), and no state is built: one Laplacian per row, of
    log r for the scalar curvature S^T, and one derivative, of h_s, the
    route of ``MetricState.grad_norm_sq``.  Lap_s h_s is 2 (S^T - 4).  The
    integrals stay one float64 dot of the weights with each row (one
    ``np.vecdot`` over the block), the rounding of a state's; each monitor
    is one reduction along the rows.
    """
    grid = base.potential.grid
    h0_norm = float(np.abs(base.ricci_potential).max())
    s, v, ratio_ld = (np.array(column) for column in zip(*block))
    ratio = _admissible(ratio_ld)
    h, _ = _ricci_potential(grid, ratio, base.potential.values + v)
    vdot = _rhs(ratio, v, base)
    dh2 = _grad_norm_sq(grid, ratio, grid.deriv(h))
    dev = _scalar_curvature(grid, ratio_ld) - SCALAR_TARGET
    # Lap_s h_s = 2 (S^T - 4) at m = 1 (the module docstring)
    lap_h = 2.0 * dev
    measure = grid.w * ratio
    growth = np.array([math.exp(MP1 * t) for t in s.tolist()])
    # squared by float pow, whose last bit differs from numpy's x * x
    growth_sq = np.array([g**2 for g in growth.tolist()])
    sup_vdot = np.abs(vdot).max(axis=1)
    c_s = np.vecdot(measure, h + vdot)
    lap_h_min = lap_h.min(axis=1)
    if lap0_min is None:
        lap0_min = lap_h_min[0]
    columns = dict(
        sup_vdot=sup_vdot,
        sup_h=np.abs(h).max(axis=1),
        sup_dh2=dh2.max(axis=1),
        c_s=c_s,
        constancy_dev=np.abs(h + vdot - c_s[:, None]).max(axis=1),
        bound_a_slack=growth * h0_norm - sup_vdot,
        bound_b_slack=4.0 * growth_sq * h0_norm**2 - (h**2 + 0.5 * s[:, None] * dh2).max(axis=1),
        bound_c_min=(lap_h / growth[:, None]).min(axis=1) - lap0_min,
        bound_d_slack=growth * h0_norm - np.abs(c_s),
        s_pinch=np.abs(dev).max(axis=1),
        lap_h_min=lap_h_min,
        calabi=np.vecdot(measure, dev**2),
    )
    h.flags.writeable = False
    ratio.flags.writeable = False
    return [
        FlowRecord(
            s=t,
            v=BasicPotential(values=v[i], grid=grid),
            h=h[i],
            vdot=vdot[i],
            ratio=ratio[i],
            monitors=FlowMonitors(**{name: float(col[i]) for name, col in columns.items()}),
        )
        for i, t in enumerate(s.tolist())
    ]


class _ChordSolver:
    """Solves the step system (I - diag(q) Lap) x = b, q = step/(4 a r), by
    defect correction from one kept inverse P of an earlier step matrix.

    A call starts from x = P b, the correction of x = 0, and makes at most
    _CHORD_SWEEPS sweeps dx = P (b - x + q Lap x).  Each sweep measures the
    contraction rate theta = sup|dx| / sup|dx'|, dx' the correction before
    it, and the call ends once the error left, predicted as theta/(1 -
    theta) sup|dx|, is at most _CHORD_TOL times the sup of x; the first
    sweep predicts it with the larger of theta and the rate at which the
    last call ended (Hairer and Wanner's eta_0, Solving ODEs II, IV.8).
    As soon as theta >= 1 (or NaN), or theta^k, k the sweeps left,
    predicts that they end above the stop, P is refreshed from this call's
    matrix (one dense factorization, with the rate set back to 0) and the
    call is redone from it; the sweeps from a fresh P are taken as they
    end.  A correction after a zero one (the zero right-hand side of a
    round reference) has rate 0.
    """

    def __init__(self, lap: NDArray[np.float64]):
        self.lap = lap
        self.inverse: Optional[NDArray[np.float64]] = None
        self.rate = 0.0

    def _sweeps(self, q: NDArray, b: NDArray, fresh: bool) -> Optional[NDArray[np.float64]]:
        """x from P, or None once the rate predicts a miss from a kept P."""
        x = self.inverse @ b
        last, rate = np.abs(x).max(), self.rate
        for left in reversed(range(_CHORD_SWEEPS)):
            dx = self.inverse @ (b - x + q * (self.lap @ x))
            x = x + dx
            size = np.abs(dx).max()
            theta = size / last if last > 0.0 else 0.0
            tol = _CHORD_TOL * np.abs(x).max()
            # the first sweep's stop takes the last call's rate too
            rate = max(rate, theta)
            # rate/(1 - rate) sup|dx| against tol, with no division; a NaN
            # compares False, refreshes from a kept P and ends a fresh one
            if rate * size <= (1.0 - rate) * tol:
                self.rate = rate
                return x
            if not (theta < 1.0 and theta**left * theta * size <= (1.0 - theta) * tol):
                break
            last, rate = size, 0.0
        return x if fresh else None

    def __call__(self, q: NDArray, b: NDArray) -> NDArray[np.float64]:
        if self.inverse is not None:
            x = self._sweeps(q, b, fresh=False)
            if x is not None:
                return x
        eye = np.eye(len(b))
        self.inverse = np.linalg.solve(eye - q[:, None] * self.lap, eye)
        self.rate = 0.0
        return self._sweeps(q, b, fresh=True)


def _steps(
    base: MetricState, s_end: float, policy: FlowPolicy, s_last: float = math.inf
) -> Iterator[tuple[float, NDArray[np.float64], NDArray[np.longdouble], bool]]:
    """Semi-implicit BDF2 march of the flow from v = 0 to s_end.  Yields
    (s, v, ratio_ld, anchored) at s = 0 and after each accepted step,
    where ratio_ld is the volume ratio of base + v in extended precision.

    The step length h is capped: policy.ds * _START_FRACTION on the first
    step, then grown by _GROWTH per accepted step up to policy.ds.  The
    gap to the next record time (a multiple of policy.record_stride *
    policy.ds) or to s_end is split into the fewest equal steps no longer
    than the cap, so the march lands on each record time.  Record times
    after s_last are not targeted: past the last one up to s_last (from
    s = 0 if the first is after s_last) the march is in its tail, whose
    one target is s_end.  There the cap is held for _TAIL_HOLD accepted
    steps and then set to twice the last step, up to _TAIL_DS (policy.ds
    if larger), so the steps of a hold are equal and a tail step is at
    most twice the one before it.  A step of length h after an accepted
    step h' with increment d takes omega = h/h' (0 on the first step,
    which is linearly implicit Euler) and solves the variable-step BDF2
    relation

        a delta - c d = h rhs(v + delta),
        a = (1 + 2 omega)/(1 + omega),  c = omega^2/(1 + omega),

    with rhs linearized about the extrapolated point v* = v + omega d:
    its Laplacian part, Lap(delta - omega d)/(4 r*), implicitly, the rest
    at v*.  r* = r + omega Lap(d)/4 reuses d's Laplacian from the carried
    ratio and is checked like a candidate.  The system (I - q Lap) delta
    = b, q = h/(4 a r*), is solved by defect correction from a kept
    inverse of an earlier step matrix (``_ChordSolver``), refreshed by one
    dense factorization at the first step and whenever the sweeps' rate
    predicts that they miss their stop, as when omega or the step changes
    or in the fast early transient.  The candidate's ratio is the carried
    one plus Lap(delta)/4, a float64 matvec; it is the admissibility test.
    A candidate or extrapolated ratio that is not positive everywhere (NaN
    included) halves the step (the cap becomes half the rejected step, and
    a tail's hold starts over); reaching the step floor raises SolverError.
    A step becomes a record, is yielded as anchored and has ratio_ld
    re-anchored to the exact ratio of base + v (one Laplacian, of v) only
    at s = 0 and where it lands on a record time or s_end up to s_last;
    the tail's landing on s_end is not one.  More than MAX_FLOW_STEPS steps
    s_end / policy.ds raise ConfigurationError before the first.
    """
    if s_end / policy.ds > MAX_FLOW_STEPS:
        raise ConfigurationError(f"s_end / ds = {s_end / policy.ds:.6g} is above {MAX_FLOW_STEPS}")
    grid = base.potential.grid

    v = np.zeros(grid.n)
    s = 0.0
    # at v = 0 the base's own ratio, checked when the base was built
    ratio_ld = base.potential._kept_ratio_ld
    yield s, v, ratio_ld, True
    # the step cap: a fraction of policy.ds at the start, grown on each
    # accepted step and halved with a rejected one
    ds = policy.ds * _START_FRACTION
    record_ds = policy.record_stride * policy.ds
    next_record = 1
    # past s_last the cap is held for _TAIL_HOLD steps, then doubled
    tail_ds, held = max(_TAIL_DS, policy.ds), 0
    # the last accepted step, its increment d and Lap(d) of d's mean-free part
    last_step, d, lap_d = None, np.zeros(grid.n), np.zeros(grid.n)
    solve_step = _ChordSolver(grid.lap)
    while s < s_end - _S_TOL:
        # the gap to the next record time (to s_end in the tail) in equal
        # steps no longer than the cap; a gap a rounding error above a
        # whole number of steps is not split once more
        tail = next_record * record_ds > s_last + _S_TOL
        target = s_end if tail else min(next_record * record_ds, s_end)
        parts = max(1, math.ceil((target - s) / ds - 1e-9))
        step = (target - s) / parts
        omega = 0.0 if last_step is None else step / last_step
        a, c = (1.0 + 2.0 * omega) / (1.0 + omega), omega**2 / (1.0 + omega)
        try:
            # the ratio is affine in the potential: r(v + e) = r(v) + Lap(e)/4,
            # with e's mean removed first as the grid's Laplacian does
            ratio_x = _admissible(ratio_ld + omega * lap_d / 4.0)
            q = step / (4.0 * a * ratio_x)
            b = (c * d + step * _rhs(ratio_x, v + omega * d, base) - a * omega * q * lap_d) / a
            delta = solve_step(q, b)
            lap_delta = grid.lap @ (delta - grid.w @ delta)
            cand_ratio_ld = ratio_ld + lap_delta / 4.0
            _admissible(cand_ratio_ld)
        except InadmissibleError:
            ds, held = 0.5 * step, 0
            if ds < _DS_FLOOR:
                raise SolverError(f"step floor {_DS_FLOOR} reached at s = {s:.6g}")
            continue
        v = v + delta
        ratio_ld = cand_ratio_ld
        anchored = parts == 1 and target <= s_last + _S_TOL
        if parts == 1:
            s, next_record = target, next_record + 1
        else:
            s += step
        if anchored:
            ratio_ld = _ratio_ld(base.potential, BasicPotential(values=v, grid=grid))
            _admissible(ratio_ld)
        last_step, d, lap_d = step, delta, lap_delta
        if not tail:
            ds = min(ds * _GROWTH, policy.ds)
        else:
            held += 1
            if held == _TAIL_HOLD:
                ds, held = min(2.0 * step, tail_ds), 0
        yield s, v, ratio_ld, anchored


def _flow(
    base: MetricState, s_end: float, policy: FlowPolicy, s_last: float = math.inf
) -> tuple[FlowTrajectory, NDArray[np.float64]]:
    """The march from v = 0 to s_end (``_steps``) with a record at each
    anchored step, and its last v.

    The bound sup|h_0| is read off base, and min Lap_0 h_0 off the s = 0
    record, which the first block builds.  The anchored steps are
    buffered and their records built _RECORD_BLOCK at a time
    (``_make_flow_records``); the last, partial block is built
    when the march ends or stops at the step floor, so a stopped march
    keeps its records so far, with completed False and the failure
    marker set.
    """
    lap0_min = None
    records: list[FlowRecord] = []
    block: list[tuple[float, NDArray, NDArray[np.longdouble]]] = []
    failure = None
    try:
        for s, v, ratio_ld, anchored in _steps(base, s_end, policy, s_last):
            if anchored:
                block.append((s, v, ratio_ld))
                if len(block) == _RECORD_BLOCK:
                    records += _make_flow_records(block, base, lap0_min)
                    lap0_min = records[0].monitors.lap_h_min
                    block = []
    except SolverError as err:
        failure = str(err)
    if block:
        records += _make_flow_records(block, base, lap0_min)
    trajectory = FlowTrajectory(
        initial=base,
        records=tuple(records),
        policy=policy,
        completed=failure is None,
        failure=failure,
    )
    return trajectory, v


def run_flow(
    base: MetricState,
    s_end: float = 5.0,
    policy: FlowPolicy = FlowPolicy(),
) -> FlowTrajectory:
    """The flow from v = 0 to s_end (``_flow``), with a record at s = 0,
    every multiple of policy.record_stride * policy.ds and the final
    time.  Reaching the step floor returns the records so far, with
    completed False and the failure marker set.

    s_end must be positive and below S_END_MAX (about 177 at m = 1),
    where the records' bound e^{2(m+1)s} still fits in float64, and
    s_end / policy.ds at most MAX_FLOW_STEPS.
    """
    if not (0.0 < s_end < S_END_MAX):
        raise ConfigurationError(
            f"s_end must lie in (0, {S_END_MAX:.6g}), got {s_end}"
        )
    return _flow(base, s_end, policy)[0]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothingReport:
    worst_a_slack: float
    worst_b_slack: float
    worst_c_min: float
    worst_d_slack: float
    max_constancy_dev: float
    u_bound_slack: Optional[float]     # (1/(m+1)) e^{m+1} sup|h_0| - sup|v_1|
    sandwich_lo_margin: Optional[float]  # min(r_total at s=1) - 1/2
    sandwich_hi_margin: Optional[float]  # 1 - max(r_total at s=1)
    sandwich_held: Optional[bool]
    c1_fit: Optional[float]
    c7_fit: Optional[float]


def smoothing_monitors(
    trajectory: FlowTrajectory, one_minus_t: Optional[float] = None
) -> SmoothingReport:
    """Aggregate the per-record monitor bounds and, from the record at
    s = 1, the time-one potential bound, the one-sided metric sandwich
    (reported, never assumed), and the fitted smoothing constants.  The
    sandwich and the centring of h_1 read the volume ratio the record at
    s = 1 keeps, so no state is built and no Laplacian applied.  The
    time-one section is None when no record lies within _S_TOL of s = 1.

    The two fitted constants follow the shapes the smoothing estimates
    take for a flow started from a continuity-path state at parameter t
    (supply one_minus_t):  sup|h_1| against (1-t)^{1/3} sup|h_0|^{2/3},
    and the C^{0,1/2} norm of h_1 against (1-t)^{1/6}(1+sup|h_0|)^{5/6}.
    They are fitted, not asserted.
    """
    if len(trajectory.records) < 2:
        raise ConfigurationError("smoothing monitors need at least 2 records")
    recs = trajectory.records
    mons = [r.monitors for r in recs]
    base = trajectory.initial
    h0_norm = float(np.abs(base.ricci_potential).max())

    u_slack = None
    lo = hi = None
    held = None
    c1 = c7 = None
    rec1 = trajectory.record_at(1.0)
    if abs(rec1.s - 1.0) <= _S_TOL:
        u_slack = (math.exp(MP1) / MP1) * h0_norm - rec1.v.sup()
        lo = float(rec1.ratio.min()) - 0.5
        hi = 1.0 - float(rec1.ratio.max())
        held = bool(lo >= 0.0 and hi >= 0.0)
        if one_minus_t is not None and h0_norm > 0:
            h1 = rec1.h
            h1_centered = h1 - float((base.grid.w * rec1.ratio) @ h1)
            denom = one_minus_t ** (1.0 / 3.0) * h0_norm ** (2.0 / 3.0)
            c1 = float(np.abs(h1_centered).max() / denom) if denom > 0 else None
            holder_norm = float(np.abs(h1).max()) + holder_seminorm(base.grid, h1)
            denom7 = one_minus_t ** (1.0 / 6.0) * (1.0 + h0_norm) ** (5.0 / 6.0)
            c7 = holder_norm / denom7 if denom7 > 0 else None

    return SmoothingReport(
        worst_a_slack=min(m.bound_a_slack for m in mons),
        worst_b_slack=min(m.bound_b_slack for m in mons),
        worst_c_min=min(m.bound_c_min for m in mons),
        worst_d_slack=min(m.bound_d_slack for m in mons),
        max_constancy_dev=max(m.constancy_dev for m in mons),
        u_bound_slack=u_slack,
        sandwich_lo_margin=lo,
        sandwich_hi_margin=hi,
        sandwich_held=held,
        c1_fit=c1,
        c7_fit=c7,
    )


@dataclass(frozen=True, eq=False)
class PinchResult:
    achieved: float
    eps: float
    path_t: float
    h_at_path: float
    calabi: float
    calabi_bound_value: float
    flow_h_slack: float        # 4 e^{2(m+1)} |h_0| bound on sup|h_s|, s in [0,2]
    flow_dh2_slack: float      # 8 e^{4(m+1)} |h_0|^2 bound on sup|dh|^2, s in [1,2]
    flow_lap_h_min: float      # min of Lap_s h_s + 2 e^{2(m+1)} |h_0|
    smoothing: SmoothingReport
    trajectory: FlowTrajectory


def _pinch_calabi_bound(eps: float, n: int) -> float:
    """calabi_bound(eps), once eps is also at least the pinch the flow can
    attain at n nodes, _PINCH_EPS_PER_N4 n^4; a smaller one could only
    miss its target after the whole run.  Raises ConfigurationError."""
    bound = calabi_bound(eps)
    floor = _PINCH_EPS_PER_N4 * n**4
    if eps < floor:
        raise ConfigurationError(f"eps must be at least {floor:.3g} at n = {n}, got {eps}")
    return bound


def epsilon_pinching(base: MetricState, eps: float) -> PinchResult:
    """Two-stage pinching: march the continuity family upward in t until
    the state's Ricci potential drops below eps/2, then run the flow for
    s in [0, 2] from that structure and measure max|S^T - 2m(m+1)|.

    The first stage is one loop over the continuity stepper
    (``continuity._march`` from _PINCH_T_START to t = 1, default
    PathPolicy), which solves at _PINCH_T_START from the zero potential
    and then marches; it stops at the first accepted t whose structure has
    sup|h| <= eps/2.  Each accepted t builds the state of base + phi_t,
    whose h reads its ratio alone (no Laplacian); the state at the stop
    is the flow's base, and the flow runs with the default FlowPolicy.
    achieved and the Calabi energy are read off the last record.  Asserts
    achieved <= eps (the flow contracts far below the worst-case
    constants).  An eps that ``_pinch_calabi_bound`` refuses raises
    ConfigurationError before any work.  A solver failure before the
    target is raised as the properness diagnostic it is: a SolverError
    "pinching path failed at its start t = ..." when no t was accepted,
    or "pinching path stalled at t = ..." after one was, carrying the
    trace of the last failed Newton solve.
    """
    bound = _pinch_calabi_bound(eps, base.grid.n)
    target = eps / 2.0

    h_norm = None
    try:
        for t, phi, _ in _march(base, [_PINCH_T_START, 1.0], PathPolicy()):
            state = relative_state(base, phi)
            h_norm = float(np.abs(state.ricci_potential).max())
            if h_norm <= target:
                break
    except SolverError as err:
        if h_norm is None:
            where = f"failed at its start t = {_PINCH_T_START:.4g}: {err}"
        else:
            where = (f"stalled at t = {t:.6g} with sup|h| = {h_norm:.3e} "
                     f"(target {target:.3e})")
        raise SolverError(f"pinching path {where}", trace=err.trace) from err

    trajectory = run_flow(state, s_end=2.0)
    if not trajectory.completed:
        raise SolverError(f"pinching flow stage failed: {trajectory.failure}")
    end = trajectory.endpoint().monitors
    achieved = end.s_pinch
    if achieved > eps:
        raise InvariantViolation(
            f"pinching missed its target: achieved {achieved:.3e} > eps {eps:.3e}"
        )
    growth = math.exp(2 * MP1)
    h_slack = 4.0 * growth * h_norm - max(r.monitors.sup_h for r in trajectory.records)
    late = [r for r in trajectory.records if r.s >= 1.0]
    dh2_slack = 8.0 * growth**2 * h_norm**2 - max(r.monitors.sup_dh2 for r in late)
    lap_min = min(r.monitors.lap_h_min for r in trajectory.records)
    smoothing = smoothing_monitors(trajectory, one_minus_t=1.0 - t)
    return PinchResult(
        achieved=achieved,
        eps=float(eps),
        path_t=float(t),
        h_at_path=h_norm,
        calabi=end.calabi,
        calabi_bound_value=bound,
        flow_h_slack=float(h_slack),
        flow_dh2_slack=float(dh2_slack),
        flow_lap_h_min=float(lap_min + 2.0 * growth * h_norm),
        smoothing=smoothing,
        trajectory=trajectory,
    )
