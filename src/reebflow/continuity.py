"""Newton continuity method for the deformed transverse Monge-Ampere family.

The family interpolates, with parameter t in (0, 1], between a soluble
small-t equation and the Einstein equation at t = 1:

    r_base(phi) = exp(h_base - t (m+1) phi),

where r_base(phi) is the volume ratio of the deformed structure measured
against the base (potentials compose additively, so it is the elementwise
quotient of reference ratios) and h_base is the base Ricci potential.

The solver is a damped Newton iteration with the exact Jacobian of the
reduced equation.  Below t = 1 the linearization is invertible and each
step is an LU solve.  At t = 1 it has the one-dimensional automorphism
kernel (the Moebius direction, Laplacian eigenvalue -4(m+1)), so there
each step is one LU solve of the system bordered by the Moebius tangent,
on the slice orthogonal to it, which never moves along that kernel.

Paths in t are marched adaptively by one stepper, ``_march``, the only
place where a path solves: it solves at its first target from the zero
potential, then marches through the later targets, landing on each.
Each solve starts from a prediction: the cubic Hermite extrapolant
through the last two accepted (t, phi_t, phi_t'), the tangent phi_t'
coming as a second column of the polishing step's LU solve (predictor-
corrector continuation; Allgower and Georg, Numerical Continuation
Methods, 1990).  It tries t + dt, halves dt when Newton fails, doubles
it back up to _DT_INIT after each accepted step, and raises SolverError
once dt would drop below _DT_FLOOR.  Both record modes of
``run_continuity_path`` and the continuity stage of
``flow.epsilon_pinching`` are one loop over it.  A path
can also be asked to place its records at Gauss nodes of (0, 1), which
turns the recorded (I - J) values into a spectral quadrature rule; that
is what makes the t-integral identity relating F at the Einstein base to
the path integral of I - J checkable to 1e-5 rather than to trapezoid
accuracy.  Newton's iterates, ``ma_defect`` and each record's residual
read one evaluation of the family (``_evaluate``) off the Laplacian phi_t
keeps; a record's ledger and state of base + phi_t read it and the base's,
so a record applies one Laplacian, its scalar curvature's, when diagnosed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigurationError, InvariantViolation, SolverError
from .functionals import FunctionalLedger, _gauss01, _Ray, eval_F, relative_state
from .transverse import (
    M_DIM,
    SCALAR_TARGET,
    BasicPotential,
    Grid,
    MetricState,
    _admissible,
)

__all__ = [
    "PathPolicy",
    "PathRecord",
    "ContinuityPath",
    "PathDiagnostics",
    "FamilyScan",
    "ma_defect",
    "solve_ma_at_t",
    "run_continuity_path",
    "path_diagnostics",
    "mt_scan",
    "mobius_potential",
]


# Newton's iterations, Armijo halvings and constant, and the least ratio
# margin of a step; the march's first and least dt; the dip in I - J that
# is a violation
_MAX_ITERATIONS = 50
_MAX_BACKTRACKS = 30
_ARMIJO_C = 1e-4
_MARGIN_FLOOR = 1e-6
_DT_INIT = 0.05
_DT_FLOOR = 1e-4
_MONOTONE_TOL = 1e-8
# the least newton_tol: a defect of O(1) terms cannot fall below float64
# epsilon.  The attainable floor is higher and grows with n (about 1e-15
# at n = 16, 1.3e-13 at 128 and 1e-11 at 1024), so a tolerance between
# the two still ends as a stalled line search
_MIN_NEWTON_TOL = float(np.finfo(np.float64).eps)
# Gauss records per path: leggauss(records) allocates a records^2 matrix
MAX_RECORDS = 1000


@dataclass(frozen=True)
class PathPolicy:
    """The Newton residual at which a solve stops, finite and at least
    _MIN_NEWTON_TOL; the rest of the march is fixed by the constants
    _MAX_ITERATIONS, _MAX_BACKTRACKS, _ARMIJO_C, _MARGIN_FLOOR, _DT_INIT,
    _DT_FLOOR and _MONOTONE_TOL."""

    newton_tol: float = 1e-10

    def __post_init__(self):
        tol = self.newton_tol
        if not (math.isfinite(tol) and tol >= _MIN_NEWTON_TOL):
            raise ConfigurationError(
                f"newton_tol must be finite and at least {_MIN_NEWTON_TOL:.3g}, got {tol}"
            )


def _evaluate(phi: BasicPotential, t: float, base: MetricState) -> tuple[NDArray, NDArray, NDArray]:
    """The float64 ratio of base + phi, the defect r_base(phi) - e^{h_base -
    t (m+1) phi} and that exponential, from the Laplacian phi keeps, as Newton,
    ``ma_defect`` and each record's residual read them; GridMismatchError
    unless phi lives on the base's grid."""
    base._check_grid(phi)
    lap = phi._lap_ld.astype(np.float64)
    rhs = np.exp(base.ricci_potential - t * (M_DIM + 1) * phi.values)
    defect = 1.0 + lap / (4.0 * base.ratio) - rhs
    return base.ratio + lap / 4.0, defect, rhs


def ma_defect(phi: BasicPotential, t: float, base: MetricState) -> NDArray[np.float64]:
    """Pointwise defect r_base(phi) - exp(h_base - t (m+1) phi) as Newton
    evaluates it (``_evaluate``); InadmissibleError unless base + phi is positive."""
    ratio, defect, _ = _evaluate(phi, t, base)
    _admissible(ratio)
    return defect


def ma_jacobian(phi: BasicPotential, t: float, base: MetricState) -> NDArray[np.float64]:
    """Exact Jacobian of ``ma_defect`` in the pointwise values of phi.

    The defect is linear in phi through the ratio term, so the matrix is
    Lap/(4 r_base) plus the diagonal t(m+1) e^{h - t(m+1) phi}.
    """
    rhs_exp = np.exp(base.ricci_potential - t * (M_DIM + 1) * phi.values)
    return _jacobian(_kept_jacobian(base), t, rhs_exp)


def _kept_jacobian(base: MetricState) -> NDArray[np.float64]:
    """The part Lap/(4 r_base) of ``ma_jacobian`` that depends on the base
    alone, formed once per march."""
    return base.grid.lap / (4.0 * base.ratio)[:, None]


def _jacobian(kept: NDArray[np.float64], t: float, rhs: NDArray[np.float64]) -> NDArray[np.float64]:
    """``ma_jacobian`` at the iterate whose e^{h - t(m+1) phi} is rhs: a
    copy of its kept part with the diagonal added in place."""
    jac = kept.copy()
    jac.flat[:: len(rhs) + 1] += t * (M_DIM + 1) * rhs
    return jac


def _mobius_tangent(
    grid: Grid, u: NDArray[np.float64], ratio: NDArray[np.float64]
) -> NDArray[np.float64]:
    """The lambda-derivative at lambda = 1 of the dilation z -> lambda z
    acting on the total potential u of volume ratio r: (1 - x^2) u' + x,
    less its mean against r dmu_ref.  At a solution of the t = 1 equation
    r is proportional to e^{-(m+1) u}, whose integral the dilations keep,
    and this is the kernel of the linearization."""
    k = (1.0 - grid.x**2) * grid.deriv(u) + grid.x
    return k - np.average(k, weights=grid.w * ratio)


def _bordered(
    jac: NDArray[np.float64], k: NDArray[np.float64], base: MetricState
) -> NDArray[np.float64]:
    """[[J, l/|l|], [k^T/|k|, 0]] for the Moebius tangent k.  Its solution
    x of J x + mu l/|l| = b has k.x = 0: the step stays on the slice, and
    the left null vector l = w r_base k of J (diag(w r_base) J is
    symmetric) takes up the part of b off J's range.  Nonsingular where J
    has the one-dimensional kernel."""
    ell = base.grid.w * base.ratio * k
    return np.block([
        [jac, (ell / np.linalg.norm(ell))[:, None]],
        [k / np.linalg.norm(k), np.zeros(1)],
    ])


def solve_ma_at_t(
    t: float,
    base: MetricState,
    initial_guess: BasicPotential,
    policy: PathPolicy = PathPolicy(),
) -> BasicPotential:
    """Damped Newton solve of the family at fixed t.

    The Jacobian is ``ma_jacobian``'s, exact, so convergence is quadratic
    once inside the basin. Steps are Armijo-damped on the sup-norm of the
    defect and rejected outright if they push the total potential's ratio
    margin below _MARGIN_FLOOR.  Each iterate is a potential evaluated
    once, from the Laplacian it keeps, so a warm start applies none for
    its guess; margins and defects stay in float64, the rounding that
    fixes the iterates.  Below t = 1 each step is an LU solve.  At t = 1,
    where the linearization has the Moebius kernel, each step is one LU
    solve of the system bordered by the Moebius tangent, on the slice
    orthogonal to it, so no step moves along the kernel (``_bordered``).
    A guess on another grid than the base's raises GridMismatchError, and
    one whose margin is not positive ConfigurationError; a residual that
    is not finite, or a failed or non-finite linear solve, raises
    SolverError.
    """
    if not (0.0 < t <= 1.0):
        raise ConfigurationError(f"t must lie in (0, 1], got {t}")
    return _newton(t, base, initial_guess, policy, _kept_jacobian(base))[0]


def _newton(
    t: float,
    base: MetricState,
    guess: BasicPotential,
    policy: PathPolicy,
    kept: NDArray[np.float64],
    fallback: Optional[BasicPotential] = None,
) -> tuple[BasicPotential, Optional[NDArray[np.float64]]]:
    """``solve_ma_at_t`` from the kept Jacobian part of its base, with the
    solution's tangent dphi/dt = -J^{-1} (m+1) phi e^{h - t(m+1) phi}
    below t = 1 (None at t = 1), solved as a second column of the
    polishing step's LU solve, where J is factorized at the converged
    iterate.  A guess whose float64 margin is below _MARGIN_FLOOR gives
    way to fallback, when there is one."""
    grid = guess.grid
    mp1 = M_DIM + 1
    phi = guess
    ratio, defect, rhs = _evaluate(phi, t, base)
    if fallback is not None and not ratio.min() >= _MARGIN_FLOOR:
        phi = fallback
        ratio, defect, rhs = _evaluate(phi, t, base)
    if not (ratio.min() > 0.0):  # not the transverse rule: Newton's float64 margin
        raise ConfigurationError("initial guess is not admissible over the base")
    res = float(np.abs(defect).max())
    if not np.isfinite(res):
        raise SolverError(f"initial Newton residual {res} at t = {t:.6g}", trace=[res])
    trace: list[float] = []
    for _ in range(_MAX_ITERATIONS):
        trace.append(res)
        jac = _jacobian(kept, t, rhs)
        polish = res < policy.newton_tol
        tangent = None
        try:
            if t == 1.0:
                k = _mobius_tangent(grid, base.potential.values + phi.values, ratio)
                step = np.linalg.solve(_bordered(jac, k, base), np.append(-defect, 0.0))[:-1]
            elif polish:
                cols = np.linalg.solve(jac, np.stack((-defect, -mp1 * phi.values * rhs), axis=1))
                step, tangent = cols[:, 0], cols[:, 1]
            else:
                step = np.linalg.solve(jac, -defect)
        except np.linalg.LinAlgError as err:
            raise SolverError(f"Newton step failed at t = {t:.6g}: {err}", trace=trace) from err
        if not all(np.isfinite(col).all() for col in (step, tangent) if col is not None):
            raise SolverError(f"Newton step is not finite at t = {t:.6g}", trace=trace)
        if polish:
            # one polishing step: the quadratic tail typically buys several
            # digits, which the along-path curvature identity benefits from
            polished = BasicPotential(values=phi.values + step, grid=grid)
            ratio, defect, _ = _evaluate(polished, t, base)
            if ratio.min() >= _MARGIN_FLOOR and float(np.abs(defect).max()) < res:
                phi = polished
            return phi, tangent
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS):
            cand = BasicPotential(values=phi.values + alpha * step, grid=grid)
            cand_ratio, cand_defect, cand_rhs = _evaluate(cand, t, base)
            if cand_ratio.min() >= _MARGIN_FLOOR:
                cand_res = float(np.abs(cand_defect).max())
                if cand_res <= (1.0 - _ARMIJO_C * alpha) * res:
                    phi, res, ratio, defect, rhs = cand, cand_res, cand_ratio, cand_defect, cand_rhs
                    break
            alpha *= 0.5
        else:
            raise SolverError(
                f"Newton line search stalled at t = {t:.6g} (residual {res:.3e})",
                trace=trace,
            )
    raise SolverError(
        f"Newton did not converge at t = {t:.6g} within {_MAX_ITERATIONS} iterations",
        trace=trace,
    )


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


HOLDER_ALPHA = 1.0 - 1.0 / (4 * M_DIM + 2)  # 5/6 at m = 1


@dataclass(frozen=True, eq=False)
class PathRecord:
    """One accepted t of a path: phi_t, the state of base + phi_t, its
    functionals and the sup-norm defect of the family at t."""

    t: float
    phi: BasicPotential
    state: MetricState
    ledger: FunctionalLedger
    residual: float
    c0_norm: float

    @property
    def f_t(self) -> float:
        """Decay profile (1-t)^{1-alpha} (1 + 2 (1-t) sup|phi_t|)^alpha."""
        return (1.0 - self.t) ** (1.0 - HOLDER_ALPHA) * (
            1.0 + 2.0 * (1.0 - self.t) * self.c0_norm
        ) ** HOLDER_ALPHA


@dataclass(frozen=True, eq=False)
class ContinuityPath:
    records: tuple[PathRecord, ...]
    policy: PathPolicy
    completed: bool
    failure: Optional[str]
    # quadrature weights aligned with records (zero for records that are
    # not part of the s-integration rule, e.g. the t = 1 endpoint)
    record_weights: Optional[NDArray[np.float64]] = None

    def i_minus_j(self) -> NDArray[np.float64]:
        return np.array([r.ledger.I - r.ledger.J for r in self.records])

    def endpoint(self) -> PathRecord:
        return self.records[-1]


def _predicted(
    t_next: float,
    last: tuple[float, BasicPotential, NDArray[np.float64]],
    before: Optional[tuple[float, BasicPotential, NDArray[np.float64]]],
) -> BasicPotential:
    """The guess for the solve at t_next from the last accepted (t, phi_t,
    phi_t') and the one before it: the cubic Hermite extrapolant through
    both, or the Euler tangent when there is only the last."""
    t1, phi1, d1 = last
    if before is None:
        values = phi1.values + (t_next - t1) * d1
    else:
        t0, phi0, d0 = before
        h = t1 - t0
        s = (t_next - t0) / h
        # the Hermite basis at s, summed in the textbook order: the path's
        # last bits, and so its endpoint's place on the Moebius orbit to
        # 1e-14, follow the rounding of this sum
        h00, h10 = 2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s
        h01, h11 = -2 * s**3 + 3 * s**2, s**3 - s**2
        values = h00 * phi0.values + h10 * h * d0 + h01 * phi1.values + h11 * h * d1
    return BasicPotential(values=values, grid=phi1.grid)


def _march(
    base: MetricState,
    targets: Sequence[float],
    policy: PathPolicy,
) -> Iterator[tuple[float, BasicPotential, bool]]:
    """Adaptive march through the increasing targets in t.

    Solves at targets[0] from the zero potential (small t is the easy
    regime: the zeroth-order term dominates the Jacobian), then marches
    to each later target and lands on it exactly.  Each solve (``_newton``,
    from the Jacobian part of the base formed once here) starts from the
    cubic Hermite extrapolant through the last two accepted (t, phi_t,
    phi_t'), or from the Euler tangent on the first step, and from phi_t
    itself when that guess's float64 margin is below _MARGIN_FLOOR; at
    t = 1 it steps on the slice bordered by the Moebius tangent.
    Yields (t, phi_t, on_target) for the start and after each accepted
    step.  Toward each target the first step is min(_DT_INIT, gap); a
    Newton failure halves dt, an accepted step doubles it up to _DT_INIT,
    and a dt below _DT_FLOOR raises SolverError naming the last accepted
    t, with the failed solve's trace.  A failed start solve raises its
    own SolverError.
    """
    kept = _kept_jacobian(base)
    t = targets[0]
    phi, dphi = _newton(t, base, BasicPotential.zero(base.grid), policy, kept)
    yield t, phi, True
    last, before = (t, phi, dphi), None
    for target in targets[1:]:
        dt = min(_DT_INIT, target - t)
        while t < target:
            t_next = min(t + dt, target)
            guess = _predicted(t_next, last, before)
            try:
                phi, dphi = _newton(t_next, base, guess, policy, kept, fallback=phi)
            except SolverError as err:
                dt *= 0.5
                if dt < _DT_FLOOR:
                    raise SolverError(
                        f"step floor {_DT_FLOOR} reached at t = {t:.6g}",
                        trace=err.trace,
                    ) from err
                continue
            t = t_next
            last, before = (t, phi, dphi), last
            dt = min(dt * 2.0, _DT_INIT)
            yield t, phi, t == target


def run_continuity_path(
    base: MetricState,
    t_start: float = 0.1,
    t_end: float = 1.0,
    policy: PathPolicy = PathPolicy(),
    records: Optional[int] = None,
) -> ContinuityPath:
    """March the family in t with predicted starts and adaptive steps.

    With ``records=None`` the path records every accepted step of the
    march from t_start to t_end (``_march``: initial step _DT_INIT,
    halved on Newton failure down to _DT_FLOOR).  In either record
    mode, a failed start solve or reaching the floor returns a partial
    path with the failure marker set, which is meaningful properness
    diagnostics, not an exception.

    With ``records=n`` the records sit at the n Gauss nodes of (0, 1)
    plus the t = 1 endpoint, and the returned path carries the matching
    quadrature weights; intermediate continuation solves are inserted
    adaptively but not recorded.  t_start governs only ``records=None``;
    a count below 1 or above MAX_RECORDS, or a Gauss node above
    t_end < 1, raises ConfigurationError.

    The (I - J) monotonicity of records is asserted; a violation raises
    InvariantViolation.
    """
    if not (0.0 < t_start <= t_end <= 1.0):
        raise ConfigurationError(
            f"need 0 < t_start <= t_end <= 1, got ({t_start}, {t_end})"
        )
    weights: Optional[NDArray[np.float64]] = None
    if records is None:
        targets = [t_start, t_end]
    else:
        if not 1 <= records <= MAX_RECORDS:
            raise ConfigurationError(
                f"need at least 1 Gauss record and at most {MAX_RECORDS}, got {records}"
            )
        ts, ws = _gauss01(records)
        targets = list(ts)
        weights = list(ws)
        if t_end == 1.0 and not np.isclose(targets[-1], 1.0):
            targets.append(1.0)
            weights.append(0.0)
        weights = np.array(weights)
        if targets[-1] > t_end:
            raise ConfigurationError(f"record ts must lie in (0, t_end] = (0, {t_end}]")

    recs: list[PathRecord] = []
    failure = None
    try:
        for t, phi, on_target in _march(base, targets, policy):
            if records is not None and not on_target:
                continue
            ledger = FunctionalLedger.evaluate(f"t={t:.8f}", phi, base)
            if recs:
                prev = recs[-1].ledger.I - recs[-1].ledger.J
                cur = ledger.I - ledger.J
                if cur < prev - _MONOTONE_TOL:
                    raise InvariantViolation(
                        f"(I-J) decreased along the path: {prev:.12g} -> {cur:.12g} "
                        f"at t = {t:.6g}"
                    )
            residual = float(np.abs(_evaluate(phi, t, base)[1]).max())
            state = relative_state(base, phi)
            recs.append(PathRecord(float(t), phi, state, ledger, residual, phi.sup()))
    except SolverError as err:
        failure = str(err)
    if weights is not None:
        weights = weights[: len(recs)]

    return ContinuityPath(
        records=tuple(recs),
        policy=policy,
        completed=failure is None,
        failure=failure,
        record_weights=weights,
    )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathDiagnostics:
    monotone_margin: float            # min consecutive increment of (I-J)
    energy_identity_residual: Optional[float]
    curvature_identity_residual: float


def path_diagnostics(path: ContinuityPath, base: MetricState) -> PathDiagnostics:
    """Along-path report: monotonicity, the t = 1 energy identity against
    F at the Einstein base, and the curvature identity
    S_t = 4 - (1-t) Lap_t(phi_t), read off each record's state and phi_t:
    one Laplacian per record, for its scalar curvature (kept on the
    state), and no new state.  The energy residual is None unless
    the path completed to t = 1 with Gauss weights; the Einstein base is
    then the state of its last record."""
    recs = path.records
    if len(recs) < 3:
        raise ConfigurationError("diagnostics need at least 3 path records")
    imj = path.i_minus_j()
    monotone = float(np.diff(imj).min())

    energy_residual = None
    at_one = path.completed and np.isclose(recs[-1].t, 1.0)
    if at_one and path.record_weights is not None:
        _, f_se = eval_F(base.potential, recs[-1].state)
        energy_residual = f_se - float(path.record_weights @ imj)

    worst_420 = 0.0
    for rec in recs:
        state = rec.state
        lhs = state.scalar_curvature
        rhs = SCALAR_TARGET - (1.0 - rec.t) * rec.phi._lap_ld.astype(np.float64) / state.ratio
        worst_420 = max(worst_420, float(np.abs(lhs - rhs).max()))

    return PathDiagnostics(
        monotone_margin=monotone,
        energy_identity_residual=energy_residual,
        curvature_identity_residual=worst_420,
    )


# ---------------------------------------------------------------------------
# properness scans and the automorphism family
# ---------------------------------------------------------------------------


def mobius_potential(lam: float, grid: Grid) -> BasicPotential:
    """Potential of the round structure pulled back by the dilation
    z -> lam z of the quotient, normalized to mean zero.  At lam = 1 it
    vanishes; the family has unbounded J but F identically zero, which
    is the properness obstruction carried by the automorphisms.  A lam
    that is not positive, or whose lam^2 (1 + x) overflows (1 + x nears 2
    at the last node), raises ConfigurationError."""
    if not (lam > 0 and math.isfinite(2.0 * lam * lam)):
        raise ConfigurationError(
            f"Moebius parameter lam must be positive with 2 lam^2 finite, got lam = {lam}"
        )
    raw = np.log(lam * lam * (1.0 + grid.x) + (1.0 - grid.x))
    phi = raw - grid.integrate(raw)
    return BasicPotential(values=phi, grid=grid)


@dataclass(frozen=True)
class FamilyScan:
    name: str
    params: tuple[float, ...]
    j_values: tuple[float, ...]
    f_values: tuple[float, ...]
    c1: float
    c2: float


def mt_scan(
    name: str,
    members: Sequence[tuple[float, BasicPotential]],
    base: MetricState,
) -> FamilyScan:
    """(J, F) scan over one potential family with a least-squares fit of
    the properness profile F ~ c1 J - c2.  The fit needs at least two
    members; fewer raise ConfigurationError before any evaluation.  Members
    whose J values are not distinct leave the fit rank-deficient and raise
    ConfigurationError in place of a fit."""
    if len(members) < 2:
        raise ConfigurationError(f"a scan needs at least 2 members, got {len(members)}")
    params, js, fs = [], [], []
    for param, phi in members:
        ray = _Ray(phi, base)
        j_val = ray.j_value()
        js.append(j_val)
        fs.append(ray.f_values(j_val)[1])
        params.append(float(param))
    a = np.column_stack([js, -np.ones(len(js))])
    (c1, c2), _, rank, _ = np.linalg.lstsq(a, np.array(fs), rcond=None)
    if rank < 2:
        raise ConfigurationError(
            f"a scan needs at least 2 distinct J values, got {sorted(set(js))}"
        )
    return FamilyScan(
        name=name,
        params=tuple(params),
        j_values=tuple(js),
        f_values=tuple(fs),
        c1=float(c1),
        c2=float(c2),
    )
