"""Invariant suites and the deterministic verify-all artifact run.

Each suite checks one cluster of mathematical guarantees end to end and
returns plain ``CheckResult`` rows, so the command line, the test suite
and the manifest all consume the same measurements.  ``verify_all``
executes every suite with a fixed seed and writes the full artifact set,
byte-reproducible for a given seed on one platform; the command line
writes its manifest, which records wall time.

Grid sizes: the functional identity suite runs at n = 256, where the
identities are exact in the discretization and only roundoff remains.
The PDE suites (path, flow, pinching) run at n = 128: the curvature
identity along the path compares two chained spectral Laplacians of
stored float64 fields, whose irreducible roundoff floor grows like n^4
times machine epsilon, so n = 128 keeps that floor near 7e-9 while every
solver quantity is converged far below the tolerances in play.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import io
from .continuity import (
    ContinuityPath,
    ma_defect,
    ma_jacobian,
    mobius_potential,
    mt_scan,
    path_diagnostics,
    run_continuity_path,
)
from .curvature import (
    CharacteristicIntegrandReport,
    round_tensor_contractions,
    verify_round_characteristic_integrand,
)
from .errors import ConfigurationError, SolverError
from .flow import FlowPolicy, FlowTrajectory, PinchResult, _flow, _steps, epsilon_pinching
from .functionals import (
    FunctionalLedger,
    eval_F,
    random_potential,
    verify_cocycle,
    verify_mabuchi_f_relation,
)
from .oracle2d import compare_profiles, make_sphere_grid, oracle_fields
from .transverse import (
    BasicPotential,
    M_DIM,
    make_grid,
    metric_state,
    reference_state,
    spectrum,
)

__all__ = [
    "DEFAULT_SEED",
    "CheckResult",
    "PathSuiteBundle",
    "VerifyRun",
    "functional_identity_suite",
    "manufactured_path_suite",
    "mobius_scan_suite",
    "flow_suite",
    "curvature_suite",
    "pinching_suite",
    "oracle_suite",
    "verify_all",
]

DEFAULT_SEED = 20260815

IDENTITY_GRID_N = 256
PDE_GRID_N = 128
MOBIUS_LAMBDAS = (1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class CheckResult:
    """One named measurement compared against its tolerance.

    ``value`` is always oriented so that smaller is better (a residual,
    or the magnitude of a bound violation); ``passed`` is
    ``value <= tolerance`` possibly sharpened by extra boolean
    conditions recorded in ``detail``.
    """

    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""


def _residual(name: str, value: float, tol: float, detail: str = "") -> CheckResult:
    value = float(value)
    return CheckResult(name, bool(value <= tol), value, float(tol), detail)


def _lower_bound(name: str, margin: float, tol: float, detail: str = "") -> CheckResult:
    """margin must be >= -tol; the stored value is the violation size."""
    violation = float(max(0.0, -float(margin)))
    return CheckResult(
        name, bool(violation <= tol), violation, float(tol),
        detail or f"margin {float(margin):.3e}",
    )


def _manufactured_psi(grid) -> BasicPotential:
    return BasicPotential.from_callable(grid, lambda x: 0.3 * (1.0 - x * x))


# ---------------------------------------------------------------------------
# functional identities (randomized)
# ---------------------------------------------------------------------------


def functional_identity_suite(
    n: int = IDENTITY_GRID_N,
    samples: int = 100,
    seed: int = DEFAULT_SEED,
) -> tuple[list[CheckResult], list[FunctionalLedger]]:
    """Translation invariance, cocycle, antisymmetry, the I/J sandwich,
    the J = I/2 collapse and the K-energy relation, over seeded random
    admissible potentials.  Returns the checks and the per-sample
    functional ledgers.  The Mabuchi report and the cocycle's F(psi) and
    F(phi) are read off the samples' ledgers, so each sample applies the
    Laplacian once for all its functionals."""
    grid = make_grid(n)
    ref = reference_state(grid)
    rng = np.random.default_rng(seed)

    worst_translation = 0.0
    worst_cocycle = 0.0
    worst_antisym = 0.0
    worst_sandwich = 0.0
    worst_collapse = 0.0
    worst_mabuchi = 0.0
    min_mabuchi_slack = np.inf

    ledgers: list[FunctionalLedger] = []
    prev: Optional[FunctionalLedger] = None
    for i in range(samples):
        phi = random_potential(grid, rng)
        led = FunctionalLedger.evaluate(f"sample-{i:03d}", phi, ref)
        ledgers.append(led)

        worst_collapse = max(worst_collapse, abs(led.J - led.I / 2.0))
        # at m = 1 both sandwich slacks reduce to +-(I - 2J); positivity
        # of I and J is part of the same statement
        worst_sandwich = max(
            worst_sandwich, abs(led.I - 2.0 * led.J), -led.I, -led.J
        )

        c = float(rng.uniform(-5.0, 5.0))
        _, f_shift = eval_F(phi.shifted(c), ref)
        worst_translation = max(worst_translation, abs(f_shift - led.F))

        mab = verify_mabuchi_f_relation(led, ref)
        worst_mabuchi = max(worst_mabuchi, abs(mab.residual))
        min_mabuchi_slack = min(min_mabuchi_slack, mab.inequality_slack)

        if prev is not None and i % 2 == 1:
            rep = verify_cocycle(prev, led, ref)
            worst_cocycle = max(
                worst_cocycle, abs(rep.cocycle_f0), abs(rep.cocycle_f)
            )
            worst_antisym = max(
                worst_antisym, abs(rep.antisym_f0), abs(rep.antisym_f)
            )
        prev = led

    checks = [
        _residual("identity-translation", worst_translation, 1e-10),
        _residual("identity-cocycle", worst_cocycle, 1e-8),
        _residual("identity-antisymmetry", worst_antisym, 1e-8),
        _residual("identity-sandwich", worst_sandwich, 1e-9),
        _residual("identity-j-collapse", worst_collapse, 1e-10),
        _residual("identity-mabuchi", worst_mabuchi, 1e-8),
        _lower_bound("identity-mabuchi-bound", min_mabuchi_slack, 1e-10),
    ]
    return checks, ledgers


# ---------------------------------------------------------------------------
# manufactured continuity path
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PathSuiteBundle:
    """The suite's two paths; the endpoint, its phi and its state are
    ``gauss.endpoint()``."""

    adaptive: ContinuityPath
    gauss: ContinuityPath


def manufactured_path_suite(
    n: int = PDE_GRID_N,
) -> tuple[list[CheckResult], PathSuiteBundle]:
    """March the continuity family over the base built from
    psi = 0.3(1 - x^2).  The exact endpoint is phi_1 = -psi + c*, with
    c* half the base normalization constant, which pins recovery,
    monotonicity of I - J, the along-path curvature identity, and the
    energy identity for F at the Einstein limit."""
    grid = make_grid(n)
    psi = _manufactured_psi(grid)
    base = metric_state(psi)
    expected = -psi.values + base.norm_constant / 2.0

    adaptive = run_continuity_path(base)
    gauss = run_continuity_path(base, records=48)

    end = gauss.endpoint()
    diag_adaptive = path_diagnostics(adaptive, base)
    diag_gauss = path_diagnostics(gauss, base)

    rec_adaptive = float(np.abs(adaptive.endpoint().phi.values - expected).max())
    rec_gauss = float(np.abs(end.phi.values - expected).max())

    checks = [
        _residual("path-recovery-adaptive", rec_adaptive, 1e-7),
        _residual("path-recovery-gauss", rec_gauss, 1e-7),
        _lower_bound(
            "path-monotone",
            min(diag_adaptive.monotone_margin, diag_gauss.monotone_margin),
            1e-8,
        ),
        _residual(
            "path-curvature-identity",
            max(
                diag_adaptive.curvature_identity_residual,
                diag_gauss.curvature_identity_residual,
            ),
            1e-7,
        ),
        _residual(
            "path-energy-identity",
            abs(diag_gauss.energy_identity_residual),
            1e-5,
            detail=f"{len(gauss.records)} records",
        ),
    ]
    return checks, PathSuiteBundle(adaptive=adaptive, gauss=gauss)


# ---------------------------------------------------------------------------
# automorphism family scan
# ---------------------------------------------------------------------------


def mobius_scan_suite(n: int = IDENTITY_GRID_N) -> tuple[list[CheckResult], list, object]:
    """F vanishes identically along the automorphism family while J
    grows without bound, and the round spectrum contains the
    obstruction eigenvalue -4(m+1): properness fails exactly in the
    presence of the holomorphic symmetries.  The one scan comes back as
    a one-element list, the shape its callers index."""
    grid = make_grid(n)
    ref = reference_state(grid)
    members = [(lam, mobius_potential(lam, grid)) for lam in MOBIUS_LAMBDAS]
    scan = mt_scan("mobius", members, ref)

    f_flat = max(abs(f) for f in scan.f_values)
    j_arr = np.asarray(scan.j_values)
    j_steps = np.diff(j_arr)
    growth_margin = float(j_arr[-1] - 10.0 * j_arr[1])

    worst_closed = 0.0
    for lam, j_val in zip(scan.params, scan.j_values):
        if lam == 1.0:
            expected = 0.0
        else:
            a = (lam**2 - 1.0) / (lam**2 + 1.0)
            expected = np.log(lam) / a - 1.0
        worst_closed = max(worst_closed, abs(j_val - expected))

    spec = spectrum(ref, k=12)

    checks = [
        _residual("mobius-f-flat", f_flat, 1e-6),
        _lower_bound(
            "mobius-j-increasing", float(j_steps.min()), 0.0,
            detail=f"min step {float(j_steps.min()):.3e}",
        ),
        _lower_bound(
            "mobius-j-growth", growth_margin, 0.0,
            detail=f"J(last) - 10 J(second) = {growth_margin:.3e}",
        ),
        _residual("mobius-j-closed-form", worst_closed, 1e-10),
        CheckResult(
            "round-obstruction-eigenvalue",
            bool(spec.has_obstruction and spec.obstruction_gap <= 1e-6),
            float(spec.obstruction_gap),
            1e-6,
            detail=f"-4(m+1) = {-4 * (M_DIM + 1)}",
        ),
    ]
    return checks, [scan], spec


# ---------------------------------------------------------------------------
# flow monitors, stationarity, path consistency
# ---------------------------------------------------------------------------


def flow_suite(
    n: int = PDE_GRID_N,
    *,
    path_endpoint: BasicPotential,
) -> tuple[list[CheckResult], FlowTrajectory]:
    """Maximum-principle monitors over s in [0, 2] from the
    psi-deformed base (relative tolerance 1e-6 against their proof
    bounds), exact stationarity of the Einstein structure, and
    agreement of the s = 5 flow limit with the continuity endpoint
    path_endpoint up to a constant.  One march from the base to s = 5
    serves both (``flow._flow`` with s_last = 2): its records are those
    ``run_flow(base, 2.0)`` returns, bit for bit, and its last v is the
    flow limit.  Past s = 2 it steps freely to s = 5 (82 steps that double
    up to 0.04) and records nothing.  sup|h_0| and min Lap_0 h_0 are read
    off the base and its s = 0 record.  A march stopped at the step floor
    raises SolverError.  The round reference march (``flow._steps`` with
    s_last = 0) builds no record and steps freely from s = 0 (144 steps);
    stationarity reads v at every one of them."""
    grid = make_grid(n)
    base = metric_state(_manufactured_psi(grid))
    policy = FlowPolicy()
    traj2, v5 = _flow(base, 5.0, policy, s_last=2.0)
    if not traj2.completed:
        raise SolverError(traj2.failure)
    records = traj2.records
    h0n = float(np.abs(base.ricci_potential).max())
    lap0_min = records[0].monitors.lap_h_min
    c_scale = abs(lap0_min) if abs(lap0_min) > 1e-12 else 1.0
    mp1 = M_DIM + 1

    mons = [rec.monitors for rec in records]
    scale_a = [np.exp(mp1 * rec.s) * h0n for rec in records]
    scale_b = [4.0 * np.exp(2.0 * mp1 * rec.s) * h0n**2 for rec in records]
    min_rel_a = min(m.bound_a_slack / sc for m, sc in zip(mons, scale_a))
    min_rel_b = min(m.bound_b_slack / sc for m, sc in zip(mons, scale_b))
    min_rel_c = min(m.bound_c_min / c_scale for m in mons)
    min_rel_d = min(m.bound_d_slack / sc for m, sc in zip(mons, scale_a))
    worst_constancy = max(m.constancy_dev for m in mons)

    # v over every step of the round march, not only at records
    stationary = max(
        float(np.abs(v).max())
        for _, v, _, _ in _steps(reference_state(grid), 5.0, policy, s_last=0.0)
    )

    v5_centered = v5 - grid.integrate(v5)
    phi_centered = path_endpoint.values - grid.integrate(path_endpoint.values)
    consistency = float(np.abs(v5_centered - phi_centered).max())

    checks = [
        _lower_bound("flow-monitor-a", min_rel_a, 1e-6),
        _lower_bound("flow-monitor-b", min_rel_b, 1e-6),
        _lower_bound("flow-monitor-c", min_rel_c, 1e-6),
        _lower_bound("flow-monitor-d", min_rel_d, 1e-6),
        _residual("flow-constancy", worst_constancy, 1e-10),
        _residual("flow-stationary-round", stationary, 1e-10),
        _residual("flow-path-consistency", consistency, 1e-5),
    ]
    return checks, traj2


# ---------------------------------------------------------------------------
# curvature algebra
# ---------------------------------------------------------------------------


def curvature_suite(
    seed: int = DEFAULT_SEED,
) -> tuple[list[CheckResult], CharacteristicIntegrandReport]:
    """Brute-force tensor contractions against the closed forms and the
    traceless decomposition identity for m up to 6, the characteristic
    integrand at the model value, and the pinned |Rm|^2 check."""
    rng = np.random.default_rng(seed)
    worst_identity = 0.0
    for m in range(1, 7):
        for c in [4.0, *rng.uniform(2.0, 8.0, size=3)]:
            model = round_tensor_contractions(m, float(c))
            worst_identity = max(
                worst_identity,
                abs(model.scalar - model.scalar_closed_form),
                abs(model.riemann_norm_sq - model.riemann_closed_form),
                abs(
                    model.q_norm_sq
                    - (model.riemann_norm_sq - 2.0 * model.scalar**2 / (m * (m + 1)))
                ),
            )

    worst_integrand = max(
        abs(verify_round_characteristic_integrand(m).integrand) for m in (2, 3)
    )
    rm2_dev = abs(round_tensor_contractions(2, 4.0).riemann_norm_sq - 48.0)

    checks = [
        _residual("curvature-q-identity", worst_identity, 1e-12),
        _residual("curvature-integrand", worst_integrand, 1e-12),
        _residual("curvature-rm2-pinned", rm2_dev, 1e-12, detail="(m, c) = (2, 4)"),
    ]
    return checks, verify_round_characteristic_integrand(2, 4.0)


# ---------------------------------------------------------------------------
# pinching
# ---------------------------------------------------------------------------


def pinching_suite(
    n: int = PDE_GRID_N,
    eps: float = 0.05,
) -> tuple[list[CheckResult], PinchResult]:
    """Two-stage pinching from the psi base: the produced structure must
    have max|S^T - 4| below eps and Calabi energy below the closed-form
    bound."""
    grid = make_grid(n)
    base = metric_state(_manufactured_psi(grid))
    result = epsilon_pinching(base, eps)
    checks = [
        _residual(
            "pinch-achieved", result.achieved, eps,
            detail=f"path stopped at t = {result.path_t:.4g}",
        ),
        _residual(
            "pinch-calabi", result.calabi, result.calabi_bound_value,
            detail=f"bound {result.calabi_bound_value:.6g}",
        ),
        _lower_bound("pinch-flow-h-slack", result.flow_h_slack, 0.0),
        _lower_bound("pinch-flow-dh2-slack", result.flow_dh2_slack, 0.0),
        _lower_bound("pinch-flow-lap-min", result.flow_lap_h_min, 0.0),
    ]
    return checks, result


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

ORACLE_PROFILES: tuple[tuple[str, Callable], ...] = (
    ("linear", lambda x: 0.1 * x),
    ("bump", lambda x: 0.3 * (1.0 - x**2)),
    ("cubic", lambda x: 0.05 * (x**3 - x) + 0.02),
    ("mobius", lambda x: np.log(1.5**2 * (1.0 + x) + (1.0 - x))),
)


def oracle_suite(
    n: int = PDE_GRID_N,
    n_theta: int = 512,
) -> list[CheckResult]:
    """Cross-checks against machinery that shares no code with the
    production path: a 2-D axisymmetric finite-difference oracle for
    the reduction formulas, finite differences for the Newton Jacobian,
    and the closed-form spectrum."""
    grid = make_grid(n)
    sphere = make_sphere_grid(n_theta=n_theta)

    worst_profile = 0.0
    worst_name = ""
    for name, fx in ORACLE_PROFILES:
        phi = BasicPotential.from_callable(grid, fx)
        state = metric_state(phi)
        fields = oracle_fields(sphere, fx)
        devs = compare_profiles(
            fields,
            grid.x,
            state.ratio,
            phi._lap_ld.astype(np.float64),
            state.scalar_curvature,
            state.grad_norm_sq(phi.values),
        )
        for field_name, dev in devs.items():
            if dev > worst_profile:
                worst_profile = dev
                worst_name = f"{name}/{field_name}"

    base = metric_state(_manufactured_psi(grid))
    phi0 = BasicPotential.from_callable(grid, lambda x: 0.05 * np.sin(2.0 * x))
    t_probe = 0.37
    jac = ma_jacobian(phi0, t_probe, base)
    fd = np.empty_like(jac)
    eps_fd = 1e-6
    for j in range(grid.n):
        bump = np.zeros(grid.n)
        bump[j] = eps_fd
        f_plus = ma_defect(
            BasicPotential(values=phi0.values + bump, grid=grid), t_probe, base
        )
        f_minus = ma_defect(
            BasicPotential(values=phi0.values - bump, grid=grid), t_probe, base
        )
        fd[:, j] = (f_plus - f_minus) / (2.0 * eps_fd)
    jac_dev = float(np.abs(jac - fd).max() / np.abs(jac).max())

    spec = spectrum(reference_state(grid), k=8)
    worst_eig = 0.0
    for k in range(1, 9):
        target = -4.0 * k * (k + 1)
        worst_eig = max(worst_eig, abs(spec.eigenvalues[k] - target) / abs(target))

    return [
        _residual("oracle-profiles", worst_profile, 1e-6, detail=worst_name),
        _residual("oracle-jacobian-fd", jac_dev, 1e-6),
        _residual("oracle-spectrum", worst_eig, 1e-8, detail="relative, k <= 8"),
    ]


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class VerifyRun:
    checks: tuple[CheckResult, ...]
    artifacts: tuple[Path, ...]
    extra: dict  # the manifest's extra values: samples, grid sizes, suite tallies
    passed: bool

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def verify_all(
    out_dir: Path,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
) -> VerifyRun:
    """Run every suite and write the artifact set into out_dir; return the
    checks, the artifacts and the manifest's extra values.  The manifest,
    which records wall time, is written by the command line
    (``cli.main``), as for every other command.

    ``quick`` reduces the randomized identity sample count (the
    deterministic suites are identical); artifact layout and schemas do
    not change.  A negative seed raises ConfigurationError before the
    output directory is made.
    """
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samples = 10 if quick else 100

    suites: list[tuple[str, list[CheckResult]]] = []
    artifacts: list[Path] = []

    id_checks, ledgers = functional_identity_suite(samples=samples, seed=seed)
    suites.append(("functional_identities", id_checks))
    artifacts.append(io.write_ledger_csv(out / "ledger.csv", ledgers))

    path_checks, bundle = manufactured_path_suite()
    suites.append(("manufactured_path", path_checks))
    end = bundle.gauss.endpoint()
    artifacts.append(io.write_path_csv(out / "path.csv", bundle.adaptive))
    artifacts.append(io.write_path_csv(out / "path_energy.csv", bundle.gauss))
    artifacts.append(io.write_field_csv(out / "endpoint.csv", end.phi.grid.x, end.phi.values))
    artifacts.append(io.write_state_json(out / "endpoint_state.json", end.state))

    mob_checks, scans, spec = mobius_scan_suite()
    suites.append(("mobius_scan", mob_checks))
    artifacts.append(io.write_scan_csv(out / "scan.csv", scans[0]))
    artifacts.append(io.write_spectrum_csv(out / "spectrum.csv", spec))

    fl_checks, traj2 = flow_suite(path_endpoint=bundle.adaptive.endpoint().phi)
    suites.append(("flow", fl_checks))
    artifacts.append(io.write_flow_csv(out / "flow.csv", traj2))

    curv_checks, report = curvature_suite(seed=seed)
    suites.append(("curvature", curv_checks))
    artifacts.append(io.write_curvature_json(out / "curvature.json", report))

    pin_checks, pinch = pinching_suite()
    suites.append(("pinching", pin_checks))
    artifacts.append(io.write_pinch_json(out / "pinch.json", pinch))

    suites.append(("oracle", oracle_suite()))

    all_checks = [c for _, cs in suites for c in cs]
    artifacts.append(io.write_checks_csv(out / "checks.csv", all_checks))

    extra = {
        "identity_samples": samples,
        "identity_grid_n": IDENTITY_GRID_N,
        "pde_grid_n": PDE_GRID_N,
        "suites": {
            name: {
                "passed": int(sum(c.passed for c in cs)),
                "total": len(cs),
            }
            for name, cs in suites
        }
    }
    return VerifyRun(
        checks=tuple(all_checks),
        artifacts=tuple(artifacts),
        extra=extra,
        passed=all(c.passed for c in all_checks),
    )
