"""The four benchmark workloads, driven through reebflow's public API.

A workload has a set-up (imports plus the grid, reference-state and
base-state builds that precede its first timed call) and a body, one
timed unit of work that returns its verification checks as
``(name, passed, value, tolerance)`` tuples.  Bodies look every package
function up through its module at call time, so that a tracer installed
between two calls sees them.

Nothing here imports numpy or the package at module level: the set-up
time of a fresh process includes those imports.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io as _stdio
import json
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

MODULES = (
    "transverse", "functionals", "continuity", "flow", "curvature",
    "oracle2d", "verification", "io", "cli",
)

# functional_identity_suite samples per ledger-workload iteration; each
# sample is one FunctionalLedger plus the translation, Mabuchi and (every
# second sample) cocycle evaluations
LEDGER_SAMPLES = 2
LEDGER_N = 256
PDE_N = 128
FLOW_S_END = 2.0
PINCH_EPS = 0.05

# checks one iteration of each body returns; all count as failed when the
# body raises before returning them
NOMINAL_CHECKS = {"ledger": 8, "continuation": 5, "flow": 11, "verify_quick": 36}


class PackageMissing(RuntimeError):
    """The checkout holds no reebflow sources to benchmark."""


class BodyFailed(RuntimeError):
    """A workload body ended without checks (counted, not fatal)."""


@dataclass
class Context:
    name: str
    seed: int
    rf: object                      # the reebflow package
    mod: dict                       # layer name -> module
    base: object = None             # metric state of the psi base (n = 128)
    hashes: list = field(default_factory=list)

    @property
    def errors(self) -> tuple:
        return (self.rf.SolverError, self.rf.InvariantViolation,
                self.rf.InadmissibleError, BodyFailed)


def import_package():
    """Import reebflow from this checkout's ``src`` and nowhere else."""
    if not (SRC / "reebflow" / "__init__.py").is_file():
        raise PackageMissing(f"no reebflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    rf = importlib.import_module("reebflow")
    if Path(rf.__file__).resolve().parent != SRC / "reebflow":
        raise PackageMissing(f"reebflow imported from {rf.__file__}, not {SRC}")
    mod = {name: importlib.import_module(f"reebflow.{name}") for name in MODULES}
    return rf, mod


def setup(name: str, seed: int, tracer=None) -> Context:
    """Imports plus every build that precedes the first timed call; with a
    tracer, the builds (not the imports) run traced."""
    import numpy  # noqa: F401  (part of the measured import cost)
    import scipy.linalg  # noqa: F401

    rf, mod = import_package()
    ctx = Context(name=name, seed=seed, rf=rf, mod=mod)
    if tracer is not None:
        tracer.install()
    try:
        t = mod["transverse"]
        sizes = {"ledger": (LEDGER_N,), "continuation": (PDE_N,), "flow": (PDE_N,),
                 "verify_quick": (LEDGER_N, PDE_N)}[name]
        for n in sizes:
            t.reference_state(t.make_grid(n))
        if PDE_N in sizes:
            grid = t.make_grid(PDE_N)
            psi = t.BasicPotential.from_callable(grid, lambda x: 0.3 * (1.0 - x * x))
            ctx.base = t.metric_state(psi)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ctx


def _rows(checks) -> list[tuple]:
    return [(c.name, bool(c.passed), float(c.value), float(c.tolerance)) for c in checks]


def iteration_seed(seed: int, i: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def body_ledger(ctx: Context, i: int) -> list[tuple]:
    checks, ledgers = ctx.mod["verification"].functional_identity_suite(
        n=LEDGER_N, samples=LEDGER_SAMPLES, seed=iteration_seed(ctx.seed, i)
    )
    rows = _rows(checks)
    finite = all(
        abs(v) < float("inf") for led in ledgers for v in led.row()[1:]
    )
    rows.append(("ledger-finite", finite, 0.0 if finite else 1.0, 0.0))
    return rows


def body_continuation(ctx: Context, i: int) -> list[tuple]:
    checks, _ = ctx.mod["verification"].manufactured_path_suite(n=PDE_N)
    return _rows(checks)


def body_flow(ctx: Context, i: int) -> list[tuple]:
    """run_flow to s = 2 with the monitor checks of the flow suite, then
    epsilon-pinching through the pinching suite."""
    import numpy as np

    base = ctx.base
    grid = base.potential.grid
    traj = ctx.mod["flow"].run_flow(base, s_end=FLOW_S_END)
    mp1 = ctx.mod["transverse"].M_DIM + 1
    h0n = float(np.abs(base.ricci_potential).max())
    lap0_min = float((grid.laplacian(base.ricci_potential) / base.ratio).min())
    c_scale = abs(lap0_min) if abs(lap0_min) > 1e-12 else 1.0
    rel = {"a": np.inf, "b": np.inf, "c": np.inf, "d": np.inf}
    constancy = 0.0
    for rec in traj.records:
        mon = rec.monitors
        scale_a = np.exp(mp1 * rec.s) * h0n
        scale_b = 4.0 * np.exp(2.0 * mp1 * rec.s) * h0n**2
        rel["a"] = min(rel["a"], mon.bound_a_slack / scale_a)
        rel["b"] = min(rel["b"], mon.bound_b_slack / scale_b)
        rel["c"] = min(rel["c"], mon.bound_c_min / c_scale)
        rel["d"] = min(rel["d"], mon.bound_d_slack / scale_a)
        constancy = max(constancy, mon.constancy_dev)
    rows = [("flow-completed", bool(traj.completed), 0.0 if traj.completed else 1.0, 0.0)]
    for key, margin in rel.items():
        violation = max(0.0, -float(margin))
        rows.append((f"flow-monitor-{key}", violation <= 1e-6, violation, 1e-6))
    rows.append(("flow-constancy", constancy <= 1e-10, float(constancy), 1e-10))
    pin_checks, _ = ctx.mod["verification"].pinching_suite(n=PDE_N, eps=PINCH_EPS)
    return rows + _rows(pin_checks)


def body_verify_quick(ctx: Context, i: int) -> list[tuple]:
    """``reebflow verify-all --quick`` through ``cli.main``; the checks are
    read back from the artifacts, whose manifest hashes are re-checked."""
    SCRATCH.mkdir(exist_ok=True)
    out = SCRATCH / f"verify-{ctx.seed}-{i}"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["verify-all", "--quick", "--seed", str(ctx.seed), "--out", str(out)]
    try:
        with contextlib.redirect_stdout(_stdio.StringIO()), \
                contextlib.redirect_stderr(_stdio.StringIO()) as err:
            code = ctx.mod["cli"].main(argv)
        checks_csv = out / "checks.csv"
        if code not in (0, 2) or not checks_csv.is_file():
            raise BodyFailed(f"verify-all exited {code}: {err.getvalue().strip()}")
        with checks_csv.open(newline="") as fh:
            rows = [
                (r["name"], r["passed"] == "1", float(r["value"]), float(r["tolerance"]))
                for r in csv.DictReader(fh)
            ]
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {a["name"]: a["sha256"] for a in manifest["artifacts"]}
        actual = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"
        }
        ctx.hashes.append(actual)
        ok = listed == actual
        rows.append(("artifact-hashes", ok, 0.0 if ok else 1.0, 0.0))
        return rows
    finally:
        shutil.rmtree(out, ignore_errors=True)


BODIES = {
    "ledger": body_ledger,
    "continuation": body_continuation,
    "flow": body_flow,
    "verify_quick": body_verify_quick,
}
