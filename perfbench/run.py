"""reebflow benchmark: one workload, one run.

    python3 perfbench/run.py --workload ledger --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its
``src``.  With ``--trace 0`` the run reports the end-to-end metrics
(set-up time, median body wall time, peak RSS); with ``--trace 1`` it
alternates untraced and traced runs of the same body and reports the
per-layer metrics plus the tracing overhead.  Check failures and the
package's solver/invariant errors are counted, not fatal.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (verification checks) and ``metrics``; the line before it is a
``record`` with the environment, every iteration time, the check values
and, for verify_quick, the sha256 of every artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads are fixed before numpy is first imported, here and in the
# set-up probes (which inherit the environment); one thread is at or below
# nproc on any machine, and at n = 128 one and two threads time the same.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# extra fresh-process set-ups per run; setup_s is the median of these and
# the run's own set-up
SETUP_PROBES = 4


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BODIES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--probe-setup", action="store_true",
                   help="time one set-up in this process, print it, and exit")
    return p.parse_args(argv)


def timed_setup(name: str, seed: int, tracer=None):
    """Set-up and its wall time; a tracer sees the builds, not the imports."""
    t0 = time.perf_counter()
    ctx = workloads.setup(name, seed, tracer)
    return ctx, time.perf_counter() - t0


def probe_setups(args) -> list[float]:
    """Set-up times of fresh processes: imports are paid once per process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=workloads.ROOT, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def environment(ctx) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "reebflow": getattr(ctx.rf, "__version__", None),
    }


def run_body(ctx, i: int, errors: list) -> tuple[float, list[tuple]]:
    """One timed body; a package error counts every nominal check failed."""
    body = workloads.BODIES[ctx.name]
    t0 = time.perf_counter()
    try:
        rows = body(ctx, i)
    except ctx.errors as err:
        rows = None
        errors.append(f"iteration {i}: {type(err).__name__}: {err}")
    wall = time.perf_counter() - t0
    if rows is None:
        nominal = workloads.NOMINAL_CHECKS[ctx.name]
        rows = [(f"{ctx.name}-raised", False, float("nan"), float("nan"))] * nominal
    return wall, rows


def fits(walls: list[float], start: float, seconds: float) -> bool:
    """Run at least once, then only while the next iteration, at the median
    duration so far, is expected to end within the run's seconds."""
    if not walls:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def layer_metrics(tr: Tracer, iterations: int, rows: list[tuple], grid_s: float) -> dict:
    """Per-layer metrics per traced body iteration (ratios are per unit);
    ``grid_s`` is the grid-build time of the traced set-up.  A ratio whose
    base is zero on a workload reads 0."""
    st, nested = tr.stats, tr.nested
    per = 1.0 / iterations

    def ratio(num, den):
        return num / den if den else 0.0

    ledgers = st["functionals.ledger"].calls
    newton = st["continuity.solve_ma_at_t"]
    steps = nested[("flow.run_flow", "flow.dense_solve")]
    margins = [v / t for _, _, v, t in rows if t > 0 and math.isfinite(v)]
    m = {
        "transverse.laplacian.calls": (st["transverse.laplacian"].calls * per, "count"),
        "transverse.laplacian.s": (st["transverse.laplacian"].s * per, "s"),
        "transverse.metric_state.calls": (st["transverse.metric_state"].calls * per, "count"),
        "transverse.metric_state.s": (st["transverse.metric_state"].s * per, "s"),
        "transverse.metric_state.self_s": (st["transverse.metric_state"].self_s * per, "s"),
        "transverse.spectrum.s": (st["transverse.spectrum"].s * per, "s"),
        "transverse.make_grid.s": (grid_s, "s"),
        "functionals.ledger.calls": (ledgers * per, "count"),
        "functionals.ledger.s": (st["functionals.ledger"].s * per, "s"),
        "functionals.eval_J.calls": (st["functionals.eval_J"].calls * per, "count"),
        "functionals.eval_K_energy.calls": (st["functionals.eval_K_energy"].calls * per, "count"),
        "functionals.metric_state_per_ledger": (
            ratio(nested[("functionals.ledger", "transverse.metric_state")], ledgers), "count/ledger"),
        "functionals.laplacians_per_ledger": (
            ratio(nested[("functionals.ledger", "transverse.laplacian")], ledgers), "count/ledger"),
        "continuity.newton_solves.calls": (newton.calls * per, "count"),
        "continuity.newton_solves.s": (newton.s * per, "s"),
        "continuity.newton_solves.failed": (newton.failed * per, "count"),
        "continuity.newton_accept_ratio": (
            ratio(newton.calls - newton.failed, newton.calls), "share"),
        "continuity.jacobians.calls": (
            nested[("continuity.solve_ma_at_t", "continuity.ma_jacobian")] * per, "count"),
        "continuity.lstsq.calls": (st["continuity.lstsq"].calls * per, "count"),
        "continuity.lstsq.s": (st["continuity.lstsq"].s * per, "s"),
        "continuity.path_diagnostics.s": (st["continuity.path_diagnostics"].s * per, "s"),
        "flow.run_flow.s": (st["flow.run_flow"].s * per, "s"),
        "flow.steps.calls": (steps * per, "count"),
        "flow.records": (tr.flow_records * per, "count"),
        "flow.dense_solve.s": (st["flow.dense_solve"].s * per, "s"),
        "flow.metric_states_per_step": (
            ratio(nested[("flow.run_flow", "transverse.metric_state")], steps), "count/step"),
        "flow.laplacians_per_step": (
            ratio(nested[("flow.run_flow", "transverse.laplacian")], steps), "count/step"),
        "flow.epsilon_pinching.s": (st["flow.epsilon_pinching"].s * per, "s"),
    }
    for suite in ("functional_identity_suite", "manufactured_path_suite",
                  "mobius_scan_suite", "flow_suite", "curvature_suite",
                  "pinching_suite", "oracle_suite"):
        m[f"verification.{suite}.s"] = (st[f"verification.{suite}"].s * per, "s")
    m["verification.margin_max"] = (max(margins, default=0.0), "ratio")
    m["curvature.s"] = (tr.layer_s["curvature"] * per, "s")
    m["oracle2d.s"] = (tr.layer_s["oracle2d"] * per, "s")
    m["io.write.s"] = (tr.layer_s["io"] * per, "s")
    m["io.bytes_written"] = (tr.bytes_written * per, "B")
    m["cli.main.s"] = (st["cli.main"].s * per, "s")
    return m


def measure(ctx, args, own_setup: float, errors: list):
    """Untraced run: set-up, wall time and memory."""
    setups = [own_setup, *probe_setups(args)]
    walls, all_rows = [], []
    start = time.perf_counter()
    while fits(walls, start, args.seconds):
        wall, rows = run_body(ctx, len(walls), errors)
        walls.append(wall)
        all_rows += rows
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, all_rows, {"setup_samples_s": setups, "wall_samples_s": walls}


def measure_traced(ctx, args, tracer: Tracer, errors: list, problems: list):
    """Pairs of untraced and traced iterations on the same inputs."""
    grid_s = tracer.stats["transverse.make_grid"].s
    tracer.reset()
    plain, traced, all_rows = [], [], []
    start = time.perf_counter()
    while fits([p + t for p, t in zip(plain, traced)], start, args.seconds):
        i = len(traced)
        # alternate which side of the pair runs first
        if i % 2 == 0:
            wall_plain, rows_plain = run_body(ctx, i, errors)
        tracer.install()
        try:
            missing = tracer.unwrapped()
            wall, rows = run_body(ctx, i, errors)
        finally:
            tracer.uninstall()
        if i % 2 == 1:
            wall_plain, rows_plain = run_body(ctx, i, errors)
        plain.append(wall_plain)
        traced.append(wall)
        all_rows += rows
        leftover = tracer.leftover_wrappers()
        if missing:
            problems.append(f"unwrapped bindings: {missing}")
        if leftover:
            problems.append(f"wrappers left after uninstall: {leftover}")
        if repr(rows) != repr(rows_plain):  # exact, and NaN equals NaN
            problems.append(f"iteration {i}: traced check values differ from untraced")
    metrics = layer_metrics(tracer, len(traced), all_rows, grid_s)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics, all_rows, {"wall_samples_s": plain, "traced_wall_samples_s": traced}


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = Tracer() if args.trace else None
    try:
        ctx, own_setup = timed_setup(args.workload, args.seed, tracer)
    except workloads.PackageMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(repr(own_setup))
        return 0

    errors: list[str] = []
    problems: list[str] = []
    if tracer is None:
        metrics, rows, samples = measure(ctx, args, own_setup, errors)
    else:
        metrics, rows, samples = measure_traced(ctx, args, tracer, errors, problems)
    if any(h != ctx.hashes[0] for h in ctx.hashes):
        problems.append("verify-all artifacts differ between iterations of one seed")
    failed = sum(1 for r in rows if not r[1])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(ctx), **samples,
        "last_checks": rows[-workloads.NOMINAL_CHECKS[args.workload]:],
        "errors": errors, "problems": problems,
    }
    if ctx.hashes:
        record["artifact_sha256"] = ctx.hashes
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {name:40s} {value:14.6g} {unit}")
    print(f"{args.workload:13s} {'checks_failed':40s} {failed:14d} count "
          f"(of {len(rows)} attempted)")
    print("record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
