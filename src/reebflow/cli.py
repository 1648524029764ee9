"""Command-line front end: deterministic pipelines with CSV/JSON artifacts.

Exit codes separate plumbing from mathematics: 0 on success, 1 for usage
problems (bad flags, malformed expressions, inadmissible inputs,
unwritable output), 2 when a structural invariant fails numerically
(solver divergence, a violated bound, a failed verification check), so
CI can distinguish math regressions from configuration mistakes.

`main` times each command and writes its manifest.json; the manifest's
config is the parsed flags less --out and --config, so giving it back as
`--config` replays the run.

Potential expressions are parsed from a minimal arithmetic grammar over
the variable x with functions sin, cos, exp, log, pow (both `^` and `**`
denote powers), then sampled onto the grid.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import io
from .continuity import (
    PathPolicy,
    ma_defect,
    mobius_potential,
    mt_scan,
    run_continuity_path,
    solve_ma_at_t,
)
from .curvature import verify_round_characteristic_integrand
from .errors import (
    ConfigurationError,
    GridMismatchError,
    InadmissibleError,
    InvariantViolation,
    ResolutionError,
    SolverError,
)
from .flow import FlowPolicy, _pinch_calabi_bound, epsilon_pinching, run_flow
from .functionals import relative_state
from .transverse import BasicPotential, make_grid, metric_state, reference_state, spectrum
from .verification import DEFAULT_SEED, IDENTITY_GRID_N, MOBIUS_LAMBDAS, PDE_GRID_N, verify_all

__all__ = ["main", "parse_expression", "build_parser"]


class UsageError(Exception):
    """Raised for bad command lines; mapped to exit code 1."""


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "pow": np.power,
}
_CONSTANTS = {"pi": np.pi, "e": np.e}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARYOPS = (ast.UAdd, ast.USub)


def parse_expression(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an arithmetic expression in x into a vectorized callable.

    Only the grammar above is accepted; anything else (names, calls,
    attributes, subscripts) is rejected before evaluation.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise UsageError(f"cannot parse expression {text!r}: {exc.msg}") from exc

    for node in ast.walk(tree):
        if isinstance(node, (ast.Expression, ast.Load)):
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            if isinstance(node.op, ast.Pow):
                # a float base overflows at once; in ints 3^9^9 runs for minutes
                node.left = ast.BinOp(node.left, ast.Mult(), ast.Constant(1.0))
            continue
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
            continue
        if isinstance(node, (*_BINOPS, *_UNARYOPS)):
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            continue
        if isinstance(node, ast.Name) and (
            node.id == "x" or node.id in _CONSTANTS or node.id in _FUNCTIONS
        ):
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS
            and not node.keywords
        ):
            continue
        raise UsageError(
            f"expression {text!r} uses disallowed syntax "
            f"({ast.dump(node, annotate_fields=False)[:60]}); "
            "allowed: + - * / ^ numbers, x, pi, e, sin, cos, exp, log, pow"
        )

    code = compile(ast.fix_missing_locations(tree), "<expression>", "eval")

    def evaluate(x: np.ndarray) -> np.ndarray:
        env = {"x": np.asarray(x, dtype=np.float64), **_CONSTANTS, **_FUNCTIONS}
        try:
            out = eval(code, {"__builtins__": {}}, env)
            out = np.asarray(out, dtype=np.float64)
        except (ArithmeticError, TypeError, ValueError) as exc:
            # 1/0, 2^10000; (-8)^(1/3) is complex; pow(2,-1) a negative int power
            raise UsageError(f"cannot evaluate expression {text!r}: {exc}") from exc
        return np.broadcast_to(out, np.shape(x)).copy()

    return evaluate


def _potential_from_expression(text: str, grid) -> BasicPotential:
    return BasicPotential.from_callable(grid, parse_expression(text))


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse number list {text!r}") from exc


# the base deformation of solve, path, flow and pinch
_PSI = "0.3*(1-x^2)"


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(
        prog="reebflow",
        description="Transverse Kahler toolkit: energy functionals, "
        "continuity method, flow smoothing, curvature diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, _Parser] = {}

    def add(name: str, help_text: str, n_default: Optional[int] = None) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", type=Path, default=Path("artifacts") / name,
                       help="output directory")
        if n_default is not None:
            p.add_argument("--n", type=int, default=n_default, help="grid size")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file with defaults for this command")
        registry[name] = p
        return p

    p = add("solve", "Newton solve of the potential equation at fixed t", PDE_GRID_N)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--psi", default=_PSI, help="base deformation")
    p.add_argument("--guess", default="0", help="initial Newton guess")
    p.add_argument("--newton-tol", type=float, default=PathPolicy.newton_tol)

    p = add("path", "continuity-method march in t", PDE_GRID_N)
    p.add_argument("--psi", default=_PSI)
    p.add_argument("--t-start", type=float, default=0.1)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--records", type=int, default=None,
                   help="fixed record count (quadrature nodes); default adaptive")
    p.add_argument("--newton-tol", type=float, default=PathPolicy.newton_tol)

    p = add("flow", "potential-level flow march in s", PDE_GRID_N)
    p.add_argument("--psi", default=_PSI)
    p.add_argument("--s-end", type=float, default=5.0)
    p.add_argument("--ds", type=float, default=FlowPolicy.ds)
    p.add_argument("--stride", type=int, default=FlowPolicy.record_stride,
                   help="record every stride * ds of flow time")

    p = add("scan", "(J, F) scan over a potential family", IDENTITY_GRID_N)
    p.add_argument("--family", choices=("mobius", "bump"), default="mobius")
    p.add_argument("--lambdas", type=_float_list, default=list(MOBIUS_LAMBDAS))
    p.add_argument("--epsilons", type=_float_list,
                   default=[0.025, 0.05, 0.075, 0.1, 0.125, 0.15])

    p = add("pinch", "two-stage curvature pinching", PDE_GRID_N)
    p.add_argument("--psi", default=_PSI)
    p.add_argument("--eps", type=float, default=0.05)

    p = add("spectrum", "deformed Laplacian eigenvalues", IDENTITY_GRID_N)
    p.add_argument("--phi", default="0", help="deformation potential")
    p.add_argument("--k", type=int, default=12, help="eigenvalue count")

    p = add("curvature", "round-model tensor contractions")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--c", type=float, default=4.0)

    p = add("verify-all", "run every invariant suite with artifacts")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the randomized suites")
    p.add_argument("--quick", action="store_true",
                   help="fewer randomized samples; identical artifact layout")

    return parser, registry


# parsing leaves the tree as it is, so one serves every call of main
_parser = lru_cache(maxsize=1)(build_parser)


def _apply_config_file(
    argv: Sequence[str], parser: _Parser, registry: dict[str, _Parser]
) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise UsageError("config file must hold a JSON object")

    command_parser = registry[args.command]
    actions = {a.dest: a for a in command_parser._actions if a.dest != "help"}
    tokens = []
    for key, value in loaded.items():
        dest = key.replace("-", "_")
        if dest == "command":
            continue
        if dest not in actions:
            raise UsageError(f"config key {key!r} unknown for command {args.command!r}")
        flag = actions[dest].option_strings[0]
        if value is None:
            # a manifest records a flag left at its default None as null
            if actions[dest].default is not None:
                raise UsageError(f"config key {key!r} cannot be null")
            continue
        if actions[dest].nargs == 0:  # a switch such as --quick
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r} must be true or false, got {value!r}")
            tokens += [flag] if value else []
        else:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            tokens.append(f"{flag}={value}")
    # the config's tokens go right after the command: its parser converts
    # and checks each value as it would the flag, and the explicit flags
    # after them win
    at = argv.index(args.command) + 1
    return parser.parse_args([*argv[:at], *tokens, *argv[at:]])


# ---------------------------------------------------------------------------
# commands: each computes, writes its artifacts, prints its line and returns
# (artifacts, extra, failure); main times it and writes the manifest
# ---------------------------------------------------------------------------


def _cmd_solve(args):
    grid = make_grid(args.n)
    base = metric_state(_potential_from_expression(args.psi, grid))
    guess = _potential_from_expression(args.guess, grid)
    phi = solve_ma_at_t(args.t, base, guess, PathPolicy(newton_tol=args.newton_tol))
    residual = float(np.abs(ma_defect(phi, args.t, base)).max())
    artifacts = [
        io.write_field_csv(args.out / "solution.csv", grid.x, phi.values),
        io.write_state_json(args.out / "state.json", relative_state(base, phi)),
    ]
    print(f"solve: t = {args.t:g}, residual {residual:.3e} -> {args.out}")
    return artifacts, {"residual": residual}, None


def _cmd_path(args):
    grid = make_grid(args.n)
    base = metric_state(_potential_from_expression(args.psi, grid))
    path = run_continuity_path(
        base,
        t_start=args.t_start,
        t_end=args.t_end,
        policy=PathPolicy(newton_tol=args.newton_tol),
        records=args.records,
    )
    if not path.records:
        raise InvariantViolation(f"path failed at its start: {path.failure}")
    end = path.endpoint()
    artifacts = [
        io.write_path_csv(args.out / "path.csv", path),
        io.write_field_csv(args.out / "endpoint.csv", grid.x, end.phi.values),
        io.write_state_json(args.out / "endpoint_state.json", end.state),
    ]
    print(f"path: {len(path.records)} records, endpoint residual {end.residual:.3e} "
          f"-> {args.out}")
    extra = {"endpoint_residual": end.residual, "records_written": len(path.records)}
    failure = None if path.completed else (
        f"path did not reach t = {args.t_end}: {path.failure}")
    return artifacts, extra, failure


def _cmd_flow(args):
    grid = make_grid(args.n)
    base = metric_state(_potential_from_expression(args.psi, grid))
    policy = FlowPolicy(ds=args.ds, record_stride=args.stride)
    traj = run_flow(base, s_end=args.s_end, policy=policy)
    artifacts = [io.write_flow_csv(args.out / "flow.csv", traj)]
    end = traj.endpoint()
    sup_h = end.monitors.sup_h
    print(f"flow: {len(traj.records)} records to s = {end.s:g}, "
          f"sup|h| {sup_h:.3e} -> {args.out}")
    failure = None if traj.completed else f"flow stopped early: {traj.failure}"
    return artifacts, {"final_sup_h": sup_h}, failure


def _cmd_scan(args):
    grid = make_grid(args.n)
    if args.family == "mobius":
        members = [(lam, mobius_potential(lam, grid)) for lam in args.lambdas]
    else:
        p2 = parse_expression("(3*x^2-1)/2")
        members = [
            (eps, BasicPotential.from_callable(grid, lambda x, e=eps: e * p2(x)))
            for eps in args.epsilons
        ]
    scan = mt_scan(args.family, members, reference_state(grid))
    artifacts = [io.write_scan_csv(args.out / "scan.csv", scan)]
    print(f"scan: {args.family} over {len(members)} members, "
          f"fit F ~ {scan.c1:.4g} J - {scan.c2:.4g} -> {args.out}")
    return artifacts, {"c1": scan.c1, "c2": scan.c2}, None


def _cmd_pinch(args):
    grid = make_grid(args.n)
    # an eps out of range is refused before the base state's Laplacian
    _pinch_calabi_bound(args.eps, grid.n)
    base = metric_state(_potential_from_expression(args.psi, grid))
    result = epsilon_pinching(base, args.eps)
    artifacts = [
        io.write_pinch_json(args.out / "pinch.json", result),
        io.write_flow_csv(args.out / "flow.csv", result.trajectory),
    ]
    print(f"pinch: achieved {result.achieved:.3e} (target {args.eps:g}), "
          f"Calabi {result.calabi:.3e} -> {args.out}")
    return artifacts, {"achieved": result.achieved, "calabi": result.calabi}, None


def _cmd_spectrum(args):
    grid = make_grid(args.n)
    state = metric_state(_potential_from_expression(args.phi, grid))
    result = spectrum(state, k=args.k)
    artifacts = [io.write_spectrum_csv(args.out / "spectrum.csv", result)]
    flag = "present" if result.has_obstruction else "absent"
    print(f"spectrum: {args.k + 1} eigenvalues, obstruction eigenvalue {flag} "
          f"(gap {result.obstruction_gap:.3e}) -> {args.out}")
    extra = {"has_obstruction": result.has_obstruction,
             "obstruction_gap": result.obstruction_gap,
             "clusters": [[ev, mult] for ev, mult in result.clusters]}
    return artifacts, extra, None


def _cmd_curvature(args):
    report = verify_round_characteristic_integrand(args.m, args.c)
    artifacts = [io.write_curvature_json(args.out / "curvature.json", report)]
    print(f"curvature: m = {args.m}, c = {args.c:g}, "
          f"integrand {report.integrand:.3e} (sign {report.sign}) -> {args.out}")
    return artifacts, None, None


def _cmd_verify_all(args):
    run = verify_all(args.out, seed=args.seed, quick=args.quick)
    for check in run.checks:
        mark = "PASS" if check.passed else "FAIL"
        detail = f"  {check.detail}" if check.detail else ""
        print(f"[{mark}] {check.name:32s} value {check.value:.3e}  "
              f"tol {check.tolerance:.1e}{detail}")
    n_pass = sum(c.passed for c in run.checks)
    print(f"verify-all: {n_pass}/{len(run.checks)} checks passed -> {args.out}")
    failure = None if run.passed else (
        "failed checks: " + ", ".join(c.name for c in run.failures()))
    return run.artifacts, run.extra, failure


_COMMANDS = {
    "solve": _cmd_solve,
    "path": _cmd_path,
    "flow": _cmd_flow,
    "scan": _cmd_scan,
    "pinch": _cmd_pinch,
    "spectrum": _cmd_spectrum,
    "curvature": _cmd_curvature,
    "verify-all": _cmd_verify_all,
}


# residuals of a SolverError's trace shown on the exit-2 line
_TRACE_TAIL = 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, registry = _parser()
    try:
        args = _apply_config_file(
            list(argv) if argv is not None else sys.argv[1:], parser, registry
        )
        t0 = time.perf_counter()
        artifacts, extra, failure = _COMMANDS[args.command](args)
        config = {k: v for k, v in vars(args).items() if k not in ("out", "config")}
        io.write_manifest(args.out / "manifest.json", config, artifacts,
                          time.perf_counter() - t0, extra)
        if failure is not None:
            raise InvariantViolation(failure)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, GridMismatchError, InadmissibleError,
            ResolutionError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except (InvariantViolation, SolverError) as exc:
        trace = getattr(exc, "trace", None)
        if trace:
            last = ", ".join(f"{r:.3e}" for r in trace[-_TRACE_TAIL:])
            exc = f"{exc} (trace of {len(trace)} residuals, last {last})"
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
