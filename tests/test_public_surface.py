"""The public surface: every exported name resolves, removed ones stay gone,
and the value classes that hold arrays compare by identity."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import reebflow

MODULES = sorted(
    f"reebflow.{info.name}" for info in pkgutil.iter_modules(reebflow.__path__)
)

# API that no computation used, or that repeated another routine or cached
# what nothing reused, deleted rather than kept in step with the rest
REMOVED = {
    "reebflow": (
        "Model",
        "tanno_deform",
        "basic_laplacian",
        "integrate",
        "q_norm_field",
        "pinch_estimates",
        "verify_ij_sandwich",
        "PreconditionError",
        "eval_I",
        "eval_J",
        "eval_K_energy",
        "flow_rhs",
        "holder_seminorm",
        "calabi_functional",
    ),
    "reebflow.transverse": (
        "Model",
        "tanno_deform",
        "basic_laplacian",
        "integrate",
        "_check_same_grid",
        "_state",
        "_legendre_pair_ld",
    ),
    "reebflow.continuity": ("gauss_record_ts", "_relative_ratio"),
    "reebflow.curvature": (
        "q_norm_field",
        "pinch_estimates",
        "PinchEstimates",
        "_MIN_EPS",
        "calabi_functional",
        "metric_state",
        "BasicPotential",
        "SCALAR_TARGET",
    ),
    "reebflow.functionals": (
        "verify_ij_sandwich",
        "SandwichReport",
        "verify_shift_bound",
        "ShiftBoundReport",
        "osc_bound_report",
        "OscBoundReport",
        "PreconditionError",
        "_cocycle_report",
        "_mabuchi_report",
        "eval_I",
        "eval_J",
        "eval_K_energy",
    ),
    "reebflow.errors": ("PreconditionError",),
    "reebflow.flow": ("_prefix", "_record_march", "_holder_distances", "flow_rhs", "holder_seminorm"),
}

# members of classes that no caller set and nothing read, or that one
# value alone used and became module constants
REMOVED_MEMBERS = {
    ("reebflow.functionals", "CocycleReport"): ("max_residual",),
    ("reebflow.functionals", "FunctionalLedger"): ("base",),
    ("reebflow.continuity", "ContinuityPath"): ("base_tag", "ts"),
    ("reebflow.continuity", "PathDiagnostics"): (
        "decay_profile",
        "endpoint_growth_constant",
        "f_upper_constant",
        "pair_bound_slack_j",
        "pair_bound_slack_ij",
    ),
    ("reebflow.verification", "PathSuiteBundle"): ("base", "endpoint_phi", "endpoint_state"),
    ("reebflow.functionals", "MabuchiReport"): ("k_energy", "f_value", "holds"),
    ("reebflow.transverse", "BasicPotential"): ("mean",),
    ("reebflow.flow", "SmoothingReport"): ("holder_track", "c1_fit", "c7_fit"),
    ("reebflow.flow", "FlowMonitors"): ("holder_h",),
    ("reebflow.transverse", "MetricState"): (
        "margin", "_ratio_ext", "laplacian", "integrate", "measure",
    ),
    ("reebflow.continuity", "PathPolicy"): (
        "max_iterations",
        "max_backtracks",
        "margin_floor",
        "armijo_c",
        "dt_init",
        "dt_floor",
        "monotone_tol",
    ),
    ("reebflow.flow", "FlowPolicy"): ("ds_floor",),
    ("reebflow.flow", "PinchResult"): ("structure",),
    ("reebflow.verification", "VerifyRun"): ("manifest", "wall_time"),
}

# parameters that no caller set, or whose value the function reads off its
# other arguments, by the function that took them, or by the one that now
# computes what a deleted function did
REMOVED_PARAMETERS = {
    ("reebflow.functionals", "verify_mabuchi_f_relation"): ("path_nodes",),
    ("reebflow.functionals", "random_potential"): ("max_tries",),
    ("reebflow.functionals", "FunctionalLedger.evaluate"): ("base_name", "path_nodes"),
    ("reebflow.continuity", "run_continuity_path"): ("base_tag",),
    ("reebflow.continuity", "mt_scan"): ("families",),
    ("reebflow.transverse", "spectrum"): ("obstruction_tol",),
    ("reebflow.transverse", "log_mean_exp"): ("grid_or_weights",),
    ("reebflow.flow", "epsilon_pinching"): ("t_start", "path_policy", "flow_policy"),
    ("reebflow.verification", "mobius_scan_suite"): ("lambdas",),
    ("reebflow.continuity", "path_diagnostics"): ("reference",),
    ("reebflow.flow", "_make_flow_records"): ("h0_norm",),
    ("reebflow.flow", "smoothing_monitors"): ("one_minus_t",),
    ("reebflow.functionals", "_Ray.j_value"): ("s_nodes",),
    ("reebflow.functionals", "_Ray.k_energy"): ("path", "path_nodes"),
    ("reebflow.errors", "InadmissibleError.__init__"): ("message",),
}


@pytest.mark.parametrize("module", ["reebflow", *MODULES])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(module)
    present = [name for name in REMOVED[module] if hasattr(mod, name)]
    assert not present
    assert not set(REMOVED[module]) & set(getattr(mod, "__all__", ()))


def test_removed_grid_members_are_gone(grid96):
    # the float64 transform copies no computation read, and the
    # interpolation helpers built on them
    for name in ("interpolate", "to_coeffs", "fwd", "dcoef", "lap_eigs"):
        assert not hasattr(grid96, name), name


@pytest.mark.parametrize("owner", sorted(REMOVED_MEMBERS), ids="/".join)
def test_removed_members_are_gone(owner):
    cls = getattr(importlib.import_module(owner[0]), owner[1])
    members = set(dir(cls)) | {f.name for f in dataclasses.fields(cls)}
    assert not members & set(REMOVED_MEMBERS[owner])


@pytest.mark.parametrize("owner", sorted(REMOVED_PARAMETERS), ids="/".join)
def test_removed_parameters_are_gone(owner):
    fn = importlib.import_module(owner[0])
    for attr in owner[1].split("."):
        fn = getattr(fn, attr)
    assert not set(inspect.signature(fn).parameters) & set(REMOVED_PARAMETERS[owner])


# exported functions that no code in the package reads, and why each stays
KEPT = {
    "reebflow.cli.main": "the console-script entry point (pyproject.toml [project.scripts])",
}


def _read_names():
    """The names the package's code reads: each loaded name or attribute in
    a file under src/reebflow/, outside the top-level def or class of that
    name.  A def line, an import and an ``__all__`` entry bind or list a
    name and do not read it; docstrings and comments are no code.  The
    ``if __name__ == "__main__":`` block is an entry point, as the console
    script is, and no reader."""
    read = set()
    for path in Path(reebflow.__path__[0]).glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.If) and ast.unparse(top.test) == "__name__ == '__main__'":
                continue
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    read.add(name)
    return read


def _exported_functions():
    """Each function in the ``__all__`` of reebflow or of a module, by the
    dotted name of its definition."""
    found = {}
    for module in ["reebflow", *MODULES]:
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name)
            if inspect.isfunction(inspect.unwrap(fn)):
                found[f"{fn.__module__}.{fn.__name__}"] = fn.__name__
    return found


def test_every_public_function_has_a_reader():
    # an exported function that no computation calls is API kept in step
    # for nothing; a kept one states its reason in KEPT
    read = _read_names()
    exported = _exported_functions()
    unread = sorted(q for q, name in exported.items() if name not in read and q not in KEPT)
    assert not unread
    # each KEPT entry is an exported function that still has no reader
    assert all(q in exported and exported[q] not in read for q in KEPT)
    assert all(reason.strip() for reason in KEPT.values())


def test_flow_suite_needs_the_path_endpoint():
    # every caller passes the continuity endpoint; none runs the path again
    with pytest.raises(TypeError, match="path_endpoint"):
        reebflow.verification.flow_suite(64)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows
    # what importing the package and its command line pulls in
    code = (
        "import sys, reebflow, reebflow.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(reebflow.__path__[0])},
    )
    assert out.stdout.strip() == "[]"


def _bump_base(n=16):
    grid = reebflow.make_grid(n)
    return reebflow.metric_state(
        reebflow.BasicPotential.from_callable(grid, lambda x: 0.3 * (1.0 - x * x))
    )


def _path():
    return reebflow.run_continuity_path(_bump_base(), records=2)


def _trajectory():
    return reebflow.run_flow(_bump_base(), s_end=0.02)


def _sphere():
    from reebflow.oracle2d import make_sphere_grid

    return make_sphere_grid(n_theta=16)


# each builds a fresh instance, equal in every value to the last it built
ARRAY_HOLDERS = {
    "BasicPotential": lambda: reebflow.BasicPotential.zero(reebflow.make_grid(16)),
    "MetricState": lambda: reebflow.reference_state(reebflow.make_grid(16)),
    "SpectrumResult": lambda: reebflow.spectrum(reebflow.reference_state(reebflow.make_grid(16)), 4),
    "FunctionalLedger": lambda: reebflow.FunctionalLedger.evaluate(
        "x", reebflow.BasicPotential.from_callable(reebflow.make_grid(16), lambda x: 0.05 * x),
        reebflow.reference_state(reebflow.make_grid(16)),
    ),
    "PathRecord": lambda: _path().endpoint(),
    "ContinuityPath": _path,
    "FlowRecord": lambda: _trajectory().endpoint(),
    "FlowTrajectory": _trajectory,
    "PinchResult": lambda: reebflow.epsilon_pinching(_bump_base(), 0.05),
    "PathSuiteBundle": lambda: reebflow.verification.PathSuiteBundle(_path(), _path()),
    "SphereGrid": _sphere,
    "OracleFields": lambda: reebflow.oracle2d.oracle_fields(_sphere(), lambda x: 0.1 * x),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(name):
    # a generated == would compare arrays elementwise and raise, and a
    # generated hash would hash an unhashable array
    x, rebuilt = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(x).__name__ == name
    assert x == x
    assert x != rebuilt
    assert hash(x) == hash(x)
