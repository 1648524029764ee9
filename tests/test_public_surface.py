"""The public surface: every exported name resolves, removed ones stay gone,
and the value classes that hold arrays compare by identity."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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
    "reebflow.curvature": ("q_norm_field", "pinch_estimates", "PinchEstimates", "_MIN_EPS"),
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
    ),
    "reebflow.errors": ("PreconditionError",),
    "reebflow.flow": ("_prefix", "_record_march", "_holder_distances"),
}

# members of classes that no caller set and nothing read, or that one
# value alone used and became module constants
REMOVED_MEMBERS = {
    ("reebflow.functionals", "CocycleReport"): ("max_residual",),
    ("reebflow.functionals", "FunctionalLedger"): ("base",),
    ("reebflow.continuity", "ContinuityPath"): ("base_tag",),
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
    ("reebflow.flow", "SmoothingReport"): ("holder_track",),
    ("reebflow.flow", "FlowMonitors"): ("holder_h",),
    ("reebflow.transverse", "MetricState"): ("margin", "_ratio_ext"),
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
# other arguments, by the function that took them
REMOVED_PARAMETERS = {
    ("reebflow.functionals", "eval_J"): ("s_nodes",),
    ("reebflow.functionals", "eval_K_energy"): ("path_nodes",),
    ("reebflow.functionals", "verify_mabuchi_f_relation"): ("path_nodes",),
    ("reebflow.functionals", "random_potential"): ("max_tries",),
    ("reebflow.functionals", "FunctionalLedger.evaluate"): ("base_name", "path_nodes"),
    ("reebflow.continuity", "run_continuity_path"): ("base_tag",),
    ("reebflow.continuity", "mt_scan"): ("families",),
    ("reebflow.transverse", "spectrum"): ("obstruction_tol",),
    ("reebflow.transverse", "log_mean_exp"): ("grid_or_weights",),
    ("reebflow.flow", "epsilon_pinching"): ("t_start", "path_policy", "flow_policy"),
    ("reebflow.verification", "mobius_scan_suite"): ("lambdas",),
    ("reebflow.curvature", "calabi_functional"): ("state",),
    ("reebflow.continuity", "path_diagnostics"): ("reference",),
    ("reebflow.flow", "_make_flow_records"): ("h0_norm",),
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
