"""Transverse Kahler toolkit on the round S^3 -> CP^1 fibration.

Everything runs on the axisymmetric moment-coordinate reduction of the
regular Sasakian structure on S^3: basic potentials become functions of
x in [-1, 1], the reference transverse metric is the constant-curvature
one (Gauss curvature 4 on the quotient), and all measures are normalized
to probability measures.
"""

from .errors import (
    ConfigurationError,
    GridMismatchError,
    InadmissibleError,
    InvariantViolation,
    ReebflowError,
    ResolutionError,
    SolverError,
)
from .transverse import (
    BasicPotential,
    Grid,
    MetricState,
    admissibility,
    make_grid,
    metric_state,
    reference_state,
    spectrum,
)
from .functionals import (
    FunctionalLedger,
    eval_F,
    random_potential,
    relative_state,
    verify_cocycle,
    verify_mabuchi_f_relation,
)
from .continuity import (
    ContinuityPath,
    PathPolicy,
    ma_defect,
    ma_jacobian,
    mobius_potential,
    mt_scan,
    path_diagnostics,
    run_continuity_path,
    solve_ma_at_t,
)
from .flow import (
    FlowPolicy,
    epsilon_pinching,
    run_flow,
    smoothing_monitors,
)
from .curvature import (
    calabi_bound,
    round_tensor_contractions,
    verify_round_characteristic_integrand,
)
from .verification import CheckResult, DEFAULT_SEED, verify_all

__version__ = "0.1.0"

__all__ = [
    "BasicPotential",
    "CheckResult",
    "ConfigurationError",
    "ContinuityPath",
    "DEFAULT_SEED",
    "FlowPolicy",
    "FunctionalLedger",
    "Grid",
    "GridMismatchError",
    "InadmissibleError",
    "InvariantViolation",
    "MetricState",
    "PathPolicy",
    "ReebflowError",
    "ResolutionError",
    "SolverError",
    "admissibility",
    "calabi_bound",
    "epsilon_pinching",
    "eval_F",
    "ma_defect",
    "ma_jacobian",
    "make_grid",
    "metric_state",
    "mobius_potential",
    "mt_scan",
    "path_diagnostics",
    "random_potential",
    "reference_state",
    "relative_state",
    "round_tensor_contractions",
    "run_continuity_path",
    "run_flow",
    "smoothing_monitors",
    "solve_ma_at_t",
    "spectrum",
    "verify_all",
    "verify_cocycle",
    "verify_mabuchi_f_relation",
    "verify_round_characteristic_integrand",
    "__version__",
]
