"""Exception types shared across the toolkit."""


class ReebflowError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(ReebflowError):
    """Invalid construction parameters (grid too small, bad tolerance, ...)."""


class GridMismatchError(ReebflowError):
    """Fields living on different grids were combined."""


class InadmissibleError(ReebflowError):
    """Potential leaves the admissible cone; carries the offending margin."""

    def __init__(self, margin):
        self.margin = float(margin)
        super().__init__(f"potential not admissible (margin {self.margin:.6e})")


class ResolutionError(ReebflowError):
    """Grid too coarse for the requested computation."""


class SolverError(ReebflowError):
    """Iterative solve failed; carries the residual trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class InvariantViolation(ReebflowError):
    """A structural invariant failed numerically (CLI exit code 2)."""
