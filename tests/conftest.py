from collections import Counter

import numpy as np
import pytest

from reebflow import (
    BasicPotential,
    functionals,
    make_grid,
    metric_state,
    reference_state,
    transverse,
)
from reebflow.transverse import Grid


@pytest.fixture(scope="session")
def grid96():
    return make_grid(96)


@pytest.fixture(scope="session")
def grid128():
    return make_grid(128)


@pytest.fixture(scope="session")
def grid256():
    return make_grid(256)


@pytest.fixture(scope="session")
def ref96(grid96):
    return reference_state(grid96)


@pytest.fixture(scope="session")
def ref128(grid128):
    return reference_state(grid128)


@pytest.fixture(scope="session")
def ref256(grid256):
    return reference_state(grid256)


def psi_bump(grid):
    """The standard manufactured deformation 0.3 (1 - x^2)."""
    return BasicPotential.from_callable(grid, lambda x: 0.3 * (1.0 - x * x))


@pytest.fixture(scope="session")
def psi128(grid128):
    return psi_bump(grid128)


@pytest.fixture(scope="session")
def base128(psi128):
    return metric_state(psi128)


@pytest.fixture(scope="session")
def base96(grid96):
    return metric_state(psi_bump(grid96))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)


def rows(f) -> int:
    """The fields in one field or a stack of them, grid on the last axis."""
    return int(np.prod(np.shape(f)[:-1]))


def count_laplacians(monkeypatch, calls: Counter) -> None:
    """Counts each longdouble Laplacian application in calls["laplacian"]
    and each longdouble derivative in calls["deriv"], one per row of a
    stack: both cost a forward transform and a synthesis."""
    real_lap, real_deriv = Grid._laplacian_ld, Grid._deriv_ld

    def lap(self, f):
        calls["laplacian"] += rows(f)
        return real_lap(self, f)

    def deriv(self, f):
        calls["deriv"] += rows(f)
        return real_deriv(self, f)

    monkeypatch.setattr(Grid, "_laplacian_ld", lap)
    monkeypatch.setattr(Grid, "_deriv_ld", deriv)


@pytest.fixture
def counts(monkeypatch):
    """Counts Laplacian and derivative applications, dense solves and
    lstsq calls, and metric states.  A stacked Laplacian or derivative
    applies the operator to each of its rows, and counts one application
    per row."""
    calls = Counter()
    real_state = transverse.metric_state
    real_solve, real_lstsq = np.linalg.solve, np.linalg.lstsq

    def solve(*args, **kwargs):
        calls["solve"] += 1
        return real_solve(*args, **kwargs)

    def lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return real_lstsq(*args, **kwargs)

    def state(phi):
        calls["metric_state"] += 1
        return real_state(phi)

    count_laplacians(monkeypatch, calls)
    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    monkeypatch.setattr(transverse, "metric_state", state)
    monkeypatch.setattr(functionals, "metric_state", state)
    return calls
