from collections import Counter

import numpy as np
import pytest

from reebflow import (
    BasicPotential,
    flow,
    functionals,
    make_grid,
    metric_state,
    reference_state,
    relative_state,
    transverse,
)
from reebflow.transverse import SCALAR_TARGET, Grid


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


def rhs(v, base):
    """The flow's right-hand side at base + v, as a record's vdot holds it."""
    return flow._rhs(relative_state(base, v).ratio, v.values, base)


def calabi(state):
    """Calabi energy int (S^T - 2m(m+1))^2 dmu_phi, as a record's monitor
    holds it."""
    return float((state.grid.w * state.ratio) @ (state.scalar_curvature - SCALAR_TARGET) ** 2)


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
    """Counts the transform rows, one per row of a stack: each longdouble
    Laplacian in calls["laplacian"], each float64 one in
    calls["laplacian64"] and each derivative, all float64, in
    calls["deriv64"].  Each costs a forward transform and a synthesis."""
    for name, key in (("_laplacian_ld", "laplacian"), ("_laplacian_64", "laplacian64"),
                      ("deriv", "deriv64")):
        def counted(self, f, real=getattr(Grid, name), key=key):
            calls[key] += rows(f)
            return real(self, f)

        monkeypatch.setattr(Grid, name, counted)


@pytest.fixture
def counts(monkeypatch):
    """Counts Laplacian and derivative applications (``count_laplacians``),
    dense solves and lstsq calls, and metric states.  A stacked Laplacian
    or derivative applies the operator to each of its rows, and counts one
    application per row."""
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
