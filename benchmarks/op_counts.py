"""Operation counts per iteration of each benchmark workload.

    python3 benchmarks/op_counts.py > counts.txt

Runs the bodies of ``perfbench/workloads.py`` at seed 1, each after its
own untimed set-up, and prints one line per workload and iteration with
the operations that iteration made:

    laplacians  longdouble Laplacian applications (``Grid._laplacian_ld``),
                one per field: a stacked call counts its rows
    derivs      longdouble derivatives (``Grid._deriv_ld``, on a tree that
                has one), one per field; each costs the forward transform
                and synthesis of a Laplacian
    lap64       float64 Laplacian applications (``Grid._laplacian_64``, on
                a tree that has one), one per field
    deriv64     float64 derivatives (``Grid.deriv`` on a tree with no
                ``Grid._deriv_ld``), one per field
    solve       ``np.linalg.solve`` calls (dense LU solves)
    lstsq       ``np.linalg.lstsq`` calls
    steps       flow steps (``flow._ChordSolver.__call__`` calls): one
                per accepted step, and one per step whose candidate is
                rejected after its solve
    sweeps      products with the inverse a ``flow._ChordSolver`` keeps,
                the start product of each call included

Counts are exact and compare across machines, where seconds do not.  The
``ledger`` body draws its random potentials from a seed of its own per
iteration, and the draws rejected for admissibility vary with it, so
iterations 0-4 are printed; every other body does the same work at every
iteration and is printed for iteration 0.  The workloads are driven as
they are, read-only; the package is imported from this checkout's
``src``.  The BLAS threads are pinned to one before numpy is imported.
Run it on two trees and diff the outputs.  Exits 1 if a body fails.
A few seconds on one core.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

SEED = 1
ITERATIONS = {"ledger": range(5)}
COLUMNS = ("laplacians", "derivs", "lap64", "deriv64", "solve", "lstsq", "steps", "sweeps")


def _counting(calls: Counter, key: str, fn, weight=lambda *args, **kwargs: 1):
    def wrapped(*args, **kwargs):
        calls[key] += weight(*args, **kwargs)
        return fn(*args, **kwargs)

    return wrapped


def _rows(grid, f, **kwargs) -> int:
    """The fields a Laplacian or derivative call applies to: the rows of a
    stack whose last axis is the grid, or one field."""
    return int(np.prod(np.shape(f)[:-1]))


def _counted_inverse(calls: Counter) -> property:
    """An ``inverse`` attribute for the chord solver that keeps its array
    as a view counting each product with it in calls["sweeps"]."""

    class Counted(np.ndarray):
        def __matmul__(self, other):
            calls["sweeps"] += 1
            return np.asarray(self) @ other

    def set_inverse(solver, value):
        solver.__dict__["inverse"] = None if value is None else value.view(Counted)

    return property(lambda solver: solver.__dict__["inverse"], set_inverse)


def count(name: str) -> list[Counter]:
    """The counts of each reported iteration of one workload's body."""
    ctx = workloads.setup(name, SEED)
    grid_cls = ctx.mod["transverse"].Grid
    chord_cls = ctx.mod["flow"]._ChordSolver
    # the transform each column counts, by the methods this tree has: its
    # derivative is float64 only where no longdouble one is left
    transforms = {"laplacians": "_laplacian_ld", "lap64": "_laplacian_64",
                  "derivs" if hasattr(grid_cls, "_deriv_ld") else "deriv64":
                  "_deriv_ld" if hasattr(grid_cls, "_deriv_ld") else "deriv"}
    transforms = {col: method for col, method in transforms.items() if hasattr(grid_cls, method)}
    grid_originals = {method: getattr(grid_cls, method) for method in transforms.values()}
    originals = (np.linalg.solve, np.linalg.lstsq, chord_cls.__call__)
    calls: Counter = Counter()
    for col, method in transforms.items():
        setattr(grid_cls, method, _counting(calls, col, grid_originals[method], _rows))
    np.linalg.solve = _counting(calls, "solve", originals[0])
    np.linalg.lstsq = _counting(calls, "lstsq", originals[1])
    chord_cls.__call__ = _counting(calls, "steps", originals[2])
    chord_cls.inverse = _counted_inverse(calls)
    per_iteration = []
    try:
        for i in ITERATIONS.get(name, range(1)):
            calls.clear()
            rows = workloads.BODIES[name](ctx, i)
            failed = [row[0] for row in rows if not row[1]]
            if failed:
                raise workloads.BodyFailed(f"{name} iteration {i} failed {failed}")
            per_iteration.append(Counter(calls))
    finally:
        for method, original in grid_originals.items():
            setattr(grid_cls, method, original)
        np.linalg.solve, np.linalg.lstsq, chord_cls.__call__ = originals
        del chord_cls.inverse
    return per_iteration


def main() -> int:
    print(f"{'workload':<14}{'iter':>5}" + "".join(f"{c:>12}" for c in COLUMNS))
    for name in workloads.BODIES:
        try:
            per_iteration = count(name)
        except workloads.BodyFailed as err:
            print(f"failed: {err}", file=sys.stderr)
            return 1
        for i, calls in zip(ITERATIONS.get(name, range(1)), per_iteration):
            print(f"{name:<14}{i:>5}" + "".join(f"{calls[c]:>12}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
