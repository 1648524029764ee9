"""Cost of each layer of the package at n = 64, 128 and 256.

    PYTHONPATH=src python3 benchmarks/layers.py > benchmarks/LAYERS.md

Times one unit of work per layer, each on fresh input built outside the
timed region (a potential keeps its Laplacian once applied, so a reused
one would cost nothing):

    grid build       ``make_grid.__wrapped__(n)``, past make_grid's cache
    Laplacian (ld)   ``Grid._laplacian_ld`` of one field, extended precision
    Laplacian (f64)  ``grid.lap @ f``, the float64 dense matvec
    metric_state     the state of a fresh potential
    ledger           ``FunctionalLedger.evaluate`` of a fresh potential
                     against the psi = 0.3(1 - x^2) base
    Newton solve     ``solve_ma_at_t(0.5, base, zero)`` over that base
    flow step        the ``flow._steps`` march of that base to s = 0.2,
                     divided by its accepted steps

Each time is the median over REPEATS rounds; a round times every layer
at every n once, so the layers and sizes are interleaved and a drift of
the host's speed spreads over all of them.  Beside each time are the
longdouble Laplacians (fields: a stacked call counts its rows) and the
dense LU solves (``np.linalg.solve``) of one unit, counted in a separate
untimed call; the flow step's are per step.  Counts are exact and compare
across machines, where seconds do not.  The BLAS threads are pinned to
one before numpy is imported.  About 5 s on one core.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

from reebflow import FunctionalLedger, make_grid, metric_state, solve_ma_at_t  # noqa: E402
from reebflow.flow import FlowPolicy, _steps  # noqa: E402
from reebflow.transverse import BasicPotential, Grid  # noqa: E402

SIZES = (64, 128, 256)
REPEATS = 21
FLOW_S_END = 0.2


def _psi(x):
    return 0.3 * (1.0 - x * x)


def _phi(x):
    return 0.05 * (x**3 - x) + 0.02


def _base(n: int):
    return metric_state(BasicPotential.from_callable(make_grid(n), _psi))


def _flow_march(base) -> int:
    """The march to FLOW_S_END; its accepted steps (the s = 0 yield is none)."""
    return sum(1 for _ in _steps(base, FLOW_S_END, FlowPolicy())) - 1


# name -> (the arguments of one unit at n, built untimed; the unit of work)
LAYERS = {
    "grid build": (lambda n: (n,), make_grid.__wrapped__),
    "Laplacian (ld)": (
        lambda n: (make_grid(n), BasicPotential.from_callable(make_grid(n), _phi).values),
        lambda grid, f: grid._laplacian_ld(f),
    ),
    "Laplacian (f64)": (
        lambda n: (make_grid(n), BasicPotential.from_callable(make_grid(n), _phi).values),
        lambda grid, f: grid.lap @ f,
    ),
    "metric_state": (lambda n: (BasicPotential.from_callable(make_grid(n), _phi),), metric_state),
    "ledger": (
        lambda n: ("phi", BasicPotential.from_callable(make_grid(n), _phi), _base(n)),
        FunctionalLedger.evaluate,
    ),
    "Newton solve": (
        lambda n: (0.5, _base(n), BasicPotential.zero(make_grid(n))),
        solve_ma_at_t,
    ),
    "flow step": (lambda n: (_base(n),), _flow_march),
}


def _counts(make, unit, n: int) -> tuple[Counter, object]:
    """The Laplacians and LU solves of one untimed unit, and its result."""
    args = make(n)
    calls: Counter = Counter()
    laplacian, solve = Grid._laplacian_ld, np.linalg.solve

    def counted_laplacian(self, f, **kwargs):
        calls["laplacians"] += int(np.prod(np.shape(f)[:-1]))
        return laplacian(self, f, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["lu"] += 1
        return solve(*args, **kwargs)

    Grid._laplacian_ld, np.linalg.solve = counted_laplacian, counted_solve
    try:
        result = unit(*args)
    finally:
        Grid._laplacian_ld, np.linalg.solve = laplacian, solve
    return calls, result


def _seconds(t: float) -> str:
    return f"{t * 1e6:.3g} µs" if t < 1e-3 else f"{t * 1e3:.3g} ms"


def main() -> None:
    counts, steps = {}, {}
    for name, (make, unit) in LAYERS.items():
        for n in SIZES:
            counts[name, n], result = _counts(make, unit, n)
            if name == "flow step":
                steps[n] = result
    samples = {key: [] for key in counts}
    for _ in range(REPEATS):
        for name, (make, unit) in LAYERS.items():
            for n in SIZES:
                args = make(n)
                start = time.perf_counter()
                unit(*args)
                elapsed = time.perf_counter() - start
                samples[name, n].append(elapsed / steps[n] if name == "flow step" else elapsed)

    print("# Layer costs\n")
    print(f"Generated by `benchmarks/layers.py` with one BLAS thread on "
          f"{platform.machine()}, numpy {np.__version__}, Python {platform.python_version()}: "
          f"the median of {REPEATS} interleaved rounds of one unit of each layer, with its "
          "longdouble Laplacians (fields) and dense LU solves. The flow step is the march "
          f"of the psi = 0.3(1 - x^2) base to s = {FLOW_S_END:g} divided by its steps "
          f"({', '.join(f'{steps[n]} at n = {n}' for n in SIZES)}), its counts per step.\n")
    print("| layer | " + " | ".join(f"n = {n}" for n in SIZES) + " |")
    print("| --- |" + " --- |" * len(SIZES))
    for name in LAYERS:
        cells = []
        for n in SIZES:
            median = statistics.median(samples[name, n])
            lap, lu = counts[name, n]["laplacians"], counts[name, n]["lu"]
            if name == "flow step":
                lap_s, lu_s = f"{lap / steps[n]:.2f}", f"{lu / steps[n]:.2f}"
            else:
                lap_s, lu_s = str(lap), str(lu)
            cells.append(f"{_seconds(median)} ({lap_s} Lap, {lu_s} LU)")
        print(f"| {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
