"""Cost of each layer of the package at n = 64, 128 and 256.

    PYTHONPATH=src python3 benchmarks/layers.py > benchmarks/LAYERS.md

Times one unit of work per layer, each on fresh input built outside the
timed region (a potential keeps its Laplacian once applied, so a reused
one would cost nothing):

    grid build       ``make_grid.__wrapped__(n)``, past make_grid's cache
    Laplacian (ld)   ``Grid._laplacian_ld`` of one field, extended precision
    Laplacian (f64)  ``grid.lap @ f``, the float64 dense matvec
    Laplacian (f64 transform)
                     ``Grid._laplacian_64`` of one field, the float64
                     transform that ends a chain
    S^T (f64)        ``transverse._scalar_curvature`` of one checked ratio
    derivative (f64) ``Grid.deriv`` of one field
    metric_state     the state of a fresh potential
    ledger           ``FunctionalLedger.evaluate`` of a fresh potential
                     against the psi = 0.3(1 - x^2) base
    Newton solve     ``solve_ma_at_t(0.5, base, zero)`` over that base
    flow step        the ``flow._steps`` march of that base to s = 0.2,
                     divided by its accepted steps
    record block     ``flow._make_flow_records`` of that march's first
                     32 anchored steps (s = 0 to 0.31, default policy)

Each time is the median over REPEATS rounds; a round times every layer
at every n once, so the layers and sizes are interleaved and a drift of
the host's speed spreads over all of them.  Beside each time are the
longdouble Laplacians and the float64 transforms (Laplacians and
derivatives; fields: a stacked call counts its rows) and the dense LU
solves (``np.linalg.solve``) of one unit, counted in a separate
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
from reebflow.flow import FlowPolicy, _make_flow_records, _steps  # noqa: E402
from reebflow.transverse import BasicPotential, Grid, _scalar_curvature  # noqa: E402

SIZES = (64, 128, 256)
REPEATS = 21
FLOW_S_END = 0.2
RECORD_ROWS = 32


def _psi(x):
    return 0.3 * (1.0 - x * x)


def _phi(x):
    return 0.05 * (x**3 - x) + 0.02


def _base(n: int):
    return metric_state(BasicPotential.from_callable(make_grid(n), _psi))


def _state(n: int):
    return metric_state(BasicPotential.from_callable(make_grid(n), _phi))


def _flow_march(base) -> int:
    """The march to FLOW_S_END; its accepted steps (the s = 0 yield is none)."""
    return sum(1 for _ in _steps(base, FLOW_S_END, FlowPolicy())) - 1


def _record_block(n: int) -> tuple:
    """The first RECORD_ROWS anchored steps of the base's march, and the
    base, as ``flow._flow`` hands them to ``_make_flow_records``."""
    base = _base(n)
    anchored = (step[:3] for step in _steps(base, 1.0, FlowPolicy()) if step[3])
    return [next(anchored) for _ in range(RECORD_ROWS)], base, None


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
    "Laplacian (f64 transform)": (
        lambda n: (make_grid(n), BasicPotential.from_callable(make_grid(n), _phi).values),
        lambda grid, f: grid._laplacian_64(f),
    ),
    "S^T (f64)": (lambda n: (make_grid(n), _state(n).ratio), _scalar_curvature),
    "derivative (f64)": (
        lambda n: (make_grid(n), BasicPotential.from_callable(make_grid(n), _phi).values),
        lambda grid, f: grid.deriv(f),
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
    "record block": (_record_block, _make_flow_records),
}


def _counts(make, unit, n: int) -> tuple[Counter, object]:
    """The longdouble Laplacians, float64 transforms and LU solves of one
    untimed unit, and its result."""
    args = make(n)
    calls: Counter = Counter()
    transforms = {"_laplacian_ld": "laplacians", "_laplacian_64": "f64", "deriv": "f64"}
    originals = {name: getattr(Grid, name) for name in transforms}
    solve = np.linalg.solve

    def counted(name):
        def transform(self, f):
            calls[transforms[name]] += int(np.prod(np.shape(f)[:-1]))
            return originals[name](self, f)
        return transform

    def counted_solve(*args, **kwargs):
        calls["lu"] += 1
        return solve(*args, **kwargs)

    for name in transforms:
        setattr(Grid, name, counted(name))
    np.linalg.solve = counted_solve
    try:
        result = unit(*args)
    finally:
        for name, original in originals.items():
            setattr(Grid, name, original)
        np.linalg.solve = solve
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
          "longdouble Laplacians and float64 transforms (fields) and dense LU solves. The "
          f"flow step is the march of the psi = 0.3(1 - x^2) base to s = {FLOW_S_END:g} "
          f"divided by its steps ({', '.join(f'{steps[n]} at n = {n}' for n in SIZES)}), "
          f"its counts per step; the record block builds the records of {RECORD_ROWS} "
          "anchored steps of that march.\n")
    print("| layer | " + " | ".join(f"n = {n}" for n in SIZES) + " |")
    print("| --- |" + " --- |" * len(SIZES))
    for name in LAYERS:
        cells = []
        for n in SIZES:
            median = statistics.median(samples[name, n])
            per = steps[n] if name == "flow step" else 1
            lap, f64, lu = (counts[name, n][key] / per for key in ("laplacians", "f64", "lu"))
            fmt = ".2f" if name == "flow step" else ".0f"
            cells.append(f"{_seconds(median)} ({lap:{fmt}} Lap, {f64:{fmt}} f64, {lu:{fmt}} LU)")
        print(f"| {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
