"""Time error of the flow's records, per ``flow.csv`` column.

    PYTHONPATH=src python3 benchmarks/flow_accuracy.py > benchmarks/FLOW_ACCURACY.md

The flow runs from the manufactured base psi = 0.3 (1 - x^2) at n = 128
to s = 2, with a record at every multiple of 0.01: the rows of
``flow.csv``.  The first-order step the flow used before BDF2 (linearly
implicit Euler, ``flow._steps`` with omega = 0 at every step) is marched
here on the package's own pieces.  The reference is that step at
ds = 1e-4 and 5e-5, Richardson-extrapolated: 2 f(5e-5) - f(1e-4).  For
each column the first table gives the largest deviation from the
reference over the rows, relative to the column's sup, for Euler at its
old default (ds = 1e-3) and for ``run_flow`` (BDF2 from a graded start)
at ds = 5e-3 (the default) and 2.5e-3; the second gives it at single
records, the third the pointwise relative deviation of sup_h and sup_dh2.
About 10-20 s on one core.
"""

from __future__ import annotations

import numpy as np

from reebflow import make_grid, metric_state
from reebflow.flow import FlowPolicy, _ChordSolver, _make_flow_records, _rhs, run_flow
from reebflow.transverse import BasicPotential, _admissible, _ratio_ld

N = 128
S_END = 2.0
RECORD_DS = 0.01
# flow.csv's columns and the record fields they hold
COLUMNS = {
    "s": None, "sup_vdot": "sup_vdot", "sup_h": "sup_h", "sup_dh2": "sup_dh2",
    "c_s": "c_s", "bound_a_slack": "bound_a_slack", "bound_b_slack": "bound_b_slack",
    "bound_c_min": "bound_c_min", "S_pinch": "s_pinch",
}


def table(records) -> np.ndarray:
    """The flow.csv rows of a list of records, one column per COLUMNS key."""
    return np.array([
        [rec.s if field is None else getattr(rec.monitors, field) for field in COLUMNS.values()]
        for rec in records
    ])


def euler(base, ds: float) -> np.ndarray:
    """The flow.csv rows of the linearly implicit Euler march at step ds:
    (I - ds Lap/(4r)) delta = ds rhs, the ratio carried as r + Lap(delta)/4
    and re-anchored at each record from the kept Laplacians of the base
    and of v, as ``flow._steps`` does with omega = 0;
    the records are built as ``flow._flow`` builds them."""
    return table(_make_flow_records(list(_euler_steps(base, ds)), base, None))


def _euler_steps(base, ds: float):
    """The Euler march's record steps (s, v, ratio_ld), as ``flow._steps``
    yields its anchored ones."""
    grid = base.potential.grid
    stride = round(RECORD_DS / ds)
    steps = round(S_END / ds)
    solve = _ChordSolver(grid.lap)
    v, s = np.zeros(grid.n), 0.0
    for k in range(steps + 1):
        if k % stride == 0:
            ratio_ld = _ratio_ld(base.potential, BasicPotential(values=v, grid=grid))
            yield s, v, ratio_ld
        if k == steps:
            break
        ratio = _admissible(ratio_ld)
        delta = solve(ds / (4.0 * ratio), ds * _rhs(ratio, v, base))
        ratio_ld = ratio_ld + (grid.lap @ (delta - grid.w @ delta)) / 4.0
        v = v + delta
        s += ds


def bdf2(base, ds: float) -> tuple[np.ndarray, int]:
    """The flow.csv rows of run_flow at step ds, and its number of steps."""
    steps = []
    real_step = _ChordSolver.__call__

    def step(self, q, b):
        steps.append(1)
        return real_step(self, q, b)

    _ChordSolver.__call__ = step
    try:
        policy = FlowPolicy(ds=ds, record_stride=round(RECORD_DS / ds))
        traj = run_flow(base, s_end=S_END, policy=policy)
    finally:
        _ChordSolver.__call__ = real_step
    assert traj.completed
    return table(traj.records), len(steps)


def main() -> None:
    grid = make_grid(N)
    base = metric_state(BasicPotential.from_callable(grid, lambda x: 0.3 * (1.0 - x * x)))
    reference = 2.0 * euler(base, 5e-5) - euler(base, 1e-4)
    # the exact record times, not the reference's sum of 40,000 steps
    reference[:, 0] = RECORD_DS * np.arange(len(reference))
    scale = np.abs(reference).max(axis=0)
    runs = {"Euler, ds = 1e-3 (old default)": (euler(base, 1e-3), round(S_END / 1e-3))}
    for ds, label in ((5e-3, "BDF2, ds = 5e-3 (default)"), (2.5e-3, "BDF2, ds = 2.5e-3")):
        runs[label] = bdf2(base, ds)
    labels = list(runs)
    error = {label: np.abs(rows - reference) for label, (rows, _) in runs.items()}
    deviation = {label: error[label] / scale for label in labels}

    def row(name, cells):
        print(f"| {name} | " + " | ".join(cells) + " |")

    print("# Time error of the flow records\n")
    print(f"Generated by `benchmarks/flow_accuracy.py`: the psi = 0.3(1 - x^2) base at "
          f"n = {N}, s in [0, {S_END:g}], {len(reference)} records at multiples of "
          f"{RECORD_DS:g}. Reference: the Euler step at ds = 1e-4 and 5e-5, "
          "Richardson-extrapolated.\n")
    print("Largest deviation from the reference over the records, relative to the "
          "column's sup:\n")
    row("column", labels)
    row("---", ["---"] * len(labels))
    for j, name in enumerate(COLUMNS):
        row(f"`{name}`", (f"{deviation[lab][:, j].max():.2e}" for lab in labels))
    row("**largest**", (f"**{deviation[lab].max():.2e}**" for lab in labels))
    row("steps to s = 2", (f"{runs[lab][1]:,}" for lab in labels))

    print("\nThe same deviation, largest over the columns, at single records:\n")
    row("s", labels)
    row("---", ["---"] * len(labels))
    for s in (0.01, 0.02, 0.05, 0.1, 0.5, 1.0, 2.0):
        k = round(s / RECORD_DS)
        row(f"{s:g}", (f"{deviation[lab][k].max():.2e}" for lab in labels))

    print("\nPointwise relative deviation of `sup_h` / `sup_dh2`:\n")
    row("s", labels)
    row("---", ["---"] * len(labels))
    for s in (0.1, 0.5, 1.0, 2.0):
        k = round(s / RECORD_DS)
        rel = {lab: error[lab][k, 2:4] / np.abs(reference[k, 2:4]) for lab in labels}
        row(f"{s:g}", (f"{rel[lab][0]:.1e} / {rel[lab][1]:.1e}" for lab in labels))


if __name__ == "__main__":
    main()
