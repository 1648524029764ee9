"""Artifact serialization: CSV/JSON emission and run manifests.

All CSV floats are written with "%.17g" (full float64 round trip), rows
in deterministic order, so identical inputs produce byte-identical
files.  The manifest is the one deliberately non-reproducible artifact
(it records wall time); determinism comparisons exclude it and use the
content hashes it lists.  It also records what those bytes depend on
beyond the inputs: the BLAS thread settings and the longdouble epsilon.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .continuity import ContinuityPath, FamilyScan
from .curvature import CharacteristicIntegrandReport
from .flow import FlowTrajectory
from .functionals import FunctionalLedger
from .transverse import M_DIM, MetricState

__all__ = [
    "format_float",
    "write_field_csv",
    "write_state_json",
    "write_ledger_csv",
    "write_path_csv",
    "write_flow_csv",
    "write_scan_csv",
    "write_spectrum_csv",
    "write_pinch_json",
    "write_curvature_json",
    "write_checks_csv",
    "content_hash",
    "write_manifest",
]

SCHEMA_VERSION = 3

# environment variables that set the BLAS thread count; the summation order
# of a threaded dense product, and so the last bits of the artifacts,
# depends on it
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def format_float(v: float) -> str:
    return "%.17g" % float(v)


def _write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, (float, np.floating)) else v for v in row]
            )
    return path


def _write_json(path: Path, payload: Mapping) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_field_csv(path: Path, x: np.ndarray, values: np.ndarray) -> Path:
    return _write_rows(path, ["x", "value"], zip(map(float, x), map(float, values)))


def write_state_json(path: Path, state: MetricState) -> Path:
    payload = {
        "m": M_DIM,
        "n": state.potential.grid.n,
        "ratio": [float(v) for v in state.ratio],
        "scalar_curvature": [float(v) for v in state.scalar_curvature],
        "ricci_potential": [float(v) for v in state.ricci_potential],
        "norm_constant": float(state.norm_constant),
    }
    return _write_json(path, payload)


def write_ledger_csv(path: Path, ledgers: Iterable[FunctionalLedger]) -> Path:
    return _write_rows(
        path,
        ["tag", "I", "J", "F0", "F", "K", "osc", "margin"],
        (led.row() for led in ledgers),
    )


def write_path_csv(path: Path, cpath: ContinuityPath) -> Path:
    def rows():
        for rec in cpath.records:
            led = rec.ledger
            yield (
                rec.t, rec.residual, rec.c0_norm,
                led.I, led.J, led.F0, led.F, led.K,
                led.I - led.J, rec.f_t,
            )

    return _write_rows(
        path,
        ["t", "residual", "c0_norm", "I", "J", "F0", "F", "K", "IminusJ", "f_t"],
        rows(),
    )


def write_flow_csv(path: Path, traj: FlowTrajectory) -> Path:
    def rows():
        for rec in traj.records:
            m = rec.monitors
            yield (
                rec.s, m.sup_vdot, m.sup_h, m.sup_dh2, m.c_s,
                m.bound_a_slack, m.bound_b_slack, m.bound_c_min, m.s_pinch,
            )

    return _write_rows(
        path,
        ["s", "sup_vdot", "sup_h", "sup_dh2", "c_s",
         "bound_a_slack", "bound_b_slack", "bound_c_min", "S_pinch"],
        rows(),
    )


def write_scan_csv(path: Path, scan: FamilyScan) -> Path:
    rows = zip(scan.params, scan.j_values, scan.f_values)
    return _write_rows(path, ["family", "param", "J", "F"], ((scan.name, *r) for r in rows))


def write_spectrum_csv(path: Path, result) -> Path:
    return _write_rows(
        path,
        ["index", "eigenvalue"],
        ((i, float(ev)) for i, ev in enumerate(result.eigenvalues)),
    )


def write_pinch_json(path: Path, result) -> Path:
    payload = {
        "eps": result.eps,
        "achieved": result.achieved,
        "path_t": result.path_t,
        "h_at_path": result.h_at_path,
        "calabi": result.calabi,
        "calabi_bound": result.calabi_bound_value,
        "flow_h_slack": result.flow_h_slack,
        "flow_dh2_slack": result.flow_dh2_slack,
        "flow_lap_h_min": result.flow_lap_h_min,
        "smoothing": dataclasses.asdict(result.smoothing),
    }
    return _write_json(path, payload)


def write_curvature_json(path: Path, report: CharacteristicIntegrandReport) -> Path:
    payload = {
        "m": report.m,
        "c": report.c,
        "S": report.model.scalar,
        "Rm2": report.model.riemann_norm_sq,
        "rho2": report.model.ricci_norm_sq,
        "Q2": report.model.q_norm_sq,
        "characteristic_integrand": report.integrand,
        "convention": report.model.convention,
    }
    return _write_json(path, payload)


def write_checks_csv(path: Path, checks: Iterable) -> Path:
    return _write_rows(
        path,
        ["name", "passed", "value", "tolerance"],
        ((c.name, int(c.passed), c.value, c.tolerance) for c in checks),
    )


def content_hash(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(
    path: Path,
    config: Mapping,
    artifacts: Sequence[Path],
    wall_time: float,
    extra: Optional[Mapping] = None,
) -> Path:
    from . import __version__

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": dict(config),
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "numerics": {
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARIABLES},
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
        },
        "wall_time_seconds": wall_time if math.isfinite(wall_time) else None,
        "artifacts": [
            {"name": Path(a).name, "sha256": content_hash(a)} for a in artifacts
        ],
    }
    if extra:
        payload["extra"] = dict(extra)
    return _write_json(path, payload)
