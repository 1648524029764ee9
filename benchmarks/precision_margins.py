"""Each check's value over its tolerance at n = 64, 128 and 256.

    PYTHONPATH=src python3 benchmarks/precision_margins.py --save this.json
    PYTHONPATH=src python3 benchmarks/precision_margins.py --against other.json \\
        > benchmarks/PRECISION.md

Runs the manufactured path, flow, pinching and oracle suites of
``reebflow.verification`` at each n (the flow suite from that n's
adaptive path endpoint), and ``verify_all(quick=True)`` at its own sizes
(identities at n = 256, the PDE suites at n = 128), and prints one
Markdown row per check: its value, its tolerance and the margin, value
over tolerance, which reads below 1 for a check that passes.  A check
whose suite raised is printed with its error.  ``--save`` also writes the
rows as JSON; ``--against`` reads such a file from another tree and
prints its values and margins beside this tree's, so a change of
precision is judged by each check's margin, not by pass or fail alone.
The BLAS threads are pinned to one before numpy is imported.  A few
seconds on one core.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reebflow import verification  # noqa: E402

SIZES = (64, 128, 256)


def _rows(label: str, checks) -> list[dict]:
    return [{"run": label, "check": c.name, "value": c.value, "tolerance": c.tolerance,
             "passed": c.passed} for c in checks]


def _suites(n: int) -> list[dict]:
    """The path, flow, pinching and oracle checks at n; a suite that
    raises gives one row with its error."""
    rows: list[dict] = []
    bundle = None

    def path():
        nonlocal bundle
        checks, bundle = verification.manufactured_path_suite(n)
        return checks

    suites = {
        "path": path,
        "flow": lambda: verification.flow_suite(
            n, path_endpoint=bundle.adaptive.endpoint().phi)[0],
        "pinching": lambda: verification.pinching_suite(n)[0],
        "oracle": lambda: verification.oracle_suite(n),
    }
    for name, run in suites.items():
        label = f"{name}, n = {n}"
        try:
            rows += _rows(label, run())
        except Exception as err:  # a suite that raises is reported, not fatal
            rows.append({"run": label, "check": f"({type(err).__name__})", "error": str(err)})
    return rows


def measure() -> list[dict]:
    rows = []
    for n in SIZES:
        rows += _suites(n)
    with tempfile.TemporaryDirectory() as out:
        checks = verification.verify_all(Path(out), quick=True).checks
    return rows + _rows("verify_all(quick=True)", checks)


def _cells(row: dict | None) -> list[str]:
    if row is None:
        return ["", ""]
    if "error" in row:
        return [row["error"], ""]
    # a violation of 0 against a tolerance of 0 (a bound that holds) is 0
    margin = row["value"] / row["tolerance"] if row["tolerance"] else (
        0.0 if row["value"] == 0.0 else float("inf"))
    mark = "" if row["passed"] else " (fails)"
    return [f"{row['value']:.6e}", f"{margin:.4g}{mark}"]


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--save", type=Path, help="write this tree's rows as JSON")
    p.add_argument("--against", type=Path, help="rows of another tree, from --save")
    args = p.parse_args(argv)
    rows = measure()
    if args.save:
        args.save.write_text(json.dumps(rows, indent=1) + "\n")
    other = {}
    if args.against:
        other = {(r["run"], r["check"]): r for r in json.loads(args.against.read_text())}

    print("# Check margins\n")
    print(f"Generated by `benchmarks/precision_margins.py` with one BLAS thread on "
          f"{platform.machine()}, numpy {np.__version__}, Python {platform.python_version()}, "
          f"longdouble epsilon {np.finfo(np.longdouble).eps:.3g}. Each check's value and its "
          "margin, value over tolerance (below 1 passes)"
          + (f"; beside them those of `{args.against.name}`." if args.against else ".") + "\n")
    head = ["run", "check", "tolerance"]
    if args.against:
        head += ["other value", "other margin"]
    head += ["value", "margin"]
    print("| " + " | ".join(head) + " |")
    print("|" + " --- |" * len(head))
    for row in rows:
        tol = f"{row['tolerance']:.3g}" if "tolerance" in row else ""
        cells = [row["run"], row["check"], tol]
        if args.against:
            cells += _cells(other.get((row["run"], row["check"])))
        cells += _cells(row)
        print("| " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
