"""Hashes of the artifacts the CLI writes, for proving a refactor safe.

    PYTHONPATH=src python3 benchmarks/artifact_hashes.py > hashes.txt

Runs each command below (together they cover all eight subcommands)
through ``reebflow.cli.main`` in a temporary directory and prints one
sorted ``command/artifact sha256`` line per artifact, 25 in all, and one
``command/manifest.json sha256`` line per command, 9 in all: the sha256
of the manifest with ``wall_time_seconds`` removed, dumped with sorted
keys, so a changed config or extra value shows too.  The BLAS threads are
pinned to one before numpy is imported, since the artifacts' last bits
depend on the thread count.  Run it on two trees and diff the outputs; a
change that keeps every computation prints the same lines.  Exits 1 if any
command does not exit 0.  About 5 s on one core.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from reebflow import cli, io  # noqa: E402

COMMANDS = {
    "verify-all": ["verify-all", "--quick", "--seed", "1"],
    "path-gauss": ["path", "--n", "64", "--records", "6"],
    "path": ["path", "--n", "64"],
    "pinch": ["pinch", "--n", "64"],
    "solve": ["solve", "--n", "64"],
    "flow": ["flow", "--n", "64", "--s-end", "0.5"],
    "scan-bump": ["scan", "--n", "64", "--family", "bump"],
    "spectrum": ["spectrum", "--n", "64", "--phi", "0.1*x", "--k", "8"],
    "curvature": ["curvature", "--m", "3"],
}


def main() -> int:
    lines, failed = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            out = Path(tmp) / name
            # the commands' own reports go to stderr, the hashes alone to stdout
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main([*argv, "--out", str(out)])
            if rc != 0:
                failed.append(f"{name}: exit {rc}")
            for path in out.rglob("*"):
                if path.is_file() and path.name != "manifest.json":
                    lines.append(f"{name}/{path.relative_to(out)} {io.content_hash(path)}")
            manifest = out / "manifest.json"
            if manifest.is_file():
                payload = json.loads(manifest.read_text())
                del payload["wall_time_seconds"]
                digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
                lines.append(f"{name}/manifest.json {digest.hexdigest()}")
    print("\n".join(sorted(lines)))
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
