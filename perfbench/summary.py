"""Run the benchmark over workloads and seeds and print one table.

    python3 perfbench/summary.py                        # every workload, seed 1
    python3 perfbench/summary.py --trace 1              # per-layer metrics
    python3 perfbench/summary.py --workloads flow --seeds 1-10 --json out.json

Each (workload, seed) is one ``run.py`` process.  Per workload and metric
the table gives the median over seeds, the quartiles and the spread
(third minus first quartile, as a share of the median), beside the checks
failed of all checks attempted.  ``--json`` also keeps every run's result
and record (environment, iteration times, artifact hashes).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ledger", "continuation", "flow", "verify_quick")


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return {"seed": seed, "result": json.loads(lines[-1]), "record": record}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", type=seed_list, default=[1])
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path, default=None)
    args = p.parse_args(argv)

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in args.seeds]
        stats = summarize(runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        all_correct &= correct
        report["workloads"][workload] = {
            "metrics": stats, "checks_attempted": attempted, "checks_failed": failed,
            "correct": correct, "runs": runs,
        }
        for name, st in stats.items():
            print(f"{workload:13s} {name:40s} {st['median']:12.6g} {st['unit']:12s} "
                  f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  spread {st['spread']:.3f}  n {st['n']}")
        print(f"{workload:13s} {'checks_failed':40s} {failed:12d} {'count':12s} "
              f"of {attempted} attempted; correct {correct}", flush=True)
    if args.json:
        args.json.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
