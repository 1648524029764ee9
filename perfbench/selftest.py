"""Self-tests of the benchmark's tracer and failure accounting.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They use small grids and take a few seconds.  No test pins an operation
count that a later optimisation is meant to change.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (fixes the BLAS thread count before numpy loads)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

RF, MOD = workloads.import_package()


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        return fn(), tracer
    finally:
        tracer.uninstall()


def test_every_binding_is_wrapped_and_restored():
    original = MOD["transverse"].metric_state
    rebinding = [m for m in (RF, *MOD.values()) if getattr(m, "metric_state", None) is original]
    assert len(rebinding) >= 6, "metric_state should be imported by several modules"
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped() == []
        for module in rebinding:
            assert module.metric_state is not original, module.__name__
        # a binding put back by hand must be reported
        MOD["functionals"].metric_state = original
        assert any("reebflow.functionals.metric_state" in b for b in tracer.unwrapped())
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    for module in rebinding:
        assert module.metric_state is original, module.__name__


def test_traced_and_untraced_checks_are_identical():
    def work():
        checks, _ = MOD["verification"].functional_identity_suite(n=64, samples=2, seed=7)
        grid = MOD["transverse"].make_grid(32)
        psi = MOD["transverse"].BasicPotential.from_callable(grid, lambda x: 0.3 * (1 - x * x))
        traj = MOD["flow"].run_flow(MOD["transverse"].metric_state(psi), s_end=0.05)
        return [(c.name, c.value) for c in checks], [r.v.values.tolist() for r in traj.records]

    plain = work()
    traced, tracer = _traced(work)
    assert repr(traced) == repr(plain)
    assert tracer.stats["flow.run_flow"].calls == 1
    assert tracer.flow_records == len(plain[1])


def test_counts_are_attributed_to_the_enclosing_layer():
    grid = MOD["transverse"].make_grid(32)
    ref = MOD["transverse"].reference_state(grid)
    phi = MOD["transverse"].BasicPotential.from_callable(grid, lambda x: 0.05 * x * x)
    _, tracer = _traced(lambda: MOD["functionals"].FunctionalLedger.evaluate("t", phi, ref))
    states = tracer.stats["transverse.metric_state"].calls
    assert tracer.stats["functionals.ledger"].calls == 1
    assert states > 0
    assert tracer.nested[("functionals.ledger", "transverse.metric_state")] == states
    assert tracer.nested[("functionals.ledger", "transverse.laplacian")] >= states
    # the inclusive time of the ledger covers its children
    ledger = tracer.stats["functionals.ledger"]
    assert ledger.s >= tracer.stats["functionals.eval_J"].s
    assert 0.0 <= ledger.self_s <= ledger.s


def test_package_errors_count_every_nominal_check_failed():
    ctx = workloads.Context(name="ledger", seed=1, rf=RF, mod=MOD)
    saved = workloads.BODIES["ledger"]

    def raising(ctx, i):
        raise RF.SolverError("forced", trace=[1.0])

    workloads.BODIES["ledger"] = raising
    try:
        errors: list[str] = []
        _, rows = run.run_body(ctx, 0, errors)
    finally:
        workloads.BODIES["ledger"] = saved
    assert len(rows) == workloads.NOMINAL_CHECKS["ledger"]
    assert not any(r[1] for r in rows)
    assert len(errors) == 1 and "SolverError" in errors[0]


def test_verify_all_exit_2_counts_the_failed_checks():
    io = MOD["io"]
    CheckResult = MOD["verification"].CheckResult

    def failing_main(argv):
        # stands in for a verify-all whose checks ran and one failed
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        checks = [CheckResult("a", True, 0.0, 1.0), CheckResult("b", False, 2.0, 1.0)]
        csv_path = io.write_checks_csv(out / "checks.csv", checks)
        io.write_manifest(out / "manifest.json", {}, [csv_path], 0.0)
        return 2

    ctx = workloads.Context(name="verify_quick", seed=1, rf=RF, mod=MOD)
    saved = MOD["cli"].main
    MOD["cli"].main = failing_main
    try:
        rows = workloads.body_verify_quick(ctx, 0)
    finally:
        MOD["cli"].main = saved
    assert [(r[0], r[1]) for r in rows] == [("a", True), ("b", False), ("artifact-hashes", True)]


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as err:  # report every test, then fail
                failures += 1
                print(f"FAIL {name}: {type(err).__name__}: {err}")
    sys.exit(1 if failures else 0)
