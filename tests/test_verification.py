"""Check plumbing and the lighter verification suites.

The heavy suites (manufactured path, flow, pinching) and the acceptance
tolerances they certify run in test_acceptance; here the focus is the
reporting semantics and that the cheap suites pass standalone.
"""


from reebflow import (
    FunctionalLedger,
    make_grid,
    reference_state,
    transverse,
    verification,
    verify_cocycle,
    verify_mabuchi_f_relation,
)
from reebflow.verification import (
    CheckResult,
    DEFAULT_SEED,
    VerifyRun,
    curvature_suite,
    functional_identity_suite,
    mobius_scan_suite,
    oracle_suite,
)


def _recording(monkeypatch, name):
    """Replace verification's ``name`` by a wrapper that keeps each result."""
    real, results = getattr(verification, name), []

    def record(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(verification, name, record)
    return results


class TestCheckResult:
    def test_value_is_smaller_is_better(self):
        ok = CheckResult("probe", True, 1e-12, 1e-8)
        assert ok.value < ok.tolerance and ok.passed
        bad = CheckResult("probe", False, 2.0, 1e-8, detail="raw margin -2")
        assert not bad.passed and bad.detail

    def test_failures_filter(self):
        run = VerifyRun(
            checks=(
                CheckResult("a", True, 0.0, 1.0),
                CheckResult("b", False, 2.0, 1.0),
            ),
            artifacts=(),
            extra={},
            passed=False,
        )
        assert [c.name for c in run.failures()] == ["b"]


class TestIdentitySuite:
    def test_small_sample_passes(self):
        checks, ledgers = functional_identity_suite(n=96, samples=6, seed=11)
        assert all(c.passed for c in checks)
        assert len(ledgers) == 6
        names = {c.name for c in checks}
        assert "identity-translation" in names
        assert "identity-cocycle" in names
        assert "identity-j-collapse" in names

    def test_reports_are_read_off_the_ledgers(self, counts, monkeypatch):
        # the Laplacian each draw keeps from its admissibility test serves
        # its ledger and Mabuchi report, and the cocycle reuses both
        # samples' F: the reference state, two draws, two translations and
        # the cocycle's two relative F values, 1 each.  The cocycle's middle
        # state applies none: its ratio is formed from the ratio the
        # reference keeps and the Laplacian the first draw keeps.  Neither
        # state's scalar curvature is read, so neither applies a Laplacian
        # for it.
        mabuchi = _recording(monkeypatch, "verify_mabuchi_f_relation")
        cocycle = _recording(monkeypatch, "verify_cocycle")
        _, ledgers = functional_identity_suite(n=64, samples=2, seed=1)
        assert counts["laplacian"] == 7
        # the same reports, bit for bit, as ledgers evaluated afresh give
        ref = reference_state(make_grid(64))
        fresh = [FunctionalLedger.evaluate(led.tag, led.potential, ref) for led in ledgers]
        assert mabuchi == [verify_mabuchi_f_relation(led, ref) for led in fresh]
        assert cocycle == [verify_cocycle(fresh[0], fresh[1], ref)]

    def test_seed_determinism(self):
        a = functional_identity_suite(n=96, samples=4, seed=5)[1]
        b = functional_identity_suite(n=96, samples=4, seed=5)[1]
        c = functional_identity_suite(n=96, samples=4, seed=6)[1]
        assert [l.I for l in a] == [l.I for l in b]
        assert [l.I for l in a] != [l.I for l in c]


class TestMobiusSuite:
    def test_default_grid_passes(self):
        checks, scans, spec = mobius_scan_suite()
        assert all(c.passed for c in checks)
        assert scans[0].name == "mobius"
        assert list(scans[0].params) == [1.0, 2.0, 4.0, 8.0, 16.0]
        assert spec.has_obstruction

    def test_coarse_grid_reports_honestly(self):
        # at n = 96 the lambda = 16 member is underresolved and the
        # closed-form check must fail rather than loosen itself
        checks, _, _ = mobius_scan_suite(n=96)
        by_name = {c.name: c for c in checks}
        assert not by_name["mobius-j-closed-form"].passed
        assert by_name["mobius-j-closed-form"].value > 1e-10


class TestSmallSuites:
    def test_curvature_suite(self):
        checks, report = curvature_suite(seed=DEFAULT_SEED)
        assert all(c.passed for c in checks)
        assert report.m == 2 and abs(report.integrand) < 1e-12

    def test_oracle_suite(self):
        checks = oracle_suite(n=96, n_theta=256)
        assert all(c.passed for c in checks)
        assert {c.name for c in checks} == {
            "oracle-profiles", "oracle-jacobian-fd", "oracle-spectrum",
        }

    def test_oracle_profiles_check_the_gradient(self, monkeypatch):
        # |dphi|^2 feeds flow bound (b) and pinch-flow-dh2-slack; the 2-D
        # oracle is the one check that a wrong factor in it fails
        real = transverse._grad_norm_sq
        monkeypatch.setattr(
            transverse, "_grad_norm_sq", lambda grid, ratio, df: 2.0 * real(grid, ratio, df)
        )
        profiles = {c.name: c for c in oracle_suite(n=96, n_theta=256)}["oracle-profiles"]
        assert not profiles.passed
        assert profiles.detail.endswith("/grad_norm_sq")
