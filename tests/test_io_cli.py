"""Artifact writers, expression parsing, CLI exit behavior."""

import contextlib
import csv
import json
import math
import os
import subprocess
import sys
import time
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reebflow import cli, continuity, io, transverse, verification
from reebflow import (
    BasicPotential,
    FunctionalLedger,
    run_continuity_path,
    SolverError,
    run_flow,
)
from reebflow.cli import UsageError, parse_expression
from reebflow.flow import FlowPolicy


class TestWriters:
    def test_field_csv_roundtrip(self, tmp_path, grid96, rng):
        values = rng.standard_normal(grid96.n)
        path = io.write_field_csv(tmp_path / "f.csv", grid96.x, values)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "value"]
        back = np.array([[float(a), float(b)] for a, b in rows[1:]])
        # %.17g survives the float64 round trip bit for bit
        np.testing.assert_array_equal(back[:, 0], grid96.x)
        np.testing.assert_array_equal(back[:, 1], values)

    def test_state_json_keys(self, tmp_path, base128):
        path = io.write_state_json(tmp_path / "s.json", base128)
        data = json.loads(path.read_text())
        assert set(data) == {
            "m", "n", "ratio", "scalar_curvature", "ricci_potential", "norm_constant",
        }
        assert data["m"] == 1 and data["n"] == 128
        np.testing.assert_array_equal(np.array(data["ratio"]), base128.ratio)

    def test_ledger_csv(self, tmp_path, grid96, ref96):
        led = FunctionalLedger.evaluate(
            "probe", BasicPotential.from_callable(grid96, lambda x: 0.1 * x), ref96
        )
        path = io.write_ledger_csv(tmp_path / "l.csv", [led])
        rows = list(csv.reader(open(path, newline="")))
        assert rows[0] == ["tag", "I", "J", "F0", "F", "K", "osc", "margin"]
        assert rows[1][0] == "probe"
        assert float(rows[1][1]) == led.I
        # the row is the ledger's own row(), each float at full precision
        assert rows[1] == [led.tag, *map(io.format_float, led.row()[1:])]

    def test_flow_and_path_csv_shapes(self, tmp_path, base96):
        traj = run_flow(base96, s_end=0.2, policy=FlowPolicy(record_stride=50))
        fpath = io.write_flow_csv(tmp_path / "flow.csv", traj)
        rows = list(csv.reader(open(fpath, newline="")))
        assert rows[0][:4] == ["s", "sup_vdot", "sup_h", "sup_dh2"]
        assert len(rows) == 1 + len(traj.records)

        path = run_continuity_path(base96, records=2)
        ppath = io.write_path_csv(tmp_path / "path.csv", path)
        rows = list(csv.reader(open(ppath, newline="")))
        assert rows[0][0] == "t" and "IminusJ" in rows[0]
        assert len(rows) == 1 + len(path.records)

    def test_checks_csv_booleans(self, tmp_path):
        from reebflow.verification import CheckResult

        checks = [
            CheckResult("alpha", True, 1e-12, 1e-8),
            CheckResult("beta", False, 2.0, 1e-8),
        ]
        path = io.write_checks_csv(tmp_path / "c.csv", checks)
        rows = list(csv.reader(open(path, newline="")))
        assert rows[1][:2] == ["alpha", "1"]
        assert rows[2][:2] == ["beta", "0"]

    def test_manifest_hashes(self, tmp_path, grid96):
        f = io.write_field_csv(tmp_path / "f.csv", grid96.x, np.zeros(grid96.n))
        man = io.write_manifest(
            tmp_path / "manifest.json", {"command": "probe"}, [f], 0.1
        )
        data = json.loads(man.read_text())
        assert data["schema_version"] == io.SCHEMA_VERSION
        assert data["config"]["command"] == "probe"
        assert data["artifacts"] == [
            {"name": "f.csv", "sha256": io.content_hash(f)}
        ]
        assert io.content_hash(f) == io.content_hash(f)

    def test_manifest_records_numerics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        man = io.write_manifest(tmp_path / "manifest.json", {}, [], 0.1)
        numerics = json.loads(man.read_text())["numerics"]
        assert numerics["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": "2",
        }
        assert numerics["longdouble_eps"] == float(np.finfo(np.longdouble).eps)


class TestExpressionParser:
    @pytest.mark.parametrize(
        "text, fn",
        [
            ("0.3*(1-x^2)", lambda x: 0.3 * (1 - x**2)),
            ("sin(2*x) + cos(x)/2", lambda x: np.sin(2 * x) + np.cos(x) / 2),
            ("exp(-x**2) * pi", lambda x: np.exp(-(x**2)) * np.pi),
            ("-x + 2", lambda x: -x + 2),
            ("0", lambda x: 0.0 * x),
        ],
    )
    def test_accepts_whitelisted_grammar(self, text, fn, grid96):
        got = parse_expression(text)(grid96.x)
        np.testing.assert_allclose(got, fn(grid96.x), rtol=0, atol=1e-15)
        assert got.shape == grid96.x.shape

    @pytest.mark.parametrize(
        "text",
        [
            "__import__('os').system('true')",
            "x.real",
            "open('f')",
            "y + 1",
            "x[0]",
            "lambda t: t",
            "'abc'",
        ],
    )
    def test_rejects_everything_else(self, text):
        with pytest.raises(UsageError):
            parse_expression(text)

    def test_malformed_syntax(self):
        with pytest.raises(UsageError):
            parse_expression("1 +")


class TestCliCommands:
    def test_solve_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(
            ["solve", "--n", "96", "--t", "0.5", "--out", str(out)]
        )
        assert rc == 0
        assert (out / "solution.csv").exists()
        assert (out / "state.json").exists()
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["command"] == "solve"
        names = {a["name"] for a in man["artifacts"]}
        assert names == {"solution.csv", "state.json"}
        for entry in man["artifacts"]:
            assert entry["sha256"] == io.content_hash(out / entry["name"])
        assert "residual" in capsys.readouterr().out

    def test_verify_all_manifest_is_written_by_main(self, tmp_path, capsys):
        # the library run writes the artifacts alone; the command writes
        # the same artifacts and a manifest that lists every one of them
        lib, out = tmp_path / "lib", tmp_path / "cli"
        run = verification.verify_all(lib, seed=1, quick=True)
        assert not (lib / "manifest.json").exists()
        assert sorted(p.name for p in run.artifacts) == sorted(p.name for p in lib.iterdir())
        assert cli.main(["verify-all", "--quick", "--seed", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.endswith(f"checks passed -> {out}\n")
        man = json.loads((out / "manifest.json").read_text())
        listed = {a["name"]: a["sha256"] for a in man["artifacts"]}
        assert listed == {p.name: io.content_hash(p) for p in lib.iterdir()}
        assert set(listed) == {p.name for p in out.iterdir()} - {"manifest.json"}
        assert man["extra"] == run.extra
        assert man["wall_time_seconds"] > 0

    def test_verify_all_prints_each_check_detail(self, tmp_path, capsys):
        # a lower-bound check stores its violation, 0 when it holds, so its
        # slack shows only in the detail at the end of its line
        assert cli.main(["verify-all", "--quick", "--seed", "1", "--out", str(tmp_path)]) == 0
        lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[:-1]}
        assert len(lines) == 35
        assert lines["flow-monitor-b"] == (
            "[PASS] flow-monitor-b                   value 0.000e+00  tol 1.0e-06  margin 7.500e-01"
        )
        assert lines["pinch-achieved"].endswith("tol 5.0e-02  path stopped at t = 0.95")
        # a check without a detail ends at its tolerance
        assert lines["flow-constancy"].endswith("tol 1.0e-10")

    def test_scan_is_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = cli.main(
                ["scan", "--n", "96", "--family", "mobius",
                 "--lambdas", "1,2,4", "--out", str(out)]
            )
            assert rc == 0
            outs.append((out / "scan.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_spectrum_reports_obstruction(self, tmp_path):
        out = tmp_path / "spec"
        rc = cli.main(["spectrum", "--n", "96", "--k", "6", "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(open(out / "spectrum.csv", newline="")))
        assert rows[0] == ["index", "eigenvalue"]
        man = json.loads((out / "manifest.json").read_text())
        assert man["extra"]["has_obstruction"] is True

    def test_curvature_json(self, tmp_path):
        out = tmp_path / "curv"
        rc = cli.main(["curvature", "--m", "3", "--c", "4.0", "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "curvature.json").read_text())
        assert data["m"] == 3
        assert abs(data["characteristic_integrand"]) < 1e-12
        # the command builds no grid and draws nothing
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert "n" not in config and "seed" not in config

    def test_flags_belong_to_the_commands_that_read_them(self):
        _, registry = cli.build_parser()

        def having(flag):
            return {
                name for name, p in registry.items()
                if any(flag in a.option_strings for a in p._actions)
            }

        assert having("--seed") == {"verify-all"}
        assert having("--n") == {"solve", "path", "flow", "scan", "pinch", "spectrum"}

    def test_config_file_merge(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 96, "t": 0.4}))
        out = tmp_path / "run"
        rc = cli.main(
            ["solve", "--config", str(cfg), "--t", "0.6", "--out", str(out)]
        )
        assert rc == 0
        man = json.loads((out / "manifest.json").read_text())
        # config file sets n, explicit flag beats the file for t
        assert man["config"]["n"] == 96
        assert man["config"]["t"] == 0.6

    def test_config_does_not_leak_into_the_next_call(self, tmp_path):
        # one parser tree serves every call of main, and a config file's
        # values reach only the call that names it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 96, "t": 0.4}))
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(first)]) == 0
        assert cli.main(["solve", "--out", str(second)]) == 0
        for out, expected in ((first, (96, 0.4)), (second, (128, 1.0))):
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert (config["n"], config["t"]) == expected
        assert cli._parser() is cli._parser()

    def test_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"plutonium": 1}))
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config",
        [
            ("solve", '{"n": 1e400}'),
            ("scan", '{"lambdas": ["a", 2]}'),
            ("scan", '{"family": "xyz"}'),
            ("verify-all", '{"quick": "no"}'),
            ("solve", '{"n": null}'),
            ("verify-all", '{"quick": null}'),
        ],
    )
    def test_config_value_is_checked_as_its_flag(self, tmp_path, capsys, command, config):
        # 1e400 is inf, no int; a switch takes only true or false; null
        # stands only for a default None
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "o"
        rc = cli.main([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_config_list_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 32, "lambdas": [1, 2, 4]}))
        out = tmp_path / "run"
        assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["lambdas"] == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "16"],
        ["path", "--n", "16"],  # records null in the manifest: its default None
        ["flow", "--n", "16"],
        ["scan", "--n", "64"],
        ["pinch", "--n", "32"],
        ["spectrum", "--n", "16", "--k", "4"],
        ["curvature"],
        ["verify-all", "--quick"],
    ], ids=lambda argv: argv[0])
    def test_manifest_config_replays_the_run(self, tmp_path, argv):
        first, again = tmp_path / "first", tmp_path / "again"
        assert cli.main([*argv, "--out", str(first)]) == 0
        config = json.loads((first / "manifest.json").read_text())["config"]
        _, registry = cli.build_parser()
        dests = {a.dest for a in registry[argv[0]]._actions} - {"help", "out", "config"}
        assert set(config) == dests | {"command"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([argv[0], "--config", str(cfg), "--out", str(again)]) == 0
        replayed = json.loads((again / "manifest.json").read_text())
        assert replayed["config"] == config
        for entry in replayed["artifacts"]:
            name = entry["name"]
            assert (again / name).read_bytes() == (first / name).read_bytes(), name


class TestCliExitCodes:
    def test_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_invalid_input(self, tmp_path, capsys):
        rc = cli.main(
            ["solve", "--n", "96", "--psi", "3*(1-x^2)",
             "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err

    def test_resolution_error(self, tmp_path, capsys):
        rc = cli.main(
            ["spectrum", "--n", "96", "--k", "64", "--out", str(tmp_path / "o")]
        )
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("s_end", ["inf", "200"])
    def test_flow_s_end_out_of_range(self, tmp_path, capsys, s_end):
        out = tmp_path / "o"
        rc = cli.main(["flow", "--n", "16", "--s-end", s_end, "--out", str(out)])
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err
        assert not (out / "flow.csv").exists()

    def test_path_records_past_t_end(self, tmp_path, capsys):
        # the 6 Gauss nodes of (0, 1) reach t = 0.966, past t_end = 0.5
        out = tmp_path / "o"
        rc = cli.main(["path", "--n", "16", "--records", "6", "--t-end", "0.5",
                       "--out", str(out)])
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err
        assert not (out / "path.csv").exists()

    @pytest.mark.parametrize("records", ["0", "-2"])
    def test_path_record_count_below_one(self, tmp_path, capsys, records):
        out = tmp_path / "o"
        rc = cli.main(["path", "--n", "16", "--records", records, "--out", str(out)])
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err
        assert not (out / "path.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--n", "100000000"],
            ["path", "--n", "16", "--records", "100000"],
            ["curvature", "--m", "100000"],
            ["flow", "--n", "16", "--s-end", "100", "--ds", "1e-6"],
        ],
        ids=["grid", "records", "dimension", "flow-steps"],
    )
    def test_oversized_input_rejected_before_allocation(self, tmp_path, capsys, argv):
        # each size is refused by its documented limit before the arrays
        # (or the 10^8 flow steps) it would take
        out = tmp_path / "o"
        start = time.perf_counter()
        rc = cli.main([*argv, "--out", str(out)])
        assert time.perf_counter() - start < 5.0
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("c", ["inf", "nan", "1e200"])
    def test_curvature_constant_out_of_range(self, tmp_path, capsys, c):
        # a c that is not finite, or above curvature.MAX_CURVATURE where the
        # squared norms overflow, is refused before any artifact is written
        out = tmp_path / "o"
        assert cli.main(["curvature", "--c", c, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--seed", "1"], ["curvature", "--n", "8"], ["verify-all", "--n", "64"]],
    )
    def test_removed_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--lambdas", "2"], ["--lambdas", ","], ["--family", "bump", "--epsilons", "0.05"]],
    )
    def test_scan_needs_two_members(self, tmp_path, capsys, flags):
        # one member cannot fix the two constants of the fit
        out = tmp_path / "o"
        rc = cli.main(["scan", "--n", "16", *flags, "--out", str(out)])
        assert rc == 1
        assert "at least 2 members" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["verify-all", "--quick", "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--ds", "0"), ("--ds", "1e-9"), ("--ds", "inf"), ("--stride", "0"),
         ("--ds", "2.5"), ("--ds", "1e30"), ("--ds", "1e300")],
    )
    def test_flow_policy_out_of_range(self, tmp_path, capsys, flag, value):
        # refused as a flag and through --config alike; a ds above
        # flow.MAX_DS would make one step of the whole run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: value}))
        out = tmp_path / "o"
        for given in ([flag, value], ["--config", str(cfg)]):
            rc = cli.main(["flow", "--n", "16", "--s-end", "0.1", *given,
                           "--out", str(out)])
            assert rc == 1
            assert "invalid input" in capsys.readouterr().err
            assert not (out / "flow.csv").exists()

    @pytest.mark.parametrize("eps", ["inf", "1e300", "1e-300", "5e-13"])
    def test_pinch_eps_out_of_range(self, tmp_path, capsys, counts, eps):
        # an eps whose Calabi bound is infinite, or overflows, or one below
        # the floor 3e-17 n^4 (2.0e-12 at n = 16), which could only miss its
        # target after the whole run, is refused before the base state's
        # Laplacian
        out = tmp_path / "o"
        start = time.perf_counter()
        rc = cli.main(["pinch", "--n", "16", "--eps", eps, "--out", str(out)])
        assert time.perf_counter() - start < 5.0
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and "Traceback" not in err
        assert counts == {}
        assert not out.exists()

    @pytest.mark.parametrize("n, eps", [(64, "1e-10"), (128, "2e-9"), (512, "5e-7")])
    def test_pinch_eps_below_the_floor_at_n(self, tmp_path, capsys, counts, n, eps):
        # the pinch the flow attains grows like n^4, so does the floor
        # 3e-17 n^4: an eps below it is refused as input before any
        # Laplacian.  The floor keeps at least 40 times the worst pinch
        # measured from t = 1 (9.8e-13 at n = 64) as room for other bases
        out = tmp_path / "o"
        rc = cli.main(["pinch", "--n", str(n), "--eps", eps, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid input" in err and f"at n = {n}" in err
        assert counts == {}
        assert not out.exists()

    def test_pinch_eps_near_the_attained_pinch(self, tmp_path, capsys):
        # 3e-12 at n = 16 lies above the floor (2.0e-12) and 120 times
        # above the pinch the run attains
        out = tmp_path / "o"
        rc = cli.main(["pinch", "--n", "16", "--eps", "3e-12", "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert json.loads((out / "pinch.json").read_text())["achieved"] <= 3e-12

    @pytest.mark.parametrize("tol", ["nan", "-1", "1e-300", "1e-16"])
    def test_newton_tol_out_of_range(self, tmp_path, capsys, tol):
        # a tolerance below float64 epsilon is refused before any solve
        for command in ("solve", "path"):
            rc = cli.main([command, "--n", "16", "--newton-tol", tol,
                           "--out", str(tmp_path / command)])
            assert rc == 1
            assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "psi", ["1/0", "0^(-1)", "2^10000", "(-8)^(1/3)", "pow(2,-1)", "3^9^9"]
    )
    def test_expression_arithmetic_error(self, tmp_path, capsys, psi):
        # (-8)^(1/3) is complex, pow(2,-1) an integer to a negative power,
        # and 3^9^9 overflows as a float instead of running on in integers
        rc = cli.main(["solve", "--n", "16", "--psi", psi, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--psi", "--guess"])
    def test_nan_potential_is_invalid_input(self, tmp_path, capsys, flag):
        # log(x) is NaN on half the grid; the base state and Newton's guess
        # check both reject its NaN margin
        with np.errstate(invalid="ignore"):
            rc = cli.main(["solve", "--n", "16", flag, "log(x)",
                           "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "invalid input" in capsys.readouterr().err

    def test_overflowing_guess_is_an_invariant_failure(self, tmp_path, capsys):
        # e^{h + 800} overflows: Newton reports the infinite residual
        with np.errstate(over="ignore"):
            rc = cli.main(["solve", "--n", "16", "--guess", "-400",
                           "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "residual inf" in capsys.readouterr().err

    def test_scan_with_equal_members_is_invalid_input(self, tmp_path, capsys):
        # two equal members give one J value: the fit has rank 1
        out = tmp_path / "o"
        rc = cli.main(["scan", "--n", "32", "--lambdas", "2,2", "--out", str(out)])
        assert rc == 1
        assert "2 distinct J values" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_mobius_parameter_warns_of_nothing(self, tmp_path):
        # lam^2 of 1e300 overflows: the parameter is refused by name before
        # numpy computes with it, so stderr holds the one error line and no
        # RuntimeWarning (run as a script, where numpy prints its warnings)
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "reebflow.cli", "scan", "--n", "16",
             "--lambdas", "1,1e300", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        )
        assert proc.returncode == 1
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("invalid input: Moebius parameter lam")
        assert proc.stderr.endswith("got lam = 1e+300\n")
        assert not out.exists()

    def test_solver_error_prints_its_trace(self, tmp_path, capsys, monkeypatch):
        def failing_flow(base, s_end, policy):
            raise SolverError("stub stall", trace=[1.0, 0.5, 0.25, 0.125, 0.0625])

        monkeypatch.setattr(cli, "run_flow", failing_flow)
        rc = cli.main(["flow", "--n", "16", "--s-end", "0.05", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            "invariant violated: stub stall (trace of 5 residuals, "
            "last 2.500e-01, 1.250e-01, 6.250e-02)\n"
        )

    def test_path_failing_at_its_start(self, tmp_path, capsys, monkeypatch):
        def failing_solve(t, *args, **kwargs):
            raise SolverError(f"stub failure at t = {t}", trace=[1.0])

        monkeypatch.setattr(continuity, "_newton", failing_solve)
        out = tmp_path / "o"
        rc = cli.main(["path", "--n", "16", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "invariant violated: path failed at its start: stub failure at t = 0.1\n"
        assert not out.exists()

    def test_longdouble_without_extended_precision(self, tmp_path, capsys, monkeypatch):
        # a float64 longdouble (MSVC, macOS arm64) is refused with exit 2
        monkeypatch.setattr(transverse, "_LONGDOUBLE_EPS", float(np.finfo(np.float64).eps))
        monkeypatch.setattr(cli, "make_grid", transverse.make_grid.__wrapped__)
        rc = cli.main(["spectrum", "--n", "16", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "epsilon 2.220e-16" in capsys.readouterr().err

    def test_invariant_violation(self, tmp_path, capsys, monkeypatch):
        def broken_flow(base, s_end, policy):
            traj = run_flow(base, s_end=0.05, policy=FlowPolicy(record_stride=10))
            return type(traj)(
                initial=traj.initial,
                records=traj.records,
                policy=traj.policy,
                completed=False,
                failure="stub failure",
            )

        monkeypatch.setattr(cli, "run_flow", broken_flow)
        rc = cli.main(
            ["flow", "--n", "96", "--s-end", "0.05", "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "invariant violated" in capsys.readouterr().err


_LEAVES = st.one_of(
    st.integers(0, 9).map(str), st.sampled_from(["0.5", "1e-3", "x", "pi", "e"])
)


def _grow(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*/^"), sub).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        sub.map(lambda a: f"(-{a})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log"]), sub).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        st.tuples(sub, sub).map(lambda t: f"pow({t[0]},{t[1]})"),
    )


EXPRESSIONS = st.recursive(_LEAVES, _grow, max_leaves=6)


class TestExpressionProperty:
    """Any expression of the grammar, as the base or as Newton's guess,
    ends in an exit code: 0, 1 (input) or 2 (invariant), never an
    exception."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(flag=st.sampled_from(["--psi", "--guess"]), expr=EXPRESSIONS)
    def test_solve_returns_an_exit_code(self, tmp_path_factory, flag, expr):
        out = tmp_path_factory.getbasetemp() / "expression-property"
        with np.errstate(all="ignore"):
            rc = cli.main(["solve", "--n", "16", flag, expr, "--out", str(out)])
        assert rc in (0, 1, 2)


# Adversarial values by the kind of value a flag takes: NaN, +-inf, 0,
# negative, huge and out-of-kind numbers among a few valid ones.  Valid
# grid sizes stay at most 16 so that a valid run is short, and a seed is
# always invalid: a valid one runs every suite, as acceptance test c10 does.
_VALUES = {
    "size": [8, 16, 0, -16, 7, 10**9, 16.5, math.nan, math.inf],
    "int": [2, 0, -1, 10**30, 2.5, math.nan, math.inf],
    "float": [0.05, 0.5, 0.0, -1.0, 1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf],
    "list": [[1.0, 2.0], [2.0, 2.0], [math.nan, 2.0], [1.0, math.inf], [0.0, 2.0],
             [-1.0, 2.0], [1e300, 2.0]],
    "seed": [-1, 2.5, math.nan, math.inf],
}
# JSON values of the wrong type, and a non-numeric string, for any flag
_WRONG_TYPES = [None, True, "abc", {"a": 1}, [1, "x"]]
# each command's arguments and the kinds of its value flags; the first flag
# is always drawn, which keeps a run on a small grid (or refuses its seed)
_CONTRACT = {
    "solve": (["solve"], {"--n": "size", "--t": "float", "--newton-tol": "float"}),
    "path": (["path"], {"--n": "size", "--t-start": "float", "--t-end": "float",
                        "--records": "int", "--newton-tol": "float"}),
    "flow": (["flow"], {"--n": "size", "--s-end": "float", "--ds": "float", "--stride": "int"}),
    "scan": (["scan"], {"--n": "size", "--lambdas": "list"}),
    "scan-bump": (["scan", "--family", "bump"], {"--n": "size", "--epsilons": "list"}),
    "pinch": (["pinch"], {"--n": "size", "--eps": "float"}),
    "spectrum": (["spectrum"], {"--n": "size", "--k": "int"}),
    "curvature": (["curvature"], {"--m": "int", "--c": "float"}),
    "verify-all": (["verify-all", "--quick"], {"--seed": "seed"}),
}


@st.composite
def _invocations(draw):
    """A command, a subset of its flags, and for each flag a value and
    whether it is passed as a flag or through --config."""
    args, kinds = _CONTRACT[draw(st.sampled_from(sorted(_CONTRACT)))]
    first, *rest = kinds
    flags = [first, *draw(st.lists(st.sampled_from(rest), unique=True))] if rest else [first]
    values = {
        flag: (draw(st.sampled_from(_VALUES[kinds[flag]] + _WRONG_TYPES)), draw(st.booleans()))
        for flag in flags
    }
    return args, values


def _non_finite(value) -> bool:
    items = value if isinstance(value, list) else [value]
    return any(isinstance(v, float) and not math.isfinite(v) for v in items)


class TestCliContractProperty:
    """Any command, with adversarial values as flags or in a config file,
    ends in an exit code, never an exception or a traceback; a NaN or an
    infinity is refused as input, never run to a success."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(invocation=_invocations())
    # an infinite or overflowing pinching eps, and an infinite flow step,
    # as a flag and through --config
    @example(invocation=(["pinch"], {"--n": (16, False), "--eps": (math.inf, False)}))
    @example(invocation=(["pinch"], {"--n": (16, False), "--eps": (1e300, True)}))
    @example(invocation=(["flow"], {"--n": (16, False), "--ds": (math.inf, False)}))
    @example(invocation=(["flow"], {"--n": (16, True), "--ds": (math.inf, True)}))
    def test_every_invocation_returns_an_exit_code(self, tmp_path_factory, invocation):
        args, values = invocation
        work = tmp_path_factory.getbasetemp() / "contract-property"
        work.mkdir(exist_ok=True)
        argv = [*args, "--out", str(work / "out")]
        config = {flag[2:]: value for flag, (value, in_config) in values.items() if in_config}
        for flag, (value, in_config) in values.items():
            if not in_config:
                token = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                argv.append(f"{flag}={token}")
        if config:
            (work / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(work / "config.json")]
        err = StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
            with np.errstate(all="ignore"):
                rc = cli.main(argv)
        assert time.perf_counter() - start < 10.0
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if any(_non_finite(value) for value, _ in values.values()):
            assert rc == 1, err.getvalue()
