import json
import subprocess

import numpy as np
import pytest

from conftest import cli_command, cli_env
from rieszops.cli import build_parser, main
from rieszops.report import CheckResult, VerificationReport, render_json
from rieszops.suites import CHECK_REGISTRY, run_verify, sweep_projection, sweep_three_level


class TestRendering:
    def test_floats_use_17_significant_digits(self):
        assert render_json(0.1) == "0.10000000000000001"
        assert render_json(0.5) == "0.5"

    def test_float_rendering_round_trips(self):
        rng = np.random.default_rng(0)
        for x in rng.normal(size=50) * 10.0 ** rng.integers(-12, 12, size=50):
            assert float(render_json(float(x))) == x

    def test_round_trips_through_json(self):
        report = run_verify("three-level", t=0.3)
        doc = json.loads(report.to_json())
        assert doc["suite"] == "three-level"
        assert doc["summary"]["total"] == len(doc["checks"])
        assert doc["params"]["t"] == pytest.approx(0.3)

    def test_key_order_is_fixed(self):
        report = run_verify("three-level", t=0.3)
        text = report.to_json()
        assert text.index('"suite"') < text.index('"params"') < text.index('"checks"')
        assert text.index('"checks"') < text.index('"summary"')

    def test_non_finite_floats_render(self):
        assert render_json(float("inf")) == "Infinity"
        assert render_json(float("nan")) == "NaN"

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            render_json(object())


class TestReportContainers:
    def test_from_residual_boundary(self):
        assert CheckResult.from_residual("x", 1e-10, 1e-10).passed
        assert not CheckResult.from_residual("x", 1.1e-10, 1e-10).passed

    def test_summary_counts(self):
        report = VerificationReport(suite="s", params={})
        report.add(CheckResult("a", True, 0.0, 1.0))
        report.add(CheckResult("b", False, 2.0, 1.0))
        assert report.summary == {"total": 2, "passed": 1, "failed": 1}
        assert report.failed_names() == ["b"]
        assert not report.all_passed


class TestSuites:
    def test_three_level_has_full_battery(self):
        report = run_verify("three-level", t=0.3)
        assert report.summary["total"] >= 15
        assert report.all_passed

    def test_inadmissible_parameter_fails_only_admissibility(self):
        report = run_verify("three-level", t=1.2)
        assert report.failed_names() == ["admissible"]
        names = {c.name for c in report.checks}
        assert "ladder_actions" not in names  # ladder checks skipped
        assert "three_level_S_phi" in names  # structural checks still run

    def test_every_check_name_is_registered(self):
        reports = [
            run_verify("three-level", t=0.3),
            run_verify("three-level", t=1.2),
            run_verify("projection", dim=8, n=3, seed=1),
            run_verify("random", dim=8, seed=2),
        ]
        emitted = set()
        for report in reports:
            for check in report.checks:
                assert check.name in CHECK_REGISTRY, check.name
                emitted.add(check.name)
        # and nothing in the registry is dead
        assert emitted == set(CHECK_REGISTRY)

    def test_registry_maps_names_to_single_operations(self):
        for name, operation in CHECK_REGISTRY.items():
            assert callable(operation), name

    def test_sweep_three_level_grid(self):
        reports = sweep_three_level(0.0, 1.0, 11)
        assert len(reports) == 11
        assert [r.params["t"] for r in reports] == pytest.approx(
            list(np.linspace(0, 1, 11))
        )
        for report in reports:
            norm_check = {c.name: c for c in report.checks}["norm_T"]
            assert norm_check.residual <= 1e-10

    def test_sweep_projection_grid(self):
        reports = sweep_projection(8, 2, 6)
        assert len(reports) == 5
        assert [r.params["n"] for r in reports] == [2, 3, 4, 5, 6]

    def test_sweep_rejects_degenerate_grid(self):
        with pytest.raises(ValueError, match="at least 2 steps"):
            sweep_three_level(0.0, 1.0, 1)

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_verify("nope")


class TestCli:
    def test_verify_exit_zero_and_parse(self, capsys):
        assert main(["verify", "three-level", "--t", "0.3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["failed"] == 0

    def test_verify_inadmissible_exits_one(self, capsys):
        assert main(["verify", "three-level", "--t", "1.2"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["failed"] == 1

    def test_verify_random_deterministic_in_process(self, capsys):
        main(["verify", "random", "--dim", "8", "--seed", "42"])
        first = capsys.readouterr().out
        main(["verify", "random", "--dim", "8", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        assert (
            main(["verify", "three-level", "--t", "0.3", "--out", str(target)]) == 0
        )
        doc = json.loads(target.read_text())
        assert doc["suite"] == "three-level"

    def test_sweep_array_output(self, capsys):
        assert (
            main(["sweep", "three-level", "--t-max", "1.0", "--steps", "11"]) == 0
        )
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 11

    def test_sweep_single_step_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "three-level", "--t-max", "1.0", "--steps", "1"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""  # no report

    def test_bad_spec_string_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "random", "--alpha", "garbage"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "0", "abc"])
    def test_tol_must_be_finite_and_positive(self, capsys, tol):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "three-level", "--t", "0.3", "--tol", tol])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_non_finite_spec_parameter_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["domain", "--alpha", "poly:1", "--coeff", "geometric:nan"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_out_of_range_parameter_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "three-level", "--t", "7.0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "alpha,coeff,expected",
        [
            ("poly:1", "geometric:0.5", "converged"),
            ("poly:1", "harmonic", "diverged"),
        ],
    )
    def test_domain_command(self, capsys, alpha, coeff, expected):
        assert main(["domain", "--alpha", alpha, "--coeff", coeff]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == expected
        assert doc["n_max"] == 4096
        assert "partial_sum" in doc and "tail_ratio" in doc

    def test_domain_custom_horizon(self, capsys):
        assert (
            main(
                ["domain", "--alpha", "poly:1", "--coeff", "geometric:0.5",
                 "--n-max", "128"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_max"] == 128

    def test_sweep_and_domain_out_files(self, tmp_path):
        sweep_target = tmp_path / "sweep.json"
        domain_target = tmp_path / "domain.json"
        assert (
            main(
                ["sweep", "projection", "--dim", "6", "--n-min", "2", "--n-max",
                 "3", "--out", str(sweep_target)]
            )
            == 0
        )
        assert len(json.loads(sweep_target.read_text())) == 2
        assert (
            main(
                ["domain", "--alpha", "poly:1", "--coeff", "geometric:0.5",
                 "--out", str(domain_target)]
            )
            == 0
        )
        assert json.loads(domain_target.read_text())["verdict"] == "converged"

    def test_sweep_deterministic_in_process(self, capsys):
        args = ["sweep", "three-level", "--t-max", "0.5", "--steps", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


class TestSharedParser:
    """One process, one parser: every command run after others must write
    the bytes that a fresh interpreter writes for it."""

    COMMANDS = (
        ("verify", "three-level", "--t", "0.4", "--seed", "3"),
        ("sweep", "projection", "--dim", "6", "--n-min", "2", "--n-max", "4"),
        ("domain", "--alpha", "poly:1", "--coeff", "geometric:0.5"),
        ("verify", "random", "--dim", "16", "--seed", "42"),
    )

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_matches_fresh_interpreters(self, tmp_path):
        shared = [tmp_path / f"shared{i}.json" for i in range(len(self.COMMANDS))]
        for args, out in zip(self.COMMANDS[:3], shared):
            assert main([*args, "--out", str(out)]) == 0
        usage_out = tmp_path / "usage.json"
        with pytest.raises(SystemExit) as usage:
            main(["verify", "random", "--tol", "nan", "--out", str(usage_out)])
        assert usage.value.code == 2 and not usage_out.exists()
        assert main([*self.COMMANDS[3], "--out", str(shared[3])]) == 0

        for args, out in zip(self.COMMANDS, shared):
            fresh = tmp_path / "fresh.json"
            done = subprocess.run(
                cli_command(*args, "--out", str(fresh)),
                capture_output=True,
                check=False,
                env=cli_env(),
            )
            assert done.returncode == 0, done.stderr
            assert out.read_bytes() == fresh.read_bytes(), args
