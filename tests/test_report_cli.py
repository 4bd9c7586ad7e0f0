import json
import math
import subprocess
import warnings

import numpy as np
import pytest

from conftest import cli_command, cli_env, solver_shapes
from rieszops import basis
from rieszops.cli import build_parser, main
from rieszops.report import (
    Check,
    CheckResult,
    VerificationReport,
    render_json,
    render_reports,
)
from rieszops.sequences import geometric, poly
from rieszops.suites import (
    projection_report,
    random_report,
    sweep_projection,
    sweep_three_level,
    three_level_report,
)


class TestRendering:
    def test_floats_use_17_significant_digits(self):
        assert render_json(0.1) == "0.10000000000000001"
        assert render_json(0.5) == "0.5"

    def test_float_rendering_round_trips(self):
        rng = np.random.default_rng(0)
        for x in rng.normal(size=50) * 10.0 ** rng.integers(-12, 12, size=50):
            assert float(render_json(float(x))) == x

    def test_round_trips_through_json(self):
        report = three_level_report(0.3)
        doc = json.loads(report.to_json())
        assert doc["suite"] == "three-level"
        assert doc["summary"]["total"] == len(doc["checks"])
        assert doc["params"]["t"] == pytest.approx(0.3)

    def test_key_order_is_fixed(self):
        report = three_level_report(0.3)
        text = report.to_json()
        assert text.index('"suite"') < text.index('"params"') < text.index('"checks"')
        assert text.index('"checks"') < text.index('"summary"')

    def test_non_finite_floats_render(self):
        assert render_json(float("inf")) == "Infinity"
        assert render_json(float("nan")) == "NaN"

    def test_control_characters_escaped(self):
        assert render_json("a\nb") == '"a\\nb"'
        texts = ("tab\there", 'quote " and \\', "\x00\x1f\x7f", "S^b_\u03c6 \u2264 1")
        for text in texts:
            assert render_json(text) == json.dumps(text, ensure_ascii=False)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            render_json(object())


def report_dict(report):
    """The report document as plain data, built independently of the
    report's own template."""
    passed = sum(1 for c in report.checks if c.passed)
    return {
        "suite": report.suite,
        "params": dict(report.params),
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "residual": c.residual,
                "tol": c.tol,
                "note": c.note,
            }
            for c in report.checks
        ],
        "summary": {
            "total": len(report.checks),
            "passed": passed,
            "failed": len(report.checks) - passed,
        },
    }


def strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def edge_report(residuals, params):
    report = VerificationReport(suite="edge", params=params)
    notes = ("line\nbreak", "tab\there", 'quote " and \\', "S^b_\u03c6 \u2264 1", "")
    for k, residual in enumerate(residuals):
        note = notes[k % len(notes)]
        (result,) = Check(f"check_{k}", np.array(residual), note).results(1e-10)
        report.add(result)
    return report


class TestTemplateOracle:
    """The report template renders the bytes render_json gives for the
    report's document."""

    SUITE_REPORTS = (
        lambda: three_level_report(0.3),
        lambda: three_level_report(1.2),
        lambda: projection_report(8, 3, seed=1),
        lambda: random_report(8, seed=2, alpha=geometric(0.9 + 0.2j)),
    )

    @pytest.mark.parametrize(
        "make_report",
        SUITE_REPORTS,
        ids=["three-level-0.3", "three-level-1.2", "projection", "random-complex"],
    )
    def test_suite_reports(self, make_report):
        report = make_report()
        assert report.to_json() == render_json(report_dict(report))
        assert strict_loads(report.to_json()) == report_dict(report)

    @pytest.mark.parametrize(
        "residuals",
        [
            [float("nan"), float("inf"), float("-inf"), 0.0, 1e-300],
            [0.1, 2.5e-17, 3.0, -0.0, 1e300],
            [],
        ],
        ids=["non-finite", "finite", "no-checks"],
    )
    @pytest.mark.parametrize(
        "params",
        [{}, {"t": 0.3, "seed": 4, "alpha": "list:1,2+1j"}],
        ids=["empty", "set"],
    )
    def test_edge_reports(self, residuals, params):
        report = edge_report(residuals, params)
        text = report.to_json()
        assert text == render_json(report_dict(report))
        if all(np.isfinite(residuals)):
            assert strict_loads(text) == report_dict(report)

    @pytest.mark.parametrize("count", [1, 3])
    def test_sweeps(self, count):
        reports = [
            edge_report([float("nan"), 1e-12 * k], {"k": k}) for k in range(count - 1)
        ]
        reports.append(three_level_report(0.3))
        text = render_reports(reports)
        assert text == render_json([report_dict(r) for r in reports])
        if count == 1:
            assert strict_loads(text) == [report_dict(reports[0])]

    def test_empty_sweep(self):
        assert render_reports([]) == render_json([]) == "[]"


class TestReportContainers:
    def test_results_boundary(self):
        at, above = Check("x", np.array([1e-10, 1.1e-10])).results(1e-10)
        assert at.passed and not above.passed

    def test_summary_counts(self):
        report = VerificationReport(suite="s", params={})
        report.add(CheckResult("a", True, 0.0, 1.0))
        report.add(CheckResult("b", False, 2.0, 1.0))
        assert report.summary == {"total": 2, "passed": 1, "failed": 1}
        assert [c.name for c in report.checks if not c.passed] == ["b"]
        assert not report.all_passed


#: check names in report order: the closed-form model blocks, the battery
#: and the ladder block every suite shares, and the three-level ladder checks
_THREE_LEVEL_MODEL = [
    "three_level_H", "three_level_psi", "three_level_S_phi", "three_level_S_psi",
    "three_level_S_phi_sqrt", "three_level_S_psi_sqrt", "three_level_h",
    "three_level_Phi", "norm_T", "norm_T_inv",
]
_PROJECTION_MODEL = [
    "projection_T_inv", "projection_S_phi", "projection_S_phi_sqrt",
    "projection_S_psi_sqrt", "projection_bases", "projection_H_split",
    "projection_h_block",
]
_BATTERY = [
    "biorthogonality", "reconstruction", "frame_inequality", "eigen_action",
    "weighted_action", "adjoint_pair", "metric_pair", "intertwining",
    "quasi_hermitian_symmetry", "selfadjoint_h", "transported_eigenbasis",
    "similarity_consistency", "onb_in_HS", "norm_bound",
]
_LADDER = [
    "ladder_actions", "ladder_adjoints", "ladder_products", "factorization",
]
_THREE_LEVEL_ADMISSIBLE = [
    "admissible", *_THREE_LEVEL_MODEL, *_BATTERY, *_LADDER,
    "ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices",
]


class TestSuites:
    def test_three_level_has_full_battery(self):
        report = three_level_report(0.3)
        assert report.summary["total"] >= 15
        assert report.all_passed

    def test_inadmissible_parameter_fails_only_admissibility(self):
        report = three_level_report(1.2)
        assert [c.name for c in report.checks if not c.passed] == ["admissible"]
        names = {c.name for c in report.checks}
        assert "ladder_actions" not in names  # ladder checks skipped
        assert "three_level_S_phi" in names  # structural checks still run

    @pytest.mark.parametrize("t, gap", [(0.0, 1.0), (1.2, 2.0 * math.cos(1.2) - 1.0)])
    def test_admissible_note_records_smallest_gap(self, t, gap):
        (check,) = [c for c in three_level_report(t).checks if c.name == "admissible"]
        assert f"smallest eigenvalue gap {gap:.6e}" in check.note
        assert ("ladder checks skipped" in check.note) == (not check.passed)

    @pytest.mark.parametrize(
        "make,expected",
        [
            (lambda: three_level_report(0.3), _THREE_LEVEL_ADMISSIBLE),
            (
                lambda: three_level_report(1.2),
                ["admissible", *_THREE_LEVEL_MODEL, *_BATTERY],
            ),
            (
                lambda: projection_report(8, 3, seed=1),
                [*_PROJECTION_MODEL, *_BATTERY, *_LADDER],
            ),
            (lambda: random_report(8, seed=2), [*_BATTERY, *_LADDER]),
            (
                lambda: random_report(8, seed=2, alpha=geometric(0.9 + 0.2j)),
                [n for n in _BATTERY if n != "quasi_hermitian_symmetry"] + _LADDER,
            ),
        ],
        ids=["admissible", "inadmissible", "projection", "random-real", "random-complex"],
    )
    def test_check_names_in_order(self, make, expected):
        """The ordered check list of each report branch."""
        assert [c.name for c in make().checks] == expected

    def test_suites_share_one_battery_order(self):
        """random's checks are the shared battery: projection runs it after
        its 7 closed forms, three-level between its closed forms and its 3
        ladder extras."""
        battery = [c.name for c in random_report(8).checks]
        projection = [c.name for c in projection_report(8, 3).checks]
        three = [c.name for c in three_level_report(0.3).checks]
        assert len(battery) == 18
        assert all(name.startswith("projection_") for name in projection[:7])
        assert projection[7:] == battery
        assert three[0] == "admissible"
        assert three[three.index("norm_T_inv") + 1 : -3] == battery
        assert three[-3:] == ["ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices"]

    @pytest.mark.parametrize("t", [0.3, 1.2])
    def test_three_level_report_runs_two_svds(self, monkeypatch, t):
        """One SVD of T per pair gives ||T||, ||T^{-1}|| and the metric
        roots; the other solve is norm_bound's ||H||, from the singular
        values of H alone."""
        shapes = solver_shapes(monkeypatch, lambda: three_level_report(t))
        assert shapes == [((1, 3, 3), True), ((1, 3, 3), False)]

    @pytest.mark.parametrize("dim", [1, 16, 64])
    @pytest.mark.parametrize("alpha", [poly(2.0), geometric(0.9 + 0.2j)])
    def test_random_report_runs_one_singular_vector_svd(self, monkeypatch, dim, alpha):
        shapes = solver_shapes(monkeypatch, lambda: random_report(dim, seed=1, alpha=alpha))
        assert shapes == [((1, dim, dim), True), ((1, dim, dim), False)]

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

    def test_out_in_missing_directory_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "three-level", "--t", "0.3", "--out", str(target)])
        assert excinfo.value.code == 2
        assert "rieszops: error:" in capsys.readouterr().err
        assert not target.exists()

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "nope"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

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

    def test_overflowing_spec_is_usage_error_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            with pytest.raises(SystemExit) as excinfo:
                main(["verify", "random", "--dim", "4", "--alpha", "geometric:1e200"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rieszops: error: sequence 'geometric:1e+200' term 2 is not finite\n"

    def test_overflowing_operator_is_usage_error_without_warnings(self, capsys):
        # every term is finite; the rank-one sum of H overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            with pytest.raises(SystemExit) as excinfo:
                main(["verify", "random", "--dim", "4", "--alpha", "affine:5e307,0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_out_of_range_parameter_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "three-level", "--t", "7.0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "random", "--dim", "100000"),
            ("verify", "random", "--dim", "65"),
            ("verify", "projection", "--dim", "0"),
            ("sweep", "projection", "--dim", "65", "--n-min", "2", "--n-max", "3"),
            ("domain", "--alpha", "poly:1", "--coeff", "poly:-2",
             "--n-max", "4000000000"),
            ("domain", "--alpha", "poly:1", "--coeff", "poly:1", "--n-max", "2000000"),
            ("domain", "--alpha", "poly:1", "--coeff", "poly:1", "--n-max", "63"),
            ("sweep", "three-level", "--t-max", "1", "--steps", "1001"),
            ("sweep", "three-level", "--t-max", "1", "--steps", "0"),
            ("sweep", "three-level", "--t-max", "1", "--steps", "1000000000000"),
        ],
    )
    def test_sizes_out_of_range_are_usage_errors(self, capsys, argv):
        # argparse rejects the value before anything is allocated
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be in" in captured.err

    @pytest.mark.parametrize("n_min, n_max, bad", [(5, 9, 9), (1, 4, 1)])
    def test_sweep_projection_range_checked_before_any_report(
        self, monkeypatch, capsys, n_min, n_max, bad
    ):
        built = []
        build = basis.from_generator
        monkeypatch.setattr(basis, "from_generator", lambda t: built.append(t) or build(t))
        argv = ["sweep", "projection", "--dim", "8", "--n-min", str(n_min), "--n-max", str(n_max)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert built == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"support size must be in 2..8, got {bad}" in captured.err

    @pytest.mark.parametrize(
        "argv,dest,value",
        [
            (("verify", "random", "--dim", "64"), "dim", 64),
            (("verify", "projection", "--dim", "1"), "dim", 1),
            (("domain", "--alpha", "poly:1", "--coeff", "poly:1",
              "--n-max", "1048576"), "n_max", 2**20),
            (("domain", "--alpha", "poly:1", "--coeff", "poly:1",
              "--n-max", "64"), "n_max", 64),
            (("sweep", "three-level", "--t-max", "1", "--steps", "2"), "steps", 2),
            (("sweep", "three-level", "--t-max", "1", "--steps", "1000"), "steps", 1000),
        ],
    )
    def test_size_bounds_are_inclusive(self, argv, dest, value):
        assert getattr(build_parser().parse_args(argv), dest) == value

    @pytest.mark.parametrize("command", [
        ("verify", "projection", "--dim", "4", "--n", "2"),
        ("sweep", "projection", "--dim", "4", "--n-min", "2", "--n-max", "3"),
    ], ids=["verify", "sweep"])
    def test_projection_accepts_list_alpha_of_dim_terms(self, capsys, command):
        # a list of exactly dim terms, as verify random accepts
        assert main([*command, "--alpha", "list:0,1,2,3"]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        for doc in out if isinstance(out, list) else [out]:
            assert doc["params"]["alpha"] == "list:0,1,2,3"
            assert doc["summary"]["failed"] == 0

    @pytest.mark.parametrize(
        "t",
        [5 * math.pi / 3, math.pi / 3 - 1e-12, 5 * math.pi / 3 + 1e-12],
        ids=["5pi/3", "below-pi/3", "above-5pi/3"],
    )
    def test_three_level_boundary_reports_inadmissible(self, capsys, t):
        # eps_1 - eps_0 = 2cos t - 1 is within tol of zero: no simple spectrum
        assert main(["verify", "three-level", "--t", repr(t)]) == 1
        doc = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failed == ["admissible"]

    def test_sweep_three_level_from_5pi_over_3_emits_document(self, capsys):
        argv = ["sweep", "three-level", "--t-min", repr(5 * math.pi / 3),
                "--t-max", "6.2", "--steps", "5"]
        assert main(argv) == 1
        docs = json.loads(capsys.readouterr().out)
        admissible = [d["checks"][0]["passed"] for d in docs]
        assert admissible == [False, True, True, True, True]

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

    def test_domain_echoes_raw_spec_as_strict_json(self, capsys):
        assert main(["domain", "--alpha", "poly:1\t", "--coeff", "poly:-3"]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["params"]["alpha"] == "poly:1\t"

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
