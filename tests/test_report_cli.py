import argparse
import ast
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import stat
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_command, cli_env, results, solver_shapes
from rieszops import basis, suites
from rieszops.cli import SUITES, _parsers, build_parser, main, parse_args
from rieszops.domains import summability_verdict
from rieszops.report import (
    Check,
    CheckResult,
    ReportStack,
    _params_layout,
    _template,
    render_json,
    render_reports,
)
from rieszops.sequences import geometric, parse_spec, poly
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
        assert render_json(float("inf")) == "null"
        assert render_json(float("-inf")) == "null"
        assert render_json(float("nan")) == "null"

    def test_control_characters_escaped(self):
        assert render_json("a\nb") == '"a\\nb"'
        texts = ("tab\there", 'quote " and \\', "\x00\x1f\x7f", "S^b_\u03c6 \u2264 1")
        for text in texts:
            assert render_json(text) == json.dumps(text, ensure_ascii=False)

    #: dict keys that need JSON escapes
    KEYS = ('q"uote', "back\\slash", "line\nbreak", '"\\\n 100%')

    def test_keys_are_escaped(self):
        doc = {key: [1.5, {key: "x"}] for key in self.KEYS}
        assert strict_loads(render_json(doc)) == doc
        assert render_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False)

    @pytest.mark.parametrize(
        "values",
        [(0.5, 1.5), (None, [1, 2.5])],
        ids=["template", "render-json"],
    )
    @pytest.mark.parametrize("indent", [0, 1])
    def test_params_keys_are_escaped(self, values, indent):
        """Params keys that need escapes give strict JSON, whether the
        params join the stack template or render through render_json."""
        params = [dict.fromkeys(self.KEYS, value) for value in values]
        stack = ReportStack("edge", params)
        stack.record(1e-10, Check("fine", np.zeros(len(params)), "fixed"))
        assert (_params_layout(params) is not None) == (values[0] is not None)
        for text, expected in zip(stack.documents(indent), params):
            assert strict_loads(text)["params"] == expected

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            render_json(object())


def report_dict(report):
    """The report document as plain data, built independently of the
    stack's template: a residual that is not finite is null."""
    passed = sum(1 for c in report.checks if c.passed)
    return {
        "suite": report.suite,
        "params": dict(report.params),
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "residual": c.residual if math.isfinite(c.residual) else None,
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
    """A single-point report with one check per residual."""
    stack = ReportStack("edge", [params])
    notes = ("line\nbreak", "tab\there", 'quote " and \\', "S^b_\u03c6 \u2264 1 (100%)", "")
    stack.record(
        1e-10,
        *(
            Check(f"check_{k}", np.array(residual), notes[k % len(notes)])
            for k, residual in enumerate(residuals)
        ),
    )
    (report,) = stack.reports()
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
        assert strict_loads(text) == report_dict(report)

    @pytest.mark.parametrize("count", [1, 3])
    def test_sweeps(self, count):
        reports = [
            edge_report([float("nan"), 1e-12 * k], {"k": k}) for k in range(count - 1)
        ]
        reports.append(three_level_report(0.3))
        text = render_reports(reports)
        assert text == render_json([report_dict(r) for r in reports])
        assert strict_loads(text) == [report_dict(r) for r in reports]

    def test_empty_sweep(self):
        assert render_reports([]) == render_json([]) == "[]"

    #: numbers each note value field formats at the stack's three points
    NUMBERS = (
        np.array([0.1, -0.0, 5e-324]),
        np.array([np.nan, np.inf, -np.inf]),
        np.array([1e300, -2.5e-17, 123456789012.5]),
        np.array([9.9995e-5, 1.0, -7.0]),
    )
    #: words that need JSON escapes, or look like % fields
    WORDS = np.array(["line\nbreak", 'q"uote \\ back', "%s %d 100% {} \u03c6\x00"])

    @pytest.mark.parametrize(
        "note, values",
        [
            ("e {:.3e} and {:.6e}; g {:.12g}; word {}", (*NUMBERS[:3], WORDS)),
            ("{}{:.3e}{:.6e}{:.12g}", (WORDS, *NUMBERS[1:])),
            ('quote " back \\ 100% {{braces}} \u03c6 \u2264 {:.6e} %d {}', (NUMBERS[3], WORDS)),
            ("{{}} {{{:.12g}}} }}{{", NUMBERS[:1]),
            ("tail {} ignored", (WORDS, *NUMBERS)),
        ],
        ids=["every-spec", "no-literal", "escaped-literal", "braces", "extra-values"],
    )
    def test_value_notes(self, note, values):
        """Every field spec in use, with literal text and words that need
        escaping, formats in the template as str.format and
        encode_basestring do."""
        stack = ReportStack("edge", [{"k": k} for k in range(3)])
        stack.record(1e-10, Check("valued", np.array([0.0, 1.0, 2e-11]), note, values))
        reports = stack.reports()
        for report in reports:
            assert report.to_json() == render_json(report_dict(report))
        assert render_reports(reports) == render_json([report_dict(r) for r in reports])

    @pytest.mark.parametrize("note", ["{0}", "{:.3f}", "{!r}", "{:>8}", "a { b", "a } b"])
    def test_note_without_a_percent_form_is_refused(self, note):
        stack = ReportStack("edge", [{}])
        stack.record(1e-10, Check("valued", np.zeros(1), note, (np.zeros(1),)))
        with pytest.raises(ValueError, match="note"):
            stack.reports()[0].to_json()

    @pytest.mark.parametrize(
        "params, in_template",
        [
            ([{"t": 0.1}, {"t": 1e300}, {"t": -0.0}], True),
            ([{"n": 0}, {"n": -5}, {"n": 2**70}], True),
            ([{"alpha": 'q"\\ 100% \u03c6'}] * 3, True),
            ([{"100%": 1.5, "n": 3, "s": "x"}] * 3, True),
            ([{}, {}, {}], True),
            ([{"s": "x"}, {"s": "y\n"}, {"s": "x"}], False),
            ([{"b": True}, {"b": False}, {"b": True}], False),
            ([{"x": None}] * 3, False),
            ([{"x": {"y": [1, 2.5]}}, {"x": {}}, {"x": []}], False),
            ([{"t": 0.5}, {"t": math.nan}, {"t": -math.inf}], False),
            ([{"t": 1}, {"t": 1.0}, {"t": 2}], False),
            ([{"a": 1}, {"b": 1}, {"a": 1}], False),
            ([{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1, "b": 2}], False),
        ],
        ids=[
            "float", "int", "constant-str", "mixed-layout", "empty", "varying-str", "bool",
            "none", "nested", "non-finite-float", "int-and-float", "other-keys", "key-order",
        ],
    )
    def test_params(self, params, in_template):
        """Finite floats, ints and constant strings join the template; any
        other params render through render_json, with the same bytes."""
        stack = ReportStack("edge", params)
        stack.record(1e-10, Check("fine", np.zeros(len(params)), "fixed"))
        assert (_params_layout(params) is not None) == in_template
        reports = stack.reports()
        for report in reports:
            assert report.to_json() == render_json(report_dict(report))
        assert render_reports(reports) == render_json([report_dict(r) for r in reports])

    def test_mixed_residual_columns(self):
        """A stack whose residual columns are all finite, partly NaN or
        infinite, or all non-finite, at indent 0 and inside a sweep with a
        second stack."""
        columns = [
            np.array([1e-12, 0.5, -0.0, 1e300]),
            np.array([1e-12, np.nan, 3.0, 0.0]),
            np.array([np.inf, 1e-11, -np.inf, 2.0]),
            np.array([np.nan, np.inf, np.nan, -np.inf]),
        ]
        stack = ReportStack("mixed", [{"k": k, "t": 0.25 * k} for k in range(4)])
        stack.record(1e-10, *(Check(f"c{k}", c, "{:.3e}", (c,)) for k, c in enumerate(columns)))
        reports = stack.reports()
        for report in reports:
            assert report.to_json() == render_json(report_dict(report))
        sweep = reports + [edge_report([np.nan, 1e-12], {"k": 9})]
        assert render_reports(sweep) == render_json([report_dict(r) for r in sweep])
        assert [strict_loads(r.to_json())["checks"][1]["residual"] for r in reports] == [
            1e-12, None, 3.0, 0.0
        ]


#: one report of each branch that the battery renders
BRANCH_REPORTS = {
    "three-level-0.3": lambda: three_level_report(0.3),
    "three-level-1.2": lambda: three_level_report(1.2),
    "projection": lambda: projection_report(8, 3),
    "random-real": lambda: random_report(8),
    "random-complex": lambda: random_report(8, seed=2, alpha=geometric(0.9 + 0.2j)),
}


@pytest.mark.parametrize("indent", [0, 1])
@pytest.mark.parametrize("make", BRANCH_REPORTS.values(), ids=BRANCH_REPORTS.keys())
def test_battery_renders_in_one_pass(monkeypatch, make, indent):
    """Each branch's stack template holds the params, formats every
    residual with %.17g and every note value with the field of its kind, %s
    for a str and a number spec for a float: no residual column takes texts
    and no params take render_json.  A note field with no % form raises."""
    templates = []

    def template(*args):
        templates.append(_template(*args))
        return templates[-1]

    monkeypatch.setattr("rieszops.report._template", template)
    report = make()
    report.stack.documents(indent)
    (text,) = templates
    checks = [column.check for column in report.stack.checks]
    assert text.count('"residual": %.17g,') == len(checks)
    assert '"params": {' in text and '"params": %s' not in text
    notes = [line.split('"note": ')[1] for line in text.splitlines() if '"note": ' in line]
    for check, note in zip(checks, notes, strict=True):
        fields = re.findall(r"%(?:\.\d+[eg]|s)", note.replace("%%", ""))
        kinds = [set(map(type, value.ravel().tolist())) for value in check.values]
        assert kinds == [{str} if field == "%s" else {float} for field in fields]


class TestReportContainers:
    def test_results_boundary(self):
        at, above = results(Check("x", np.array([1e-10, 1.1e-10])), 1e-10)
        assert at.passed and not above.passed

    def test_summary_counts(self):
        stack = ReportStack("s", [{}, {}])
        stack.record(1.0, Check("a", np.array([0.0, 1.0])), Check("b", np.array([2.0, np.nan])))
        first, second = stack.reports()
        for report in (first, second):
            assert report.summary == {"total": 2, "passed": 1, "failed": 1}
            assert [c.name for c in report.checks if not c.passed] == ["b"]
            assert not report.all_passed

    def test_non_finite_residuals_fail_and_render_null(self):
        """A stack whose columns mix finite and non-finite residuals: each
        point renders as that point alone, and null stands for every
        residual that is not finite."""
        residuals = np.array([1e-12, np.nan, np.inf, -0.0, 1e300])
        worst = Check.worst("worst", "parts {:.3e} and {:.3e}", residuals, residuals[::-1].copy())
        checks = (Check("mixed", residuals, "100% fixed"), worst, Check("fine", np.zeros(5)))
        stack = ReportStack("edge", [{"k": k} for k in range(5)])
        stack.record(1e-10, *checks)
        reports = stack.reports()
        for k, report in enumerate(reports):
            point = slice(k, k + 1)
            alone = ReportStack("edge", [{"k": k}])
            alone.record(
                1e-10,
                *(
                    c._replace(residual=c.residual[point], values=tuple(v[point] for v in c.values))
                    for c in checks
                ),
            )
            assert report.to_json() == alone.reports()[0].to_json()
        text = render_reports(reports)
        assert text == render_json([report_dict(r) for r in reports])
        docs = strict_loads(text)
        assert [d["checks"][0]["residual"] for d in docs] == [1e-12, None, None, -0.0, 1e300]
        assert [d["checks"][0]["passed"] for d in docs] == [True, False, False, True, False]
        assert [d["summary"]["failed"] for d in docs] == [1, 2, 2, 1, 2]


class TestReportView:
    """A report reads its stack's columns at its index: its CheckResults,
    summary and verdict agree with the recorded columns (test_summary_counts
    covers a NaN residual)."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sweep_three_level(0.8, 1.3, 5),
            lambda: sweep_projection(8, 2, 5, alpha=geometric(0.9 + 0.2j)),
            lambda: [random_report(8, seed=2), random_report(1, seed=1)],
        ],
        ids=["three-level", "projection", "random"],
    )
    def test_checks_are_the_columns(self, make):
        for report in make():
            columns, verdicts, at = report.stack.checks, report.stack.verdicts(), report.index
            expected = [
                CheckResult(
                    c.check.name,
                    bool(verdicts.passed[k, at]),
                    float(c.check.residual.ravel()[at]),
                    c.tol,
                    c.check.notes()[at] if c.check.values else c.check.note,
                )
                for k, c in enumerate(columns)
            ]
            assert verdicts.residuals[:, at].tolist() == [c.residual for c in expected]
            assert report.checks == expected
            passed = sum(c.passed for c in report.checks)
            assert report.summary == {
                "total": len(columns), "passed": passed, "failed": len(columns) - passed
            }
            assert report.all_passed == all(c.passed for c in report.checks)
            assert strict_loads(report.to_json())["summary"] == report.summary


#: check names in report order: the closed-form model blocks, the battery
#: and the ladder block every suite shares, and the three-level ladder checks
_THREE_LEVEL_MODEL = [
    "three_level_H", "three_level_psi", "three_level_S_phi", "three_level_S_psi",
    "three_level_S_phi_sqrt", "three_level_S_psi_sqrt", "three_level_h",
    "three_level_Phi", "norm_T", "norm_T_inv",
]
_PROJECTION_MODEL = [
    "projection_S_phi", "projection_S_phi_sqrt", "projection_S_psi_sqrt",
    "projection_bases", "projection_H_split", "projection_h_block",
]
_BATTERY = [
    "biorthogonality", "frame_inequality", "eigen_action", "weighted_action", "metric_pair",
    "intertwining", "selfadjoint_h", "transported_eigenbasis", "similarity_consistency",
    "norm_bound",
]
#: the check only real alpha runs
_REAL_ALPHA = {"selfadjoint_h"}
_LADDER = ["ladder_actions", "ladder_products", "factorization"]
_THREE_LEVEL = [
    "admissible", *_THREE_LEVEL_MODEL, *_BATTERY, *_LADDER,
    "ladder_adjoint_actions", "hat_spectrum", "printed_ladder_matrices",
]


class TestSuites:
    def test_three_level_has_full_battery(self):
        report = three_level_report(0.3)
        assert report.summary["total"] >= 15
        assert report.all_passed

    def test_inadmissible_parameter_fails_only_admissibility(self):
        # the ladder block and the closed-form ladder rows run and pass at
        # every t: admissible alone records the paper's hypothesis
        report = three_level_report(1.2)
        assert [c.name for c in report.checks if not c.passed] == ["admissible"]
        assert [c.name for c in report.checks] == _THREE_LEVEL

    @pytest.mark.parametrize("t, gap", [(0.0, 1.0), (1.2, 2.0 * math.cos(1.2) - 1.0)])
    def test_admissible_note_records_smallest_gap(self, t, gap):
        (check,) = [c for c in three_level_report(t).checks if c.name == "admissible"]
        assert f"smallest eigenvalue gap {gap:.6e}" in check.note
        assert ("every other check still runs" in check.note) == (not check.passed)

    @pytest.mark.parametrize(
        "make,expected",
        [
            (lambda: three_level_report(0.3), _THREE_LEVEL),
            (lambda: three_level_report(1.2), _THREE_LEVEL),
            (
                lambda: projection_report(8, 3, seed=1),
                [*_PROJECTION_MODEL, *_BATTERY, *_LADDER],
            ),
            (lambda: random_report(8, seed=2), [*_BATTERY, *_LADDER]),
            (
                lambda: random_report(8, seed=2, alpha=geometric(0.9 + 0.2j)),
                [n for n in _BATTERY if n not in _REAL_ALPHA] + _LADDER,
            ),
        ],
        ids=["admissible", "inadmissible", "projection", "random-real", "random-complex"],
    )
    def test_check_names_in_order(self, make, expected):
        """The ordered check list of each report branch."""
        assert [c.name for c in make().checks] == expected

    def test_suites_share_one_battery_order(self):
        """random's checks are the shared battery: projection runs it after
        its 6 closed forms, three-level between its closed forms and its 3
        ladder extras."""
        battery = [c.name for c in random_report(8).checks]
        projection = [c.name for c in projection_report(8, 3).checks]
        three = [c.name for c in three_level_report(0.3).checks]
        assert len(battery) == 13
        assert all(name.startswith("projection_") for name in projection[:6])
        assert projection[6:] == battery
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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag", ["--t-min", "--t-max"])
    def test_sweep_bounds_must_be_finite(self, capsys, flag, value):
        """A non-finite bound stops at the CLI boundary: no grid is built,
        so no numpy warning and no error about a t the user never gave."""
        bounds = {"--t-min": "0.1", "--t-max": "1.0", flag: value}
        argv = ["sweep", "three-level", "--steps", "3"]
        for option, text in bounds.items():
            argv.append(f"{option}={text}")  # -inf is not a negative number to argparse
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: must be finite, got {value}\n")

    @pytest.mark.parametrize("t_min, t_max", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_sweep_of_non_finite_bounds_is_refused(self, t_min, t_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t-min and t-max must be finite"):
                sweep_three_level(t_min, t_max, 3)

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

    def test_overflowing_ladder_product_is_usage_error_without_warnings(self, capsys):
        # gamma and the ladder are finite; the shifted H of gamma_n^2 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            with pytest.raises(SystemExit) as excinfo:
                main(["verify", "random", "--dim", "4", "--gamma", "affine:1e200,0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_overflowing_checks_give_a_strict_document_without_warnings(self, capsys):
        # the operators are finite; four check residuals overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            code = main(["verify", "random", "--dim", "4", "--alpha", "affine:1e300,0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = strict_loads(captured.out)
        nulls = [c["name"] for c in doc["checks"] if c["residual"] is None]
        assert nulls == [
            "frame_inequality", "intertwining", "selfadjoint_h", "similarity_consistency"
        ]
        assert not any(c["passed"] for c in doc["checks"] if c["residual"] is None)

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


_COMMON = {"--tol": "1e-8", "--out": "report.json", "--seed": "2"}
#: each leaf's command words: its options, each with a value it accepts
GRAMMAR = {
    ("verify", "three-level"): {"--t": "0.3", **_COMMON},
    ("verify", "projection"): {
        "--dim": "4", "--n": "2", "--alpha": "poly:2", "--gamma": "harmonic", **_COMMON
    },
    ("verify", "random"): {"--dim": "4", "--alpha": "poly:2", "--gamma": "harmonic", **_COMMON},
    ("sweep", "three-level"): {"--t-min": "0", "--t-max": "1", "--steps": "3", **_COMMON},
    ("sweep", "projection"): {
        "--dim": "4", "--n-min": "2", "--n-max": "3", "--alpha": "poly:2", **_COMMON
    },
    ("domain",): {"--alpha": "poly:1", "--coeff": "geometric:0.5", "--n-max": "64",
                  "--out": "report.json"},
}
#: the options each leaf requires
REQUIRED = {
    ("verify", "three-level"): ("--t",),
    ("sweep", "three-level"): ("--t-max", "--steps"),
    ("sweep", "projection"): ("--n-min", "--n-max"),
    ("domain",): ("--alpha", "--coeff"),
}
#: command words beyond the leaves: bare groups, unknown words, help at the root
OTHER_COMMANDS = (
    (), ("verify",), ("sweep",), ("nope",), ("verify", "nope"), ("sweep", "random"),
    ("domain", "projection"), ("-h",), ("--help",), ("verify", "-h"), ("--", "domain"),
)
#: every option of every leaf, abbreviations, an unknown option, help, "--"
#: and an option joined to its value
OPTIONS = (
    "--t", "--dim", "--n", "--alpha", "--gamma", "--tol", "--out", "--seed", "--t-min",
    "--t-max", "--steps", "--n-min", "--n-max", "--coeff", "--al", "--st", "--bogus",
    "-h", "--", "--alpha=poly:1",
)
#: values some option accepts and some rejects: out of range, not finite,
#: not a number, not a spec, empty, negative numbers, an option
VALUES = (
    "0", "1", "2", "3", "8", "64", "65", "-1", "0.3", "7.0", "1000", "1001", "4096", "63",
    "nan", "inf", "1e-17", "abc", "poly:1", "garbage", "--bogus", "junk", "", "-0.5",
    "-1e-3", "--seed",
)


def well_formed(command) -> list[str]:
    """The command words and each required option with a value it accepts."""
    return [*command, *(w for o in REQUIRED.get(command, ()) for w in (o, GRAMMAR[command][o]))]


@st.composite
def argvs(draw):
    """An argv of the CLI grammar: command words; for a leaf, its required
    options (each may be left out) and some of its other options, each with
    a value it accepts or any value; then maybe any options and values, and
    a trailing word."""
    command = draw(st.sampled_from([*GRAMMAR] * 3 + list(OTHER_COMMANDS)))
    words = list(command)
    grammar = GRAMMAR.get(command, {})
    chosen = [o for o in REQUIRED.get(command, ()) if draw(st.integers(0, 5)) < 5]
    if grammar:
        chosen += draw(st.lists(st.sampled_from(list(grammar)), max_size=3))
    for option in chosen:
        words += [option, draw(st.sampled_from((grammar[option],) * 24 + VALUES))]
    if draw(st.integers(0, 3)) == 3:
        words += draw(st.lists(st.sampled_from(OPTIONS + VALUES), min_size=1, max_size=3))
    return words


def outcome(parse, argv):
    """parse(argv)'s Namespace or SystemExit code, and what it wrote to
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


#: argv whose words after the command words are not well formed, so the
#: match hands them to the root parser, though argparse accepts most of them
HANDED_TO_THE_ROOT = {
    "joined": ["domain", "--alpha=poly:1", "--coeff", "harmonic"],
    "empty value": ["domain", "--alpha", "", "--coeff", "harmonic"],
    "negative value": ["verify", "three-level", "--t", "-0.5"],
    "negative exponent": ["sweep", "three-level", "--t-min", "-1e-3", "--t-max", "1",
                          "--steps", "3"],
    "negative tol": ["verify", "random", "--tol", "-0.5"],
    "option as value": ["domain", "--alpha", "--coeff", "--coeff", "harmonic"],
    "repeated": ["domain", "--alpha", "poly:1", "--coeff", "harmonic", "--alpha", "poly:2"],
    "repeated default": ["verify", "random", "--dim", "4", "--dim", "5"],
    "missing value": ["verify", "random", "--dim"],
    "missing required": ["domain", "--alpha", "poly:1"],
    "rejected value": ["verify", "random", "--dim", "65"],
    "abbreviation": ["sweep", "three-level", "--t-m", "1", "--steps", "3"],
}


def leaf_parsers(parser=None, words=()):
    """Each leaf of the argparse tree under parser (the root by default) by
    its command words, found by walking the subparser actions."""
    parser = build_parser() if parser is None else parser
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return {words: parser}
    return {
        key: leaf
        for group in groups
        for name, sub in group.choices.items()
        for key, leaf in leaf_parsers(sub, (*words, name)).items()
    }


class TestDispatch:
    """parse_args gives what the root parser gives, and a well-formed argv
    is matched against its leaf's option table, without argparse."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(argvs())
    def test_dispatch_matches_the_root_parser(self, argv):
        assert outcome(parse_args, argv) == outcome(build_parser().parse_args, argv)

    @pytest.mark.parametrize("command", list(GRAMMAR), ids=" ".join)
    def test_well_formed_argv_skips_the_root(self, monkeypatch, capsys, command):
        argv = well_formed(command)
        expected = build_parser().parse_args(argv)

        def walked(*args, **kwargs):
            raise AssertionError("the root parser walked the tree")

        monkeypatch.setattr(build_parser(), "parse_args", walked)
        assert parse_args(argv) == expected
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("form", list(HANDED_TO_THE_ROOT))
    def test_irregular_argv_goes_to_the_root(self, monkeypatch, form):
        argv = HANDED_TO_THE_ROOT[form]
        expected = outcome(build_parser().parse_args, argv)
        calls = []
        root = build_parser().parse_args

        def counted(words):
            calls.append(words)
            return root(words)

        monkeypatch.setattr(build_parser(), "parse_args", counted)
        assert outcome(parse_args, argv) == expected
        assert calls == [argv]

    def test_each_table_holds_exactly_its_leafs_options(self):
        """Every option of every leaf but -h takes one value and is in the
        leaf's table, so no option is parsed by argparse alone."""
        leaves, tables = leaf_parsers(), _parsers()[1]
        assert leaves.keys() == tables.keys()
        for words, leaf in leaves.items():
            actions = [a for a in leaf._actions if not isinstance(a, argparse._HelpAction)]
            for action in actions:
                assert type(action) is argparse._StoreAction, (words, action.option_strings)
                assert action.nargs is None and action.choices is None
                assert len(action.option_strings) == 1
            assert tables[words].options == {a.option_strings[0]: a for a in actions}, words
            assert tables[words].required == {a.dest for a in actions if a.required}

    def test_no_option_has_a_str_default_and_a_type(self):
        """argparse converts a str default with the option's type when the
        option is absent; the match does not, so no option may have both."""
        for words, leaf in leaf_parsers().items():
            for action in leaf._actions:
                assert not (isinstance(action.default, str) and action.type), (
                    words, action.option_strings
                )


class TestSuiteTable:
    """SUITES builds every suite leaf, and main calls each leaf's function by
    name on the suites module with the leaf's dests as keyword arguments."""

    def test_table_rows_are_the_suite_leaves(self):
        assert set(SUITES) == set(leaf_parsers()) - {("domain",)}
        assert set(SUITES) == set(GRAMMAR) - {("domain",)}

    @pytest.mark.parametrize("words", list(SUITES), ids=" ".join)
    def test_main_calls_the_function_patched_on_suites(self, monkeypatch, capsys, words):
        """A table that held function objects would miss a patch (or a
        tracer's wrapper) put on the suites module after import."""
        name, calls = SUITES[words][1], []
        function = getattr(suites, name)
        monkeypatch.setattr(
            suites, name, lambda **kwargs: calls.append(kwargs) or function(**kwargs)
        )
        assert main(well_formed(words)) == 0
        assert json.loads(capsys.readouterr().out)
        assert len(calls) == 1

    @pytest.mark.parametrize("words", list(SUITES), ids=" ".join)
    def test_dests_match_the_function_signature(self, words):
        """Every dest but out is a parameter of the leaf's function, and
        every parameter without a default is a dest."""
        leaf = leaf_parsers()[words]
        dests = {a.dest for a in leaf._actions if not isinstance(a, argparse._HelpAction)}
        parameters = inspect.signature(getattr(suites, SUITES[words][1])).parameters
        assert dests - {"out"} <= parameters.keys(), words
        required = {n for n, p in parameters.items() if p.default is inspect.Parameter.empty}
        assert required <= dests, words


def domain_specs():
    """DOMAIN_SPECS of perfbench/workloads.py, read from its source."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    (value,) = (
        node.value
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "DOMAIN_SPECS"
    )
    return ast.literal_eval(value)


@pytest.mark.parametrize("command", list(GRAMMAR), ids=" ".join)
def test_out_writes_the_bytes_of_stdout(tmp_path, capsys, command):
    """--out holds the bytes stdout gets for the same argv; an --out in a
    missing directory exits 2 with the OSError's text and leaves no file."""
    argv = well_formed(command)
    code = main(argv)
    stdout = capsys.readouterr().out
    target = tmp_path / "out.json"
    assert main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == stdout.encode()

    missing = tmp_path / "missing" / "out.json"
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--out", str(missing)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"rieszops: error: [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert not missing.parent.exists()


def test_out_over_a_longer_file_leaves_only_the_new_bytes(tmp_path, capsys):
    argv = ["domain", "--alpha", "poly:1", "--coeff", "geometric:0.5"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / "out.json"
    target.write_bytes(b"x" * (4 * len(stdout)))
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_bytes() == stdout.encode()


def test_out_survives_short_writes(tmp_path, capsys, monkeypatch):
    argv = ["domain", "--alpha", "poly:1", "--coeff", "geometric:0.5"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
    target = tmp_path / "out.json"
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_bytes() == stdout.encode()


def test_out_file_mode_is_what_open_gives(tmp_path):
    umask = os.umask(0o002)
    try:
        target = tmp_path / "out.json"
        main(["domain", "--alpha", "poly:1", "--coeff", "geometric:0.5", "--out", str(target)])
        with open(tmp_path / "by-open.json", "wb"):
            pass
    finally:
        os.umask(umask)
    mode = stat.S_IMODE(target.stat().st_mode)
    assert mode == 0o666 & ~0o002 == stat.S_IMODE((tmp_path / "by-open.json").stat().st_mode)


def test_report_params_keep_every_digit_of_a_spec(capsys):
    assert main(["verify", "random", "--dim", "4", "--alpha", "geometric:0.9999999"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["alpha"] == "geometric:0.9999999"


class TestAffineOverflow:
    """An affine weight whose terms a n + b overflow past some index: the
    domain command logs them as log |a| + log |n + b/a|."""

    def test_summable_product_exits_zero(self, capsys):
        # every log term is finite; the sum itself, about 2.5e609, is not a
        # float, so partial_sum is null
        argv = ["domain", "--alpha", "affine:1e305,0", "--coeff", "geometric:0.5",
                "--n-max", "4096"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = strict_loads(captured.out)
        assert doc["verdict"] == "converged"
        assert doc["partial_sum"] is None and doc["tail_ratio"] == 0.0

    def test_representable_sum_gives_a_strict_document(self, capsys):
        argv = ["domain", "--alpha", "affine:1e305,0", "--coeff", "geometric:1e-160",
                "--n-max", "4096"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["verdict"] == "converged"
        assert doc["partial_sum"] == pytest.approx(1e290, rel=1e-12)


class TestLogOverflow:
    """A domain spec whose log terms overflow is a usage error, as verify
    makes of terms that overflow; a product whose doubled log overflows is
    summed to a diverged verdict with a null partial sum.  Neither warns."""

    @pytest.mark.parametrize("alpha,coeff,bad", [
        ("poly:1e308", "poly:1e308", "'poly:1e+308' term 7"),
        ("sqrt-poly:1e308", "geometric:0", "'sqrt-poly:1e+308' term 37"),
        ("geometric:1.7e308+1.7e308j", "poly:1", "'geometric:1.7e+308+1.7e+308j' term 1"),
    ], ids=["poly", "sqrt-poly", "complex-geometric"])
    def test_log_that_overflows_is_usage_error(self, capsys, alpha, coeff, bad):
        argv = ["domain", "--alpha", alpha, "--coeff", coeff, "--n-max", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rieszops: error: sequence {bad} is not finite\n"

    def test_doubled_log_that_overflows_diverges(self, capsys):
        argv = ["domain", "--alpha", "poly:1e307", "--coeff", "poly:1e307", "--n-max", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = strict_loads(captured.out)
        assert doc["verdict"] == "diverged"
        assert doc["partial_sum"] is None


#: 0 and +-[5e-324, 1e308], as spec text
_SPEC_NUMBERS = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 1e308),
    st.floats(-1e308, -5e-324),
).map(repr)
_DOMAIN_SPECS = st.one_of(
    st.just("harmonic"),
    st.builds("poly:{}".format, _SPEC_NUMBERS),
    st.builds("sqrt-poly:{}".format, _SPEC_NUMBERS),
    st.builds("geometric:{}".format, _SPEC_NUMBERS),
    st.builds("geometric:{}{}j".format, _SPEC_NUMBERS, _SPEC_NUMBERS.map(
        lambda x: x if x[0] == "-" else "+" + x
    )),
    st.builds("affine:{},{}".format, _SPEC_NUMBERS, _SPEC_NUMBERS),
    st.lists(_SPEC_NUMBERS, min_size=1, max_size=4).map(lambda v: "list:" + ",".join(v)),
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_DOMAIN_SPECS, _DOMAIN_SPECS, st.sampled_from(["64", "100", "4096", "32768"]))
def test_domain_exits_2_or_emits_strict_json_silently(alpha, coeff, n_max):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(["domain", "--alpha", alpha, "--coeff", coeff, "--n-max", n_max])
            except SystemExit as exc:
                code = exc.code
    assert not caught
    if code == 2:
        assert out.getvalue() == ""
    else:
        assert code == 0 and err.getvalue() == ""
        assert strict_loads(out.getvalue())["verdict"] in ("converged", "diverged", "inconclusive")


def test_domain_document_matches_asdict(tmp_path, capsys):
    """The domain document on stdout and in --out is render_json of its
    params and dataclasses.asdict(verdict), byte for byte, on every spec
    pair of the domain-grid workload at n-max 64, 4096 and 16384, and on
    the pair whose sum overflows, which prints null."""
    specs = domain_specs()
    assert len(specs) ** 2 == 64
    cases = [(a, c, n) for n in (64, 4096, 16384) for a in specs for c in specs]
    cases.append(("geometric:1.01", "geometric:1.01", 32768))
    target = tmp_path / "domain.json"
    for alpha, coeff, n_max in cases:
        argv = ["domain", "--alpha", alpha, "--coeff", coeff, "--n-max", str(n_max)]
        verdict = summability_verdict(parse_spec(alpha), parse_spec(coeff), n_max)
        params = {"alpha": alpha, "coeff": coeff, "n_max": n_max}
        doc = {"suite": "domain", "params": params} | dataclasses.asdict(verdict)
        expected = render_json(doc) + "\n"
        assert main(argv) == 0
        assert capsys.readouterr().out == expected, argv
        assert main([*argv, "--out", str(target)]) == 0
        assert target.read_bytes() == expected.encode(), argv
    assert '"partial_sum": null' in expected
