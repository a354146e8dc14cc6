import json

import pytest
from click.testing import CliRunner

from conftest import fixture_path
from qsodyn.cli import ABSCONT_M_MAX, EXIT_PARSE, EXIT_VALIDATION, main


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def assert_validation_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == EXIT_VALIDATION, result.output
    assert json.loads(result.stderr)["error"] == "validation_error"


class TestValidate:
    def test_clean_fixture(self, runner):
        payload = run_json(runner, ["validate", "--spec", fixture_path("va_a05")])
        assert payload["result"]["tensor_valid"]
        assert not payload["result"]["numeric_b_verdict"]["violated"]
        assert payload["spec_hash"]
        assert payload["tool_version"]

    def test_parse_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["validate", "--spec", str(bad)])
        assert result.exit_code == EXIT_PARSE
        err = json.loads(result.stderr)
        assert err["error"] == "parse_error"

    def test_validation_error_exit_code(self, runner, tmp_path):
        spec = tmp_path / "invalid.json"
        spec.write_text(
            json.dumps(
                {"n": 2, "coefficients": [{"i": 1, "j": 1, "k": 1, "p": 0.5}]}
            )
        )
        result = runner.invoke(main, ["validate", "--spec", str(spec)])
        assert result.exit_code == EXIT_VALIDATION
        err = json.loads(result.stderr)
        assert err["error"] == "validation_error"

    @pytest.mark.parametrize(
        "spec",
        [
            {"n": 3, "coefficients": 5},
            {"va": {"a": True}},
            {"n": 2, "coefficients": [{"i": 1, "j": 2, "k": 2, "p": 0.5}, {"i": 1, "j": 2, "k": 2, "p": 0.5}]},
            {"n": 2, "coefficients": [{"i": 1.7, "j": True, "k": "2", "p": True}]},
        ],
        ids=["coefficients_not_a_list", "boolean_a", "duplicate_record", "coerced_record_fields"],
    )
    def test_malformed_spec_is_a_parse_error(self, runner, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["validate", "--spec", str(path)])
        assert result.exit_code == EXIT_PARSE, result.output
        assert json.loads(result.stderr)["error"] == "parse_error"

    def test_verdict_matches_classify(self, runner):
        args = ["--spec", fixture_path("uniqueness_sufficiency_gap"), "--seed", "5"]
        validated = run_json(runner, ["validate", *args])["result"]
        classified = run_json(runner, ["classify", *args])["result"]
        assert validated["numeric_b_verdict"] == classified["numeric_b_verdict"]
        assert validated["necessary_conditions"] == classified["necessary_conditions"]


class TestClassify:
    def test_non_finite_coefficient(self, runner, tmp_path):
        spec = tmp_path / "nan.json"
        spec.write_text(
            '{"n": 2, "coefficients": [{"i": 1, "j": 1, "k": 1, "p": NaN}, '
            '{"i": 1, "j": 1, "k": 2, "p": 0.5}, {"i": 1, "j": 2, "k": 2, "p": 1.0}, '
            '{"i": 2, "j": 2, "k": 2, "p": 1.0}]}'
        )
        assert_validation_error(runner, ["classify", "--spec", str(spec)])

    def test_example_report(self, runner):
        payload = run_json(
            runner, ["classify", "--spec", fixture_path("attracting_not_unique")]
        )
        r = payload["result"]
        assert r["vertex_stability"] == "attracting"
        assert r["uniqueness_conditions_met"] is False
        assert r["contraction"]["is_strict"] is False

    def test_deterministic_output(self, runner):
        args = ["classify", "--spec", fixture_path("va_a23"), "--seed", "5"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_negative_seed(self, runner, command):
        assert_validation_error(runner, [command, "--spec", fixture_path("va_a05"), "--seed", "-1"])


class TestIterate:
    def test_csv_columns(self, runner):
        result = runner.invoke(
            main,
            ["iterate", "--spec", fixture_path("va_a23"), "--x", "0.99,0.01"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "step,x_1,x_2,U_1,step_l1"
        last = lines[-1].split(",")
        assert float(last[1]) <= 1e-10

    @pytest.mark.parametrize("steps", [0, 1, 50])
    def test_fixed_step_count(self, runner, steps):
        """--steps N prints rows 0..N even after the step size has fallen
        below --tol, and the rows the tolerance run prints are its first."""
        args = ["iterate", "--spec", fixture_path("va_a05"), "--x", "0.1,0.9"]
        fixed = runner.invoke(main, [*args, "--steps", str(steps)])
        assert fixed.exit_code == 0
        rows = fixed.output.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(k) for k in range(steps + 1)]
        stopped = runner.invoke(main, args).output.splitlines()[1:]
        assert len(stopped) < 51
        assert rows[: len(stopped)] == stopped[: len(rows)]

    def test_dimension_mismatch(self, runner):
        result = runner.invoke(
            main, ["iterate", "--spec", fixture_path("va_a05"), "--x", "0.2,0.3,0.5"]
        )
        assert result.exit_code == EXIT_VALIDATION

    def test_non_finite_start(self, runner):
        assert_validation_error(
            runner, ["iterate", "--spec", fixture_path("va_a05"), "--x", "nan,0.5"]
        )

    @pytest.mark.parametrize("option", [["--tol", "0"], ["--steps", "-2"], ["--max-iter", "-1"]])
    def test_out_of_range(self, runner, option):
        assert_validation_error(
            runner, ["iterate", "--spec", fixture_path("va_a05"), "--x", "0.5,0.5", *option]
        )


class TestFixedPoints:
    def test_three_points(self, runner):
        payload = run_json(
            runner, ["fixed-points", "--spec", fixture_path("attracting_not_unique")]
        )
        pts = {tuple(round(c, 9) for c in p["coords"]) for p in payload["result"]["points"]}
        assert pts == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
        assert all(p["residual_l1"] <= 1e-9 for p in payload["result"]["points"])

    def test_diagnostics(self, runner):
        payload = run_json(
            runner, ["fixed-points", "--spec", fixture_path("attracting_not_unique")]
        )
        # 28 grid seeds at resolution 6, 3 vertices (also on the grid) and the barycenter
        assert payload["result"]["diagnostics"] == {
            "seeds_tried": 32,
            "seeds_converged": 32,
            "rejected_by_residual": 0,
            "merged": 29,
            "newton_steps": 26,
        }

    def test_negative_tol(self, runner):
        assert_validation_error(
            runner, ["fixed-points", "--spec", fixture_path("va_a05"), "--tol", "-1"]
        )


class TestMarkov:
    def test_matrices_and_measures(self, runner):
        payload = run_json(
            runner,
            ["markov", "--spec", fixture_path("va_a05"), "--x", "0.5,0.5", "--horizon", "3"],
        )
        r = payload["result"]
        assert r["transition_matrices"]["0"] == [[0.25, 0.75], [0.0, 1.0]]
        assert r["cylinder_measures"]["[0,1](1,1)"] == pytest.approx(0.125)
        assert r["cylinder_measures"]["[0,1](2,1)"] == 0.0

    def test_negative_horizon(self, runner):
        assert_validation_error(
            runner,
            ["markov", "--spec", fixture_path("va_a05"), "--x", "0.5,0.5", "--horizon", "-3"],
        )


class TestMixing:
    def test_series_csv(self, runner):
        result = runner.invoke(
            main,
            [
                "mixing",
                "--spec",
                fixture_path("va_a05"),
                "--x",
                "0.5,0.5",
                "--A",
                "0:1",
                "--B",
                "0:1",
                "--m-max",
                "8",
            ],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "m,tau_m,bound_m"
        taus = [float(line.split(",")[1]) for line in lines[1:]]
        assert taus[-1] < 1e-10

    def test_bad_cylinder_syntax(self, runner):
        result = runner.invoke(
            main,
            ["mixing", "--spec", fixture_path("va_a05"), "--x", "0.5,0.5", "--A", "oops", "--B", "0:1"],
        )
        assert result.exit_code == EXIT_VALIDATION

    @pytest.mark.parametrize("x,m_max", [("0.5,0.5", "0"), ("0.2,0.3,0.5", "12")])
    def test_bad_arguments(self, runner, x, m_max):
        assert_validation_error(
            runner,
            ["mixing", "--spec", fixture_path("va_a05"), "--x", x, "--A", "0:1", "--B", "0:1", "--m-max", m_max],
        )

    @pytest.mark.parametrize("a,b", [("0:1", "0:0"), ("0:1", "0:1,0"), ("0:3", "0:1"), ("0:1", "0:3")])
    def test_state_out_of_range(self, runner, a, b):
        assert_validation_error(
            runner, ["mixing", "--spec", fixture_path("va_a05"), "--x", "0.5,0.5", "--A", a, "--B", b]
        )


class TestAbscont:
    def test_equivalent_both_directions(self, runner):
        for x, y in [("0.3,0.7", "0.6,0.4"), ("0.6,0.4", "0.3,0.7")]:
            payload = run_json(
                runner,
                ["abscont", "--a", "0.5", "--x", x, "--y", y, "--m-max", "12"],
            )
            assert payload["result"]["classification"] == "equivalent_evidence"

    def test_discrepancy_log_present(self, runner):
        payload = run_json(
            runner,
            ["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4", "--m-max", "6"],
        )
        assert payload["result"]["closed_form_discrepancies"]

    @pytest.mark.parametrize("m_max", [str(ABSCONT_M_MAX + 1), "3000"])
    def test_m_max_bounded(self, runner, m_max):
        assert_validation_error(
            runner, ["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4", "--m-max", m_max]
        )

    def test_csv_format(self, runner):
        result = runner.invoke(
            main,
            ["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4", "--format", "csv"],
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "m,K_term,Khat_term,partial_sum"


def test_out_directory(runner, tmp_path):
    out = tmp_path / "reports"
    result = runner.invoke(
        main,
        ["validate", "--spec", fixture_path("va_a05"), "--out", str(out)],
    )
    assert result.exit_code == 0
    assert (out / "validate.json").exists()
