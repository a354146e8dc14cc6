import json

import pytest
from click.testing import CliRunner

from conftest import fixture_path, load_fixture
from qsodyn.classify import verify_bbistochastic_numeric
from qsodyn.cli import ABSCONT_M_MAX, EXIT_PARSE, EXIT_VALIDATION, main
from qsodyn.operator import FIXED_POINT_TOL, _multistart
from qsodyn.specfile import load_spec


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

    def test_non_utf8_spec_is_a_parse_error(self, runner, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + '{"n": 2}'.encode("utf-16-le"))
        result = runner.invoke(main, ["validate", "--spec", str(bad)])
        assert result.exit_code == EXIT_PARSE
        err = json.loads(result.stderr)
        assert err["error"] == "parse_error"
        assert "utf-8" in err["message"]

    def test_validation_error_exit_code(self, runner, tmp_path):
        """A tensor that does not normalize, and a family weight outside [0, 1]."""
        spec = tmp_path / "invalid.json"
        for data in ({"n": 2, "coefficients": [{"i": 1, "j": 1, "k": 1, "p": 0.5}]}, {"va": {"a": 1.5}}):
            spec.write_text(json.dumps(data))
            result = runner.invoke(main, ["validate", "--spec", str(spec)])
            assert result.exit_code == EXIT_VALIDATION
            err = json.loads(result.stderr)
            assert err["error"] == "validation_error"

    def test_index_out_of_range_is_a_validation_error(self, runner, tmp_path):
        spec = tmp_path / "out_of_range.json"
        spec.write_text(json.dumps({"n": 2, "coefficients": [{"i": 1, "j": 1, "k": 3, "p": 0.5}]}))
        result = runner.invoke(main, ["validate", "--spec", str(spec)])
        assert result.exit_code == EXIT_VALIDATION
        assert "index (1,1,3) out of range for n=2" in json.loads(result.stderr)["message"]

    @pytest.mark.parametrize(
        "spec",
        [
            {"n": 3, "coefficients": 5},
            {"va": {"a": True}},
            {"n": 2, "coefficients": [{"i": 1, "j": 2, "k": 2, "p": 0.5}, {"i": 1, "j": 2, "k": 2, "p": 0.5}]},
            {"n": 2, "coefficients": [{"i": 1.7, "j": True, "k": "2", "p": True}]},
            [1, 2],
        ],
        ids=["coefficients_not_a_list", "boolean_a", "duplicate_record", "coerced_record_fields", "not_an_object"],
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
        assert r["proven_fixed_points"] == [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]

    def test_no_proven_set_where_the_check_does_not_apply(self, runner, tmp_path):
        """p[2,2,2] < 1: the last vertex is not fixed and nothing is proven."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 2, "coefficients": [
            {"i": 1, "j": 1, "k": 1, "p": 0.5}, {"i": 1, "j": 1, "k": 2, "p": 0.5},
            {"i": 1, "j": 2, "k": 1, "p": 0.5}, {"i": 1, "j": 2, "k": 2, "p": 0.5},
            {"i": 2, "j": 2, "k": 1, "p": 0.3}, {"i": 2, "j": 2, "k": 2, "p": 0.7},
        ]}))
        assert run_json(runner, ["classify", "--spec", str(spec)])["result"]["proven_fixed_points"] is None

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

    @pytest.mark.parametrize(
        "option",
        [["--tol", "0"], ["--steps", "-2"], ["--max-iter", "-1"], ["--tol", "inf"], ["--tol", "1e400"]],
    )
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
        """The coefficients decide the fixture, so the report's search
        counters read 0; the search itself still finds the set."""
        payload = run_json(
            runner, ["fixed-points", "--spec", fixture_path("attracting_not_unique")]
        )
        assert payload["result"]["diagnostics"] == {
            "seeds_tried": 0,
            "seeds_converged": 0,
            "rejected_by_residual": 0,
            "merged": 0,
            "newton_steps": 0,
            "method": "coefficient_theorem",
        }
        # the 28 points of the resolution-6 grid, which hold the 3 vertices and the barycenter
        assert _multistart(load_fixture("attracting_not_unique").build(), FIXED_POINT_TOL).diagnostics == {
            "seeds_tried": 28,
            "seeds_converged": 28,
            "rejected_by_residual": 0,
            "merged": 25,
            "newton_steps": 25,
            "method": "multistart",
        }

    def test_non_hyperbolic_terminal_vertex_is_the_only_point(self, runner, tmp_path):
        """Both vertex eigenvalues 2 p[k,3,k] are 1, so V(x) - x is quadratic
        near e_3 and the search accepts points up to 2.5e-3 from it by their
        residual. The coefficients prove that e_3 is the only fixed point.

        Like the second operator here, which breaks no clause, it lies
        outside the order-bound class: the sampled verifier finds the order
        violated at (0.025, 0, 0.975), k = 2, on both. So the coefficient
        theorem decides Fix(V) where order_bound does not hold."""
        non_hyperbolic = {
            (1, 1): (0.2, 0.1, 0.7),
            (1, 2): (0.5, 0.1, 0.4),
            (1, 3): (0.5, 0.2, 0.3),
            (2, 2): (0.0, 0.2, 0.8),
            (2, 3): (0.0, 0.5, 0.5),
            (3, 3): (0.0, 0.0, 1.0),
        }
        no_violation = {
            (1, 1): (0.5, 0.25, 0.25),
            (1, 2): (0.25, 0.5, 0.25),
            (1, 3): (0.3, 0.3, 0.4),
            (2, 2): (0.0, 0.5, 0.5),
            (2, 3): (0.0, 0.25, 0.75),
            (3, 3): (0.0, 0.0, 1.0),
        }
        for name, rows in [("non_hyperbolic", non_hyperbolic), ("no_violation", no_violation)]:
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps({
                "n": 3,
                "coefficients": [
                    {"i": i, "j": j, "k": k, "p": p}
                    for (i, j), row in rows.items()
                    for k, p in enumerate(row, start=1)
                ],
            }))
            V = load_spec(str(spec)).build()
            assert not any(V.clauses.necessary.values()) and not V.clauses.order_bound, name
            verdict = verify_bbistochastic_numeric(V)
            assert (verdict.violated, verdict.witness_point.coords, verdict.violating_k) == (True, (0.025, 0.0, 0.975), 2)
            result = run_json(runner, ["fixed-points", "--spec", str(spec)])["result"]
            assert result["points"] == [{"coords": [0.0, 0.0, 1.0], "residual_l1": 0.0}], name
            assert result["diagnostics"]["method"] == "coefficient_theorem"
        # the second breaks no uniqueness bound, and the search finds e_3 alone there too
        assert (V.clauses.violations, V.clauses.C) == ([], [])
        assert [p.coords for p in _multistart(V, FIXED_POINT_TOL).points] == [(0.0, 0.0, 1.0)]

    def test_negative_tol(self, runner):
        assert_validation_error(
            runner, ["fixed-points", "--spec", fixture_path("va_a05"), "--tol", "-1"]
        )

    @pytest.mark.parametrize("tol", ["inf", "1e400"])
    def test_non_finite_tol(self, runner, tol):
        """An infinite tolerance would accept every polished row, and print
        as the non-JSON token Infinity."""
        assert_validation_error(
            runner, ["fixed-points", "--spec", fixture_path("va_a23"), "--tol", tol]
        )

    @pytest.mark.parametrize("tol", ["2", "1e300"])
    def test_tol_of_two_or_more(self, runner, tol):
        """An l1 residual on the simplex is at most 2: from 2 on every
        polished row would pass."""
        assert_validation_error(
            runner, ["fixed-points", "--spec", fixture_path("va_a23"), "--tol", tol]
        )

    def test_tol_just_below_two(self, runner):
        payload = run_json(runner, ["fixed-points", "--spec", fixture_path("va_a23"), "--tol", "1.999"])
        assert payload["config"]["tol"] == 1.999


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

    def test_one_row_per_shift(self, runner):
        result = runner.invoke(
            main,
            ["mixing", "--spec", fixture_path("va_a05"), "--x", "0.5,0.5", "--A", "0:1", "--B", "0:1", "--m-max", "4"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "m,tau_m,bound_m"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]

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

    def test_negative_window_start(self, runner):
        result = runner.invoke(main, ["mixing", "--spec", fixture_path("va_a05"), "--x", "0.5,0.5",
                                      "--A", "-1:1", "--B", "0:1"])
        assert result.exit_code == EXIT_VALIDATION, result.output
        err = json.loads(result.stderr)
        assert err["error"] == "validation_error"
        assert "window start must be >= 0" in err["message"]

    @pytest.mark.parametrize("m_max, first", [("2", 4), ("3", 4)])
    def test_no_shift_puts_b_after_a(self, runner, m_max, first):
        """A's window ends at time 3, so the first shift of B = 0:1 after it
        is m = 4: below that there is no term to print."""
        result = runner.invoke(main, ["mixing", "--spec", fixture_path("va_a05"), "--x", "0.5,0.5",
                                      "--A", "0:1,1,1,1", "--B", "0:1", "--m-max", m_max])
        assert result.exit_code == EXIT_VALIDATION, result.output
        err = json.loads(result.stderr)
        assert err["error"] == "validation_error"
        assert f"the first is m = {first}" in err["message"]


class TestAbscont:
    def test_equivalent_both_directions(self, runner):
        for x, y in [("0.3,0.7", "0.6,0.4"), ("0.6,0.4", "0.3,0.7")]:
            payload = run_json(
                runner,
                ["abscont", "--a", "0.5", "--x", x, "--y", y, "--m-max", "12"],
            )
            assert payload["result"]["classification"] == "equivalent_evidence"

    def test_verdict_does_not_move_with_the_horizon(self, runner):
        """Once singular at 12 terms and equivalent at 40: its 12th term is
        still 0.02, yet the series converges, as the numerator never stays."""
        verdicts = {
            run_json(
                runner,
                ["abscont", "--a", "0.999", "--x", "0,1", "--y", "1,0", "--m-max", m_max],
            )["result"]["classification"]
            for m_max in ("12", "40")
        }
        assert verdicts == {"equivalent_evidence"}

    def test_discrepancy_log_present(self, runner):
        payload = run_json(
            runner,
            ["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4", "--m-max", "6"],
        )
        assert payload["result"]["closed_form_discrepancies"]

    @pytest.mark.parametrize("m_max", [str(ABSCONT_M_MAX + 1), "3000", "1"])
    def test_m_max_bounded(self, runner, m_max):
        assert_validation_error(
            runner, ["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4", "--m-max", m_max]
        )

    def test_a_outside_the_family(self, runner):
        assert_validation_error(runner, ["abscont", "--a", "1.5", "--x", "0.3,0.7", "--y", "0.6,0.4"])

    def test_csv_format(self, runner):
        result = runner.invoke(
            main,
            ["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4", "--m-max", "5", "--format", "csv"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "m,K_term,Khat_term,partial_sum"
        assert len(lines) == 6

    def test_report_fields(self, runner):
        r = run_json(
            runner, ["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4", "--m-max", "4"]
        )["result"]
        assert r["numerator"] == {"a": 0.5, "x1": 0.3}
        assert r["denominator"] == {"a": 0.5, "x1": 0.6}
        assert [t["m"] for t in r["terms"]] == [1, 2, 3, 4]


SPEC = ["--spec", fixture_path("va_a05")]
ABSCONT_ARGS = ["abscont", "--a", "0.5", "--x", "0.3,0.7", "--y", "0.6,0.4"]


@pytest.mark.parametrize(
    "args,filename",
    [
        (["validate", *SPEC], "validate.json"),
        (["classify", *SPEC], "classify.json"),
        (["fixed-points", *SPEC], "fixed_points.json"),
        (["markov", *SPEC, "--x", "0.5,0.5", "--horizon", "3"], "markov.json"),
        (["iterate", *SPEC, "--x", "0.5,0.5"], "iterate.csv"),
        (["mixing", *SPEC, "--x", "0.5,0.5", "--A", "0:1", "--B", "0:1"], "mixing.csv"),
        (ABSCONT_ARGS, "abscont.json"),
        ([*ABSCONT_ARGS, "--format", "csv"], "abscont.csv"),
        (["validate", *SPEC], None),
    ],
    ids=[
        "validate", "classify", "fixed-points", "markov", "iterate", "mixing", "abscont-json", "abscont-csv",
        "existing-file",
    ],
)
def test_out_directory(runner, tmp_path, args, filename):
    """With --out, a command prints nothing and writes exactly the bytes it
    prints without --out, to one file named after the command. An --out
    that names an existing file (filename None) is a validation error that
    leaves the file as it was."""
    out = tmp_path / "reports"
    if filename is None:
        out.write_text("kept")
        assert_validation_error(runner, [*args, "--out", str(out)])
        assert out.read_text() == "kept"
        return
    printed = runner.invoke(main, args)
    assert printed.exit_code == 0, printed.output
    written = runner.invoke(main, [*args, "--out", str(out)])
    assert written.exit_code == 0, written.output
    assert written.stdout_bytes == b""
    assert [p.name for p in out.iterdir()] == [filename]
    assert (out / filename).read_bytes() == printed.stdout_bytes
