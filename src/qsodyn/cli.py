"""Command-line front end: spec ingestion, command dispatch, deterministic
report emission (JSON/CSV). Every report is built here; the library modules
return dataclasses and know no key name or CSV header."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import click

from . import __version__
# classify, markov and abscont load only in the commands calling them
from .operator import FIXED_POINT_TOL, TRAJECTORY_MAX_ITER, TRAJECTORY_TOL, evaluate, find_fixed_points, trajectory
from .simplex import l1_distance, make_point, partial_sum
from .specfile import SpecFileError, load_spec, spec_hash

EXIT_VALIDATION = 2
EXIT_PARSE = 3
# abscont terms are already 0 in double precision from about m = 12; the
# series takes one squaring a step, so its cost is linear in m up to here
ABSCONT_M_MAX = 256


def _die(code: int, kind: str, message: str, **extra):
    payload = {"error": kind, "message": message}
    payload.update(extra)
    click.echo(json.dumps(payload), err=True)
    sys.exit(code)


def _require(ok: bool, message: str):
    if not ok:
        _die(EXIT_VALIDATION, "validation_error", message)


def _load_operator(spec_path: str, symmetrize: bool):
    try:
        spec = load_spec(spec_path)
    except SpecFileError as exc:
        _die(EXIT_PARSE, "parse_error", str(exc), path=spec_path)
    try:
        return spec.build(symmetrize=symmetrize)
    except ValueError as exc:  # TensorError and SimplexError among them
        _die(EXIT_VALIDATION, "validation_error", str(exc), path=spec_path)


def _parse_point(text: str, n: Optional[int] = None):
    try:
        x = make_point([float(v) for v in text.split(",")])
    except ValueError as exc:
        _die(EXIT_VALIDATION, "validation_error", f"bad point {text!r}: {exc}")
    _require(n is None or x.n == n, f"point has {x.n} states, operator {n}")
    return x


def _parse_cylinder(text: str):
    """A CylinderSet from 'l:i_l,i_{l+1},...'; '0:1,2' pins states 1 then 2 from time 0."""
    from .markov import CylinderSet
    try:
        start_str, states_str = text.split(":")
        states = tuple(int(s) for s in states_str.split(","))
        return CylinderSet(int(start_str), states)
    except (ValueError, TypeError) as exc:
        _die(EXIT_VALIDATION, "validation_error", f"bad cylinder {text!r}: {exc}")


def _envelope(spec_path: Optional[str], config: dict, result) -> dict:
    return {
        "tool_version": __version__,
        "spec_hash": spec_hash(spec_path) if spec_path else None,
        "config": config,
        "result": result,
    }


def _write(text: str, out: Optional[str], filename: str):
    """text to stdout, or to the file filename under the directory out."""
    if out:
        path = Path(out)
        try:
            path.mkdir(parents=True, exist_ok=True)
            (path / filename).write_text(text)
        except OSError as exc:
            _die(EXIT_VALIDATION, "validation_error", f"cannot write to --out {out!r}: {exc}")
    else:
        click.echo(text, nl=False)


def _emit(payload: dict, out: Optional[str], name: str):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out, f"{name}.json")


def _emit_csv(header: list, rows, out: Optional[str], name: str):
    """One header line, then one line per row with every number as %.17g
    (integers print as themselves)."""
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    _write("\n".join(lines) + "\n", out, f"{name}.csv")


def _order_checks(necessary, verdict) -> dict:
    """Report fields shared by ``validate`` and ``classify``."""
    witness = verdict.witness_point
    return {
        "necessary_conditions": [asdict(c) for c in necessary],
        "numeric_b_verdict": {
            **asdict(verdict),
            "witness_point": list(witness) if witness else None,
        },
    }


@click.group()
@click.version_option(__version__)
def main():
    """Quadratic stochastic operators: certificates, dynamics, Markov measures."""


spec_opt = click.option("--spec", "spec_path", required=True, type=click.Path())
symmetrize_opt = click.option("--symmetrize", is_flag=True, default=False)
seed_opt = click.option("--seed", type=int, default=0, show_default=True)
out_opt = click.option("--out", type=click.Path(), default=None)


@main.command()
@spec_opt
@symmetrize_opt
@seed_opt
@out_opt
def validate(spec_path, symmetrize, seed, out):
    """Tensor validation plus structural and numeric order checks."""
    from .classify import check_necessary_bbistochastic, verify_bbistochastic_numeric
    V = _load_operator(spec_path, symmetrize)
    _require(seed >= 0, f"--seed must be >= 0, got {seed}")
    result = {
        "n": V.n,
        "tensor_valid": True,
        **_order_checks(
            check_necessary_bbistochastic(V), verify_bbistochastic_numeric(V, seed=seed)
        ),
    }
    _emit(_envelope(spec_path, {"symmetrize": symmetrize, "seed": seed}, result), out, "validate")


@main.command()
@spec_opt
@symmetrize_opt
@seed_opt
@out_opt
def classify(spec_path, symmetrize, seed, out):
    """Full certificate report for the operator."""
    from .classify import classify_operator
    V = _load_operator(spec_path, symmetrize)
    _require(seed >= 0, f"--seed must be >= 0, got {seed}")
    report = classify_operator(V, seed=seed)
    proven = report.proven_fixed_points
    result = {
        "n": report.n,
        **_order_checks(report.necessary, report.numeric_b_verdict),
        "uniqueness_conditions_met": report.uniqueness.met,
        "uniqueness_violations": report.uniqueness.violations,
        "proven_fixed_points": None if proven is None else proven.tolist(),
        "vertex_stability": report.vertex_stability,
        "vertex_eigenvalues": report.vertex_eigenvalues,
        "contraction": asdict(report.contraction),
    }
    if report.contraction_1d is not None:
        result["contraction_1d"] = report.contraction_1d
    if report.contraction_2d is not None:
        result["contraction_2d"] = asdict(report.contraction_2d)
    _emit(_envelope(spec_path, {"symmetrize": symmetrize, "seed": seed}, result), out, "classify")


@main.command()
@spec_opt
@symmetrize_opt
@click.option("--x", "x_text", required=True, help="start point, comma-separated")
@click.option("--steps", type=int, default=None, help="fixed iteration count")
@click.option("--tol", type=float, default=TRAJECTORY_TOL, show_default=True)
@click.option("--max-iter", type=int, default=TRAJECTORY_MAX_ITER, show_default=True)
@out_opt
def iterate(spec_path, symmetrize, x_text, steps, tol, max_iter, out):
    """Trajectory CSV: step, coordinates, prefix sums, step size."""
    V = _load_operator(spec_path, symmetrize)
    x = _parse_point(x_text, V.n)
    _require(0 < tol < math.inf, f"--tol must be positive and finite, got {tol}")
    _require(steps is None or steps >= 0, f"--steps must be >= 0, got {steps}")
    _require(max_iter >= 0, f"--max-iter must be >= 0, got {max_iter}")
    if steps is None:
        path = trajectory(V, x, tol=tol, max_iter=max_iter, record_path=True).path
    else:
        # exactly `steps` applications, whatever the step size
        path = [x]
        for _ in range(steps):
            path.append(evaluate(V, path[-1]))
    n = V.n
    header = (
        ["step"]
        + [f"x_{i}" for i in range(1, n + 1)]
        + [f"U_{k}" for k in range(1, n)]
        + ["step_l1"]
    )
    rows = []
    prev = None
    for step, p in enumerate(path):
        delta = 0.0 if prev is None else l1_distance(prev, p)
        rows.append([step, *p, *(partial_sum(p, k) for k in range(1, n)), delta])
        prev = p
    _emit_csv(header, rows, out, "iterate")


@main.command("fixed-points")
@spec_opt
@symmetrize_opt
@click.option("--tol", type=float, default=FIXED_POINT_TOL, show_default=True)
@out_opt
def fixed_points(spec_path, symmetrize, tol, out):
    """Fixed points, JSON output: the vertex set where the coefficients prove
    it, otherwise the multistart search."""
    V = _load_operator(spec_path, symmetrize)
    _require(0 < tol < 2, f"--tol must be in (0, 2), as an l1 residual is at most 2, got {tol}")
    fps = find_fixed_points(V, tol=tol)
    result = {
        "dedup_radius": fps.dedup_radius,
        "diagnostics": fps.diagnostics,
        "points": [
            {"coords": list(p), "residual_l1": r}
            for p, r in zip(fps.points, fps.residuals)
        ],
    }
    _emit(_envelope(spec_path, {"symmetrize": symmetrize, "tol": tol}, result), out, "fixed_points")


@main.command()
@spec_opt
@symmetrize_opt
@click.option("--x", "x_text", required=True)
@click.option("--horizon", type=int, default=10, show_default=True)
@out_opt
def markov(spec_path, symmetrize, x_text, horizon, out):
    """Transition matrices up to the horizon plus basic cylinder measures."""
    from .markov import CylinderSet, TransitionFamily, cylinder_measure
    V = _load_operator(spec_path, symmetrize)
    x = _parse_point(x_text, V.n)
    _require(horizon >= 0, f"--horizon must be >= 0, got {horizon}")
    fam = TransitionFamily(V, x)
    mats = {str(k): fam.transition_matrix(k).tolist() for k in range(horizon)}
    singles = {
        f"[0,0]({i})": cylinder_measure(fam, CylinderSet(0, (i,)))
        for i in range(1, V.n + 1)
    }
    pairs = {
        f"[0,1]({i},{j})": cylinder_measure(fam, CylinderSet(0, (i, j)))
        for i in range(1, V.n + 1)
        for j in range(1, V.n + 1)
    }
    result = {"transition_matrices": mats, "cylinder_measures": {**singles, **pairs}}
    _emit(_envelope(spec_path, {"symmetrize": symmetrize, "x": list(x), "horizon": horizon}, result), out, "markov")


@main.command()
@spec_opt
@symmetrize_opt
@click.option("--x", "x_text", required=True)
@click.option("--A", "a_text", required=True, help="cylinder, e.g. '0:1'")
@click.option("--B", "b_text", required=True, help="cylinder, e.g. '0:1'")
@click.option("--m-max", type=int, default=12, show_default=True)
@out_opt
def mixing(spec_path, symmetrize, x_text, a_text, b_text, m_max, out):
    """Correlation-gap series CSV: m, tau_m, bound_m."""
    from .markov import TransitionFamily, mixing_series
    V = _load_operator(spec_path, symmetrize)
    x = _parse_point(x_text, V.n)
    _require(m_max >= 1, f"--m-max must be >= 1, got {m_max}")
    A = _parse_cylinder(a_text)
    B = _parse_cylinder(b_text)
    fam = TransitionFamily(V, x)
    try:
        series = mixing_series(fam, A, B, m_max)
    except ValueError as exc:
        _die(EXIT_VALIDATION, "validation_error", str(exc))
    _emit_csv(["m", "tau_m", "bound_m"], series.terms, out, "mixing")


@main.command()
@click.option("--a", type=float, required=True)
@click.option("--a2", type=float, default=None, help="denominator parameter; defaults to --a")
@click.option("--x", "x_text", required=True)
@click.option("--y", "y_text", required=True)
@click.option("--m-max", type=int, default=12, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@out_opt
def abscont(a, a2, x_text, y_text, m_max, fmt, out):
    """Likelihood-ratio second-moment series for the one-parameter family."""
    from .abscont import CylinderClass, VaParams, cylinder_discrepancy_log, rn_series
    x = _parse_point(x_text)
    y = _parse_point(y_text)
    _require(m_max <= ABSCONT_M_MAX, f"--m-max must be <= {ABSCONT_M_MAX}, got {m_max}")
    try:
        num = VaParams(a, x)
        den = VaParams(a2 if a2 is not None else a, y)
        report = rn_series(num, den, m_max)
    except ValueError as exc:
        _die(EXIT_VALIDATION, "validation_error", str(exc))
    if fmt == "csv":
        _emit_csv(["m", "K_term", "Khat_term", "partial_sum"], report.terms, out, "abscont")
        return
    disc = cylinder_discrepancy_log(
        num,
        [
            CylinderClass("all_ones", 0, 4),
            CylinderClass("all_ones", 2, 5),
            CylinderClass("all_twos", 0, 4),
            CylinderClass("all_twos", 2, 5),
            CylinderClass("ones_then_twos", 0, 5, 2),
            CylinderClass("ones_then_twos", 2, 6, 3),
        ],
    )
    result = {
        "numerator": {"a": report.numerator.a, "x1": report.numerator.x1},
        "denominator": {"a": report.denominator.a, "x1": report.denominator.x1},
        "terms": [
            {"m": m, "K_term": k, "Khat_term": kh, "partial_sum": s}
            for m, k, kh, s in report.terms
        ],
        "classification": report.classification,
        "exceptional_set_note": report.exceptional_set_note,
        "closed_form_discrepancies": [
            {
                "kind": c.kind,
                "l": c.l,
                "m": c.m,
                "k": c.k,
                "constructive": cons,
                "printed": printed,
                "abs_difference": d,
            }
            for c, cons, printed, d in disc
        ],
    }
    config = {"a": a, "a2": a2, "x": list(x), "y": list(y), "m_max": m_max}
    _emit(_envelope(None, config, result), out, "abscont")


if __name__ == "__main__":
    main()
