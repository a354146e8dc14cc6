"""The benchmark's output checks: each accepts the program's real output and
rejects a corrupted copy of it.

    python3 -m pytest bench/test_checks.py -q
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from qsodyn.abscont import va_operator  # noqa: E402
from qsodyn.classify import verify_bbistochastic_numeric  # noqa: E402
from qsodyn.markov import CylinderSet, TransitionFamily, mixing_series  # noqa: E402
from qsodyn.operator import HeredityTensor, find_fixed_points, make_operator  # noqa: E402
from qsodyn.simplex import make_point  # noqa: E402
from spans import OFF  # noqa: E402

THREE_VERTICES = workloads.FIXTURE_POINTS["attracting_not_unique"]


def fixture_p(name):
    return checks.spec_tensor(str(workloads.FIXTURES / f"{name}.json"))


def run_cli(*argv):
    env = workloads.Cli(0).env
    proc = subprocess.run(
        [sys.executable, "-m", "qsodyn.cli", *argv], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


@pytest.fixture(scope="module")
def three_vertex_points():
    p = fixture_p("attracting_not_unique")
    V = make_operator(HeredityTensor(3, p.copy()))
    return p, [pt.coords for pt in find_fixed_points(V).points]


@pytest.fixture(scope="module")
def chain():
    rng = np.random.default_rng(3)
    V = make_operator(HeredityTensor(3, workloads.general_tensor(3, rng)))
    fam = TransitionFamily(V, make_point([0.2, 0.3, 0.5]))
    fam.extend(12)
    return fam


# -- sweep --------------------------------------------------------------------


def test_fixed_point_set_accepts_real_output(three_vertex_points):
    p, points = three_vertex_points
    checks.check_fixed_points(p, points, workloads.FP_TOL)
    checks.check_point_set(points, THREE_VERTICES, "fixture")


def test_fixed_point_set_rejects_a_missing_vertex(three_vertex_points):
    _, points = three_vertex_points
    with pytest.raises(CheckFailed):
        checks.check_point_set(points[:-1], THREE_VERTICES, "fixture")


def test_fixed_points_reject_an_empty_list_and_a_non_fixed_point(three_vertex_points):
    p, _ = three_vertex_points
    with pytest.raises(CheckFailed, match="no fixed point"):
        checks.check_fixed_points(p, [], workloads.FP_TOL)
    with pytest.raises(CheckFailed, match="residual"):
        checks.check_fixed_points(p, [(0.5, 0.25, 0.25)], workloads.FP_TOL)


def test_unique_terminal_rejects_an_extra_point():
    rng = np.random.default_rng(5)
    from qsodyn.generate import random_structured_tensor

    p = random_structured_tensor(3, rng).tensor.p
    assert checks.uniqueness_bounds_met(p)
    checks.check_unique_terminal(p, [(0.0, 0.0, 1.0)], order_violated=False)
    with pytest.raises(CheckFailed):
        checks.check_unique_terminal(p, [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0)], order_violated=False)


def test_witness_accepts_real_output_and_rejects_a_non_violating_point():
    rng = np.random.default_rng(7)
    p = workloads.general_tensor(3, rng)
    verdict = verify_bbistochastic_numeric(make_operator(HeredityTensor(3, p.copy())), samples=500)
    assert verdict.violated
    checks.check_witness(p, verdict.witness_point.coords, verdict.violating_k)
    with pytest.raises(CheckFailed, match="does not violate"):
        checks.check_witness(fixture_p("va_a05"), (0.5, 0.5), 1)


def test_contraction_rejects_a_wrong_modulus():
    p = fixture_p("unique_not_contractive_s2")
    assert checks.contraction_modulus(p) == 2.0
    checks.check_contraction(p, 2.0, False)
    with pytest.raises(CheckFailed):
        checks.check_contraction(p, 1.5, False)
    with pytest.raises(CheckFailed):
        checks.check_contraction(p, 2.0, False, closed_2d_max=1.0)


def test_orbit_rejects_a_rising_prefix_sum():
    p = fixture_p("va_a23")
    path = [(0.9, 0.1)]
    for _ in range(6):
        path.append(tuple(checks.qso(p, np.array(path[-1]))))
    checks.check_orbit(p, path, order_decreasing=True, converged=False)
    with pytest.raises(CheckFailed):
        checks.check_orbit(p, path[::-1], order_decreasing=True, converged=False)


# -- chains -------------------------------------------------------------------


def test_rows_accept_real_output_and_reject_a_scaled_row(chain):
    H = chain.transition_matrix(3)
    checks.check_transition_rows(H)
    bad = H.copy()
    bad[1] *= 1 + 1e-9
    with pytest.raises(CheckFailed, match="row sums"):
        checks.check_transition_rows(bad)


def test_composition_rejects_a_perturbed_product(chain):
    full, left, right = (chain.compose_transitions(0, 12), chain.compose_transitions(0, 5),
                         chain.compose_transitions(5, 12))
    checks.check_composition(full, left, right)
    bad = left.copy()
    bad[0, 0] += 1e-10
    with pytest.raises(CheckFailed):
        checks.check_composition(full, bad, right)


def test_mixing_accepts_real_output_and_rejects_tau_above_its_bound():
    fam = TransitionFamily(va_operator(2.0 / 3.0), make_point([0.9, 0.1]))
    terms = mixing_series(fam, CylinderSet(0, (1,)), CylinderSet(0, (2,)), 14).terms
    checks.check_mixing_terms(terms, two_state_family=True)
    m, tau, bound = terms[2]
    bad = list(terms)
    bad[2] = (m, bound * 1.5 + 1e-300, bound)
    with pytest.raises(CheckFailed, match="exceeds its bound"):
        checks.check_mixing_terms(bad, two_state_family=False)
    slow = [(m, 1e-6, 1e-6) for m, _, _ in terms]
    with pytest.raises(CheckFailed, match="not decayed"):
        checks.check_mixing_terms(slow, two_state_family=True)


def test_va_transition_rejects_a_wrong_h11():
    fam = TransitionFamily(va_operator(0.5), make_point([0.8, 0.2]))
    x1 = fam.start.coords[0]
    for k in (0, 5, 10, 15):
        checks.check_va_transition(0.5, x1, k, fam.transition_matrix(k), fam.transition_matrix_log(k)[0, 0])
    with pytest.raises(CheckFailed):
        checks.check_va_transition(0.5, x1 * 0.99, 3, fam.transition_matrix(3))
    with pytest.raises(CheckFailed):
        log_h11 = fam.transition_matrix_log(15)[0, 0]
        checks.check_va_transition(0.5, x1, 15, fam.transition_matrix(15), log_h11 * (1 + 1e-9))


@pytest.mark.parametrize("make", [workloads.Chains, workloads.Sweep])
def test_workload_checks_accept_one_real_operation_of_each_kind(make):
    w = make(11)
    items = w.round_items(0)
    kinds = {}
    for item in items:  # one of each size/family, to keep the test short
        key = (getattr(item, "kind", None), item.n, getattr(item, "a", None) is None)
        kinds.setdefault(key, item)
    for item in kinds.values():
        if item.n >= 6:
            continue
        w.check(item, w.run(item, OFF))


def test_chain_checks_reject_a_broken_cylinder_sum():
    w = workloads.Chains(11)
    item = w.round_items(0)[0]
    out = w.run(item, OFF)
    mu, ext = out["cylinders"][0]
    bad = copy.copy(out)
    bad["cylinders"] = [(mu * (1 + 1e-9) + 1e-12, ext)]
    with pytest.raises(CheckFailed, match="extensions"):
        w.check(item, bad)


# -- cli ----------------------------------------------------------------------


def test_cli_checks_accept_every_command_but_the_diverging_abscont():
    w = workloads.Cli(11)
    failed = []
    for item in w.round_items(0):
        try:
            out = w.run(item, OFF)
        except workloads.CommandFailed:
            failed.append(item.argv)
            continue
        w.check(item, out)
    assert failed == [workloads.DIVERGING_ABSCONT]


def test_strict_json_rejects_nan_and_infinity():
    text = run_cli("classify", "--spec", str(workloads.FIXTURES / "va_a05.json"))
    payload = checks.strict_json(text)
    assert payload["result"]["n"] == 2
    for token in ("NaN", "Infinity", "-Infinity"):
        bad = text.replace('"n": 2', f'"n": {token}', 1)
        with pytest.raises(CheckFailed, match="non-JSON"):
            checks.strict_json(bad)


def test_spec_hash_rejects_another_file():
    spec = str(workloads.FIXTURES / "va_a05.json")
    payload = json.loads(run_cli("validate", "--spec", spec))
    checks.check_spec_hash(payload, spec)
    with pytest.raises(CheckFailed):
        checks.check_spec_hash(payload, str(workloads.FIXTURES / "va_a23.json"))


def test_csv_rejects_a_wrong_header_and_a_short_row():
    text = run_cli("mixing", "--spec", str(workloads.FIXTURES / "va_a23.json"), "--x", "0.9,0.1",
                   "--A", "0:1", "--B", "0:1", "--m-max", "12")
    rows = checks.parse_csv(text, workloads.MIXING_HEADER)
    assert rows.shape == (12, 3)
    with pytest.raises(CheckFailed, match="header"):
        checks.parse_csv(text, ["m", "tau_m"])
    lines = text.splitlines()
    lines[3] = ",".join(lines[3].split(",")[:2])
    with pytest.raises(CheckFailed, match="columns"):
        checks.parse_csv("\n".join(lines), workloads.MIXING_HEADER)


def test_rn_identical_rejects_a_nonzero_term():
    checks.check_rn_identical([(1, 0.0, 0.0, 0.0), (2, 0.0, 0.0, 0.0)])
    with pytest.raises(CheckFailed):
        checks.check_rn_identical([(1, 0.0, 0.0, 0.0), (2, 1e-30, 0.0, 1e-30)])
    with pytest.raises(CheckFailed):
        checks.check_rn_equivalent("undecided")
