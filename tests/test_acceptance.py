"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single PASS line when its criterion holds; a failing
criterion shows up as an ordinary pytest failure.
"""

import itertools
import json
import math
import sys

import numpy as np
from click.testing import CliRunner

from conftest import fixture_path, load_fixture
from qsodyn.abscont import (
    CylinderClass,
    VaParams,
    cylinder_discrepancy_log,
    rn_series,
    va_operator,
    va_transition_closed_form,
)
from qsodyn.classify import (
    check_uniqueness_conditions,
    classify_vertex_stability,
    strict_contraction_1d,
    strict_contraction_2d,
    strict_contraction_general,
    verify_bbistochastic_numeric,
)
from qsodyn.cli import main
from qsodyn.generate import random_structured_tensor, random_structured_tensors
from qsodyn.markov import CylinderSet, TransitionFamily, cylinder_measure, mixing_series
from qsodyn.operator import (
    HeredityTensor,
    _multistart,
    evaluate,
    evaluate_array,
    find_fixed_points,
    make_operator,
    proven_fixed_points,
    trajectory,
    vertex_eigenvalues,
)
from qsodyn.simplex import l1_distance, make_point, sample_simplex, vertex


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}", file=sys.__stdout__, flush=True)


def rounded(points, digits=9):
    return {tuple(round(c, digits) for c in p.coords) for p in points}


def test_criterion_01_three_fixed_points_attracting_yet_not_unique():
    runner = CliRunner()
    result = runner.invoke(
        main, ["fixed-points", "--spec", fixture_path("attracting_not_unique")]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    pts = {
        tuple(round(c, 9) for c in p["coords"]) for p in payload["result"]["points"]
    }
    assert pts == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
    assert all(p["residual_l1"] <= 1e-9 for p in payload["result"]["points"])

    V = load_fixture("attracting_not_unique").build()
    eigs = vertex_eigenvalues(V)
    assert all(e < 1 for e in eigs)
    assert classify_vertex_stability(V) == "attracting"
    assert not check_uniqueness_conditions(V).met
    report(1, "fixture yields exactly the 3 vertices; vertex attracting, uniqueness bounds fail")


def test_criterion_02_uniqueness_bounds_imply_unique_fixed_point():
    rng = np.random.default_rng(202)
    checked = 0
    for n, count in ((2, 50), (3, 450)):
        for _ in range(count):
            V = random_structured_tensor(n, rng)
            assert check_uniqueness_conditions(V).met
            if verify_bbistochastic_numeric(V, samples=2000, seed=checked).violated:
                continue
            # the search itself, not find_fixed_points, which would answer
            # from the theorem that this criterion checks
            fps = _multistart(V, tol=1e-9)
            assert rounded(fps.points) == {vertex(n, n).coords}, V.tensor.p
            assert proven_fixed_points(V).tolist() == [list(vertex(n, n).coords)], V.tensor.p
            checked += 1
    assert checked >= 500
    report(2, f"{checked} verified random tensors each have the single fixed point (0,...,0,1), "
              "found by the search and proven by the coefficient theorem")


def test_criterion_03_uniqueness_bounds_are_sufficient_only():
    V = load_fixture("uniqueness_sufficiency_gap").build()
    rep = check_uniqueness_conditions(V)
    assert not rep.met
    fps = find_fixed_points(V, tol=1e-9)
    assert fps.diagnostics["method"] == "coefficient_theorem"
    for found in (fps, _multistart(V, tol=1e-9)):
        assert rounded(found.points) == {(0.0, 0.0, 1.0)}
    report(3, "witness fixture fails the bounds yet has the unique fixed point (0,0,1), "
              "proven from the coefficients and found by the search")


def test_criterion_04_contraction_criteria_agree_and_do_not_follow_from_uniqueness():
    for V in random_structured_tensors(3, 1000, seed=404):
        general = strict_contraction_general(V)
        two_d = strict_contraction_2d(V)
        assert abs(two_d.max_quantity - general.modulus) <= 1e-12

    rng = np.random.default_rng(405)
    for _ in range(200):
        a, b = rng.random(), rng.uniform(0, 0.5)
        V = make_operator(
            HeredityTensor(
                2,
                np.array(
                    [[[a, 1 - a], [b, 1 - b]], [[b, 1 - b], [0.0, 1.0]]]
                ),
            )
        )
        assert strict_contraction_1d(V) == strict_contraction_general(V).is_strict

    for name in ("va_a23", "unique_not_contractive_s2"):
        V = load_fixture(name).build()
        assert not strict_contraction_general(V).is_strict
        assert len(find_fixed_points(V, tol=1e-9).points) == 1
    report(4, "1000 three-state + 200 two-state criterion agreements; both fixtures unique but non-contractive")


def test_criterion_05_operational_contraction_bound():
    rng = np.random.default_rng(505)
    pairs_done = 0
    while pairs_done < 10_000:
        # blend a random tensor toward a first-index-independent one so the
        # modulus lands strictly below 1
        n = 3
        base = random_structured_tensor(n, rng).tensor.p
        c = rng.random(n)
        c /= c.sum()
        lam = rng.uniform(0.05, 0.45)
        blended = lam * base + (1 - lam) * np.broadcast_to(c, (n, n, n))
        V = make_operator(HeredityTensor(n, blended.copy()))
        res = strict_contraction_general(V)
        if not res.is_strict:
            continue
        X = np.array([p.coords for p in sample_simplex(n, 500, seed=pairs_done)])
        Y = np.array([p.coords for p in sample_simplex(n, 500, seed=pairs_done + 1)])
        lhs = np.abs(evaluate_array(V, X) - evaluate_array(V, Y)).sum(axis=1)
        rhs = (res.modulus + 1e-9) * np.abs(X - Y).sum(axis=1)
        assert (lhs <= rhs).all()
        pairs_done += 500
    report(5, f"{pairs_done} sampled pairs satisfy the modulus Lipschitz bound")


def test_criterion_06_markov_structure():
    rng = np.random.default_rng(606)
    for n in (2, 3, 4):
        for _ in range(3):
            V = random_structured_tensor(n, rng)
            if verify_bbistochastic_numeric(V, samples=1000).violated:
                continue
            start = make_point(np.full(n, 1.0 / n))
            fam = TransitionFamily(V, start)
            for k in range(15):
                H = fam.transition_matrix(k)
                assert (H >= 0).all()
                assert np.abs(H.sum(axis=1) - 1.0).max() <= 1e-13
            full = fam.compose_transitions(0, 15)
            for j in (4, 9):
                split = fam.compose_transitions(0, j) @ fam.compose_transitions(j, 15)
                assert np.abs(full - split).max() <= 1e-13
            for seq in itertools.product(range(1, n + 1), repeat=2):
                short = cylinder_measure(fam, CylinderSet(0, seq))
                extended = sum(
                    cylinder_measure(fam, CylinderSet(0, seq + (s,)))
                    for s in range(1, n + 1)
                )
                assert abs(short - extended) <= 1e-13
    report(6, "row-stochasticity, composition splitting, and window consistency hold to 1e-13")


def test_criterion_07_closed_form_transitions_match_generic_chain():
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    for a in grid:
        for x1 in grid:
            params = VaParams.of(a, x1)
            fam = TransitionFamily(va_operator(a), params.x)
            for k in range(11):
                cf = va_transition_closed_form(params, k)
                assert np.abs(cf.linear - fam.transition_matrix(k)).max() <= 1e-12
            for k in range(11, 21):
                cf = va_transition_closed_form(params, k)
                assert math.isclose(cf.log[0, 0], fam.transition_matrix_log(k)[0, 0], rel_tol=1e-12)
    report(7, "81 parameter combinations agree, k<=10 linearly and k<=20 in the log domain")


def test_criterion_08_mixing_gap_decays():
    def check(a, x1, m_hi=14):
        fam = TransitionFamily(va_operator(a), make_point([x1, 1.0 - x1]))
        A = B = CylinderSet(0, (1,))
        terms = mixing_series(fam, A, B, m_hi).terms
        assert [m for m, _, _ in terms] == list(range(1, m_hi + 1))
        for m, tau, bound in terms:
            assert tau <= bound + 1e-12
            if m >= 10:
                assert tau < 1e-8

    check(0.9, 0.9)
    rng = np.random.default_rng(808)
    for _ in range(20):
        check(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
    report(8, "correlation gap below 1e-8 from shift 10 on the reference pair and 20 random pairs")


def test_criterion_09_absolute_continuity_series():
    rng = np.random.default_rng(909)
    for _ in range(50):
        a, x1, y1 = rng.uniform(0.05, 0.95, size=3)
        for num, den in ((VaParams.of(a, x1), VaParams.of(a, y1)),
                         (VaParams.of(a, y1), VaParams.of(a, x1))):
            r = rn_series(num, den, 12)
            assert r.classification == "equivalent_evidence", (a, x1, y1)
            m, k, kh, _ = r.terms[-1]
            tail = k if r.exceptional_set_note else k + kh
            assert tail < 1e-12

    diag = rn_series(VaParams.of(0.4, 0.3), VaParams.of(0.4, 0.3), 12)
    assert all(k == 0.0 and kh == 0.0 for _, k, kh, _ in diag.terms)

    params = VaParams.of(0.6, 0.7)
    windows = {
        ("all_ones", 0): CylinderClass("all_ones", 0, 3),
        ("all_ones", 1): CylinderClass("all_ones", 1, 3),
        ("all_ones", 2): CylinderClass("all_ones", 2, 4),
        ("all_twos", 0): CylinderClass("all_twos", 0, 3),
        ("all_twos", 1): CylinderClass("all_twos", 1, 3),
        ("all_twos", 2): CylinderClass("all_twos", 2, 4),
        ("ones_then_twos", 0): CylinderClass("ones_then_twos", 0, 4, 2),
        ("ones_then_twos", 1): CylinderClass("ones_then_twos", 1, 4, 2),
        ("ones_then_twos", 2): CylinderClass("ones_then_twos", 2, 5, 3),
        ("two_one", 0): CylinderClass("two_one", k=2),
    }
    log = cylinder_discrepancy_log(params, list(windows.values()))
    got = {(c.kind, c.l) for c, *_ in log}
    # the tabulated exponents agree with the chain product only for windows
    # starting at time 1; the zero measure class always agrees
    expected = {
        (kind, l)
        for (kind, l) in windows
        if kind != "two_one" and l != 1
    }
    assert got == expected
    report(9, "50 triples equivalent both ways with tail < 1e-12; diagonal zero; discrepancy log exact")


def test_criterion_10_trajectories_converge_monotonically():
    rng = np.random.default_rng(1010)
    starts = sample_simplex(3, 10, seed=1011)
    done = 0
    while done < 200:
        V = random_structured_tensor(3, rng)
        if verify_bbistochastic_numeric(V, samples=500, seed=done).violated:
            continue
        for x in starts:
            tr = trajectory(V, x, tol=1e-12, max_iter=10_000, record_path=True)
            assert tr.converged
            assert l1_distance(evaluate(V, tr.limit), tr.limit) <= 1e-10
            U = np.cumsum(np.array([p.coords for p in tr.path]), axis=1)[:, :-1]
            assert (np.diff(U, axis=0) <= 1e-12).all()
        done += 1
    report(10, "200 operators x 10 starts: Cauchy trajectories, fixed-point limits, monotone prefix sums")
