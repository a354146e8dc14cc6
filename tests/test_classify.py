import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    load_fixture,
    random_general_operator,
    reference_grid,
    reference_samples,
    reference_verify,
)
from qsodyn import classify
from qsodyn.abscont import va_operator
from qsodyn.classify import (
    DEFAULT_SAMPLES,
    NumericOrderVerdict,
    _order_bound_holds,
    check_convex_combination,
    check_necessary_bbistochastic,
    check_uniqueness_conditions,
    classify_operator,
    classify_vertex_stability,
    linear_form_nonpositive,
    strict_contraction_1d,
    strict_contraction_2d,
    strict_contraction_general,
    verify_bbistochastic_numeric,
)
from qsodyn.generate import random_structured_tensors
from qsodyn.operator import HeredityTensor, TensorError, evaluate_array, make_operator, tensor_from_entries
from qsodyn.simplex import EPS_ORDER, SimplexPoint


def modulus_by_enumeration(V):
    """Independent triple-by-triple recomputation of the contraction modulus."""
    n = V.n
    best = 0.0
    for i1 in range(1, n + 1):
        for i2 in range(1, n + 1):
            for k in range(1, n + 1):
                s = sum(
                    abs(V.tensor.entry(i1, k, j) - V.tensor.entry(i2, k, j))
                    for j in range(1, n + 1)
                )
                best = max(best, s)
    return best


class TestNecessaryConditions:
    def test_va_passes(self):
        rep = check_necessary_bbistochastic(va_operator(0.5))
        assert rep.all_passed

    def test_upper_block_witness(self):
        t = tensor_from_entries(
            2, {(1, 1, 1): 0.5, (1, 1, 2): 0.5, (1, 2, 2): 1.0, (2, 2, 1): 0.1, (2, 2, 2): 0.9}
        )
        rep = check_necessary_bbistochastic(make_operator(t))
        cond = rep.by_name("upper_block_zero")
        assert not cond.passed
        assert cond.witness == (2, 2, 1)

    def test_absorbing_last_witness(self):
        t = tensor_from_entries(
            2, {(1, 1, 2): 1.0, (1, 2, 2): 1.0, (2, 2, 1): 0.1, (2, 2, 2): 0.9}
        )
        rep = check_necessary_bbistochastic(make_operator(t))
        assert not rep.by_name("absorbing_last").passed

    def test_half_bound_witness(self):
        t = tensor_from_entries(
            2, {(1, 1, 2): 1.0, (1, 2, 1): 0.6, (1, 2, 2): 0.4, (2, 2, 2): 1.0}
        )
        rep = check_necessary_bbistochastic(make_operator(t))
        cond = rep.by_name("half_bound")
        assert not cond.passed
        assert cond.witness == (1, 2, 0.6)

    def test_generated_tensors_pass(self):
        for V in random_structured_tensors(4, 10, seed=60):
            assert check_necessary_bbistochastic(V).all_passed


class TestNumericVerification:
    def test_va_clean(self):
        assert not verify_bbistochastic_numeric(va_operator(0.5), samples=2000).violated

    def test_example_clean(self, three_vertex_operator):
        assert not verify_bbistochastic_numeric(three_vertex_operator, samples=2000).violated

    def test_witness_found(self):
        t = tensor_from_entries(
            2, {(1, 1, 1): 1.0, (1, 2, 1): 1.0, (2, 2, 2): 1.0}
        )
        verdict = verify_bbistochastic_numeric(make_operator(t), samples=0)
        assert verdict.violated
        assert verdict.violating_k == 1
        # gap follows the order-verdict convention: right minus left, negative
        # at a violation
        assert verdict.gap < 0

    def test_effort_recorded(self):
        v = verify_bbistochastic_numeric(va_operator(0.3), resolution=15, samples=100)
        assert v.resolution == 15
        assert v.sample_count == 100

    @pytest.mark.parametrize(
        "kwargs", [{"resolution": 0}, {"resolution": -3}, {"samples": -5}, {"seed": -1}]
    )
    def test_bad_arguments_rejected(self, kwargs):
        # va_a05's coefficients prove the order, so a check made after the
        # coefficient bound would come too late
        V = load_fixture("va_a05").build()
        assert _order_bound_holds(V, EPS_ORDER)
        with pytest.raises(ValueError):
            verify_bbistochastic_numeric(V, **kwargs)


def reference_verdict(V, seed=0, samples=DEFAULT_SAMPLES):
    """The verifier rebuilt from pointwise-constructed grid and sample points,
    with the first violation located by np.argwhere in row-major order."""
    res = 40 if V.n <= 3 else 12 if V.n == 4 else 6
    X = np.array(reference_grid(V.n, res) + reference_samples(V.n, samples, seed))
    cx = np.cumsum(X, axis=1)[:, :-1]
    cy = np.cumsum(evaluate_array(V, X), axis=1)[:, :-1]
    hits = np.argwhere(cy > cx + EPS_ORDER)
    if len(hits) == 0:
        return NumericOrderVerdict(False, resolution=res, sample_count=samples)
    r, k = hits[0]
    return NumericOrderVerdict(
        True, SimplexPoint(tuple(X[r].tolist())), int(k) + 1, float(cx[r, k] - cy[r, k]),
        res, samples,
    )


class TestVerifierMatchesReference:
    # repr compares every field, floats to the last bit (and the sign of zero)

    @pytest.mark.parametrize(
        "name", ["attracting_not_unique", "uniqueness_sufficiency_gap", "unique_not_contractive_s2"]
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_fixtures(self, name, seed):
        V = load_fixture(name).build()
        assert repr(verify_bbistochastic_numeric(V, seed=seed)) == repr(reference_verdict(V, seed))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_seeded_operators(self, n):
        rng = np.random.default_rng(70 + n)
        ops = random_structured_tensors(n, 15, seed=80 + n)
        ops += [random_general_operator(n, rng) for _ in range(15)]
        verdicts = [verify_bbistochastic_numeric(V, samples=2000) for V in ops]
        assert [repr(v) for v in verdicts] == [repr(reference_verdict(V, samples=2000)) for V in ops]
        assert any(v.violated for v in verdicts[15:])
        assert not all(v.violated for v in verdicts)


FIXTURES = [
    "attracting_not_unique",
    "uniqueness_sufficiency_gap",
    "unique_not_contractive_s2",
    "va_a0",
    "va_a05",
    "va_a23",
]


def _bound_cases():
    cases = [(name, load_fixture(name).build()) for name in FIXTURES]
    cases += [(f"slow-n{n}-seed{s}", random_structured_tensors(n, 1, seed=s)[0]) for n, s in [(5, 14), (8, 11)]]
    for n in range(2, 9):
        rng = np.random.default_rng(600 + n)
        for margin in (0.02, 0.0):
            V = random_structured_tensors(n, 1, seed=700 + n, uniqueness_margin=margin)[0]
            cases.append((f"structured-n{n}-margin{margin}", V))
        cases.append((f"general-n{n}", random_general_operator(n, rng)))
    return cases


BOUND_CASES = _bound_cases()
ORDER_TOLERANCES = [0.0, 1e-15, 1e-12, 1e-9]


def moved_across_the_cap(n, seed, pair, delta):
    """A structured operator whose off-diagonal pair (l, j), l < j, puts mass
    1/2 + delta on the outcomes before j: the excess over S_k is delta."""
    p = random_structured_tensors(n, 1, seed=seed, uniqueness_margin=0.0)[0].tensor.p.copy()
    l, j = pair
    early = p[l, j, :j].sum()
    p[l, j, :j] *= (0.5 + delta) / early
    p[l, j, j:] *= (0.5 - delta) / (1.0 - early)
    p[j, l] = p[l, j]
    return make_operator(HeredityTensor(n, p))


class TestOrderBound:
    """The coefficient bound that returns the scan's verdict without a scan.

    ``reference_verify`` scans every operator in full; the verifier must
    return its verdict to the bit, and wherever the bound holds the
    reference must have found no witness.
    """

    @pytest.mark.parametrize("V", [V for _, V in BOUND_CASES], ids=[name for name, _ in BOUND_CASES])
    def test_verdicts_match_the_full_scan(self, V):
        for eps in ORDER_TOLERANCES:
            want = reference_verify(V, eps=eps)
            if _order_bound_holds(V, eps):
                assert not want.violated
            assert repr(verify_bbistochastic_numeric(V, eps=eps)) == repr(want)

    def test_bound_holds_on_structured_operators(self):
        structured = [V for name, V in BOUND_CASES if not name.startswith("general")]
        assert all(_order_bound_holds(V, EPS_ORDER) for V in structured)
        # never at eps <= 0, and not when eps is below the rounding slack
        for V in structured[:3]:
            for eps in (-1.0, -1e-12, 0.0, 1e-15):
                assert not _order_bound_holds(V, eps)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 10_000),
        data=st.data(),
        delta=st.sampled_from([s * d for s in (1, -1) for d in (1e-14, 1e-13, 1e-12, 1e-11)]),
        eps=st.sampled_from(ORDER_TOLERANCES),
    )
    def test_mass_moved_across_the_half_cap(self, n, seed, data, delta, eps):
        l = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(l + 1, n - 1))
        V = moved_across_the_cap(n, seed, (l, j), delta)
        want = reference_verify(V, samples=2000, seed=seed, eps=eps)
        holds = _order_bound_holds(V, eps)
        if holds:
            assert not want.violated
        if delta > eps:
            assert not holds
        got = verify_bbistochastic_numeric(V, samples=2000, seed=seed, eps=eps)
        assert repr(got) == repr(want)

    def test_grid_witness_without_drawing_samples(self, monkeypatch):
        t = tensor_from_entries(2, {(1, 1, 1): 1.0, (1, 2, 1): 1.0, (2, 2, 2): 1.0})
        V = make_operator(t)
        want = reference_verify(V)
        assert want.violated

        def no_samples(*args):
            raise AssertionError("samples drawn although the grid has a witness")

        monkeypatch.setattr(classify, "sample_array", no_samples)
        assert repr(verify_bbistochastic_numeric(V)) == repr(want)

    def test_bound_needs_neither_grid_nor_samples(self, monkeypatch):
        V = load_fixture("va_a23").build()
        want = reference_verify(V, seed=7)

        def no_points(*args):
            raise AssertionError("points built although the coefficients prove the order")

        monkeypatch.setattr(classify, "grid_array", no_points)
        monkeypatch.setattr(classify, "sample_array", no_points)
        assert repr(verify_bbistochastic_numeric(V, seed=7)) == repr(want)


class TestUniquenessConditions:
    def test_va_met(self):
        assert check_uniqueness_conditions(va_operator(0.9)).met

    def test_diagonal_violation(self, three_vertex_operator):
        rep = check_uniqueness_conditions(three_vertex_operator)
        assert not rep.met
        assert (1, 1) in rep.violations
        assert (2, 2) in rep.violations

    def test_half_violation(self, sufficiency_gap_operator):
        rep = check_uniqueness_conditions(sufficiency_gap_operator)
        assert not rep.met
        assert (1, 3) in rep.violations

    def test_generated_tensors_met(self):
        for V in random_structured_tensors(3, 20, seed=61):
            assert check_uniqueness_conditions(V).met


class TestConvexCombination:
    def test_endpoints(self):
        V1, V2 = va_operator(0.2), va_operator(0.8)
        assert np.allclose(check_convex_combination(V1, V2, 1.0).tensor.p, V1.tensor.p)
        assert np.allclose(check_convex_combination(V1, V2, 0.0).tensor.p, V2.tensor.p)

    def test_midpoint(self):
        blend = check_convex_combination(va_operator(0.2), va_operator(0.8), 0.5)
        assert np.allclose(blend.tensor.p, va_operator(0.5).tensor.p)

    def test_requires_uniqueness(self, three_vertex_operator):
        with pytest.raises(ValueError):
            check_convex_combination(three_vertex_operator, three_vertex_operator, 0.5)

    def test_postcondition_raises(self, monkeypatch):
        import qsodyn.classify as classify_module

        real = classify_module.check_uniqueness_conditions
        calls = []

        def fails_on_blend(V):
            calls.append(V)
            rep = real(V)
            return rep if len(calls) <= 2 else type(rep)(met=False, violations=[(1, 1)])

        monkeypatch.setattr(classify_module, "check_uniqueness_conditions", fails_on_blend)
        with pytest.raises(TensorError):
            check_convex_combination(va_operator(0.2), va_operator(0.8), 0.5)

    def test_random_blends_stay_in_class(self):
        ops = random_structured_tensors(3, 6, seed=62)
        for V1, V2 in zip(ops[::2], ops[1::2]):
            blend = check_convex_combination(V1, V2, 0.3)
            assert check_uniqueness_conditions(blend).met


class TestVertexStability:
    def test_va_attracting(self):
        assert classify_vertex_stability(va_operator(0.5)) == "attracting"

    def test_example_attracting(self, three_vertex_operator):
        assert classify_vertex_stability(three_vertex_operator) == "attracting"

    def test_non_hyperbolic_boundary(self):
        t = tensor_from_entries(
            2, {(1, 1, 2): 1.0, (1, 2, 1): 0.5, (1, 2, 2): 0.5, (2, 2, 2): 1.0}
        )
        assert classify_vertex_stability(make_operator(t)) == "non_hyperbolic"

    def test_never_repelling(self):
        for V in random_structured_tensors(4, 20, seed=63):
            assert classify_vertex_stability(V) in {"attracting", "non_hyperbolic", "mixed"}


class TestContraction:
    def test_va_two_thirds_not_strict(self):
        res = strict_contraction_general(va_operator(2.0 / 3.0))
        assert res.modulus == pytest.approx(4.0 / 3.0)
        assert not res.is_strict

    def test_small_coefficients_strict(self):
        t = tensor_from_entries(
            2, {(1, 1, 1): 0.3, (1, 1, 2): 0.7, (1, 2, 1): 0.2, (1, 2, 2): 0.8, (2, 2, 2): 1.0}
        )
        V = make_operator(t)
        res = strict_contraction_general(V)
        assert res.modulus == pytest.approx(0.4)
        assert res.is_strict
        assert strict_contraction_1d(V)

    def test_identical_rows_modulus_zero(self):
        t = tensor_from_entries(
            2,
            {
                (1, 1, 1): 0.2,
                (1, 1, 2): 0.8,
                (1, 2, 1): 0.2,
                (1, 2, 2): 0.8,
                (2, 1, 1): 0.2,
                (2, 1, 2): 0.8,
                (2, 2, 1): 0.2,
                (2, 2, 2): 0.8,
            },
        )
        assert strict_contraction_general(make_operator(t)).modulus == 0.0

    def test_enumeration_oracle(self):
        for V in random_structured_tensors(3, 30, seed=64):
            res = strict_contraction_general(V)
            assert res.modulus == pytest.approx(modulus_by_enumeration(V), abs=1e-14)

    def test_1d_agrees_with_general(self):
        rng = np.random.default_rng(65)
        for _ in range(200):
            a, b = rng.random(), rng.uniform(0, 0.5)
            t = tensor_from_entries(
                2,
                {(1, 1, 1): a, (1, 1, 2): 1 - a, (1, 2, 1): b, (1, 2, 2): 1 - b, (2, 2, 2): 1.0},
            )
            V = make_operator(t)
            assert strict_contraction_1d(V) == strict_contraction_general(V).is_strict

    def test_2d_matches_general_modulus(self):
        for V in random_structured_tensors(3, 100, seed=66):
            res2 = strict_contraction_2d(V)
            resg = strict_contraction_general(V)
            assert res2.max_quantity == pytest.approx(resg.modulus, abs=1e-12)
            assert res2.is_strict == resg.is_strict

    def test_s2_example_not_strict(self, s2_noncontractive_operator):
        res2 = strict_contraction_2d(s2_noncontractive_operator)
        assert res2.max_quantity == pytest.approx(2.0)
        assert not res2.is_strict

    def test_dimension_guards(self, three_vertex_operator):
        with pytest.raises(ValueError):
            strict_contraction_1d(three_vertex_operator)
        with pytest.raises(ValueError):
            strict_contraction_2d(va_operator(0.5))


class TestLinearForm:
    def test_boundary(self):
        assert linear_form_nonpositive([-1, -2], 0.0)
        assert not linear_form_nonpositive([-1, -2], 0.0, strict=True)

    def test_strict_violation(self):
        assert not linear_form_nonpositive([0.5, -2], -0.3, strict=True)

    def test_matches_grid_evaluation(self):
        rng = np.random.default_rng(67)
        from qsodyn.simplex import grid_simplex

        pts = np.array([p.coords for p in grid_simplex(3, 12)])
        for _ in range(50):
            A = rng.uniform(-1, 1, size=3)
            C = rng.uniform(-1, 1)
            vals = pts @ A + C
            assert linear_form_nonpositive(A, C) == bool((vals <= 1e-12).all())


class TestAggregateReport:
    def test_report_shape(self, three_vertex_operator):
        rep = classify_operator(three_vertex_operator, samples=500)
        d = rep.to_dict()
        assert d["n"] == 3
        assert d["vertex_stability"] == "attracting"
        assert not d["uniqueness_conditions_met"]
        assert not d["contraction"]["is_strict"]
        assert "contraction_2d" in d
        assert rep.necessary.by_name("cumulative_mass").passed

    def test_1d_branch(self):
        rep = classify_operator(va_operator(0.4), samples=500)
        assert rep.contraction_1d is True
        assert rep.contraction_2d is None
