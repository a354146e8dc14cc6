import numpy as np
import pytest

from conftest import load_fixture, random_general_operator, reference_grid, reference_samples
from qsodyn.abscont import va_operator
from qsodyn.classify import (
    DEFAULT_SAMPLES,
    NumericOrderVerdict,
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
from qsodyn.operator import TensorError, evaluate_array, make_operator, tensor_from_entries
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
