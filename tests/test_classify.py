import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    load_fixture,
    random_general_operator,
    reference_contraction,
    reference_grid,
    reference_samples,
    reference_verify,
    structured_draws,
    two_state,
)
from qsodyn import classify
from qsodyn.abscont import va_operator
from qsodyn.classify import (
    DEFAULT_SAMPLES,
    NumericOrderVerdict,
    check_necessary_bbistochastic,
    check_uniqueness_conditions,
    classify_operator,
    classify_vertex_stability,
    strict_contraction_1d,
    strict_contraction_2d,
    strict_contraction_general,
    verify_bbistochastic_numeric,
)
from qsodyn.generate import random_structured_tensors
from qsodyn.operator import HeredityTensor, evaluate_array, make_operator, tensor_from_entries, vertex_eigenvalues
from qsodyn.simplex import EPS_ORDER, SimplexPoint


def modulus_by_enumeration(V):
    """Independent triple-by-triple recomputation of the contraction modulus."""
    n = V.n
    best = 0.0
    for i1 in range(1, n + 1):
        for i2 in range(1, n + 1):
            for k in range(1, n + 1):
                s = sum(
                    abs(V.tensor.p[i1 - 1, k - 1, j - 1] - V.tensor.p[i2 - 1, k - 1, j - 1])
                    for j in range(1, n + 1)
                )
                best = max(best, s)
    return best


class TestNecessaryConditions:
    def test_va_passes(self):
        rep = check_necessary_bbistochastic(va_operator(0.5))
        assert all(c.passed for c in rep)

    def test_upper_block_witness(self):
        t = tensor_from_entries(
            2, {(1, 1, 1): 0.5, (1, 1, 2): 0.5, (1, 2, 2): 1.0, (2, 2, 1): 0.1, (2, 2, 2): 0.9}
        )
        rep = check_necessary_bbistochastic(make_operator(t))
        cond = {c.name: c for c in rep}["upper_block_zero"]
        assert not cond.passed
        assert cond.witness == (2, 2, 1)

    def test_absorbing_last_witness(self):
        t = tensor_from_entries(
            2, {(1, 1, 2): 1.0, (1, 2, 2): 1.0, (2, 2, 1): 0.1, (2, 2, 2): 0.9}
        )
        rep = check_necessary_bbistochastic(make_operator(t))
        assert not {c.name: c for c in rep}["absorbing_last"].passed

    def test_half_bound_witness(self):
        t = tensor_from_entries(
            2, {(1, 1, 2): 1.0, (1, 2, 1): 0.6, (1, 2, 2): 0.4, (2, 2, 2): 1.0}
        )
        rep = check_necessary_bbistochastic(make_operator(t))
        cond = {c.name: c for c in rep}["half_bound"]
        assert not cond.passed
        assert cond.witness == (1, 2, 0.6)

    def test_cumulative_mass_stops_before_n(self):
        """The stored p[1,1,.] = (0.1, 0.9) sums to just over 1, so the
        stored masses sum to just over k*n = 4 at k = n, where the clause is
        the normalization and is not checked. p[1,2,1] = 0.625 breaks the
        order bound, so the masses are summed."""
        t = tensor_from_entries(
            2, {(1, 1, 1): 0.1, (1, 1, 2): 0.9, (1, 2, 1): 0.625, (1, 2, 2): 0.375, (2, 2, 2): 1.0}
        )
        V = make_operator(t)
        assert math.fsum([*V.tensor.p.ravel().tolist(), -4.0]) > 0
        assert not V.clauses.order_bound
        assert {c.name: c for c in check_necessary_bbistochastic(V)}["cumulative_mass"].passed

    def test_generated_tensors_pass(self):
        for V in random_structured_tensors(4, 10, seed=60):
            assert all(c.passed for c in check_necessary_bbistochastic(V))

    def test_passed_is_a_python_bool(self):
        # reports are serialized by json.dumps, which rejects numpy.bool
        for name in FIXTURES:
            rep = check_necessary_bbistochastic(load_fixture(name).build())
            for c in rep:
                assert type(c.passed) is bool, (name, c.name)


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
        assert V.clauses.order_bound
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
    """The coefficient bound e <= 0 that returns the scan's verdict without
    a scan, read from the operator's coefficient clauses.

    ``reference_verify`` scans every operator in full at EPS_ORDER; the
    verifier must return its verdict to the bit, and wherever the bound
    holds the reference must have found no witness.
    """

    @pytest.mark.parametrize("V", [V for _, V in BOUND_CASES], ids=[name for name, _ in BOUND_CASES])
    def test_verdicts_match_the_full_scan(self, V):
        want = reference_verify(V, eps=EPS_ORDER)
        if V.clauses.order_bound:
            assert not want.violated
        assert repr(verify_bbistochastic_numeric(V)) == repr(want)

    def test_bound_holds_on_structured_operators(self):
        structured = [V for name, V in BOUND_CASES if not name.startswith("general")]
        assert all(V.clauses.order_bound for V in structured)
        # a general draw breaks upper_block_zero, and with it the bound
        assert not any(V.clauses.order_bound for name, V in BOUND_CASES if name.startswith("general"))

    def test_bound_matches_rational_arithmetic(self):
        """e <= 0 recomputed entry by entry in Fraction, on the bound cases
        and on structured draws with one coefficient pair one double up."""
        rng = np.random.default_rng(61)
        cases = [V for _, V in BOUND_CASES]
        for n in range(2, 9):
            for V in random_structured_tensors(n, 4, seed=800 + n, uniqueness_margin=0.0):
                p = V.tensor.p.copy()
                i, j = sorted(rng.integers(0, n, 2))
                k = rng.integers(0, max(j, 1))
                p[i, j, k] = p[j, i, k] = np.nextafter(p[i, j, k], 1.0)
                cases.append(make_operator(HeredityTensor(n, p)))
        for V in cases:
            P, n = V.tensor.p.tolist(), V.n
            e_nonpositive = all(
                sum(map(Fraction, P[i][j][: k + 1])) <= Fraction((i <= k) + (j <= k), 2)
                for k in range(n - 1)
                for i in range(n)
                for j in range(n)
            )
            assert V.clauses.order_bound == e_nonpositive
        assert not all(V.clauses.order_bound for V in cases[len(BOUND_CASES) :])

    def test_bound_is_decided_on_the_exact_sum(self):
        """p[1,3,1] + p[1,3,2] = 1/2 + 2^-60 rounds to 1/2 in floating
        point; the exact sum is over the cap, so e > 0 and the scan runs,
        which finds no witness."""
        tiny = 2.0**-60
        t = tensor_from_entries(
            3,
            {
                (1, 1, 1): 0.5, (1, 1, 2): 0.25, (1, 1, 3): 0.25,
                (1, 2, 1): 0.25, (1, 2, 2): 0.25, (1, 2, 3): 0.5,
                (1, 3, 1): 0.5, (1, 3, 2): tiny, (1, 3, 3): 0.5,
                (2, 2, 2): 0.5, (2, 2, 3): 0.5,
                (2, 3, 2): 0.25, (2, 3, 3): 0.75,
                (3, 3, 3): 1.0,
            },
        )
        V = make_operator(t)
        assert 0.5 + tiny == 0.5 and math.fsum([0.5, tiny, -0.5]) > 0
        assert not V.clauses.order_bound
        want = reference_verify(V, samples=500, eps=EPS_ORDER)
        assert not want.violated
        assert repr(verify_bbistochastic_numeric(V, samples=500)) == repr(want)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 10_000),
        data=st.data(),
        delta=st.sampled_from([s * d for s in (1, -1) for d in (1e-14, 1e-13, 1e-12, 1e-11)]),
    )
    def test_mass_moved_across_the_half_cap(self, n, seed, data, delta):
        l = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(l + 1, n - 1))
        V = moved_across_the_cap(n, seed, (l, j), delta)
        # the excess is delta, far above the rounding of the moved mass
        assert V.clauses.order_bound == (delta < 0)
        want = reference_verify(V, samples=2000, seed=seed, eps=EPS_ORDER)
        if V.clauses.order_bound:
            assert not want.violated
        got = verify_bbistochastic_numeric(V, samples=2000, seed=seed)
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
    def test_random_blends_stay_in_class(self):
        # a convex blend of two operators meeting the uniqueness bounds meets them too
        ops = random_structured_tensors(3, 6, seed=62)
        for V1, V2 in zip(ops[::2], ops[1::2]):
            blend = make_operator(HeredityTensor(3, 0.3 * V1.tensor.p + 0.7 * V2.tensor.p))
            assert check_uniqueness_conditions(V1).met and check_uniqueness_conditions(V2).met
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


def three_state_vertex(b, e):
    """Structured n = 3 with p[1,3,1] = b and p[2,3,2] = e: eigenvalues 2b, 2e."""
    p = np.zeros((3, 3, 3))
    rows = {(0, 0): (0.5, 0.25, 0.25), (0, 1): (0.2, 0.3, 0.5), (0, 2): (b, 0.0, 1 - b), (1, 1): (0, 0.5, 0.5),
            (1, 2): (0, e, 1 - e), (2, 2): (0, 0, 1)}
    for (i, j), row in rows.items():
        p[i, j] = p[j, i] = row
    return make_operator(HeredityTensor(3, p))


def _coherence_cases():
    half_below = math.nextafter(0.5, 0)
    cases = [(name, load_fixture(name).build()) for name in FIXTURES]
    cases += [(f"draw{r}", V) for r, V in enumerate(structured_draws())]
    for b in (0.5 - 2.5e-11, half_below, 0.5, math.nextafter(0.5, 1)):
        cases.append((f"two_state-b{b!r}", two_state(0.3, b)))
    for b, e in ((half_below, half_below), (0.5, half_below), (0.5, 0.6), (half_below, 0.6)):
        cases.append((f"three_state-b{b!r}-e{e!r}", three_state_vertex(b, e)))
    return cases


COHERENCE_CASES = _coherence_cases()


def quantized_operator(n, rng):
    """Symmetric rows of quarters, so that the largest sums often tie."""
    p = rng.multinomial(4, np.ones(n) / n, size=(n, n)) / 4
    lower = np.tril_indices(n, -1)
    p[lower] = p[lower[::-1]]
    return make_operator(HeredityTensor(n, p))


class TestContractionMatchesLoop:
    """The modulus as one array expression against the loop over pairs in
    conftest: the same bits and the same first largest triple."""

    def test_fixtures_draws_and_ties(self):
        rng = np.random.default_rng(2301)
        cases = COHERENCE_CASES + [("quantized", quantized_operator(n, rng)) for n in range(2, 9) for _ in range(10)]
        cases.append(("all sums 0, triple (1, 1, 1)", two_state(0.2, 0.2, 0.2)))
        ties = 0
        for name, V in cases:
            res = strict_contraction_general(V)
            modulus, triple = reference_contraction(V)
            assert (res.modulus.hex(), res.argmax_triple) == (modulus.hex(), triple), name
            assert type(res.is_strict) is bool and all(type(i) is int for i in res.argmax_triple)
            json.dumps(asdict(res))
            D = np.abs(V.tensor.p[:, None] - V.tensor.p[None, :]).sum(axis=3)
            ties += np.count_nonzero(D[np.triu_indices(V.n, 1)] == modulus) > 1
        assert ties > 50


class TestCoherence:
    """The vertex verdict, the uniqueness clauses and the contraction
    criteria are decided by one exact rule, so they cannot disagree at a
    boundary."""

    @pytest.mark.parametrize("V", [V for _, V in COHERENCE_CASES], ids=[name for name, _ in COHERENCE_CASES])
    def test_vertex_verdict_follows_the_uniqueness_clauses(self, V):
        """(k, n) breaks the uniqueness bounds exactly where eigenvalue k is
        at least 1, and the vertex is attracting exactly where none does."""
        n = V.n
        broken = {k for k, j in check_uniqueness_conditions(V).violations if j == n}
        assert broken == {k for k, e in enumerate(vertex_eigenvalues(V), 1) if e >= 1.0}
        assert (classify_vertex_stability(V) == "attracting") == (not broken)

    def test_uniqueness_met_is_attracting(self):
        met = [V for _, V in COHERENCE_CASES if check_uniqueness_conditions(V).met]
        assert len(met) > 150
        assert all(classify_vertex_stability(V) == "attracting" for V in met)

    def test_non_hyperbolic_and_mixed(self):
        below = math.nextafter(0.5, 0)
        assert classify_vertex_stability(three_state_vertex(0.5, below)) == "non_hyperbolic"
        assert classify_vertex_stability(three_state_vertex(0.5, 0.6)) == "non_hyperbolic"
        assert classify_vertex_stability(three_state_vertex(below, 0.6)) == "mixed"

    def test_two_state_criterion_matches_the_modulus(self):
        draws = [V for V in structured_draws() if V.n == 2]
        assert len(draws) == 50
        for V in draws:
            assert strict_contraction_1d(V) is strict_contraction_general(V).is_strict


class TestAggregateReport:
    def test_report_shape(self, three_vertex_operator):
        rep = classify_operator(three_vertex_operator)
        assert rep.n == 3
        assert rep.vertex_stability == "attracting"
        assert not rep.uniqueness.met
        assert not rep.contraction.is_strict
        assert rep.contraction_1d is None
        assert rep.contraction_2d is not None
        assert {c.name: c for c in rep.necessary}["cumulative_mass"].passed

    def test_1d_branch(self):
        rep = classify_operator(va_operator(0.4))
        assert rep.contraction_1d is True
        assert rep.contraction_2d is None
