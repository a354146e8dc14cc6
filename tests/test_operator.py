import numpy as np
import pytest

from qsodyn.abscont import va_operator
from qsodyn.generate import random_structured_tensors
from qsodyn.operator import (
    HeredityTensor,
    TensorError,
    evaluate,
    evaluate_array,
    evaluate_canonical,
    find_fixed_points,
    iterate,
    make_operator,
    reduced_jacobian,
    tensor_from_entries,
    trajectory,
    vertex_eigenvalues,
)
from qsodyn.simplex import b_leq, l1_distance, make_point, sample_array, sample_simplex, terminal_vertex, vertex


class TestMakeOperator:
    def test_va_valid(self):
        V = va_operator(0.5)
        assert V.tensor.entry(1, 1, 1) == 0.5
        assert V.tensor.entry(2, 2, 2) == 1.0

    def test_unit_mass_violation(self):
        t = tensor_from_entries(2, {(1, 1, 1): 0.6, (1, 1, 2): 0.6, (1, 2, 2): 1.0, (2, 2, 2): 1.0})
        with pytest.raises(TensorError):
            make_operator(t)

    def test_negative_entry(self):
        t = tensor_from_entries(
            2, {(1, 1, 1): -0.1, (1, 1, 2): 1.1, (1, 2, 2): 1.0, (2, 2, 2): 1.0}
        )
        with pytest.raises(TensorError):
            make_operator(t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, bad):
        t = tensor_from_entries(
            2, {(1, 1, 1): bad, (1, 1, 2): 0.5, (1, 2, 2): 1.0, (2, 2, 2): 1.0}
        )
        with pytest.raises(TensorError, match=r"\(1,1,1\)"):
            make_operator(t)

    def test_asymmetry_detected_and_symmetrized(self):
        p = np.zeros((2, 2, 2))
        p[0, 0, 0], p[0, 0, 1] = 0.5, 0.5
        p[0, 1, 1] = 1.0
        p[1, 0, 0], p[1, 0, 1] = 0.2, 0.8
        p[1, 1, 1] = 1.0
        with pytest.raises(TensorError):
            make_operator(HeredityTensor(2, p))
        V = make_operator(HeredityTensor(2, p), symmetrize=True)
        assert V.tensor.entry(1, 2, 1) == pytest.approx(0.1)
        assert V.tensor.entry(2, 1, 1) == pytest.approx(0.1)

    def test_mirroring(self):
        V = va_operator(0.3)
        assert V.tensor.entry(2, 1, 2) == 1.0


class TestEvaluate:
    def test_hand_value(self):
        V = va_operator(2.0 / 3.0)
        y = evaluate(V, make_point([0.6, 0.4]))
        assert y[0] == pytest.approx(0.24, abs=1e-15)
        assert y[1] == pytest.approx(0.76, abs=1e-15)

    def test_terminal_vertex_fixed(self):
        for a in (0.0, 0.4, 1.0):
            V = va_operator(a)
            assert evaluate(V, terminal_vertex(2)).coords == (0.0, 1.0)

    def test_vertex_fixed_in_example(self, three_vertex_operator):
        x = vertex(3, 1)
        assert l1_distance(evaluate(three_vertex_operator, x), x) <= 1e-15

    def test_symmetrization_invariance(self):
        rng = np.random.default_rng(4)
        p = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                row = rng.random(3)
                p[i, j] = row / row.sum()
        sym = make_operator(HeredityTensor(3, p), symmetrize=True)
        # the quadratic form only sees the symmetric part of the tensor
        direct = np.einsum("ijk,i,j->k", p, *(2 * [np.array([0.2, 0.3, 0.5])]))
        via_sym = evaluate(sym, make_point([0.2, 0.3, 0.5]))
        assert np.allclose(direct, via_sym.as_array(), atol=1e-14)

    def test_output_on_simplex(self):
        for V in random_structured_tensors(4, 5, seed=9):
            for x in sample_simplex(4, 10, seed=10):
                y = evaluate(V, x)
                assert abs(sum(y.coords) - 1.0) <= 1e-12
                assert min(y.coords) >= 0.0


def test_batch_rows_independent():
    """A row's batch image depends on that row alone, whatever block it
    falls in, and agrees with the scalar map to rounding."""
    for n in (2, 3, 5, 8):
        V = random_structured_tensors(n, 1, seed=n)[0]
        X = sample_array(n, 700, seed=n)
        Y = evaluate_array(V, X)
        assert np.array_equal(Y[3:600], evaluate_array(V, X[3:600]))
        for r in range(0, 700, 37):
            assert np.array_equal(Y[r], evaluate_array(V, X[r : r + 1])[0])
        assert np.abs(Y - np.einsum("ijk,pi,pj->pk", V.tensor.p, X, X)).max() <= 1e-15


class TestCanonicalEvaluation:
    def test_matches_direct_on_structured_tensors(self):
        pts = sample_simplex(3, 50, seed=21)
        for V in random_structured_tensors(3, 20, seed=20):
            for x in pts:
                d = l1_distance(evaluate(V, x), evaluate_canonical(V, x))
                assert d <= 1e-12

    def test_hand_value(self):
        V = va_operator(0.5)
        y = evaluate_canonical(V, make_point([0.5, 0.5]))
        assert y[0] == pytest.approx(0.125, abs=1e-15)
        assert y[1] == pytest.approx(0.875, abs=1e-15)

    def test_terminal_vertex(self):
        V = random_structured_tensors(4, 1, seed=22)[0]
        assert evaluate_canonical(V, terminal_vertex(4)).coords == (0.0, 0.0, 0.0, 1.0)

    def test_rejects_unstructured(self):
        t = tensor_from_entries(
            2, {(1, 1, 1): 0.5, (1, 1, 2): 0.5, (1, 2, 2): 1.0, (2, 2, 1): 0.2, (2, 2, 2): 0.8}
        )
        with pytest.raises(TensorError):
            evaluate_canonical(make_operator(t), make_point([0.5, 0.5]))


class TestIteration:
    def test_identity_at_zero(self):
        V = va_operator(0.5)
        x = make_point([0.4, 0.6])
        assert iterate(V, x, 0) == x

    def test_fast_collapse(self):
        V = va_operator(2.0 / 3.0)
        tr = trajectory(V, make_point([0.99, 0.01]), tol=1e-12)
        assert tr.converged
        assert tr.iterations_used <= 20
        assert tr.limit[0] <= 1e-10

    def test_stationary_start(self, three_vertex_operator):
        tr = trajectory(three_vertex_operator, vertex(3, 2))
        assert tr.converged
        assert tr.limit == vertex(3, 2)

    def test_limit_is_fixed_point(self):
        for V in random_structured_tensors(3, 10, seed=30):
            tr = trajectory(V, make_point([1 / 3] * 3), tol=1e-12)
            assert tr.converged
            assert l1_distance(evaluate(V, tr.limit), tr.limit) <= 1e-11


class TestJacobian:
    def test_finite_differences(self):
        h = 1e-6
        for V in random_structured_tensors(3, 5, seed=40):
            for x in sample_simplex(3, 5, seed=41):
                J = reduced_jacobian(V, x)
                xa = x.as_array()
                for i in range(2):
                    up, dn = xa.copy(), xa.copy()
                    up[i] += h
                    up[2] -= h
                    dn[i] -= h
                    dn[2] += h
                    fd = (
                        np.einsum("ijk,i,j->k", V.tensor.p, up, up)
                        - np.einsum("ijk,i,j->k", V.tensor.p, dn, dn)
                    ) / (2 * h)
                    assert np.allclose(J[:, i], fd[:2], atol=1e-5)

    def test_lower_triangular_at_terminal_vertex(self):
        for V in random_structured_tensors(4, 5, seed=42):
            J = reduced_jacobian(V, terminal_vertex(4))
            assert np.abs(np.triu(J, k=1)).max() <= 1e-14

    def test_vertex_eigenvalues_match_eigensolve(self):
        for V in random_structured_tensors(4, 10, seed=43):
            J = reduced_jacobian(V, terminal_vertex(4))
            numeric = np.sort(np.linalg.eigvals(J).real)
            claimed = np.sort(vertex_eigenvalues(V))
            assert np.allclose(numeric, claimed, atol=1e-10)

    def test_example_diagonal(self, three_vertex_operator):
        assert vertex_eigenvalues(three_vertex_operator) == pytest.approx([0.6, 0.6])

    def test_va_eigenvalue_zero(self):
        assert vertex_eigenvalues(va_operator(0.7)) == [0.0]


class TestFixedPoints:
    def test_three_vertices(self, three_vertex_operator):
        fps = find_fixed_points(three_vertex_operator, tol=1e-9)
        coords = {tuple(round(c, 9) for c in p.coords) for p in fps.points}
        assert coords == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
        assert max(fps.residuals) <= 1e-9

    def test_va_unique(self):
        for a in (0.0, 0.5, 2.0 / 3.0):
            fps = find_fixed_points(va_operator(a), tol=1e-9)
            assert [p.coords for p in fps.points] == [(0.0, 1.0)]

    def test_va_a1_two_points(self):
        fps = find_fixed_points(va_operator(1.0), tol=1e-9)
        coords = {tuple(round(c, 9) for c in p.coords) for p in fps.points}
        assert coords == {(0.0, 1.0), (1.0, 0.0)}

    def test_sufficiency_gap_unique(self, sufficiency_gap_operator):
        fps = find_fixed_points(sufficiency_gap_operator, tol=1e-9)
        assert [p.coords for p in fps.points] == [(0.0, 0.0, 1.0)]

    def test_pairwise_separation(self, three_vertex_operator):
        fps = find_fixed_points(three_vertex_operator)
        for i, p in enumerate(fps.points):
            for q in fps.points[i + 1 :]:
                assert l1_distance(p, q) > fps.dedup_radius


def test_bbistochastic_order_along_samples():
    for V in random_structured_tensors(3, 10, seed=50):
        for x in sample_simplex(3, 30, seed=51):
            assert b_leq(evaluate(V, x), x)
