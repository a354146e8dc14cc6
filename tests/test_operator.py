import gc
import json
import math
from importlib import resources

import numpy as np
import pytest

import qsodyn.generate
import qsodyn.specfile
from conftest import cyclic_vertex_operator, load_fixture, random_general_operator
from qsodyn.abscont import va_operator
from qsodyn.generate import random_structured_tensors
from qsodyn.operator import (
    HeredityTensor,
    QsoOperator,
    TensorError,
    _reduced_jacobians,
    _solve_rows,
    block_rows,
    evaluate,
    evaluate_array,
    find_fixed_points,
    make_operator,
    tensor_from_entries,
    trajectory,
    vertex_eigenvalues,
)
from qsodyn.simplex import (
    DimensionMismatch,
    SimplexError,
    b_leq,
    l1_distance,
    make_point,
    sample_array,
    sample_simplex,
    vertex,
)


class TestMakeOperator:
    def test_va_valid(self):
        V = va_operator(0.5)
        assert V.tensor.p[0, 0, 0] == 0.5
        assert V.tensor.p[1, 1, 1] == 1.0

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
        assert V.tensor.p[0, 1, 0] == pytest.approx(0.1)
        assert V.tensor.p[1, 0, 0] == pytest.approx(0.1)

    def test_symmetric_input_is_stored_as_given(self, monkeypatch):
        """Every fixture and generate draw is stored to the bit as
        np.clip(p, 0, 1): a symmetric tensor averaged with its transpose
        keeps every bit, signed zeros included."""
        made = []

        def recording(tensor, symmetrize=False):
            V = make_operator(tensor, symmetrize)
            made.append((tensor.p, V.tensor.p))
            return V

        for module in (qsodyn.generate, qsodyn.specfile):
            monkeypatch.setattr(module, "make_operator", recording)
        manifest = json.loads(resources.files("qsodyn").joinpath("fixtures/manifest.json").read_text())
        for name in manifest["fixtures"]:
            load_fixture(name.removesuffix(".json")).build()
        for n in range(2, 9):
            for margin in (0.02, 0.0):
                random_structured_tensors(n, 25, seed=n, uniqueness_margin=margin)
        assert len(made) == 6 + 7 * 2 * 25
        for given, stored in made:
            assert stored.tobytes() == np.clip(given, 0.0, 1.0).tobytes()

    def test_stored_tensor_is_read_only(self):
        """clauses is decided once, so the stored tensor cannot change under it."""
        V = make_operator(tensor_from_entries(2, {(1, 1, 1): 1.0, (1, 2, 2): 1.0, (2, 2, 2): 1.0}))
        assert V.clauses.violations == [(1, 1)]
        with pytest.raises(ValueError, match="read-only"):
            V.tensor.p[0, 0, 0] = 0.25
        assert V.tensor.p[0, 0, 0] == 1.0

    def test_constructor_rejects_a_writeable_tensor(self):
        p = va_operator(0.5).tensor.p.copy()
        with pytest.raises(TensorError, match=r"read-only array of shape \(2, 2, 2\)"):
            QsoOperator(HeredityTensor(2, p))
        p.flags.writeable = False
        assert QsoOperator(HeredityTensor(2, p)).tensor.p is p
        with pytest.raises(TensorError, match="shape"):
            QsoOperator(HeredityTensor(3, p))
        view = va_operator(0.5).tensor.p.copy()[:]
        view.flags.writeable = False
        with pytest.raises(TensorError, match="owns its data"):
            QsoOperator(HeredityTensor(2, view))

    def test_constructor_rejects_an_asymmetric_tensor(self):
        """p[1,2,1] = 0.6 and p[2,1,1] = 0.4 would let clauses read the row
        alone; the error names the first asymmetric pair, a signed zero is
        symmetric with its opposite, and NaN with nothing."""
        p = np.array([[[0.5, 0.5], [0.6, 0.4]], [[0.4, 0.6], [-0.0, 1.0]]])
        p.flags.writeable = False
        with pytest.raises(TensorError) as err:
            QsoOperator(HeredityTensor(2, p))
        assert str(err.value) == "asymmetric pair (1,2) at outcome 1: 0.6 vs 0.4"
        q = np.array([[[0.5, 0.5], [-0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]])
        q.flags.writeable = False
        QsoOperator(HeredityTensor(2, q))
        q = q.copy()
        q[0, 0, 0] = np.nan
        q.flags.writeable = False
        with pytest.raises(TensorError, match=r"pair \(1,1\) at outcome 1: nan vs nan"):
            QsoOperator(HeredityTensor(2, q))

    def test_constructor_rejects_a_coefficient_outside_the_unit_interval(self):
        """p[1,3,2] = -0.4 in an otherwise symmetric, read-only tensor whose
        pairs sum to 1: order_bound, which needs nonnegative coefficients,
        would hold, yet V(x) breaks the order at the grid point
        (0.025, 0, 0.975), k = 1."""
        rows = {(1, 1): (0.6, 0.2, 0.2), (1, 2): (0.3, 0.3, 0.4), (1, 3): (0.8, -0.4, 0.6),
                (2, 2): (0.0, 0.5, 0.5), (2, 3): (0.0, 0.3, 0.7), (3, 3): (0.0, 0.0, 1.0)}
        p = np.zeros((3, 3, 3))
        for (i, j), row in rows.items():
            p[i - 1, j - 1] = p[j - 1, i - 1] = row
        x = np.array([0.025, 0.0, 0.975])
        assert np.einsum("ijk,i,j->k", p, x, x)[0] > x[0]
        p.flags.writeable = False
        with pytest.raises(TensorError) as err:
            QsoOperator(HeredityTensor(3, p))
        assert str(err.value) == "coefficient (1,3,2) = -0.4 outside [0, 1]"
        q = p.copy()
        q[0, 2, 1] = q[2, 0, 1] = 0.0
        q[0, 2, 2] = q[2, 0, 2] = 1.2
        q.flags.writeable = False
        with pytest.raises(TensorError, match=r"\(1,3,3\) = 1.2 outside"):
            QsoOperator(HeredityTensor(3, q))

    def test_mirroring(self):
        V = va_operator(0.3)
        assert V.tensor.p[1, 0, 1] == 1.0

    def test_one_state_rejected(self):
        """A 1-state tensor is rejected with tensor_from_entries' message."""
        with pytest.raises(TensorError) as parsed:
            tensor_from_entries(1, {(1, 1, 1): 1.0})
        with pytest.raises(TensorError) as built:
            make_operator(HeredityTensor(1, np.ones((1, 1, 1))))
        assert str(built.value) == str(parsed.value) == "n must be >= 2, got 1"

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 2)])
    def test_shape_must_match_n(self, shape):
        """A 3-state tensor whose array is not (3, 3, 3) is rejected up front,
        before classify_operator or find_fixed_points index past its end."""
        p = np.zeros(shape)
        p[..., -1] = 1.0
        with pytest.raises(TensorError) as err:
            make_operator(HeredityTensor(3, p))
        assert str(err.value) == f"tensor shape must be (3, 3, 3), got {shape}"


class TestEvaluate:
    def test_hand_value(self):
        V = va_operator(2.0 / 3.0)
        y = evaluate(V, make_point([0.6, 0.4]))
        assert y[0] == pytest.approx(0.24, abs=1e-15)
        assert y[1] == pytest.approx(0.76, abs=1e-15)

    def test_terminal_vertex_fixed(self):
        for a in (0.0, 0.4, 1.0):
            V = va_operator(a)
            assert evaluate(V, vertex(2, 2)).coords == (0.0, 1.0)

    def test_vertex_fixed_in_example(self, three_vertex_operator):
        x = vertex(3, 1)
        assert l1_distance(evaluate(three_vertex_operator, x), x) <= 1e-15

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionMismatch, match="operator on 2 states, point has 3"):
            evaluate(va_operator(0.5), make_point([0.2, 0.3, 0.5]))

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


@pytest.mark.parametrize("n", [2, 3, 8])
def test_batch_rows_independent_of_block_boundaries(n):
    """With one row fewer than a block, exactly a block, and one row more,
    every row's batch image equals its single-row image to the bit."""
    V = random_structured_tensors(n, 1, seed=n)[0]
    block = block_rows(n)
    for count in (block - 1, block, block + 1):
        X = sample_array(n, count, seed=count)
        Y = evaluate_array(V, X)
        single = np.concatenate([evaluate_array(V, X[r : r + 1]) for r in range(count)])
        assert Y.tobytes() == single.tobytes()


class TestIteration:
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

    def test_negative_iteration_count_rejected(self):
        V = va_operator(0.5)
        x = make_point([0.4, 0.6])
        with pytest.raises(ValueError, match="max_iter"):
            trajectory(V, x, max_iter=-3)

    @pytest.mark.parametrize("max_iter", [2.5, math.nan])
    @pytest.mark.parametrize("n", [2, 6])
    def test_fractional_iteration_count_rejected(self, max_iter, n):
        """max_iter counts steps: 2.5 would otherwise take 3."""
        V = random_general_operator(n, np.random.default_rng(n))
        with pytest.raises(TypeError):
            trajectory(V, make_point([1.0 / n] * n), max_iter=max_iter)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("excess", [1.0, 1.001])
    @pytest.mark.parametrize("n", [3, 6])
    def test_recorded_orbit_restores_the_collector(self, n, excess, enabled):
        """A recorded orbit pauses the garbage collector and leaves it as it
        found it, also where a step leaves the simplex and raises."""
        p = random_general_operator(n, np.random.default_rng(n)).tensor.p * excess
        p.flags.writeable = False
        V = QsoOperator(HeredityTensor(n, p))
        x = make_point([1.0 / n] * n)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if excess > 1.0:
                with pytest.raises(SimplexError):
                    trajectory(V, x, record_path=True)
            else:
                trajectory(V, x, record_path=True)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_recorded_orbit_runs_no_young_collection(self, sufficiency_gap_operator):
        """2,000 recorded steps allocate 2,000 tracked points, about three
        young collections' worth at the threshold of 700: paused, the
        collector runs at most once before the orbit and once after it."""
        starts = []
        count = lambda phase, info: starts.append(info["generation"]) if phase == "start" else None
        assert gc.isenabled()
        gc.callbacks.append(count)
        try:
            tr = trajectory(sufficiency_gap_operator, make_point([0.2, 0.3, 0.5]), max_iter=2000, record_path=True)
        finally:
            gc.callbacks.remove(count)
        assert len(tr.path) == 2001 and len(starts) <= 2

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_wrong_dimension_rejected(self, max_iter):
        """Even with no step to take, a 3-point is not a start of a 2-state operator."""
        with pytest.raises(DimensionMismatch):
            trajectory(va_operator(0.5), make_point([0.2, 0.3, 0.5]), max_iter=max_iter)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_nonpositive_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            trajectory(va_operator(0.5), make_point([0.5, 0.5]), tol=tol, max_iter=50)

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
                J = _reduced_jacobians(V, x.as_array()[None])[0]
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
            J = _reduced_jacobians(V, vertex(4, 4).as_array()[None])[0]
            assert np.abs(np.triu(J, k=1)).max() <= 1e-14

    def test_vertex_eigenvalues_match_eigensolve(self):
        for V in random_structured_tensors(4, 10, seed=43):
            J = _reduced_jacobians(V, vertex(4, 4).as_array()[None])[0]
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

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_nonpositive_tolerance_rejected(self, tol):
        """A NaN tolerance used to let the search take no Newton step and
        return its unpolished seeds."""
        V = random_general_operator(3, np.random.default_rng(3))
        with pytest.raises(ValueError, match=r"tol must be in \(0, 2\)"):
            find_fixed_points(V, tol=tol)

    @pytest.mark.parametrize("tol", [2.0, 1e300])
    def test_tolerance_of_two_or_more_rejected(self, tol):
        """An l1 residual on the simplex is at most 2: from 2 on every
        polished row would pass, and on this operator a point with residual
        about 2 did."""
        V = cyclic_vertex_operator(3, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"tol must be in \(0, 2\)"):
            find_fixed_points(V, tol=tol)

    def test_tolerance_just_below_two_accepted(self):
        V = cyclic_vertex_operator(3, np.random.default_rng(0))
        fps = find_fixed_points(V, tol=1.999)
        assert fps.diagnostics["method"] == "multistart"
        assert all(r <= 1.999 for r in fps.residuals)

    def test_pairwise_separation(self, three_vertex_operator):
        fps = find_fixed_points(three_vertex_operator)
        for i, p in enumerate(fps.points):
            for q in fps.points[i + 1 :]:
                assert l1_distance(p, q) > fps.dedup_radius


def test_bbistochastic_order_along_samples():
    for V in random_structured_tensors(3, 10, seed=50):
        for x in sample_simplex(3, 30, seed=51):
            assert b_leq(evaluate(V, x), x)


def test_singular_rows_fall_back_to_least_squares():
    """A singular matrix in the stack makes the stacked solve raise: then
    each regular row is np.linalg.solve's answer and each singular row
    np.linalg.lstsq's, to the bit."""
    J = np.stack([np.eye(2), np.ones((2, 2))])
    b = np.array([[0.3, 0.7], [3.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, b[:, :, None])
    out = _solve_rows(J, b)
    assert out[0].tobytes() == np.linalg.solve(J[0], b[0]).tobytes()
    assert out[1].tobytes() == np.linalg.lstsq(J[1], b[1], rcond=None)[0].tobytes()
