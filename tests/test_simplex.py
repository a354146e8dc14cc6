import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_grid, reference_samples
from qsodyn.simplex import (
    DimensionMismatch,
    SimplexError,
    b_leq,
    grid_simplex,
    in_relative_interior,
    l1_distance,
    majorizes,
    make_point,
    partial_sum,
    rearrange_desc,
    sample_simplex,
    support,
    terminal_vertex,
    vertex,
)


def simplex_points(n):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=n, max_size=n
    ).filter(lambda v: sum(v) > 1e-6).map(lambda v: make_point([c / sum(v) for c in v]))


class TestMakePoint:
    def test_valid(self):
        p = make_point([0.2, 0.3, 0.5])
        assert p.coords == (0.2, 0.3, 0.5)

    def test_vertex(self):
        assert make_point([0.0, 0.0, 1.0]) == terminal_vertex(3)

    def test_sum_off(self):
        with pytest.raises(SimplexError):
            make_point([0.5, 0.6])

    def test_negative_beyond_tolerance(self):
        with pytest.raises(SimplexError):
            make_point([-0.01, 1.01])

    def test_tiny_negative_clamped(self):
        p = make_point([-1e-14, 0.5, 0.5 + 1e-14])
        assert p[0] == 0.0
        assert math.isclose(sum(p.coords), 1.0, abs_tol=1e-15)

    def test_too_short(self):
        with pytest.raises(SimplexError):
            make_point([1.0])

    @pytest.mark.parametrize(
        "coords", [[math.nan, 0.5], [0.5, math.nan], [math.inf, 0.0], [-math.inf, 1.0]]
    )
    def test_non_finite_rejected(self, coords):
        with pytest.raises(SimplexError):
            make_point(coords)


class TestPartialSum:
    def test_values(self):
        x = make_point([0.2, 0.3, 0.5])
        assert partial_sum(x, 1) == pytest.approx(0.2)
        assert partial_sum(x, 2) == pytest.approx(0.5)

    def test_terminal_vertex_is_zero(self):
        x = terminal_vertex(3)
        assert partial_sum(x, 1) == 0.0
        assert partial_sum(x, 2) == 0.0

    def test_range(self):
        x = make_point([0.5, 0.5])
        with pytest.raises(ValueError):
            partial_sum(x, 2)
        with pytest.raises(ValueError):
            partial_sum(x, 0)


class TestBOrder:
    def test_terminal_vertex_below_everything(self):
        for p in sample_simplex(4, 20, seed=11):
            assert b_leq(terminal_vertex(4), p)

    def test_violation_reported(self):
        v = b_leq(make_point([0.5, 0.5, 0.0]), make_point([0.2, 0.3, 0.5]))
        assert not v.holds
        assert v.first_violating_index == 1
        assert v.gap == pytest.approx(-0.3)

    def test_reflexive(self):
        x = make_point([0.1, 0.2, 0.7])
        assert b_leq(x, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            b_leq(make_point([0.5, 0.5]), make_point([0.2, 0.3, 0.5]))

    @settings(max_examples=50, deadline=None)
    @given(simplex_points(4), simplex_points(4), simplex_points(4))
    def test_partial_order_axioms(self, x, y, z):
        assert b_leq(x, x)
        if b_leq(x, y) and b_leq(y, x):
            assert l1_distance(x, y) <= 8e-12
        if b_leq(x, y, eps=0.0) and b_leq(y, z, eps=0.0):
            assert b_leq(x, z)


class TestMajorization:
    def test_uniform_below_vertex(self):
        assert majorizes(make_point([0.5, 0.5]), make_point([1.0, 0.0]))

    def test_vertex_not_below_uniform(self):
        assert not majorizes(make_point([1.0, 0.0]), make_point([0.5, 0.5]))

    def test_reflexive(self):
        x = make_point([0.3, 0.3, 0.4])
        assert majorizes(x, x)

    def test_sort_invariant(self):
        x = make_point([0.1, 0.6, 0.3])
        y = make_point([0.6, 0.3, 0.1])
        assert majorizes(x, y)
        assert majorizes(y, x)


class TestRearrange:
    def test_sorted(self):
        assert rearrange_desc(make_point([0.2, 0.5, 0.3])).coords == (0.5, 0.3, 0.2)

    @settings(max_examples=50, deadline=None)
    @given(simplex_points(5))
    def test_permutation_and_order(self, x):
        y = rearrange_desc(x)
        assert sorted(y.coords) == sorted(x.coords)
        assert all(a >= b for a, b in zip(y.coords, y.coords[1:]))


def test_l1_distance():
    assert l1_distance(make_point([1.0, 0.0]), make_point([0.0, 1.0])) == 2.0


def test_support():
    assert support(make_point([0.3, 0.0, 0.7])) == {1, 3}


def test_relative_interior():
    assert not in_relative_interior(terminal_vertex(3))
    assert in_relative_interior(make_point([0.2, 0.3, 0.5]))


class TestSampling:
    def test_deterministic(self):
        a = sample_simplex(3, 5, seed=7)
        b = sample_simplex(3, 5, seed=7)
        assert [p.coords for p in a] == [p.coords for p in b]

    def test_grid_small(self):
        pts = {p.coords for p in grid_simplex(2, 2)}
        assert pts == {(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)}

    def test_grid_resolution_one(self):
        pts = {p.coords for p in grid_simplex(3, 1)}
        assert pts == {vertex(3, i).coords for i in (1, 2, 3)}

    @pytest.mark.parametrize("n,r", [(2, 5), (3, 7), (4, 4)])
    def test_grid_count(self, n, r):
        assert len(grid_simplex(n, r)) == math.comb(r + n - 1, n - 1)

    @pytest.mark.parametrize("n,r", [(2, 40), (3, 40), (4, 12), (5, 6), (8, 6)])
    def test_grid_matches_pointwise_construction(self, n, r):
        got = np.array([p.coords for p in grid_simplex(n, r)])
        assert got.tobytes() == np.array(reference_grid(n, r)).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_samples_match_pointwise_construction(self, n):
        got = np.array([p.coords for p in sample_simplex(n, 2000, seed=n)])
        assert got.tobytes() == np.array(reference_samples(n, 2000, n)).tobytes()

    def test_grid_points_valid(self):
        for p in grid_simplex(3, 5):
            assert abs(sum(p.coords) - 1.0) <= 1e-12
            assert min(p.coords) >= 0.0
