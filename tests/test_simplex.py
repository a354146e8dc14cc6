import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_general_operator, reference_grid, reference_grid_array, reference_samples
from qsodyn.classify import NumericOrderVerdict
from qsodyn.operator import trajectory
from qsodyn.simplex import (
    DimensionMismatch,
    SimplexError,
    SimplexPoint,
    _sum,
    b_leq,
    grid_array,
    grid_simplex,
    l1_distance,
    make_point,
    partial_sum,
    sample_array,
    sample_simplex,
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
        assert make_point([0.0, 0.0, 1.0]) == vertex(3, 3)

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


class TestPointContract:
    """A point is the tuple of its coordinates: one object, no attribute
    dict, equal to the plain tuple of the same floats."""

    def test_equals_its_coordinate_tuple(self):
        p = make_point([0.2, 0.3, 0.5])
        assert p == (0.2, 0.3, 0.5) == p.coords
        assert hash(p) == hash((0.2, 0.3, 0.5))
        assert p != (0.2, 0.5, 0.3)

    def test_coords_and_slices_are_plain_tuples(self):
        p = make_point([0.2, 0.3, 0.5])
        assert type(p.coords) is tuple
        assert type(p[:2]) is tuple and p[:2] == (0.2, 0.3)
        assert p[0] == 0.2 and p[-1] == 0.5

    def test_n_as_array_and_repr(self):
        p = make_point([0.25, 0.75])
        assert p.n == 2
        a = p.as_array()
        assert a.dtype == np.float64 and a.tolist() == [0.25, 0.75]
        assert repr(p) == "SimplexPoint(coords=(0.25, 0.75))"
        assert repr(vertex(3, 1)) == "SimplexPoint(coords=(1.0, 0.0, 0.0))"

    def test_no_instance_dict_and_immutable(self):
        p = make_point([0.2, 0.3, 0.5])
        assert not hasattr(p, "__dict__")
        with pytest.raises(AttributeError):
            p.coords = (1.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            p.label = "x"
        with pytest.raises(TypeError):
            p[0] = 1.0

    def test_asdict_of_a_verdict_with_a_witness(self):
        """cli reports the order verdict through dataclasses.asdict."""
        w = make_point([0.025, 0.0, 0.975])
        d = asdict(NumericOrderVerdict(True, witness_point=w, violating_k=1, gap=-0.5))
        assert d["witness_point"] == w.coords and d["violating_k"] == 1

    @pytest.mark.parametrize("n", [3, 6])
    def test_recorded_path_holds_points(self, n):
        """At n = 3 the generated kernel records the path, at n = 6 the
        einsum loop: every element is a point with no attribute dict."""
        V = random_general_operator(n, np.random.default_rng(n))
        tr = trajectory(V, make_point([1.0 / n] * n), max_iter=20, record_path=True)
        assert len(tr.path) == tr.iterations_used + 1 > 10
        for p in tr.path:
            assert type(p) is SimplexPoint and not hasattr(p, "__dict__") and p.n == n
        assert tr.limit == tr.path[-1] and type(tr.limit) is SimplexPoint


class TestPartialSum:
    def test_values(self):
        x = make_point([0.2, 0.3, 0.5])
        assert partial_sum(x, 1) == pytest.approx(0.2)
        assert partial_sum(x, 2) == pytest.approx(0.5)

    def test_terminal_vertex_is_zero(self):
        x = vertex(3, 3)
        assert partial_sum(x, 1) == 0.0
        assert partial_sum(x, 2) == 0.0

    def test_sums_left_to_right(self):
        # sum() compensates its rounding since Python 3.12, and there gives
        # 1.0000000000000002 here, above 1; np.cumsum, as b_leq uses it, adds
        # left to right and gives 1.0
        x = make_point([0.7, 0.1, 0.1, 0.1, 0.0])
        assert repr(partial_sum(x, 4)) == repr(float(np.cumsum(x.coords)[3])) == "1.0"

    def test_range(self):
        x = make_point([0.5, 0.5])
        with pytest.raises(ValueError):
            partial_sum(x, 2)
        with pytest.raises(ValueError):
            partial_sum(x, 0)


class TestBOrder:
    def test_terminal_vertex_below_everything(self):
        for p in sample_simplex(4, 20, seed=11):
            assert b_leq(vertex(4, 4), p)

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


class TestSum:
    """_sum equals np.add.reduce on a contiguous float64 vector, to the bit:
    across the switch to 8 running sums (7/8/9 terms), to halving (127/128/
    129) and to a second halving (255-257)."""

    STRESSED = (7, 8, 9, 127, 128, 129, 255, 256, 257)

    @staticmethod
    def assert_matches_numpy(x):
        assert repr(_sum(x.tolist())) == repr(float(np.add.reduce(x)))

    def test_exponential_draws(self):
        rng = np.random.default_rng(18)
        for n in range(1, 301):
            for _ in range(40 if n in self.STRESSED else 4):
                # half the draws spread over 26 orders of magnitude
                scale = np.exp(rng.uniform(-30.0, 30.0, size=n)) if rng.random() < 0.5 else 1.0
                self.assert_matches_numpy(rng.exponential(size=n) * scale)

    def test_signed_zeros(self):
        rng = np.random.default_rng(19)
        for n in range(1, 301):
            # all -0.0 sums to +0.0: the sum starts from +0.0
            assert repr(_sum([-0.0] * n)) == "0.0"
            self.assert_matches_numpy(np.full(n, -0.0))
            for _ in range(10 if n in self.STRESSED else 2):
                zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
                self.assert_matches_numpy(zeros)
                self.assert_matches_numpy(np.where(rng.random(n) < 0.5, zeros, rng.exponential(size=n)))

def test_l1_distance():
    assert l1_distance(make_point([1.0, 0.0]), make_point([0.0, 1.0])) == 2.0


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

    @pytest.mark.parametrize("n,r", [(2, 40), (3, 40), (4, 12), (5, 6), (8, 6)])
    def test_grid_is_built_once_read_only(self, n, r):
        """The cached lattice: the same object on a repeated call, and the
        bytes the uncached construction gives."""
        X = grid_array(n, r)
        assert not X.flags.writeable
        assert grid_array(n, r) is X
        want = reference_grid_array(n, r)
        assert X.shape == want.shape and X.dtype == want.dtype
        assert X.tobytes() == want.tobytes()

    def test_grid_write_raises(self):
        X = grid_array(3, 6)
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            X += 0.0
        assert X.tobytes() == reference_grid_array(3, 6).tobytes()

    def test_grid_cache_is_bounded(self):
        maxsize = grid_array.cache_info().maxsize
        assert maxsize == 16
        for r in range(1, maxsize + 2):
            grid_array(2, r)
        assert grid_array.cache_info().currsize == maxsize

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_samples_match_pointwise_construction(self, n):
        got = np.array([p.coords for p in sample_simplex(n, 2000, seed=n)])
        assert got.tobytes() == np.array(reference_samples(n, 2000, n)).tobytes()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: grid_array(1, 3), "need n >= 2 and resolution >= 1"),
            (lambda: grid_array(3, 0), "need n >= 2 and resolution >= 1"),
            (lambda: sample_array(1, 5, seed=0), "need n >= 2 and count >= 1"),
            (lambda: sample_array(3, 0, seed=0), "need n >= 2 and count >= 1"),
        ],
        ids=["grid_one_state", "grid_resolution_zero", "sample_one_state", "sample_count_zero"],
    )
    def test_array_arguments_checked(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_grid_points_valid(self):
        for p in grid_simplex(3, 5):
            assert abs(sum(p.coords) - 1.0) <= 1e-12
            assert min(p.coords) >= 0.0
