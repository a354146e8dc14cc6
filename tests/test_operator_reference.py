"""The operator layer against the references in conftest, to the bit.

The references are the per-step code as it was before each step cost little
more than its einsum: ``renormalize_rows`` always clipped and summed again,
``trajectory`` went through it and ``ndarray.sum``, the pre-iteration
gathered its live rows every step, and every block was a fixed 256 rows.
Floats are compared through ``repr``, which round-trips a double exactly and
tells -0.0 from 0.0, and arrays through their bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    load_fixture,
    random_general_operator,
    reference_batched_fixed_points,
    reference_evaluate_array,
    reference_pre_iterate,
    reference_renormalize_rows,
    reference_trajectory,
    reference_verify,
)
from qsodyn.classify import verify_bbistochastic_numeric
from qsodyn.generate import random_structured_tensors
from qsodyn.operator import _pre_iterate, evaluate_array, find_fixed_points, trajectory
from qsodyn.simplex import SimplexError, grid_array, make_point, renormalize_rows, sample_array, sample_simplex, vertex

FIXTURES = [
    "attracting_not_unique",
    "uniqueness_sufficiency_gap",
    "unique_not_contractive_s2",
    "va_a0",
    "va_a05",
    "va_a23",
]


def _operators():
    cases = [(name, load_fixture(name).build()) for name in FIXTURES]
    cases += [(f"slow-n{n}-seed{s}", random_structured_tensors(n, 1, seed=s)[0]) for n, s in [(5, 14), (8, 11)]]
    for n in range(2, 9):
        count = 3 if n < 7 else 1
        rng = np.random.default_rng(500 + n)
        structured = random_structured_tensors(n, count, seed=400 + n)
        cases += [(f"structured-n{n}-{i}", V) for i, V in enumerate(structured)]
        cases += [(f"general-n{n}-{i}", random_general_operator(n, rng)) for i in range(count)]
    return cases


OPERATORS = _operators()
operators = pytest.mark.parametrize("V", [V for _, V in OPERATORS], ids=[name for name, _ in OPERATORS])


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@operators
def test_trajectories_match_reference(V):
    n = V.n
    starts = sample_simplex(n, 3, seed=n) + [make_point([1.0 / n] * n), vertex(n, 1)]
    for x in starts:
        got = trajectory(V, x, max_iter=2000, record_path=True)
        want = reference_trajectory(V, x, max_iter=2000, record_path=True)
        assert repr(got) == repr(want)
    # a tolerance never met: every step up to max_iter is taken
    got = trajectory(V, starts[0], tol=1e-300, max_iter=40)
    assert repr(got) == repr(reference_trajectory(V, starts[0], tol=1e-300, max_iter=40))


@operators
def test_pre_iteration_matches_reference(V):
    seeds = np.concatenate([np.eye(V.n), grid_array(V.n, 6), sample_array(V.n, 50, seed=V.n)])
    limits, last = _pre_iterate(V, seeds)
    want_limits, want_last = reference_pre_iterate(V, seeds)
    assert_same_bits(limits, want_limits)
    assert_same_bits(last, want_last)


@operators
def test_fixed_points_match_reference(V):
    assert repr(find_fixed_points(V)) == repr(reference_batched_fixed_points(V))


@operators
def test_verifier_matches_reference(V):
    for seed in (0, 7):
        got = verify_bbistochastic_numeric(V, seed=seed)
        assert repr(got) == repr(reference_verify(V, seed=seed))
    # a coarse grid, so that a witness can first appear among the samples
    assert repr(verify_bbistochastic_numeric(V, resolution=2, samples=3000, seed=3)) == repr(
        reference_verify(V, resolution=2, samples=3000, seed=3)
    )


@operators
def test_batch_map_matches_reference(V):
    X = sample_array(V.n, 5000, seed=V.n)
    assert_same_bits(evaluate_array(V, X), reference_evaluate_array(V, X))


def outcome(f, X, eps):
    """The result's bytes, or the message of the SimplexError raised."""
    try:
        return f(X.copy(), eps).tobytes()
    except SimplexError as exc:
        return str(exc)


# half of the replacements pass the checks (at eps 1e-12) and half are rejected
SPECIALS = st.one_of(
    st.sampled_from([-0.0, -1e-13, -9e-13]),
    st.sampled_from([-2e-12, -0.1, math.nan, math.inf, -math.inf]),
)


@st.composite
def near_simplex_arrays(draw):
    """1-D or 2-D arrays of rows on or near the simplex, some entries
    replaced by signed zeros, small negatives or non-finite values, some
    rows scaled off a unit sum."""
    n = draw(st.integers(2, 8))
    shape = draw(st.sampled_from([(n,), (1, n), (draw(st.integers(2, 5)), n)]))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=math.prod(shape), max_size=math.prod(shape))))
    X = w.reshape(shape) + 1e-3
    X /= X.sum(axis=-1, keepdims=True)
    rows = X.reshape(-1, n)
    for _ in range(draw(st.integers(0, 3))):
        r, c = divmod(draw(st.integers(0, X.size - 1)), n)
        special = draw(SPECIALS)
        if math.isfinite(special):
            # an earlier draw may have made these entries inf and -inf, whose
            # sum is a NaN entry like the others, not a warning
            with np.errstate(invalid="ignore"):
                rows[r, (c + 1) % n] += rows[r, c] - special  # the row keeps its sum
        rows[r, c] = special
    return X * draw(st.sampled_from([1.0, 1.0 + 1e-13, 1.0 + 5e-10, 1.01]))


class TestRenormalizeRows:
    @settings(max_examples=400, deadline=None)
    @given(near_simplex_arrays(), st.sampled_from([1e-12, 1e-9]))
    def test_matches_reference(self, X, eps):
        assert outcome(renormalize_rows, X, eps) == outcome(reference_renormalize_rows, X, eps)

    @pytest.mark.parametrize("coords", [[0.5, -0.0, 0.5], [[0.25, 0.75], [-0.0, 1.0]]])
    def test_negative_zero_is_clipped(self, coords):
        X = np.array(coords)
        got = renormalize_rows(X)
        assert not np.signbit(got).any()
        assert_same_bits(got, reference_renormalize_rows(X))

    def test_tiny_negative_is_clipped(self):
        X = np.array([-1e-13, 0.5, 0.5 + 1e-13])
        got = renormalize_rows(X)
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert_same_bits(got, reference_renormalize_rows(X))

    @pytest.mark.parametrize(
        "coords, message",
        [
            ([0.5, math.nan], "coordinate 2 is nan, not a number"),
            ([math.inf, 0.0], "coordinates sum to inf, deviation exceeds 1e-12"),
            ([-math.inf, 1.0], "coordinate 1 is -inf, below -1e-12"),
            ([-0.01, 1.01], "coordinate 1 is -0.01, below -1e-12"),
            ([0.5, 0.6], "coordinates sum to 1.1, deviation exceeds 1e-12"),
            ([[0.5, 0.5], [0.25, 0.7]], "coordinates sum to 0.95, deviation exceeds 1e-12"),
        ],
    )
    def test_rejections(self, coords, message):
        X = np.array(coords)
        for f in (renormalize_rows, reference_renormalize_rows):
            with pytest.raises(SimplexError) as exc:
                f(X)
            assert str(exc.value) == message
