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
from qsodyn.operator import (
    LOOP_MAX_TERMS,
    _loop_image,
    _multistart,
    _nonzero_terms,
    _pre_iterate,
    evaluate,
    evaluate_array,
    find_fixed_points,
    proven_fixed_points,
    trajectory,
)
from qsodyn.simplex import (
    SimplexError,
    grid_array,
    l1_distance,
    make_point,
    renormalize_rows,
    sample_array,
    sample_simplex,
    vertex,
)

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


def orbit_starts(n):
    return sample_simplex(n, 3, seed=n) + [make_point([1.0 / n] * n), vertex(n, 1)]


@operators
def test_trajectories_match_reference(V):
    starts = orbit_starts(V.n)
    for x in starts:
        got = trajectory(V, x, max_iter=2000, record_path=True)
        want = reference_trajectory(V, x, max_iter=2000, record_path=True)
        assert repr(got) == repr(want)
    # a tolerance never met: every step up to max_iter is taken
    got = trajectory(V, starts[0], tol=1e-300, max_iter=40)
    assert repr(got) == repr(reference_trajectory(V, starts[0], tol=1e-300, max_iter=40))


@operators
def test_trajectory_is_repeated_evaluate(V):
    """The orbit's list arithmetic gives what evaluate and l1_distance give
    through NumPy, to the bit."""
    for x in orbit_starts(V.n):
        got = trajectory(V, x, max_iter=2000, record_path=True)
        assert [repr(evaluate(V, y)) for y in got.path[:-1]] == [repr(y) for y in got.path[1:]]
        assert repr(got.final_step_l1) == repr(l1_distance(got.path[-2], got.path[-1]))


# coordinates that round the products to zero or to subnormals
SPECIAL_COORDS = [0.0, 5e-324, 2.5e-310, 1e-160]


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.4, 0.9]),
    special=st.lists(st.sampled_from(SPECIAL_COORDS), max_size=3),
)
def test_loop_image_is_the_einsum(n, seed, zeros, special):
    """The loop equals the einsum to the bit, from 2 nonzero coefficients
    to 512, on either side of LOOP_MAX_TERMS; planted 0.0 and -0.0
    coefficients (np.clip keeps -0.0, so make_operator passes one on) are
    skipped, and planted zero and subnormal coordinates round alike."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n), size=(n, n))
    planted = rng.random((n, n, n)) < zeros
    p[planted] = rng.choice([0.0, -0.0], size=planted.sum())
    xs = rng.dirichlet(np.ones(n)).tolist()
    for i, v in zip(rng.permutation(n), special):
        xs[i] = v
    got = _loop_image(_nonzero_terms(p), xs)
    assert [repr(v) for v in got] == [repr(v) for v in np.einsum("ijk,i,j->k", p, xs, xs).tolist()]


@pytest.mark.parametrize("name", ["attracting_not_unique", "uniqueness_sufficiency_gap", "unique_not_contractive_s2", "va_a23"])
def test_small_operators_step_without_einsum(name, monkeypatch):
    """The n <= 3 fixtures (at most 27 nonzero coefficients) step by the
    loop: with np.einsum raising, their orbits still equal the reference."""
    V = load_fixture(name).build()
    x = orbit_starts(V.n)[0]
    want = reference_trajectory(V, x, tol=1e-300, max_iter=200, record_path=True)

    def einsum(*args, **kwargs):
        raise AssertionError("einsum called")

    monkeypatch.setattr(np, "einsum", einsum)
    assert repr(trajectory(V, x, tol=1e-300, max_iter=200, record_path=True)) == repr(want)


def test_dense_operator_steps_with_einsum(monkeypatch):
    """A dense n = 5 draw (125 nonzero coefficients) makes one einsum call a step."""
    V = random_general_operator(5, np.random.default_rng(5))
    assert np.count_nonzero(V.tensor.p) > LOOP_MAX_TERMS
    calls = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    tr = trajectory(V, orbit_starts(5)[0], tol=1e-300, max_iter=30)
    assert tr.iterations_used == 30
    assert calls == ["ijk,i,j->k"] * 30


@operators
def test_pre_iteration_matches_reference(V):
    seeds = np.concatenate([np.eye(V.n), grid_array(V.n, 6), sample_array(V.n, 50, seed=V.n)])
    limits, last = _pre_iterate(V, seeds)
    want_limits, want_last = reference_pre_iterate(V, seeds)
    assert_same_bits(limits, want_limits)
    assert_same_bits(last, want_last)


@operators
def test_fixed_points_match_reference(V):
    got = _multistart(V)
    assert got.diagnostics.pop("method") == "multistart"
    assert repr(got) == repr(reference_batched_fixed_points(V))


# the operators whose coefficients prove their fixed-point set: every
# structured draw, and every fixture
SETTLED = (
    "structured-",
    "slow-",
    "va_",
    "unique_not_contractive_s2",
    "attracting_not_unique",
    "uniqueness_sufficiency_gap",
)


@pytest.mark.parametrize("name, V", OPERATORS, ids=[name for name, _ in OPERATORS])
def test_theorem_returns_the_search_result(name, V):
    """Where the coefficient check applies, find_fixed_points returns what
    the search finds, points and residuals to the bit; elsewhere it runs
    the search."""
    proven = proven_fixed_points(V)
    assert (proven is not None) == name.startswith(SETTLED)
    got, searched = find_fixed_points(V), _multistart(V)
    assert repr((got.points, got.residuals)) == repr((searched.points, searched.residuals))
    if name.startswith(SETTLED):
        assert got.diagnostics == {
            "seeds_tried": 0,
            "seeds_converged": 0,
            "rejected_by_residual": 0,
            "merged": 0,
            "newton_steps": 0,
            "method": "coefficient_theorem",
        }
        assert got.residuals == [0.0] * len(proven)
        assert [x.coords for x in got.points] == [tuple(x) for x in proven.tolist()]
        assert got.points[0].coords == (0.0,) * (V.n - 1) + (1.0,)
    else:
        assert got.diagnostics == searched.diagnostics


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


def renormalize(X, eps=1e-12):
    """The library's check and renormalization: renormalize_rows on a
    (count, n) array, make_point on one point."""
    if X.ndim == 1:
        return np.array(make_point(X, eps).coords)
    return renormalize_rows(X, eps)


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
        assert outcome(renormalize, X, eps) == outcome(reference_renormalize_rows, X, eps)

    @pytest.mark.parametrize("coords", [[0.5, -0.0, 0.5], [[0.25, 0.75], [-0.0, 1.0]]])
    def test_negative_zero_is_clipped(self, coords):
        X = np.array(coords)
        got = renormalize(X)
        assert not np.signbit(got).any()
        assert_same_bits(got, reference_renormalize_rows(X))

    def test_tiny_negative_is_clipped(self):
        X = np.array([-1e-13, 0.5, 0.5 + 1e-13])
        got = renormalize(X)
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
        for f in (renormalize, reference_renormalize_rows):
            with pytest.raises(SimplexError) as exc:
                f(X)
            assert str(exc.value) == message
