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
    cyclic_vertex_operator,
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
    FIXED_POINT_TOL,
    KERNEL_MAX_N,
    HeredityTensor,
    _multistart,
    _orbit_kernel,
    _pre_iterate,
    evaluate,
    evaluate_array,
    find_fixed_points,
    make_operator,
    proven_fixed_points,
    trajectory,
)
from qsodyn.simplex import (
    SimplexError,
    SimplexPoint,
    _renormalize,
    _sum,
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


def kernel_steps(p, xs, max_iter):
    """The generated orbit for p.ravel(), unrecorded, from xs: the point and
    l1 step after max_iter steps, or the message of the SimplexError raised."""
    c = p.ravel().tolist()
    try:
        z, used, step = _orbit_kernel(len(xs))(c, tuple(xs), 1e-300, max_iter, None)
    except SimplexError as exc:
        return str(exc)
    assert used == max_iter
    return [repr(v) for v in z], repr(step)


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(2, KERNEL_MAX_N),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.4, 0.9]),
    special=st.lists(st.sampled_from(SPECIAL_COORDS), max_size=3),
    scale=st.sampled_from([1.0, 2.0]),
)
def test_kernel_image_is_the_einsum(n, seed, zeros, special, scale):
    """One step of the generated orbit is _renormalize and _sum on the
    einsum's image, to the bit: planted 0.0 and -0.0 coefficients (np.clip
    keeps -0.0, so make_operator passes one on) add nothing, and planted
    zero and subnormal coordinates round alike. Mostly on the simplex
    (scale 1, no planted zero) the step renormalizes inline; elsewhere it
    goes through _renormalize, which at scale 2 (image total near 4)
    raises with the image's total."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n), size=(n, n))
    planted = rng.random((n, n, n)) < zeros
    p[planted] = rng.choice([0.0, -0.0], size=planted.sum())
    xs = (scale * rng.dirichlet(np.ones(n))).tolist()
    for i, v in zip(rng.permutation(n), special):
        xs[i] = v
    image = np.einsum("ijk,i,j->k", p, xs, xs).tolist()
    try:
        want = _renormalize(image, 1e-9)
    except SimplexError as exc:
        assert kernel_steps(p, xs, 1) == str(exc)
    else:
        assert kernel_steps(p, xs, 1) == ([repr(v) for v in want], repr(_sum([abs(a - b) for a, b in zip(xs, want)])))


@pytest.mark.parametrize("first", [0.0, -0.0, -1e-13])
@pytest.mark.parametrize("name", ["uniqueness_sufficiency_gap", "general-n3"])
def test_face_starts(name, first):
    """Starts on the face x_1 = 0 or just off it, built without make_point.
    On the fixture, whose p[i,j,1] = 0 for i, j > 1, the first image
    coordinate is 0.0, or negative from -1e-13: the step goes through
    _renormalize, which clips it. On a general draw the step renormalizes
    inline. Either way one step is _renormalize on the einsum's image, and
    the orbit equals the reference, every step of it through _renormalize
    on the fixture's face."""
    fixture = name != "general-n3"
    V = load_fixture(name).build() if fixture else random_general_operator(3, np.random.default_rng(3))
    x = SimplexPoint((first, 0.25, 0.75 - first))
    image = np.einsum("ijk,i,j->k", V.tensor.p, x.coords, x.coords).tolist()
    assert (image[0] <= 0.0) is fixture
    assert repr(trajectory(V, x, tol=1e-300, max_iter=1).limit.coords) == repr(tuple(_renormalize(image, 1e-9)))
    for max_iter in (200, 2000):
        want = reference_trajectory(V, x, tol=1e-300, max_iter=max_iter, record_path=True)
        assert repr(trajectory(V, x, tol=1e-300, max_iter=max_iter, record_path=True)) == repr(want)


def vertex_to_face_operator():
    """n = 3 with p[1,1,.] = e_2: the image of e_1 has y_1 = y_3 = 0.0, and
    every later image is positive."""
    p = np.array(
        [
            [[0.0, 1.0, 0.0], [0.25, 0.25, 0.5], [0.3, 0.3, 0.4]],
            [[0.25, 0.25, 0.5], [0.2, 0.3, 0.5], [0.1, 0.2, 0.7]],
            [[0.3, 0.3, 0.4], [0.1, 0.2, 0.7], [0.0, 0.0, 1.0]],
        ]
    )
    return make_operator(HeredityTensor(3, p))


@pytest.mark.parametrize("max_iter", [0, 1, 2, 2000])
@pytest.mark.parametrize("excess", [0.0, 4e-10, 1e-8])
def test_fallback_then_inline_steps(excess, max_iter):
    """From e_1 scaled by 1 + excess the first image lies on a face, so the
    first step (the last allowed one at max_iter 1) goes through
    _renormalize; the orbit then stays inside the kernel. At 1 + 1e-8 the
    image total is 2e-8 off 1 and that step raises, as the reference does."""
    V = vertex_to_face_operator()
    x = SimplexPoint((1.0 + excess, 0.0, 0.0))
    image = np.einsum("ijk,i,j->k", V.tensor.p, x.coords, x.coords).tolist()
    assert image[0] == image[2] == 0.0
    if excess == 1e-8 and max_iter > 0:
        with pytest.raises(SimplexError) as want:
            reference_trajectory(V, x, max_iter=max_iter, record_path=True)
        with pytest.raises(SimplexError) as got:
            trajectory(V, x, max_iter=max_iter, record_path=True)
        assert str(got.value) == str(want.value)
    else:
        want = reference_trajectory(V, x, max_iter=max_iter, record_path=True)
        assert repr(trajectory(V, x, max_iter=max_iter, record_path=True)) == repr(want)


@pytest.mark.parametrize(
    "name, coords",
    [("uniqueness_sufficiency_gap", (0.5, 0.0, math.inf)), ("unique_not_contractive_s2", (0.0, 0.0, math.nan))],
)
def test_non_finite_start_raises_as_the_einsum(name, coords):
    """A start with an inf or NaN coordinate: the kernel adds every product,
    0.0 * inf included, so its image is NaN where the einsum's is, and the
    first NaN coordinate is the one named."""
    V = load_fixture(name).build()
    with pytest.raises(SimplexError) as want:
        reference_trajectory(V, SimplexPoint(coords), max_iter=3)
    with pytest.raises(SimplexError) as got:
        trajectory(V, SimplexPoint(coords), max_iter=3)
    assert str(got.value) == str(want.value) == "coordinate 1 is nan, not a number"


SMALL = [(name, load_fixture(name).build()) for name in ["attracting_not_unique", "uniqueness_sufficiency_gap", "unique_not_contractive_s2", "va_a23"]]
SMALL.append((f"general-n{KERNEL_MAX_N}", random_general_operator(KERNEL_MAX_N, np.random.default_rng(5))))


@pytest.mark.parametrize("V", [V for _, V in SMALL], ids=[name for name, _ in SMALL])
def test_small_operators_step_without_einsum(V, monkeypatch):
    """The n <= 3 fixtures and a dense n = KERNEL_MAX_N draw step by the
    generated kernel: with np.einsum raising, their orbits still equal the
    reference."""
    x = orbit_starts(V.n)[0]
    want = reference_trajectory(V, x, tol=1e-300, max_iter=200, record_path=True)

    def einsum(*args, **kwargs):
        raise AssertionError("einsum called")

    monkeypatch.setattr(np, "einsum", einsum)
    assert repr(trajectory(V, x, tol=1e-300, max_iter=200, record_path=True)) == repr(want)


def test_dense_operator_steps_with_einsum(monkeypatch):
    """A dense draw above KERNEL_MAX_N makes one einsum call a step."""
    n = KERNEL_MAX_N + 1
    V = random_general_operator(n, np.random.default_rng(n))
    calls = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    tr = trajectory(V, orbit_starts(n)[0], tol=1e-300, max_iter=30)
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
    got = _multistart(V, FIXED_POINT_TOL)
    assert got.diagnostics.pop("method") == "multistart"
    assert repr(got) == repr(reference_batched_fixed_points(V))


@pytest.mark.parametrize("n", [3, 4])
def test_rejecting_searches_match_reference(n):
    """Draws whose vertex cycle leaves polished rows above tol: the search
    rejects them and merges the rest, to the reference's bits."""
    rng = np.random.default_rng(30 + n)
    rejected = 0
    for _ in range(8):
        V = cyclic_vertex_operator(n, rng)
        got = _multistart(V, FIXED_POINT_TOL)
        assert got.diagnostics.pop("method") == "multistart"
        assert repr(got) == repr(reference_batched_fixed_points(V))
        assert got.diagnostics["merged"] > 0
        rejected += got.diagnostics["rejected_by_residual"]
    assert rejected > 0


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
    got, searched = find_fixed_points(V), _multistart(V, FIXED_POINT_TOL)
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
