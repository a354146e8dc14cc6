"""The batched multistart search against the per-seed reference in conftest,
and the coefficient check that lets find_fixed_points skip the search.

The reference runs each seed on its own through ``trajectory`` and a scalar
damped Newton step, as the search did before it was batched. The search is
called as ``_multistart``, so it is compared on every operator, the ones the
check settles included.
"""

from math import comb

import numpy as np
import pytest

from conftest import (
    cyclic_vertex_operator,
    load_fixture,
    random_general_operator,
    reference_fixed_points,
    reference_merge,
    reference_seeds,
)
from qsodyn.abscont import va_operator
from qsodyn.generate import random_structured_tensors
from qsodyn.operator import (
    DEDUP_RADIUS,
    FIXED_POINT_TOL,
    HeredityTensor,
    QsoOperator,
    TensorError,
    _merge,
    _multistart,
    _pre_iterate,
    _search_seeds,
    find_fixed_points,
    make_operator,
    proven_fixed_points,
    trajectory,
)
from qsodyn.simplex import SimplexError, l1_distance, make_point, vertex

FIXTURES = ["attracting_not_unique", "uniqueness_sufficiency_gap", "unique_not_contractive_s2"]
# (structured, general) operators compared with the reference at each n: 200 in all,
# most at small n, where the one-seed-at-a-time reference is cheap
OPERATORS_PER_N = {2: (50, 50), 3: (29, 29), 4: (10, 10), 5: (5, 5), 6: (3, 3), 7: (1, 3), 8: (0, 2)}


def assert_theorem_gives_the_search_result(V, searched, tol=1e-9):
    """Where the coefficient check applies, find_fixed_points returns the
    searched points and residuals to the bit, without searching."""
    if proven_fixed_points(V) is not None:
        got = find_fixed_points(V, tol=tol)
        assert got.diagnostics["method"] == "coefficient_theorem"
        assert repr((got.points, got.residuals)) == repr((searched.points, searched.residuals))


def assert_matches_reference(V, tol=1e-9):
    got = _multistart(V, tol=tol)
    assert_theorem_gives_the_search_result(V, got, tol)
    assert got.diagnostics.pop("method") == "multistart"
    ref = reference_fixed_points(V, tol=tol)
    assert len(got.points) == len(ref.points)
    for p, q in zip(got.points, ref.points):
        assert l1_distance(p, q) <= DEDUP_RADIUS
    assert all(r <= tol for r in got.residuals)
    # evaluate_array and the scalar map round differently, and a seed whose
    # residual reaches the 1e-15 target at the rounding floor may stop one
    # Newton step earlier or later; every other counter must agree exactly
    steps, ref_steps = got.diagnostics.pop("newton_steps"), ref.diagnostics.pop("newton_steps")
    assert abs(steps - ref_steps) <= max(2, ref.diagnostics["seeds_tried"] // 100)
    assert got.diagnostics == ref.diagnostics


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_match_reference(name):
    assert_matches_reference(load_fixture(name).build())


@pytest.mark.parametrize("n, seed", [(5, 14), (8, 11)])
def test_slow_draws_match_reference(n, seed):
    """Terminal eigenvalues 0.958 and 0.832: most seeds iterate 100+ steps."""
    assert_matches_reference(random_structured_tensors(n, 1, seed=seed)[0])


@pytest.mark.parametrize("n", sorted(OPERATORS_PER_N))
def test_seeded_operators_match_reference(n):
    structured, general = OPERATORS_PER_N[n]
    rng = np.random.default_rng(900 + n)
    ops = random_structured_tensors(n, structured, seed=800 + n) if structured else []
    ops += [random_general_operator(n, rng) for _ in range(general)]
    for V in ops:
        assert_matches_reference(V)


@pytest.mark.parametrize("n", [3, 4])
def test_backtracking_matches_reference(n):
    """Operators whose vertex cycle keeps seeds from converging: the
    reference halves steps, rejects steps that leave the simplex, gives up
    on some rows, and rejects some polished seeds by their residual."""
    rng = np.random.default_rng(30 + n)
    for _ in range(8):
        assert_matches_reference(cyclic_vertex_operator(n, rng))


def test_backtracking_two_states():
    """V(x)_1 = x_2^2: seeds alternate between the vertices, and from (1, 0)
    the full Newton step does not lower the residual and must be halved."""
    p = np.array([[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    V = make_operator(HeredityTensor(2, p))
    assert find_fixed_points(V).diagnostics["seeds_converged"] == 0
    assert_matches_reference(V)


def assert_rows_stop_like_trajectories(V, seeds):
    """Every row stops where its own trajectory stops, at the same step."""
    limits, last_step = _pre_iterate(V, np.array([s.coords for s in seeds]))
    for seed, row, step in zip(seeds, limits, last_step):
        tr = trajectory(V, seed, tol=1e-10, max_iter=500)
        assert np.abs(row - tr.limit.as_array()).sum() <= 1e-13
        assert step == pytest.approx(tr.final_step_l1, rel=1e-4, abs=1e-15)


@pytest.mark.parametrize("name", FIXTURES)
def test_pre_iteration_matches_trajectory(name):
    assert_rows_stop_like_trajectories(load_fixture(name).build(), reference_seeds(3))


def test_pre_iteration_slow_draw_matches_trajectory():
    assert_rows_stop_like_trajectories(random_structured_tensors(5, 1, seed=14)[0], reference_seeds(5)[::7])


@pytest.mark.parametrize("n", range(2, 9))
def test_every_seed_is_tried(n):
    V = random_general_operator(n, np.random.default_rng(n))
    fps = find_fixed_points(V)
    d = fps.diagnostics
    assert d["seeds_tried"] == comb(n + 5, 6) + (6 % n != 0)  # the grid holds the barycenter where n divides 6
    assert d["merged"] + d["rejected_by_residual"] + len(fps.points) == d["seeds_tried"]
    assert 0 <= d["seeds_converged"] <= d["seeds_tried"]


class TestLeavingTheSimplex:
    """An operator that skips make_operator's mass check (its tensor is
    symmetric, read-only and in [0, 1], as QsoOperator requires): its image
    leaves the simplex, and the search raises as evaluate() does. A
    negative coefficient, the one way to a negative image coordinate, is
    refused by the constructor."""

    def test_excess_mass(self):
        p = random_general_operator(3, np.random.default_rng(3)).tensor.p * 1.001
        p.flags.writeable = False
        V = QsoOperator(HeredityTensor(3, p))
        with pytest.raises(SimplexError):
            trajectory(V, make_point([0.2, 0.3, 0.5]))
        with pytest.raises(SimplexError, match="sum to"):
            find_fixed_points(V)

    def test_negative_coordinate(self):
        p = load_fixture("attracting_not_unique").build().tensor.p.copy()
        p[0, 0] = [1.5, -0.5, 0.0]
        p.flags.writeable = False
        with pytest.raises(TensorError, match=r"coefficient \(1,1,1\) = 1.5 outside \[0, 1\]"):
            QsoOperator(HeredityTensor(3, p))


def structured_p():
    """A structured n = 3 draw, on which the check holds with C empty."""
    return random_structured_tensors(3, 1, seed=5)[0].tensor.p.copy()


def half_weight_p(weight=0.5):
    """p[1,2,1] = p[2,1,1] = weight, the rest of the pair's mass scaled onto
    the later outcomes."""
    p = structured_p()
    p[0, 1, 1:] *= (1.0 - weight) / p[0, 1, 1:].sum()
    p[0, 1, 0] = weight
    p[1, 0] = p[0, 1]
    return p


def upper_entry_p():
    p = structured_p()
    p[1, 2, 0] = p[2, 1, 0] = 1e-13  # within EPS_COEF: make_operator accepts it
    return p


def terminal_ulp_p():
    p = structured_p()
    p[2, 2, 2] = np.nextafter(1.0, 0.0)
    return p


def impure_vertex_row_p():
    """p[1,1,1] = 1, yet p[1,1,3] = 1e-13 (make_operator accepts the mass
    1 + 1e-13): the row is not e_1, so state 1 is neither in C nor below 1."""
    p = structured_p()
    p[0, 0] = [1.0, 0.0, 1e-13]
    return p


def fixed_edge_p():
    """p[1,1,:] = e_1, p[2,2,:] = e_2 and p[1,2,:] = (1/2, 1/2, 0): state 1
    is in C with its weight to state 2 at 1/2, and every point of the edge
    e_1-e_2 is fixed."""
    p = np.zeros((3, 3, 3))
    p[0, 0], p[1, 1], p[2, 2] = np.eye(3)
    p[0, 1] = p[1, 0] = [0.5, 0.5, 0.0]
    p[0, 2] = p[2, 0] = [0.3, 0.2, 0.5]
    p[1, 2] = p[2, 1] = [0.0, 0.3, 0.7]
    return p


def built(p):
    return lambda: make_operator(HeredityTensor(len(p), p))


E3 = [(0.0, 0.0, 1.0)]
# name: (operator, the boundary it sits on, its fixed points). Each sits where
# the strict rule (p[k,k,k] < 1 and p[k,j,k] < 1/2 for every k < n) fails,
# and the check, with the half bound non-strict, decides it.
DECIDED = {
    "attracting_not_unique": (
        lambda: load_fixture("attracting_not_unique").build(),
        lambda p: (p[0, 0] == [1.0, 0.0, 0.0]).all() and (p[1, 1] == [0.0, 1.0, 0.0]).all(),
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
    ),
    "half_weight": (built(half_weight_p()), lambda p: p[0, 1, 0] == 0.5 and p[1, 0, 0] == 0.5, E3),
    "va_a1": (lambda: va_operator(1.0), lambda p: (p[0, 0] == [1.0, 0.0]).all(), [(1.0, 0.0), (0.0, 1.0)]),
}
# name: (operator, the clause of the check it fails, the fixed points the search reports)
FALLBACK = {
    "upper_block_1e-13": (built(upper_entry_p()), lambda p: not (p[1:, 1:, 0] == 0.0).all(), E3),
    "terminal_ulp": (built(terminal_ulp_p()), lambda p: not p[2, 2, 2] == 1.0, E3),
    "impure_vertex_row": (
        built(impure_vertex_row_p()),
        lambda p: p[0, 0, 0] == 1.0 and 0.0 < p[0, 0, 2] <= 1e-12,
        [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)],
    ),
    # the fixed set is the whole edge: the search reports it at its seeds,
    # the resolution-6 grid points of the edge
    "fixed_edge": (
        built(fixed_edge_p()),
        lambda p: p[0, 1, 0] == 0.5 and p[1, 0, 0] == 0.5 and (p[0, 0] == [1.0, 0.0, 0.0]).all(),
        [(i / 6, 1 - i / 6, 0.0) for i in range(7)] + E3,
    ),
}


@pytest.mark.parametrize("name", sorted(DECIDED))
def test_extended_check_decides_the_boundary(name):
    """The check proves the vertex set, and find_fixed_points returns it
    without searching: the search's points and residuals to the bit."""
    build, on_boundary, expected = DECIDED[name]
    V = build()
    assert on_boundary(V.tensor.p)
    assert proven_fixed_points(V).tolist() == [list(x) for x in sorted(expected)]
    fps = find_fixed_points(V)
    assert fps.diagnostics == {
        "seeds_tried": 0,
        "seeds_converged": 0,
        "rejected_by_residual": 0,
        "merged": 0,
        "newton_steps": 0,
        "method": "coefficient_theorem",
    }
    assert [x.coords for x in fps.points] == sorted(expected)
    assert fps.residuals == [0.0] * len(expected)
    searched = _multistart(V, FIXED_POINT_TOL)
    assert repr((fps.points, fps.residuals)) == repr((searched.points, searched.residuals))


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_theorem_boundary_falls_back_to_the_search(name):
    """Each operator fails one clause, so find_fixed_points searches, and
    the search still reports the whole set."""
    build, fails, expected = FALLBACK[name]
    V = build()
    assert fails(V.tensor.p)
    assert proven_fixed_points(V) is None
    fps = find_fixed_points(V)
    assert fps.diagnostics["method"] == "multistart"
    assert fps.diagnostics["seeds_tried"] > 0
    assert len(fps.points) == len(expected)
    for x in expected:
        assert min(l1_distance(make_point(x), q) for q in fps.points) <= DEDUP_RADIUS
    assert all(r <= 1e-9 for r in fps.residuals)


@pytest.mark.parametrize(
    "p", [structured_p(), half_weight_p(np.nextafter(0.5, 0.0))], ids=["draw", "ulp_below_half"]
)
def test_theorem_is_exact_one_ulp_inside(p):
    """The check holds on the undisturbed draw and one ulp below 1/2, and
    the answer is the search's."""
    V = make_operator(HeredityTensor(3, p))
    fps = find_fixed_points(V)
    assert fps.diagnostics["method"] == "coefficient_theorem"
    searched = _multistart(V, FIXED_POINT_TOL)
    assert repr((fps.points, fps.residuals)) == repr((searched.points, searched.residuals))


def edge(*offsets):
    """Rows (0.3 + t, 0.7 - t) of the edge e_1-e_2: rows t and t' lie about
    2 |t - t'| apart in l1."""
    return np.array([[0.3 + t, 0.7 - t] for t in offsets])


class TestMerge:
    """The merge on hand-built candidate rows against the nested loop of
    ``conftest.reference_merge``, which measures each (row, kept point) pair
    on its own: the same points, residuals and merged count, to the bit."""

    @staticmethod
    def assert_matches_reference(A, res):
        got = _merge(A, res)
        found, merged = reference_merge(A, res, DEDUP_RADIUS)
        assert repr(got) == repr(([(x.tolist(), r) for x, r in found], merged))
        return got

    def test_later_row_near_the_replacement_only(self):
        """Row 1 replaces row 0 (lower residual); row 2 is 0.8e-6 from row 1
        and 1.6e-6 from row 0, so it merges into the replacement."""
        A = edge(0.0, 0.4e-6, 0.8e-6)
        kept, merged = self.assert_matches_reference(A, [5e-10, 1e-10, 3e-10])
        assert (kept, merged) == ([(A[1].tolist(), 1e-10)], 2)

    def test_later_row_near_the_replaced_point_only(self):
        """Row 1 replaces row 0; row 2 is 0.8e-6 from row 0 but 1.6e-6 from
        row 1, so it is a point of its own."""
        A = edge(0.0, 0.4e-6, -0.4e-6)
        kept, merged = self.assert_matches_reference(A, [5e-10, 1e-10, 3e-10])
        assert (kept, merged) == ([(A[2].tolist(), 3e-10), (A[1].tolist(), 1e-10)], 1)

    def test_distance_of_exactly_the_radius_merges(self):
        # the merge reads no simplex constraint, so the rows need not sum to
        # 1; these lie exactly DEDUP_RADIUS apart
        A = np.array([[0.0, 0.25, 0.75], [DEDUP_RADIUS, 0.25, 0.75], [2 * DEDUP_RADIUS, 0.25, 0.75]])
        assert np.abs(A[1] - A[0]).sum() == DEDUP_RADIUS
        kept, merged = self.assert_matches_reference(A, [3e-10, 2e-10, 4e-10])
        assert (kept, merged) == ([(A[1].tolist(), 2e-10)], 2)

    def test_equal_residuals_keep_the_first(self):
        A = edge(0.0, 0.4e-6, -0.4e-6)
        kept, merged = self.assert_matches_reference(A, [2e-10, 2e-10, 2e-10])
        assert (kept, merged) == ([(A[0].tolist(), 2e-10)], 2)

    def test_three_clusters(self):
        """Rows of three clusters, interleaved, each with a replacement."""
        rows = [(0.0, 5e-10), (0.2, 4e-10), (0.4e-6, 1e-10), (0.4, 3e-10), (0.2 + 0.4e-6, 4e-10),
                (0.4 - 0.4e-6, 2e-10), (0.8e-6, 6e-10), (0.4 - 0.1e-6, 1e-11), (0.2 - 0.4e-6, 1e-12)]
        A = edge(*(t for t, _ in rows))
        kept, merged = self.assert_matches_reference(A, [r for _, r in rows])
        assert kept == [(A[2].tolist(), 1e-10), (A[8].tolist(), 1e-12), (A[7].tolist(), 1e-11)]
        assert merged == 6

    def test_no_rows(self):
        assert self.assert_matches_reference(np.empty((0, 3)), []) == ([], 0)


@pytest.mark.parametrize("n", range(2, 9))
def test_seeds_are_built_once_read_only(n):
    """The search's seeds are the reference seeds in their order, each point
    once, the vertices and the barycenter among them, built once per n; a
    write into them raises."""
    seeds = _search_seeds(n)
    assert seeds.tolist() == [list(s.coords) for s in reference_seeds(n)]
    rows = set(map(tuple, seeds.tolist()))
    assert len(rows) == len(seeds)
    assert {vertex(n, i) for i in range(1, n + 1)} | {make_point([1.0 / n] * n)} <= rows
    assert _search_seeds(n) is seeds
    assert not seeds.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        seeds[0, 0] = 0.5


def test_seed_cache_is_bounded():
    maxsize = _search_seeds.cache_info().maxsize
    assert maxsize == 8
    for n in range(2, 3 + maxsize):
        _search_seeds(n)
    assert _search_seeds.cache_info().currsize == maxsize
