"""The batched multistart search against the per-seed reference in conftest.

The reference runs each seed on its own through ``trajectory`` and a scalar
damped Newton step, as the search did before it was batched.
"""

from math import comb

import numpy as np
import pytest

from conftest import (
    cyclic_vertex_operator,
    load_fixture,
    random_general_operator,
    reference_fixed_points,
    reference_seeds,
)
from qsodyn.generate import random_structured_tensors
from qsodyn.operator import (
    DEDUP_RADIUS,
    HeredityTensor,
    QsoOperator,
    _pre_iterate,
    find_fixed_points,
    make_operator,
    trajectory,
)
from qsodyn.simplex import DimensionMismatch, SimplexError, l1_distance, make_point, sample_simplex, vertex

FIXTURES = ["attracting_not_unique", "uniqueness_sufficiency_gap", "unique_not_contractive_s2"]
# (structured, general) operators compared with the reference at each n: 200 in all,
# most at small n, where the one-seed-at-a-time reference is cheap
OPERATORS_PER_N = {2: (50, 50), 3: (29, 29), 4: (10, 10), 5: (5, 5), 6: (3, 3), 7: (1, 3), 8: (0, 2)}


def assert_matches_reference(V, tol=1e-9, extra_seeds=()):
    got = find_fixed_points(V, tol=tol, extra_seeds=extra_seeds)
    ref = reference_fixed_points(V, tol=tol, extra_seeds=extra_seeds)
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


@pytest.mark.parametrize("extra", [(), sample_simplex(3, 5, seed=3) + [vertex(3, 2)]], ids=["grid", "extra"])
@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_match_reference(name, extra):
    assert_matches_reference(load_fixture(name).build(), extra_seeds=extra)


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
    extra = sample_simplex(n, 3, seed=n)
    for seeds in ((), extra):
        d = find_fixed_points(V, extra_seeds=seeds).diagnostics
        assert d["seeds_tried"] == comb(n + 5, 6) + n + 1 + len(seeds)
    fps = find_fixed_points(V, extra_seeds=extra)
    d = fps.diagnostics
    assert d["merged"] + d["rejected_by_residual"] + len(fps.points) == d["seeds_tried"]
    assert 0 <= d["seeds_converged"] <= d["seeds_tried"]


class TestLeavingTheSimplex:
    """An operator that skips make_operator's checks: its image leaves the
    simplex, and the search raises as evaluate() does."""

    def test_excess_mass(self):
        p = load_fixture("attracting_not_unique").build().tensor.p * 1.001
        V = QsoOperator(HeredityTensor(3, p))
        with pytest.raises(SimplexError):
            trajectory(V, make_point([0.2, 0.3, 0.5]))
        with pytest.raises(SimplexError, match="sum to"):
            find_fixed_points(V)

    def test_negative_coordinate(self):
        p = load_fixture("attracting_not_unique").build().tensor.p.copy()
        p[0, 0] = [1.5, -0.5, 0.0]
        V = QsoOperator(HeredityTensor(3, p))
        with pytest.raises(SimplexError, match="below"):
            find_fixed_points(V)


def test_extra_seed_dimension_checked():
    V = load_fixture("attracting_not_unique").build()
    with pytest.raises(DimensionMismatch):
        find_fixed_points(V, extra_seeds=[make_point([0.5, 0.5])])
