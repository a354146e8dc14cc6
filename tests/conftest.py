import json
from functools import lru_cache
from importlib import resources
from itertools import combinations

import numpy as np
import pytest

from qsodyn.operator import FixedPointSet, HeredityTensor, make_operator, trajectory
from qsodyn.simplex import grid_simplex, l1_distance, make_point, vertex
from qsodyn.specfile import parse_spec


def load_fixture(name):
    text = resources.files("qsodyn").joinpath(f"fixtures/{name}.json").read_text()
    return parse_spec(json.loads(text), source=name)


def fixture_path(name):
    return str(resources.files("qsodyn").joinpath(f"fixtures/{name}.json"))


@lru_cache(maxsize=None)
def reference_grid(n, r):
    """Lattice points built one at a time through make_point, as coordinate tuples."""
    points = []
    for cuts in combinations(range(r + n - 1), n - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(r + n - 2 - prev)
        points.append(make_point([p / r for p in parts]).coords)
    return tuple(points)


@lru_cache(maxsize=None)
def reference_samples(n, count, seed):
    """Exponential-normalized draws passed one at a time through make_point."""
    draws = np.random.default_rng(seed).exponential(size=(count, n))
    draws /= draws.sum(axis=1, keepdims=True)
    return tuple(make_point(row).coords for row in draws)


def random_general_operator(n, rng):
    """Symmetric tensor with Dirichlet outcome rows; usually breaks the order."""
    p = rng.dirichlet(np.ones(n), size=(n, n))
    return make_operator(HeredityTensor(n, 0.5 * (p + p.transpose(1, 0, 2))))


def cyclic_vertex_operator(n, rng):
    """Pair (i, i) breeds type i+1 (cyclically) and every other pair a
    Dirichlet row: the vertices form an n-cycle that pre-iteration never
    leaves, so Newton starts far from any fixed point and must halve its
    steps, many of which leave the simplex."""
    p = np.zeros((n, n, n))
    for i in range(n):
        p[i, i, (i + 1) % n] = 1.0
        for j in range(i + 1, n):
            p[i, j] = p[j, i] = rng.dirichlet(np.ones(n))
    return make_operator(HeredityTensor(n, p))


def _reference_image(V, xa):
    return np.einsum("ijk,i,j->k", V.tensor.p, xa, xa)


def _reference_reduced_map(V, u):
    return _reference_image(V, np.append(u, max(0.0, 1.0 - u.sum())))[:-1]


def _reference_jacobian(V, xa):
    n = V.n
    grad = 2.0 * np.einsum("ijk,j->ik", V.tensor.p, xa)
    J = np.empty((n - 1, n - 1))
    for k in range(n - 1):
        for i in range(n - 1):
            J[k, i] = grad[i, k] - grad[n - 1, k]
    return J


def reference_newton_polish(V, x, tol, max_steps=60):
    """Damped Newton on one point, one halving at a time; returns the point
    and the number of accepted steps."""
    target = min(tol / 10, 1e-15)
    u = x.as_array()[:-1]
    accepted_steps = 0
    for _ in range(max_steps):
        f = _reference_reduced_map(V, u) - u
        norm = np.abs(f).sum()
        if norm <= target:
            break
        xa = np.clip(np.append(u, max(0.0, 1.0 - u.sum())), 0.0, None)
        J = _reference_jacobian(V, make_point(xa / xa.sum()).as_array()) - np.eye(V.n - 1)
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, -f, rcond=None)
        scale = 1.0
        accepted = False
        for _ in range(40):
            cand = u + scale * step
            if (cand >= -1e-9).all() and cand.sum() <= 1.0 + 1e-9:
                cand = np.clip(cand, 0.0, None)
                if cand.sum() > 1.0:
                    cand = cand / cand.sum()
                if np.abs(_reference_reduced_map(V, cand) - cand).sum() < norm:
                    u = cand
                    accepted = True
                    accepted_steps += 1
                    break
            scale *= 0.5
        if not accepted:
            break
    xa = np.clip(np.append(u, max(0.0, 1.0 - u.sum())), 0.0, None)
    return make_point(xa / xa.sum()), accepted_steps


def reference_seeds(n, extra_seeds=()):
    seeds = [vertex(n, i) for i in range(1, n + 1)]
    seeds.append(make_point([1.0 / n] * n))
    seeds.extend(grid_simplex(n, 6))
    seeds.extend(extra_seeds)
    seeds.sort(key=lambda p: p.coords)
    return seeds


def reference_fixed_points(V, tol=1e-9, dedup_radius=1e-6, extra_seeds=()):
    """The multistart search one seed at a time: trajectory, then Newton,
    with the same diagnostics counters as find_fixed_points."""
    diagnostics = dict(seeds_tried=0, seeds_converged=0, rejected_by_residual=0, merged=0, newton_steps=0)
    found = []
    for seed in reference_seeds(V.n, extra_seeds):
        diagnostics["seeds_tried"] += 1
        tr = trajectory(V, seed, tol=1e-10, max_iter=500)
        diagnostics["seeds_converged"] += tr.converged
        cand, steps = reference_newton_polish(V, tr.limit, tol)
        diagnostics["newton_steps"] += steps
        res = float(np.abs(_reference_image(V, cand.as_array()) - cand.as_array()).sum())
        if res > tol:
            diagnostics["rejected_by_residual"] += 1
            continue
        for idx, (p, r) in enumerate(found):
            if l1_distance(p, cand) <= dedup_radius:
                if res < r:
                    found[idx] = (cand, res)
                diagnostics["merged"] += 1
                break
        else:
            found.append((cand, res))
    found.sort(key=lambda pr: pr[0].coords)
    return FixedPointSet([p for p, _ in found], [r for _, r in found], dedup_radius, diagnostics)


@pytest.fixture
def three_vertex_operator():
    """n=3 operator whose fixed points are exactly the three vertices."""
    return load_fixture("attracting_not_unique").build()


@pytest.fixture
def sufficiency_gap_operator():
    """n=3 operator failing the uniqueness bounds yet with a unique fixed point."""
    return load_fixture("uniqueness_sufficiency_gap").build()


@pytest.fixture
def s2_noncontractive_operator():
    """n=3 operator with one fixed point but contraction modulus >= 1."""
    return load_fixture("unique_not_contractive_s2").build()
