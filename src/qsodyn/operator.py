"""Heredity tensors, quadratic stochastic operators, iteration, Jacobians,
and multistart fixed-point search."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .simplex import (
    SimplexPoint,
    DimensionMismatch,
    grid_simplex,
    l1_distance,
    make_point,
    terminal_vertex,
    vertex,
)

EPS_COEF = 1e-12

TRAJECTORY_TOL = 1e-12
TRAJECTORY_MAX_ITER = 10_000
DEDUP_RADIUS = 1e-6


class TensorError(ValueError):
    """Heredity coefficients violate nonnegativity, symmetry, or normalization."""


@dataclass(frozen=True)
class HeredityTensor:
    """Coefficients p[i, j, k] = probability that types i+1, j+1 produce k+1.

    The array is dense, 0-based, shape (n, n, n). Use :func:`tensor_from_entries`
    to build one from sparse 1-based records.
    """

    n: int
    p: np.ndarray

    def entry(self, i: int, j: int, k: int) -> float:
        """1-based coefficient lookup."""
        return float(self.p[i - 1, j - 1, k - 1])


def tensor_from_entries(n: int, entries: dict) -> HeredityTensor:
    """Build a tensor from a {(i, j, k): p} dict with 1-based indices.

    Entries given for (i, j) are mirrored to (j, i) unless both are present.
    Missing coefficients are zero; validation happens in :func:`make_operator`.
    """
    if n < 2:
        raise TensorError(f"n must be >= 2, got {n}")
    p = np.zeros((n, n, n))
    seen = set()
    for (i, j, k), v in entries.items():
        if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
            raise TensorError(f"index ({i},{j},{k}) out of range for n={n}")
        p[i - 1, j - 1, k - 1] = v
        seen.add((i, j, k))
    for (i, j, k) in list(seen):
        if (j, i, k) not in seen:
            p[j - 1, i - 1, k - 1] = p[i - 1, j - 1, k - 1]
    return HeredityTensor(n, p)


@dataclass(frozen=True)
class QsoOperator:
    """A validated quadratic stochastic operator x -> V(x)."""

    tensor: HeredityTensor

    @property
    def n(self) -> int:
        return self.tensor.n

    def __call__(self, x: SimplexPoint) -> SimplexPoint:
        return evaluate(self, x)


def make_operator(
    tensor: HeredityTensor, symmetrize: bool = False, eps: float = EPS_COEF
) -> QsoOperator:
    """Validate (and optionally symmetrize) a heredity tensor.

    Checks: entries in [0, 1], symmetry in the first two indices, and unit
    mass over the third index for every pair.
    """
    p = tensor.p.copy()
    n = tensor.n
    if symmetrize:
        p = 0.5 * (p + p.transpose(1, 0, 2))
    bad = ~((p >= -eps) & (p <= 1 + eps))  # NaN fails both comparisons
    if bad.any():
        i, j, k = np.unravel_index(np.argmax(bad), bad.shape)
        raise TensorError(
            f"coefficient ({i + 1},{j + 1},{k + 1}) = {p[i, j, k]} "
            "outside [0, 1]"
        )
    asym = np.abs(p - p.transpose(1, 0, 2))
    if asym.max() > eps:
        i, j, k = np.unravel_index(np.argmax(asym), asym.shape)
        raise TensorError(
            f"asymmetric pair ({i + 1},{j + 1}) at outcome {k + 1}: "
            f"{p[i, j, k]} vs {p[j, i, k]}"
        )
    sums = p.sum(axis=2)
    dev = np.abs(sums - 1.0)
    if dev.max() > eps:
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        raise TensorError(
            f"outcome mass for pair ({i + 1},{j + 1}) sums to {sums[i, j]}"
        )
    p = np.clip(p, 0.0, 1.0)
    return QsoOperator(HeredityTensor(n, p))


def evaluate(V: QsoOperator, x: SimplexPoint) -> SimplexPoint:
    """V(x)_k = sum_{i,j} p[i,j,k] x_i x_j."""
    if x.n != V.n:
        raise DimensionMismatch(f"operator on {V.n} states, point has {x.n}")
    return make_point(_image(V, x.as_array()), eps=1e-9)


def _image(V: QsoOperator, xa: np.ndarray) -> np.ndarray:
    """V(x) for one coordinate array, without renormalization."""
    return np.einsum("ijk,i,j->k", V.tensor.p, xa, xa)


def evaluate_array(V: QsoOperator, X: np.ndarray) -> np.ndarray:
    """Batch evaluation on rows of X; no per-point normalization."""
    return np.einsum("ijk,pi,pj->pk", V.tensor.p, X, X)


def evaluate_canonical(V: QsoOperator, x: SimplexPoint) -> SimplexPoint:
    """Reduced evaluation valid when the upper coefficient blocks vanish.

    Uses only coefficients p[l, j, k] with l <= k, plus the leading x_n^2
    term in the last coordinate.
    """
    from .classify import check_necessary_bbistochastic

    nec = check_necessary_bbistochastic(V)
    if not (nec.by_name("upper_block_zero").passed and nec.by_name("absorbing_last").passed):
        raise TensorError("tensor lacks the zero upper-block structure")
    if x.n != V.n:
        raise DimensionMismatch(f"operator on {V.n} states, point has {x.n}")
    n = V.n
    p = V.tensor.p
    xa = x.as_array()
    y = np.zeros(n)
    for k in range(n - 1):
        acc = 0.0
        for l in range(k + 1):
            acc += p[l, l, k] * xa[l] ** 2
            acc += 2.0 * xa[l] * np.dot(p[l, l + 1 :, k], xa[l + 1 :])
        y[k] = acc
    acc = xa[-1] ** 2
    for l in range(n - 1):
        acc += p[l, l, n - 1] * xa[l] ** 2
        acc += 2.0 * xa[l] * np.dot(p[l, l + 1 :, n - 1], xa[l + 1 :])
    y[n - 1] = acc
    return make_point(y, eps=1e-9)


def iterate(V: QsoOperator, x: SimplexPoint, m: int) -> SimplexPoint:
    """m-fold application of V; m = 0 is the identity."""
    if m < 0:
        raise ValueError("m must be >= 0")
    for _ in range(m):
        x = evaluate(V, x)
    return x


@dataclass(frozen=True)
class TrajectoryResult:
    limit: SimplexPoint
    iterations_used: int
    final_step_l1: float
    converged: bool
    path: Optional[list] = None


def trajectory(
    V: QsoOperator,
    x: SimplexPoint,
    tol: float = TRAJECTORY_TOL,
    max_iter: int = TRAJECTORY_MAX_ITER,
    record_path: bool = False,
) -> TrajectoryResult:
    """Iterate until the consecutive step shrinks below tol in l1 norm."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    path = [x] if record_path else None
    step = float("inf")
    used = 0
    for it in range(1, max_iter + 1):
        nxt = evaluate(V, x)
        step = l1_distance(x, nxt)
        x = nxt
        used = it
        if record_path:
            path.append(x)
        if step <= tol:
            break
    return TrajectoryResult(
        limit=x,
        iterations_used=used,
        final_step_l1=step,
        converged=step <= tol,
        path=path,
    )


def reduced_jacobian(V: QsoOperator, x: SimplexPoint) -> np.ndarray:
    """Analytic Jacobian of the first n-1 coordinates with x_n eliminated.

    Entry (k, i) = dV_k/dx_i - dV_k/dx_n = 2 sum_j (p[i,j,k] - p[n-1,j,k]) x_j.
    """
    if x.n != V.n:
        raise DimensionMismatch(f"operator on {V.n} states, point has {x.n}")
    n = V.n
    xa = x.as_array()
    grad = 2.0 * np.einsum("ijk,j->ik", V.tensor.p, xa)  # grad[i, k] = dV_k/dx_i
    J = np.empty((n - 1, n - 1))
    for k in range(n - 1):
        for i in range(n - 1):
            J[k, i] = grad[i, k] - grad[n - 1, k]
    return J


def vertex_eigenvalues(V: QsoOperator) -> list:
    """Eigenvalues of the reduced Jacobian at (0,...,0,1): {2 p[k,n,k]}."""
    n = V.n
    return [2.0 * float(V.tensor.p[k, n - 1, k]) for k in range(n - 1)]


@dataclass(frozen=True)
class FixedPointSet:
    """Deduplicated fixed points with their residuals ||V(x) - x||_1."""

    points: list  # list[SimplexPoint]
    residuals: list  # list[float]
    dedup_radius: float


def _residual(V: QsoOperator, xa: np.ndarray) -> float:
    return float(np.abs(_image(V, xa) - xa).sum())


def _reduced_map(V: QsoOperator, u: np.ndarray) -> np.ndarray:
    return _image(V, np.append(u, max(0.0, 1.0 - u.sum())))[:-1]


def _in_reduced_simplex(u: np.ndarray, slack: float = 1e-9) -> bool:
    return bool((u >= -slack).all() and u.sum() <= 1.0 + slack)


def _newton_polish(
    V: QsoOperator, x: SimplexPoint, tol: float, max_steps: int = 60
) -> SimplexPoint:
    """Damped Newton on V(x) - x in the reduced chart, clipped to the simplex.

    Polishes well past tol so that seeds stalled near a degenerate fixed
    point collapse onto it instead of surviving dedup as near-duplicates.
    """
    target = min(tol / 10, 1e-15)
    u = x.as_array()[:-1]
    best_u = u.copy()
    best_res = np.abs(_reduced_map(V, u) - u).sum()
    for _ in range(max_steps):
        f = _reduced_map(V, u) - u
        norm = np.abs(f).sum()
        if norm <= target:
            break
        xa = np.clip(np.append(u, max(0.0, 1.0 - u.sum())), 0.0, None)
        J = reduced_jacobian(V, make_point(xa / xa.sum())) - np.eye(V.n - 1)
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, -f, rcond=None)
        # backtrack: halve until the step stays on the simplex and improves
        scale = 1.0
        accepted = False
        for _ in range(40):
            cand = u + scale * step
            if _in_reduced_simplex(cand):
                cand = np.clip(cand, 0.0, None)
                if cand.sum() > 1.0:
                    cand = cand / cand.sum()
                res = np.abs(_reduced_map(V, cand) - cand).sum()
                if res < norm:
                    u = cand
                    accepted = True
                    if res < best_res:
                        best_res, best_u = res, cand.copy()
                    break
            scale *= 0.5
        if not accepted:
            break
    xa = np.append(best_u, max(0.0, 1.0 - best_u.sum()))
    xa = np.clip(xa, 0.0, None)
    return make_point(xa / xa.sum())


def find_fixed_points(
    V: QsoOperator,
    tol: float = 1e-9,
    dedup_radius: float = DEDUP_RADIUS,
    extra_seeds: Sequence[SimplexPoint] = (),
) -> FixedPointSet:
    """Multistart search: vertices, barycenter, a coarse grid, and extra seeds,
    each pre-iterated then polished by damped Newton."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = V.n
    seeds = [vertex(n, i) for i in range(1, n + 1)]
    seeds.append(make_point([1.0 / n] * n))
    seeds.extend(grid_simplex(n, 6))
    seeds.extend(extra_seeds)
    seeds.sort(key=lambda p: p.coords)

    found: list[tuple[SimplexPoint, float]] = []
    for seed in seeds:
        tr = trajectory(V, seed, tol=1e-10, max_iter=500)
        cand = _newton_polish(V, tr.limit, tol)
        res = _residual(V, cand.as_array())
        if res > tol:
            continue
        merged = False
        for idx, (p, r) in enumerate(found):
            if l1_distance(p, cand) <= dedup_radius:
                if res < r:
                    found[idx] = (cand, res)
                merged = True
                break
        if not merged:
            found.append((cand, res))
    found.sort(key=lambda pr: pr[0].coords)
    return FixedPointSet(
        points=[p for p, _ in found],
        residuals=[r for _, r in found],
        dedup_radius=dedup_radius,
    )
