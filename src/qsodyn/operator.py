"""Heredity tensors, quadratic stochastic operators, iteration, Jacobians,
and multistart fixed-point search."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .simplex import (
    SimplexPoint,
    DimensionMismatch,
    grid_array,
    make_point,
    renormalize_rows,
)

EPS_COEF = 1e-12

TRAJECTORY_TOL = 1e-12
TRAJECTORY_MAX_ITER = 10_000
DEDUP_RADIUS = 1e-6
# rows per block in evaluate_array and the Newton polish: bounds the
# (rows, n, n) intermediates, about 130 KB at n = 8
ROW_BLOCK = 256


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
    """Batch evaluation on rows of X; no per-point normalization.

    V(x)_k = sum_j (sum_i x_i p[i,j,k]) x_j, block by block through one
    reused (ROW_BLOCK, n, n) buffer. Each row's result depends on that row
    alone, not on the other rows of X.
    """
    X = np.asarray(X, dtype=float)
    out = np.empty_like(X)
    inner = np.empty((min(len(X), ROW_BLOCK), V.n, V.n))
    for s in range(0, len(X), ROW_BLOCK):
        B = X[s : s + ROW_BLOCK]
        W = np.einsum("pi,ijk->pjk", B, V.tensor.p, out=inner[: len(B)])
        np.einsum("pjk,pj->pk", W, B, out=out[s : s + ROW_BLOCK])
    return out


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
    if max_iter > 0 and x.n != V.n:
        raise DimensionMismatch(f"operator on {V.n} states, point has {x.n}")
    path = [x] if record_path else None
    step = float("inf")
    used = 0
    xa = x.as_array()
    for it in range(1, max_iter + 1):
        # evaluate() and l1_distance() on the coordinate array
        nxt = renormalize_rows(_image(V, xa), eps=1e-9)
        step = float(np.abs(xa - nxt).sum())
        xa = nxt
        used = it
        if record_path:
            path.append(SimplexPoint(tuple(xa.tolist())))
        if step <= tol:
            break
    return TrajectoryResult(
        limit=x if used == 0 else SimplexPoint(tuple(xa.tolist())),
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
    return _reduced_jacobians(V, x.as_array()[None])[0]


def _reduced_jacobians(V: QsoOperator, X: np.ndarray) -> np.ndarray:
    """:func:`reduced_jacobian` at every row of X, shape (count, n-1, n-1)."""
    grad = 2.0 * np.einsum("ijk,pj->pik", V.tensor.p, X)  # grad[p, i, k] = dV_k/dx_i
    return (grad[:, :-1, :-1] - grad[:, -1:, :-1]).transpose(0, 2, 1)


def vertex_eigenvalues(V: QsoOperator) -> list:
    """Eigenvalues of the reduced Jacobian at (0,...,0,1): {2 p[k,n,k]}."""
    n = V.n
    return [2.0 * float(V.tensor.p[k, n - 1, k]) for k in range(n - 1)]


@dataclass(frozen=True)
class FixedPointSet:
    """Deduplicated fixed points with their residuals ||V(x) - x||_1.

    ``diagnostics`` holds deterministic counters of the search: seeds tried,
    seeds whose pre-iteration step fell to 1e-10 within 500 steps, polished
    seeds rejected by the residual test, accepted seeds merged into an
    earlier point, and accepted damped Newton steps over all seeds.
    """

    points: list  # list[SimplexPoint]
    residuals: list  # list[float]
    dedup_radius: float
    diagnostics: dict = field(default_factory=dict)


PRE_ITER_TOL = 1e-10
PRE_ITER_MAX = 500
NEWTON_MAX_STEPS = 60
NEWTON_HALVINGS = 40
NEWTON_SLACK = 1e-9  # how far a Newton step may leave the simplex before it is halved


def _pre_iterate(V: QsoOperator, X: np.ndarray):
    """Iterate every row of X with V, each as :func:`trajectory` would with
    tol=1e-10 and max_iter=500: a row stops once its l1 step is <= 1e-10 or
    it has taken 500 steps. Returns the rows and each row's last l1 step."""
    X = X.copy()
    last = np.full(len(X), np.inf)
    live = np.arange(len(X))
    for _ in range(PRE_ITER_MAX):
        prev = X[live]
        Y = renormalize_rows(evaluate_array(V, prev), eps=1e-9)
        step = np.abs(Y - prev).sum(axis=1)
        X[live] = Y
        last[live] = step
        live = live[~(step <= PRE_ITER_TOL)]
        if live.size == 0:
            break
    return X, last


def _lift(U: np.ndarray) -> np.ndarray:
    """Reduced-chart rows back to n coordinates, x_n = max(0, 1 - sum u)."""
    return np.concatenate([U, np.maximum(0.0, 1.0 - U.sum(axis=1))[:, None]], axis=1)


def _reduced_residual(V: QsoOperator, U: np.ndarray) -> np.ndarray:
    """F(u) - u for every row, F being V in the reduced chart."""
    return evaluate_array(V, _lift(U))[:, :-1] - U


def _solve_rows(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve J[r] s = b[r] for every row; least squares for singular rows."""
    try:
        return np.linalg.solve(J, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(b)
        for r in range(len(b)):
            try:
                out[r] = np.linalg.solve(J[r], b[r])
            except np.linalg.LinAlgError:
                out[r] = np.linalg.lstsq(J[r], b[r], rcond=None)[0]
        return out


def _newton_polish(V: QsoOperator, X: np.ndarray, tol: float):
    """Damped Newton on V(x) - x in the reduced chart, for every row of X.

    Each row takes up to 60 steps and stops once its residual is at most
    min(tol/10, 1e-15), polishing well past tol so that seeds stalled near a
    degenerate fixed point collapse onto it instead of surviving dedup as
    near-duplicates. A step is halved (up to 40 times) until it stays on the
    simplex and lowers the residual; a row whose step never does stops.
    Returns the polished rows and the number of accepted steps.
    """
    target = min(tol / 10, 1e-15)
    n = V.n
    U = X[:, :-1].copy()
    accepted_steps = 0
    live = np.arange(len(U))
    for _ in range(NEWTON_MAX_STEPS):
        u = U[live]
        f = _reduced_residual(V, u)
        norm = np.abs(f).sum(axis=1)
        keep = norm > target
        live, u, f, norm = live[keep], u[keep], f[keep], norm[keep]
        if live.size == 0:
            break
        Xa = _lift(u).clip(0.0)
        Xa = renormalize_rows(Xa / Xa.sum(axis=1, keepdims=True))
        step = _solve_rows(_reduced_jacobians(V, Xa) - np.eye(n - 1), -f)
        # backtracking: every still-pending row halves its step together
        pending = np.arange(len(live))
        moved = np.zeros(len(live), dtype=bool)
        scale = 1.0
        for _ in range(NEWTON_HALVINGS):
            cand = u[pending] + scale * step[pending]
            ok = (cand >= -NEWTON_SLACK).all(axis=1) & (cand.sum(axis=1) <= 1.0 + NEWTON_SLACK)
            cand = cand[ok].clip(0.0)
            cand /= np.maximum(cand.sum(axis=1, keepdims=True), 1.0)  # rescale sums above 1
            better = np.abs(_reduced_residual(V, cand)).sum(axis=1) < norm[pending[ok]]
            ok[ok] = better
            U[live[pending[ok]]] = cand[better]
            moved[pending[ok]] = True
            pending = pending[~ok]
            if pending.size == 0:
                break
            scale *= 0.5
        accepted_steps += int(moved.sum())
        live = live[moved]
    Xa = _lift(U).clip(0.0)
    return renormalize_rows(Xa / Xa.sum(axis=1, keepdims=True)), accepted_steps


def find_fixed_points(
    V: QsoOperator,
    tol: float = 1e-9,
    dedup_radius: float = DEDUP_RADIUS,
    extra_seeds: Sequence[SimplexPoint] = (),
) -> FixedPointSet:
    """Multistart search: vertices, barycenter, a coarse grid, and extra seeds,
    all pre-iterated and then polished by damped Newton as one array."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = V.n
    for s in extra_seeds:
        if s.n != n:
            raise DimensionMismatch(f"operator on {n} states, seed has {s.n}")
    seeds = np.concatenate(
        [
            np.eye(n),
            renormalize_rows(np.full((1, n), 1.0 / n)),
            grid_array(n, 6),
            np.array([s.coords for s in extra_seeds], dtype=float).reshape(-1, n),
        ]
    )
    seeds = seeds[np.lexsort(seeds.T[::-1])]  # stable, like sorting the coordinate tuples

    limits, last_step = _pre_iterate(V, seeds)
    # rows are independent; blocks bound the memory of the stacked Jacobians
    polished = [_newton_polish(V, limits[s : s + ROW_BLOCK], tol) for s in range(0, len(limits), ROW_BLOCK)]
    cands = np.concatenate([rows for rows, _ in polished])
    newton_steps = sum(steps for _, steps in polished)
    residuals = np.abs(evaluate_array(V, cands) - cands).sum(axis=1)
    accepted = ~(residuals > tol)

    found: list[tuple] = []  # (coordinates, residual), in order of discovery
    merged = 0
    for cand, res in zip(cands[accepted], residuals[accepted].tolist()):
        for idx, (x, r) in enumerate(found):
            if np.abs(x - cand).sum() <= dedup_radius:
                if res < r:
                    found[idx] = (cand, res)
                merged += 1
                break
        else:
            found.append((cand, res))
    found.sort(key=lambda xr: xr[0].tolist())
    return FixedPointSet(
        points=[SimplexPoint(tuple(x.tolist())) for x, _ in found],
        residuals=[r for _, r in found],
        dedup_radius=dedup_radius,
        diagnostics={
            "seeds_tried": len(seeds),
            "seeds_converged": int((last_step <= PRE_ITER_TOL).sum()),
            "rejected_by_residual": int((~accepted).sum()),
            "merged": merged,
            "newton_steps": newton_steps,
        },
    )
