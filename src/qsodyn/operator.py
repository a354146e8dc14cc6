"""Heredity tensors, quadratic stochastic operators, iteration, Jacobians,
and fixed points: the vertex set proven from the coefficients, and a
multistart search where that check does not apply."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import fsum, inf
from operator import index
from typing import Optional

import numpy as np

from .simplex import (
    SimplexPoint,
    DimensionMismatch,
    _renormalize,
    _sum,
    grid_array,
    make_point,
    renormalize_rows,
)

EPS_COEF = 1e-12

TRAJECTORY_TOL = 1e-12
TRAJECTORY_MAX_ITER = 10_000
FIXED_POINT_TOL = 1e-9
ORBIT_EPS = 1e-9  # how far an image's total may stray from 1 before a step renormalizes it
# an orbit at n <= KERNEL_MAX_N runs in one call of generated straight-line
# code (_orbit_kernel): on dense draws 2.2 us a step at n = 4 and 3.9 at
# n = 5, against 5.7 and 6.1 through the einsum, but 6.5 against 6.6 at
# n = 6 (2-core x86-64, numpy 2.4.6); its sums add left to right, _sum's
# order only below n = 8
KERNEL_MAX_N = 5
DEDUP_RADIUS = 1e-6
# entries of one block's (rows, n, n) intermediates in evaluate_array, the
# Newton polish and the order verifier: 128 KB, 256 rows at n = 8
BLOCK_ENTRIES = 16_384


class TensorError(ValueError):
    """Heredity coefficients violate nonnegativity, symmetry, or normalization."""


@dataclass(frozen=True)
class HeredityTensor:
    """Coefficients p[i, j, k] = probability that types i+1, j+1 produce k+1.

    The array is dense, 0-based, shape (n, n, n). Use :func:`tensor_from_entries`
    to build one from sparse 1-based records. :func:`make_operator` stores it
    exactly symmetric, p[i, j, k] and p[j, i, k] one double, and read-only.
    """

    n: int
    p: np.ndarray


def tensor_from_entries(n: int, entries: dict) -> HeredityTensor:
    """Build a tensor from a {(i, j, k): p} dict with 1-based indices.

    Entries given for (i, j) are mirrored to (j, i) unless both are present.
    Missing coefficients are zero; :func:`make_operator` validates and averages.
    """
    if n < 2:
        raise TensorError(f"n must be >= 2, got {n}")
    p = np.zeros((n, n, n))
    for (i, j, k), v in entries.items():
        if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
            raise TensorError(f"index ({i},{j},{k}) out of range for n={n}")
        p[i - 1, j - 1, k - 1] = v
        if (j, i, k) not in entries:
            p[j - 1, i - 1, k - 1] = v
    return HeredityTensor(n, p)


@dataclass(frozen=True)
class CoefficientClauses:
    """The coefficient clauses of the theorem, as :attr:`QsoOperator.clauses`
    decides them.

    ``necessary`` maps cumulative_mass, upper_block_zero, absorbing_last and
    half_bound, in that order, to a first witness, None where the clause
    holds. ``violations`` lists the (k, j) that break the uniqueness bounds;
    (k, k) marks p[k,k,k] = 1. ``C`` lists the k < n with p[k,k,:] = e_k.
    ``order_bound`` says whether e = max over k < n, i, j of (A_k - S_k)[i,j]
    is at most 0, where A_k[i,j] = sum_{m<=k} p[i,j,m] and
    S_k[i,j] = ([i<=k] + [j<=k]) / 2. Indices are 1-based.
    """

    necessary: dict
    violations: list
    C: list
    order_bound: bool


def _check_coefficients(p: np.ndarray, eps: float) -> None:
    """Raise at the first coefficient, in row-major order, outside
    [-eps, 1 + eps], NaN included; then at the first p[i,j,k] more than eps
    from p[j,i,k]. The range goes first: an inf and its mirror differ by NaN."""
    out = ~((p >= -eps) & (p <= 1.0 + eps))
    if out.any():
        i, j, k = np.argwhere(out)[0]
        raise TensorError(f"coefficient ({i + 1},{j + 1},{k + 1}) = {p[i, j, k]} outside [0, 1]")
    asym = ~(np.abs(p - p.transpose(1, 0, 2)) <= eps)  # NaN fails too
    if asym.any():
        i, j, k = np.argwhere(asym)[0]
        raise TensorError(f"asymmetric pair ({i + 1},{j + 1}) at outcome {k + 1}: {p[i, j, k]} vs {p[j, i, k]}")


@dataclass(frozen=True)
class QsoOperator:
    """A validated quadratic stochastic operator x -> V(x). Its tensor is not
    changed after construction: ``clauses`` is decided once.

    Every reader takes p as :func:`make_operator` stores it, read-only, in
    [0, 1] and exactly symmetric in its first two indices, which
    construction checks exactly, in that order."""

    tensor: HeredityTensor

    def __post_init__(self):
        n, p = self.tensor.n, self.tensor.p
        if not isinstance(p, np.ndarray) or p.shape != (n, n, n) or p.flags.writeable or not p.flags.owndata:
            # a read-only view of a writeable array could still change
            raise TensorError(f"tensor must be a read-only array of shape {(n, n, n)} that owns its data")
        _check_coefficients(p, 0.0)  # the order bound in clauses needs A_k to grow with k

    @property
    def n(self) -> int:
        return self.tensor.n

    @cached_property
    def clauses(self) -> CoefficientClauses:
        """Every coefficient clause, decided in one pass over p.tolist(),
        exactly on the stored doubles: each compares a coefficient, or the
        sign of a math.fsum (correctly rounded, so its sign is the exact sign
        of a sum of doubles), with 0, 1/2, 1 or k*n, with no tolerance.

        cumulative_mass:  sum_{m<=k} sum_{i,j} p[i,j,m] <= k*n for k < n
                          (at k = n it is the normalization, which
                          rounding breaks)
        upper_block_zero: p[i,j,k] = 0 whenever both i, j > k
        absorbing_last:   p[n,n,n] = 1
        half_bound:       p[l,j,l] <= 1/2 for j > l
        uniqueness:       p[k,k,k] < 1 and p[k,j,k] < 1/2 for k < n and j > k
        p is exactly symmetric (make_operator), so each pair is read at i <= j.

        For e: where upper_block_zero fails at p[i,j,k],
        (A_k - S_k)[i,j] >= p[i,j,k] > 0. Where it holds, (A_k - S_k)[i,j]
        = 0 for k < min(i,j), and A_k grows with k, as the stored
        coefficients are nonnegative: so the last k of each step of S_k
        decides, k = max(i,j) - 1 against 1/2 and k = n - 1 against 1. The
        entries of S_k sum to k*n, so e <= 0 proves cumulative_mass.
        """
        P = self.tensor.p.tolist()
        n = self.n
        necessary = dict.fromkeys(("cumulative_mass", "upper_block_zero", "absorbing_last", "half_bound"))
        for k in range(n - 1):
            block = [P[i][j][k] for i in range(k + 1, n) for j in range(k + 1, n)]
            if any(block):
                r = max(range(len(block)), key=lambda r: abs(block[r]))  # the first largest, as np.argmax
                necessary["upper_block_zero"] = (k + 2 + r // (n - k - 1), k + 2 + r % (n - k - 1), k + 1)
                break
        if P[-1][-1][-1] != 1.0:
            necessary["absorbing_last"] = (n, n, n, P[-1][-1][-1])
        violations, C = [], []
        for k in range(n - 1):
            if not P[k][k][k] < 1.0:
                violations.append((k + 1, k + 1))
                if P[k][k].count(0.0) == n - 1:  # p[k,k,k] = 1 is the row's only nonzero entry
                    C.append(k + 1)
            for j in range(k + 1, n):
                if necessary["half_bound"] is None and P[k][j][k] > 0.5:
                    necessary["half_bound"] = (k + 1, j + 1, P[k][j][k])
                if not P[k][j][k] < 0.5:
                    violations.append((k + 1, j + 1))
        order_bound = (
            necessary["upper_block_zero"] is None
            and not any(fsum([*P[i][j][:j], -0.5]) > 0 for j in range(1, n) for i in range(j))
            and not any(fsum([*P[i][j][:-1], -1.0]) > 0 for j in range(n - 1) for i in range(j + 1))
        )
        if not order_bound:
            mass = []
            for k in range(n - 1):
                mass += [P[i][j][k] for i in range(n) for j in range(n)]
                if fsum([*mass, -(k + 1) * n]) > 0:
                    necessary["cumulative_mass"] = (k + 1, fsum(mass))
                    break
        return CoefficientClauses(necessary, violations, C, order_bound)


def make_operator(tensor: HeredityTensor, symmetrize: bool = False) -> QsoOperator:
    """Validate a heredity tensor and store it exactly symmetric, read-only.

    Checks, in order: two states or more, an (n, n, n) array, and, to within
    EPS_COEF, :func:`_check_coefficients` (range, then symmetry) and unit mass
    over the third index for every pair. It stores the average of p and
    its (1, 0, 2) transpose, clipped onto [0, 1]: p to the bit where p is
    symmetric, else each coefficient between its two halves. ``symmetrize``
    averages before the checks, so a pair may differ by more than EPS_COEF.
    """
    n = tensor.n
    if n < 2:
        raise TensorError(f"n must be >= 2, got {n}")
    if np.shape(tensor.p) != (n, n, n):
        raise TensorError(f"tensor shape must be {(n, n, n)}, got {np.shape(tensor.p)}")
    p = tensor.p
    mean = 0.5 * (p + p.transpose(1, 0, 2))
    if symmetrize:
        p = mean
    _check_coefficients(p, EPS_COEF)
    sums = p.sum(axis=2)
    dev = np.abs(sums - 1.0)
    if dev.max() > EPS_COEF:
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        raise TensorError(
            f"outcome mass for pair ({i + 1},{j + 1}) sums to {sums[i, j]}"
        )
    stored = np.clip(mean, 0.0, 1.0)
    stored.flags.writeable = False  # clauses is decided once
    return QsoOperator(HeredityTensor(n, stored))


def evaluate(V: QsoOperator, x: SimplexPoint) -> SimplexPoint:
    """V(x)_k = sum_{i,j} p[i,j,k] x_i x_j."""
    if x.n != V.n:
        raise DimensionMismatch(f"operator on {V.n} states, point has {x.n}")
    xa = x.as_array()
    return make_point(np.einsum("ijk,i,j->k", V.tensor.p, xa, xa), eps=ORBIT_EPS)


def block_rows(n: int) -> int:
    """Rows per block whose (rows, n, n) intermediates hold at most
    BLOCK_ENTRIES entries: 256 at n = 8, 4096 at n = 2."""
    return max(1, BLOCK_ENTRIES // (n * n))


def evaluate_array(V: QsoOperator, X: np.ndarray) -> np.ndarray:
    """Batch evaluation on rows of X; no per-point normalization.

    V(x)_k = sum_j (sum_i x_i p[i,j,k]) x_j, block by block through one
    reused (block_rows(n), n, n) buffer. Each row's result depends on that
    row alone, not on the other rows of X or where the blocks fall.
    """
    X = np.asarray(X, dtype=float)
    out = np.empty_like(X)
    block = block_rows(V.n)
    inner = np.empty((min(len(X), block), V.n, V.n))
    for s in range(0, len(X), block):
        B = X[s : s + block]
        W = np.einsum("pi,ijk->pjk", B, V.tensor.p, out=inner[: len(B)])
        np.einsum("pjk,pj->pk", W, B, out=out[s : s + block])
    return out


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
    """Iterate until the consecutive step shrinks below tol in l1 norm, or
    for max_iter steps, an integer.

    Each step equals :func:`evaluate` and :func:`l1_distance` to the bit, on
    a point held as Python floats. At n <= KERNEL_MAX_N one call of
    :func:`_orbit_kernel` runs the whole orbit with no NumPy call; a larger
    operator makes one NumPy call a step, the einsum. While it records the
    path it pauses the garbage collector, and restores it as it was."""
    max_iter = index(max_iter)
    if not 0 < tol < inf:  # NaN fails too
        raise ValueError("tol must be positive and finite")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if x.n != V.n:
        raise DimensionMismatch(f"operator on {V.n} states, point has {x.n}")
    path = [x] if record_path else None
    p = V.tensor.p
    # a recorded step allocates one object the collector tracks, its point,
    # and no cycle: left on, it would pass over the growing path every 700 steps
    # and promote it towards the full collections, about 10 ms each in the
    # sweep (2-core x86-64)
    pause = record_path and gc.isenabled()
    if pause:
        gc.disable()
    try:
        if V.n <= KERNEL_MAX_N:
            xs, used, step = _orbit_kernel(V.n)(p.ravel().tolist(), x, tol, max_iter, path)
        else:
            xs, used, step = x, 0, inf
            while used < max_iter:
                nxt = SimplexPoint(_renormalize(np.einsum("ijk,i,j->k", p, xs, xs).tolist(), ORBIT_EPS))
                step = _sum([abs(a - b) for a, b in zip(xs, nxt)])
                xs = nxt
                used += 1
                if path is not None:
                    path.append(xs)
                if step <= tol:
                    break
    finally:
        if pause:
            gc.enable()
    return TrajectoryResult(
        limit=xs,
        iterations_used=used,
        final_step_l1=step,
        converged=step <= tol,
        path=path,
    )


@lru_cache(maxsize=KERNEL_MAX_N - 1)
def _orbit_kernel(n: int):
    """The orbit at n as straight-line code, compiled on first use (0.3 ms
    at n = 2, 1.5 ms at n = 5, 2-core x86-64, Python 3.11.7). Its call
    orbit(c, x, tol, max_iter, path), c being p.ravel().tolist(), returns
    (last point, steps taken, last l1 step) and appends each point taken
    to path unless path is None; no coefficient enters the source.

    y_k adds (p[i,j,k] * x_i) * x_j from +0.0 over every (i, j) in
    row-major order, as np.einsum("ijk,i,j->k", p, xs, xs) does, so y is
    the einsum's image to the bit, NaN where it has one. Where every
    y_k > 0.0 and their total t, added left to right from +0.0 as _sum adds
    fewer than 8 terms, is within ORBIT_EPS of 1, _renormalize would neither
    raise nor clip, and z is y_k / t; otherwise z is _renormalize(y, ORBIT_EPS).
    The l1 step adds |x_k - z_k| left to right as well."""
    X = [f"x{i}" for i in range(n)]
    Y = [f"y{k}" for k in range(n)]
    Z = [f"z{k}" for k in range(n)]
    c = lambda i, j, k: f"c{(i * n + j) * n + k}"
    src = [
        "def orbit(c, x, tol, max_iter, path):",
        f"    {', '.join(c(i, j, k) for i in range(n) for j in range(n) for k in range(n))} = c",
        f"    {', '.join(X)} = x",
        "    step, used = inf, 0",
        "    while used < max_iter:",
        *(f"        y{k} = 0.0 + " + " + ".join(f"{c(i, j, k)} * x{i} * x{j}" for i in range(n) for j in range(n)) for k in range(n)),
        f"        t = 0.0 + {' + '.join(Y)}",
        f"        if {' and '.join(y + ' > 0.0' for y in Y)} and abs(t - 1.0) <= ORBIT_EPS:",
        f"            {', '.join(Z)} = {', '.join(y + ' / t' for y in Y)}",
        "        else:",
        f"            {', '.join(Z)} = _renormalize([{', '.join(Y)}], ORBIT_EPS)",
        f"        step = 0.0 + {' + '.join(f'abs({x} - {z})' for x, z in zip(X, Z))}",
        f"        {', '.join(X)} = {', '.join(Z)}",
        "        used += 1",
        "        if path is not None:",
        f"            path.append(SimplexPoint(({', '.join(X)},)))",
        "        if step <= tol:",
        "            break",
        f"    return x if used == 0 else SimplexPoint(({', '.join(X)},)), used, step",
    ]
    namespace = {"inf": inf, "ORBIT_EPS": ORBIT_EPS, "_renormalize": _renormalize, "SimplexPoint": SimplexPoint}
    exec(compile("\n".join(src), f"<orbit, n = {n}>", "exec"), namespace)
    return namespace["orbit"]


def _reduced_jacobians(V: QsoOperator, X: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the first n-1 coordinates with x_n eliminated, at
    every row of X, shape (count, n-1, n-1).

    Entry (k, i) = dV_k/dx_i - dV_k/dx_n = 2 sum_j (p[i,j,k] - p[n-1,j,k]) x_j,
    exact as make_operator stores p exactly symmetric: p[i,j,k] = p[j,i,k].
    """
    grad = 2.0 * np.einsum("ijk,pj->pik", V.tensor.p, X)  # grad[p, i, k] = dV_k/dx_i
    return (grad[:, :-1, :-1] - grad[:, -1:, :-1]).transpose(0, 2, 1)


def vertex_eigenvalues(V: QsoOperator) -> list:
    """Eigenvalues of the reduced Jacobian at (0,...,0,1): {2 p[k,n,k]}, the
    sum p[k,n,k] + p[n,k,k] of the exactly symmetric stored tensor."""
    n = V.n
    return [2.0 * float(V.tensor.p[k, n - 1, k]) for k in range(n - 1)]


@dataclass(frozen=True)
class FixedPointSet:
    """Deduplicated fixed points with their residuals ||V(x) - x||_1.

    ``diagnostics["method"]`` is ``"coefficient_theorem"`` where
    :func:`proven_fixed_points` proves the set from the coefficients, and
    ``"multistart"`` where that check does not apply: only then does the
    search run. The other keys count, for the search (0 when it did not
    run), seeds tried, seeds whose pre-iteration step fell to 1e-10 within
    500 steps, polished seeds rejected by the residual test, accepted seeds
    merged into an earlier point, and accepted damped Newton steps over all
    seeds.
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
SEARCH_COUNTERS = ("seeds_tried", "seeds_converged", "rejected_by_residual", "merged", "newton_steps")


def _pre_iterate(V: QsoOperator, X: np.ndarray):
    """Iterate every row of X with V until its l1 step is <= 1e-10 or it has
    taken 500 steps, as trajectory(tol=1e-10, max_iter=500) stops; rows agree
    with those orbits to about 1e-13, as :func:`evaluate_array` rounds
    otherwise. Returns the rows and each row's last l1 step."""
    X = X.copy()
    last = np.full(len(X), np.inf)
    live = np.arange(len(X))  # the rows of X still iterating; rows holds their values
    rows = X
    for _ in range(PRE_ITER_MAX):
        nxt = renormalize_rows(evaluate_array(V, rows), eps=ORBIT_EPS)
        step = np.add.reduce(np.abs(nxt - rows), axis=1)
        rows = nxt
        stop = step <= PRE_ITER_TOL
        if stop.any():
            X[live[stop]] = rows[stop]
            last[live[stop]] = step[stop]
            go = ~stop
            live, rows, step = live[go], rows[go], step[go]
            if live.size == 0:
                break
    X[live] = rows
    last[live] = step
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
    min(tol/10, 1e-15). A step is halved (up to 40 times) until it stays on
    the simplex and lowers the residual; a row whose step never does stops.
    Near a non-hyperbolic fixed point, where V(x) - x is quadratic in the
    distance to it, rows do not collapse onto the point: they can stop up
    to 2.5e-3 away with residuals below tol, farther apart than
    DEDUP_RADIUS, and the search then reports each as a point of its own.
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


def proven_fixed_points(V: QsoOperator) -> Optional[np.ndarray]:
    """The fixed points that the stored coefficients prove, as vertex rows
    sorted by coordinate tuple (e_n first), or None where the check does not
    apply. It reads :attr:`QsoOperator.clauses`.

    The check needs absorbing_last, upper_block_zero and half_bound. Let C be
    the k < n with p[k,k,:] = e_k. Every other k < n needs p[k,k,k] < 1,
    and every k in C the strict p[k,j,k] < 1/2 for j > k: so each
    uniqueness violation (k, k) has k in C, and each (k, j), j > k, has k
    outside C. Then Fix(V) = {e_k : k in C} u {e_n}.

    Proof: V(e_k) = p[k,k,:] = e_k for k in C, and V(e_n) = e_n, as
    p[n,n,k] = 0 for k < n. Let x be fixed and k < n its first nonzero
    coordinate. Only the pairs (k,k), (k,j), (j,k) with j > k feed V(x)_k,
    and the stored p is symmetric, so x_k = V(x)_k = x_k [p[k,k,k] x_k +
    sum_{j>k} 2 p[k,j,k] x_j]. Every weight in the bracket is at most 1 and
    the x_j sum to 1, so the bracket is 1 only if p[k,k,k] = 1 and every j
    with x_j > 0 has weight 1. For k outside C the first fails; for k in C
    the strict bound leaves x = e_k.
    """
    c = V.clauses
    holds = not any(c.necessary[name] for name in ("upper_block_zero", "absorbing_last", "half_bound"))
    if not (holds and all((j == k) == (k in c.C) for k, j in c.violations)):
        return None
    return np.eye(V.n)[np.array([V.n, *reversed(c.C)]) - 1]


def find_fixed_points(V: QsoOperator, tol: float = FIXED_POINT_TOL) -> FixedPointSet:
    """The fixed points of V: the vertices that :func:`proven_fixed_points`
    proves, with their residuals from evaluate_array (0.0), and otherwise
    the points the multistart search :func:`_multistart` finds. An l1
    residual on the simplex is at most 2, so tol >= 2 would accept every
    polished row."""
    if not 0 < tol < 2:  # NaN fails too
        raise ValueError("tol must be in (0, 2): an l1 residual on the simplex is at most 2")
    X = proven_fixed_points(V)
    if X is None:
        return _multistart(V, tol)
    return FixedPointSet(
        points=list(map(SimplexPoint, X.tolist())),
        residuals=np.abs(evaluate_array(V, X) - X).sum(axis=1).tolist(),
        dedup_radius=DEDUP_RADIUS,
        diagnostics=dict.fromkeys(SEARCH_COUNTERS, 0) | {"method": "coefficient_theorem"},
    )


@lru_cache(maxsize=8)
def _search_seeds(n: int) -> np.ndarray:
    """The seeds of :func:`_multistart` in coordinate-tuple order, each point
    once: the C(n+5, 6) resolution-6 grid points, the vertices among them,
    and the barycenter, itself a grid point where n divides 6. Read-only."""
    seeds = np.concatenate([renormalize_rows(np.full((1, n), 1.0 / n)), grid_array(n, 6)])
    seeds = np.unique(seeds, axis=0, return_index=True)[0]  # return_index skips its import of numpy.ma
    seeds.flags.writeable = False
    return seeds


def _merge(A: np.ndarray, res: list):
    """Greedy merge of the rows of A, with residuals res, in row order: each
    row joins the first kept row within DEDUP_RADIUS in l1, and replaces it
    where its residual is lower; a row near none is kept. A kept row's
    distances to every row are taken in one pass when it is kept or
    replaced. Returns the kept (coordinates, residual) pairs sorted by
    coordinates, and the number of rows merged."""
    found: list[int] = []  # rows of A kept, in order of discovery
    dist: list[list] = []  # dist[idx][j]: l1 distance from row found[idx] to row j
    merged = 0
    for j, r in enumerate(res):
        for idx, c in enumerate(found):
            if dist[idx][j] <= DEDUP_RADIUS:
                if r < res[c]:
                    found[idx] = j
                    dist[idx] = np.abs(A - A[j]).sum(axis=1).tolist()
                merged += 1
                break
        else:
            found.append(j)
            dist.append(np.abs(A - A[j]).sum(axis=1).tolist())
    return sorted(((A[c].tolist(), res[c]) for c in found), key=lambda xr: xr[0]), merged


def _multistart(V: QsoOperator, tol: float) -> FixedPointSet:
    """Multistart search from :func:`_search_seeds`, all pre-iterated and
    then polished by damped Newton as one array. The polished rows whose
    residual is not above tol merge by :func:`_merge`."""
    n = V.n
    seeds = _search_seeds(n)
    limits, last_step = _pre_iterate(V, seeds)
    # rows are independent; blocks bound the memory of the stacked Jacobians
    block = block_rows(n)
    polished = [_newton_polish(V, limits[s : s + block], tol) for s in range(0, len(limits), block)]
    cands = np.concatenate([rows for rows, _ in polished])
    newton_steps = sum(steps for _, steps in polished)
    residuals = np.abs(evaluate_array(V, cands) - cands).sum(axis=1)
    accepted = ~(residuals > tol)
    kept, merged = _merge(cands[accepted], residuals[accepted].tolist())
    return FixedPointSet(
        points=[SimplexPoint(x) for x, _ in kept],
        residuals=[r for _, r in kept],
        dedup_radius=DEDUP_RADIUS,
        diagnostics={
            "seeds_tried": len(seeds),
            "seeds_converged": int((last_step <= PRE_ITER_TOL).sum()),
            "rejected_by_residual": int((~accepted).sum()),
            "merged": merged,
            "newton_steps": newton_steps,
            "method": "multistart",
        },
    )
