"""Heredity tensors, quadratic stochastic operators, iteration, Jacobians,
and fixed points: the vertex set proven from the coefficients, and a
multistart search where that check does not apply."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import fsum
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
# an orbit of an operator with at most this many nonzero coefficients steps
# by a Python loop over them: it costs about 90-150 ns a term and one einsum
# call about 6 us at n <= 5 (2-core x86-64, numpy 2.4.6), so the loop wins
# below about 60 terms; every n <= 3 operator (at most 27) goes to it, a
# dense n = 4 one (64) does not
LOOP_MAX_TERMS = 48
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


@dataclass(frozen=True)
class QsoOperator:
    """A validated quadratic stochastic operator x -> V(x). Its tensor is not
    changed after construction: ``clauses`` is decided once."""

    tensor: HeredityTensor

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
        = 0 for k < min(i,j), and A_k grows with k, as make_operator's
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

    Checks: at least two states and an (n, n, n) array; then, each to within
    EPS_COEF, entries in [0, 1], symmetry in the first two indices, and unit
    mass over the third index for every pair. It stores the average of p and
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
    bad = ~((p >= -EPS_COEF) & (p <= 1 + EPS_COEF))  # NaN fails both comparisons
    if bad.any():
        i, j, k = np.unravel_index(np.argmax(bad), bad.shape)
        raise TensorError(
            f"coefficient ({i + 1},{j + 1},{k + 1}) = {p[i, j, k]} "
            "outside [0, 1]"
        )
    asym = np.abs(p - p.transpose(1, 0, 2))
    if asym.max() > EPS_COEF:
        i, j, k = np.unravel_index(np.argmax(asym), asym.shape)
        raise TensorError(
            f"asymmetric pair ({i + 1},{j + 1}) at outcome {k + 1}: "
            f"{p[i, j, k]} vs {p[j, i, k]}"
        )
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
    return make_point(np.einsum("ijk,i,j->k", V.tensor.p, xa, xa), eps=1e-9)


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
    """Iterate until the consecutive step shrinks below tol in l1 norm.

    Each step equals :func:`evaluate` and :func:`l1_distance` to the bit, on
    a point held as a list of Python floats. An operator with at most
    LOOP_MAX_TERMS nonzero coefficients computes V(x) by :func:`_loop_image`
    with no NumPy call (a step of the n = 3 fixture uniqueness_sufficiency_gap
    takes 3.7 us, 5.7 through the einsum, on a 2-core x86-64 machine); a
    larger one makes one NumPy call, the einsum."""
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if x.n != V.n:
        raise DimensionMismatch(f"operator on {V.n} states, point has {x.n}")
    path = [x] if record_path else None
    step = float("inf")
    used = 0
    p = V.tensor.p
    terms = _nonzero_terms(p) if np.count_nonzero(p) <= LOOP_MAX_TERMS else None
    xs = list(x.coords)
    for it in range(1, max_iter + 1):
        if terms is None:
            image = np.einsum("ijk,i,j->k", p, xs, xs).tolist()
        else:
            image = _loop_image(terms, xs)
        nxt = _renormalize(image, 1e-9)
        step = _sum([abs(a - b) for a, b in zip(xs, nxt)])
        xs = nxt
        used = it
        if record_path:
            path.append(SimplexPoint(tuple(xs)))
        if step <= tol:
            break
    return TrajectoryResult(
        limit=x if used == 0 else SimplexPoint(tuple(xs)),
        iterations_used=used,
        final_step_l1=step,
        converged=step <= tol,
        path=path,
    )


def _nonzero_terms(p: np.ndarray) -> list:
    """For each outcome k, the (p[i,j,k], i, j) with p[i,j,k] nonzero, in
    row-major (i, j) order, as Python floats and ints."""
    n = len(p)
    P = p.tolist()
    return [[(P[i][j][k], i, j) for i in range(n) for j in range(n) if P[i][j][k] != 0.0] for k in range(n)]


def _loop_image(terms: list, xs: list) -> list:
    """V(x) from :func:`_nonzero_terms`, equal to np.einsum("ijk,i,j->k", p,
    xs, xs) to the bit: each coordinate adds (p[i,j,k] * x_i) * x_j from
    +0.0 in row-major (i, j) order, as the einsum does. At a finite x, a
    skipped 0.0 or -0.0 coefficient would add a zero to a sum that is never
    -0.0 (only -0.0 + -0.0 is), so skipping it changes no bit."""
    out = []
    for row in terms:
        s = 0.0
        for c, i, j in row:
            s += c * xs[i] * xs[j]
        out.append(s)
    return out


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
        nxt = renormalize_rows(evaluate_array(V, rows), eps=1e-9)
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


def find_fixed_points(V: QsoOperator, tol: float = 1e-9) -> FixedPointSet:
    """The fixed points of V: the vertices that :func:`proven_fixed_points`
    proves, with their residuals from evaluate_array (0.0), and otherwise
    the points the multistart search :func:`_multistart` finds."""
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    X = proven_fixed_points(V)
    if X is None:
        return _multistart(V, tol)
    return FixedPointSet(
        points=[SimplexPoint(tuple(x)) for x in X.tolist()],
        residuals=np.abs(evaluate_array(V, X) - X).sum(axis=1).tolist(),
        dedup_radius=DEDUP_RADIUS,
        diagnostics=dict.fromkeys(SEARCH_COUNTERS, 0) | {"method": "coefficient_theorem"},
    )


def _multistart(V: QsoOperator, tol: float = 1e-9) -> FixedPointSet:
    """Multistart search from the C(n+5, 6) + n + 1 seeds: the vertices, the
    barycenter and the resolution-6 grid, all pre-iterated and then polished
    by damped Newton as one array. Points within DEDUP_RADIUS in l1 merge."""
    n = V.n
    seeds = np.concatenate([np.eye(n), renormalize_rows(np.full((1, n), 1.0 / n)), grid_array(n, 6)])
    seeds = seeds[np.lexsort(seeds.T[::-1])]  # stable, like sorting the coordinate tuples

    limits, last_step = _pre_iterate(V, seeds)
    # rows are independent; blocks bound the memory of the stacked Jacobians
    block = block_rows(n)
    polished = [_newton_polish(V, limits[s : s + block], tol) for s in range(0, len(limits), block)]
    cands = np.concatenate([rows for rows, _ in polished])
    newton_steps = sum(steps for _, steps in polished)
    residuals = np.abs(evaluate_array(V, cands) - cands).sum(axis=1)
    accepted = ~(residuals > tol)

    found: list[tuple] = []  # (coordinates, residual), in order of discovery
    merged = 0
    for cand, res in zip(cands[accepted], residuals[accepted].tolist()):
        for idx, (x, r) in enumerate(found):
            if np.abs(x - cand).sum() <= DEDUP_RADIUS:
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
