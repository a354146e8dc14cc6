import json
import math
from functools import lru_cache
from importlib import resources
from itertools import chain, combinations

import mpmath
import numpy as np
import pytest

from qsodyn.abscont import CylinderClass, VaParams
from qsodyn.classify import NumericOrderVerdict, _default_resolution
from qsodyn.generate import random_structured_tensors
from qsodyn.markov import _ZERO, _add, _mul
from qsodyn.operator import (
    FixedPointSet,
    HeredityTensor,
    TrajectoryResult,
    _lift,
    _reduced_jacobians,
    _solve_rows,
    make_operator,
    trajectory,
)
from qsodyn.simplex import (
    SimplexError,
    SimplexPoint,
    grid_array,
    grid_simplex,
    l1_distance,
    make_point,
    sample_array,
    vertex,
)
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


def reference_grid_array(n, resolution):
    """grid_array as it was built on every call, before it was cached."""
    r = resolution
    cut_iter = chain.from_iterable(combinations(range(r + n - 1), n - 1))
    cuts = np.fromiter(cut_iter, dtype=np.int64).reshape(-1, n - 1)
    edges = np.pad(cuts, ((0, 0), (1, 1)), constant_values=(-1, r + n - 1))
    X = (np.diff(edges, axis=1) - 1) / r
    return X / X.sum(axis=1, keepdims=True)


@lru_cache(maxsize=None)
def reference_samples(n, count, seed):
    """Exponential-normalized draws passed one at a time through make_point."""
    draws = np.random.default_rng(seed).exponential(size=(count, n))
    draws /= draws.sum(axis=1, keepdims=True)
    return tuple(make_point(row).coords for row in draws)


def two_state(a=0.3, b=0.3, c=0.0):
    """The two-state operator with p[1,1,.] = (a, 1-a), p[1,2,.] = p[2,1,.]
    = (b, 1-b) and p[2,2,.] = (c, 1-c)."""
    p = np.array([[[a, 1 - a], [b, 1 - b]], [[b, 1 - b], [c, 1 - c]]])
    return make_operator(HeredityTensor(2, p))


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


@lru_cache(maxsize=None)
def structured_draws():
    """350 structured operators: 25 at each n = 2..8, at uniqueness margin
    0.02 and at 0 (where the uniqueness bounds may fail)."""
    return tuple(
        V
        for n in range(2, 9)
        for margin in (0.02, 0.0)
        for V in random_structured_tensors(n, 25, seed=2300 + n, uniqueness_margin=margin)
    )


def reference_contraction(V):
    """The contraction modulus by a loop over the pairs i1 < i2, each pair's
    sums over the shared k in one array: (modulus, argmax_triple) at the
    first largest triple, (0.0, (1, 1, 1)) where every sum is 0."""
    p = V.tensor.p
    n = V.n
    modulus = 0.0
    arg = (1, 1, 1)
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            diffs = np.abs(p[i1] - p[i2]).sum(axis=1)
            k = int(np.argmax(diffs))
            if diffs[k] > modulus:
                modulus = float(diffs[k])
                arg = (i1 + 1, i2 + 1, k + 1)
    return modulus, arg


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


def reference_seeds(n):
    """The vertices, the barycenter and the resolution-6 grid, each point once."""
    seeds = {vertex(n, i) for i in range(1, n + 1)}
    seeds.add(make_point([1.0 / n] * n))
    seeds.update(grid_simplex(n, 6))
    return sorted(seeds, key=lambda p: p.coords)


def reference_fixed_points(V, tol=1e-9, dedup_radius=1e-6):
    """The multistart search one seed at a time: trajectory, then Newton,
    with the same diagnostics counters as find_fixed_points."""
    diagnostics = dict(seeds_tried=0, seeds_converged=0, rejected_by_residual=0, merged=0, newton_steps=0)
    found = []
    for seed in reference_seeds(V.n):
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


# The operator layer as it was before each step cost little more than its
# einsum: renormalize_rows always clipped and summed again, blocks were a
# fixed 256 rows, and the pre-iteration gathered its live rows every step.
# The tests in test_operator_reference.py require the library to equal these
# to the bit.

REFERENCE_ROW_BLOCK = 256


def reference_renormalize_rows(X, eps=1e-12):
    if not X.min() >= -eps:
        idx = np.unravel_index(np.argmin(X >= -eps), X.shape)
        v = X[idx]
        reason = f"below -{eps}" if v < -eps else "not a number"
        raise SimplexError(f"coordinate {idx[-1] + 1} is {v}, {reason}")
    totals = X.sum(axis=-1)
    dev = abs(totals - 1.0)
    if (dev.max() if X.ndim > 1 else dev) > eps:
        total = float(np.ravel(totals)[np.argmax(dev)])
        raise SimplexError(f"coordinates sum to {total}, deviation exceeds {eps}")
    X = X.clip(0.0)
    return X / X.sum(axis=-1, keepdims=True)


def reference_evaluate_array(V, X):
    X = np.asarray(X, dtype=float)
    out = np.empty_like(X)
    inner = np.empty((min(len(X), REFERENCE_ROW_BLOCK), V.n, V.n))
    for s in range(0, len(X), REFERENCE_ROW_BLOCK):
        B = X[s : s + REFERENCE_ROW_BLOCK]
        W = np.einsum("pi,ijk->pjk", B, V.tensor.p, out=inner[: len(B)])
        np.einsum("pjk,pj->pk", W, B, out=out[s : s + REFERENCE_ROW_BLOCK])
    return out


def reference_trajectory(V, x, tol=1e-12, max_iter=10_000, record_path=False):
    path = [x] if record_path else None
    step = float("inf")
    used = 0
    xa = x.as_array()
    for it in range(1, max_iter + 1):
        nxt = reference_renormalize_rows(_reference_image(V, xa), eps=1e-9)
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


def reference_pre_iterate(V, X):
    X = X.copy()
    last = np.full(len(X), np.inf)
    live = np.arange(len(X))
    for _ in range(500):
        prev = X[live]
        Y = reference_renormalize_rows(reference_evaluate_array(V, prev), eps=1e-9)
        step = np.abs(Y - prev).sum(axis=1)
        X[live] = Y
        last[live] = step
        live = live[~(step <= 1e-10)]
        if live.size == 0:
            break
    return X, last


def _reference_batch_residual(V, U):
    return reference_evaluate_array(V, _lift(U))[:, :-1] - U


def reference_batched_newton(V, X, tol):
    target = min(tol / 10, 1e-15)
    n = V.n
    U = X[:, :-1].copy()
    accepted_steps = 0
    live = np.arange(len(U))
    for _ in range(60):
        u = U[live]
        f = _reference_batch_residual(V, u)
        norm = np.abs(f).sum(axis=1)
        keep = norm > target
        live, u, f, norm = live[keep], u[keep], f[keep], norm[keep]
        if live.size == 0:
            break
        Xa = _lift(u).clip(0.0)
        Xa = reference_renormalize_rows(Xa / Xa.sum(axis=1, keepdims=True))
        step = _solve_rows(_reduced_jacobians(V, Xa) - np.eye(n - 1), -f)
        pending = np.arange(len(live))
        moved = np.zeros(len(live), dtype=bool)
        scale = 1.0
        for _ in range(40):
            cand = u[pending] + scale * step[pending]
            ok = (cand >= -1e-9).all(axis=1) & (cand.sum(axis=1) <= 1.0 + 1e-9)
            cand = cand[ok].clip(0.0)
            cand /= np.maximum(cand.sum(axis=1, keepdims=True), 1.0)
            better = np.abs(_reference_batch_residual(V, cand)).sum(axis=1) < norm[pending[ok]]
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
    return reference_renormalize_rows(Xa / Xa.sum(axis=1, keepdims=True)), accepted_steps


def reference_merge(cands, residuals, dedup_radius=1e-6):
    """The greedy merge as a nested loop that measures each (candidate, kept
    point) pair on its own: the kept (row, residual) pairs sorted by row,
    and the number merged."""
    found = []
    merged = 0
    for cand, res in zip(cands, residuals):
        for idx, (x, r) in enumerate(found):
            if np.abs(x - cand).sum() <= dedup_radius:
                if res < r:
                    found[idx] = (cand, res)
                merged += 1
                break
        else:
            found.append((cand, res))
    found.sort(key=lambda xr: xr[0].tolist())
    return found, merged


def reference_batched_fixed_points(V, tol=1e-9, dedup_radius=1e-6):
    """The batched multistart search with 256-row Newton blocks."""
    n = V.n
    seeds = np.concatenate([np.eye(n), reference_renormalize_rows(np.full((1, n), 1.0 / n)), grid_array(n, 6)])
    seeds = seeds[np.lexsort(seeds.T[::-1])]
    seeds = seeds[np.r_[True, (seeds[1:] != seeds[:-1]).any(axis=1)]]  # each point once
    limits, last_step = reference_pre_iterate(V, seeds)
    polished = [
        reference_batched_newton(V, limits[s : s + REFERENCE_ROW_BLOCK], tol)
        for s in range(0, len(limits), REFERENCE_ROW_BLOCK)
    ]
    cands = np.concatenate([rows for rows, _ in polished])
    residuals = np.abs(reference_evaluate_array(V, cands) - cands).sum(axis=1)
    accepted = ~(residuals > tol)
    found, merged = reference_merge(cands[accepted], residuals[accepted].tolist(), dedup_radius)
    return FixedPointSet(
        points=[SimplexPoint(tuple(x.tolist())) for x, _ in found],
        residuals=[r for _, r in found],
        dedup_radius=dedup_radius,
        diagnostics={
            "seeds_tried": len(seeds),
            "seeds_converged": int((last_step <= 1e-10).sum()),
            "rejected_by_residual": int((~accepted).sum()),
            "merged": merged,
            "newton_steps": sum(steps for _, steps in polished),
        },
    )


def reference_verify(V, resolution=None, samples=10_000, seed=0, eps=1e-12):
    """The sampled order verifier in 256-row blocks."""
    n = V.n
    res = _default_resolution(n) if resolution is None else resolution
    X = grid_array(n, res)
    if samples > 0:
        X = np.vstack([X, sample_array(n, samples, seed)])
    for s in range(0, len(X), REFERENCE_ROW_BLOCK):
        B = X[s : s + REFERENCE_ROW_BLOCK]
        cx = np.cumsum(B, axis=1)[:, :-1]
        cy = np.cumsum(reference_evaluate_array(V, B), axis=1)[:, :-1]
        bad = cy > cx + eps
        if bad.any():
            r = int(np.nonzero(bad.any(axis=1))[0][0])
            k = int(np.nonzero(bad[r])[0][0])
            return NumericOrderVerdict(
                violated=True,
                witness_point=SimplexPoint(tuple(B[r].tolist())),
                violating_k=k + 1,
                gap=float(cx[r, k] - cy[r, k]),
                resolution=res,
                sample_count=samples,
            )
    # the verdict names the coefficient bound where it holds, though here
    # the scan runs in full whatever the bound says
    method = "coefficient_bound" if V.clauses.order_bound else "sampled"
    return NumericOrderVerdict(False, resolution=res, sample_count=samples, method=method)


def reference_dot(xs, ys, prec):
    """The Markov kernel's dot product as one _add of one _mul per term,
    before the two were inlined into a single loop: the pairs it returns
    are the ones markov._dot must return, mantissa and exponent alike."""
    acc = _ZERO
    for a, b in zip(xs, ys):
        if a[0] and b[0]:
            acc = _add(acc, _mul(a, b, prec), prec)
    return acc


def _ref_float(v):
    try:
        return float(v)
    except OverflowError:
        return 0.0


def _ref_log_float(v):
    if v == 0:
        return float("-inf")
    return _ref_float(mpmath.log(v))


def _ref_unit_sum(values):
    total = sum(values)
    if total != 0 and total != 1:
        return [v / total for v in values]
    return values


class ReferenceMarkov:
    """The Markov chain of (operator, start) one matrix entry at a time in
    mpmath's global context: trajectory by the quadratic map, one-step
    matrices, products and chain factors each by their own loop."""

    def __init__(self, operator, start, dps=40):
        self.p = operator.tensor.p
        self.n = operator.n
        self.dps = dps
        with mpmath.workdps(dps):
            self.traj = [_ref_unit_sum([mpmath.mpf(c) for c in start.coords])]
        self.mats = []
        self.products = {}

    def _apply(self, x):
        p, n = self.p, self.n
        out = []
        for k in range(n):
            acc = mpmath.mpf(0)
            for i in range(n):
                if x[i] == 0:
                    continue
                inner = mpmath.mpf(0)
                for j in range(n):
                    if p[i, j, k] != 0.0 and x[j] != 0:
                        inner += mpmath.mpf(p[i, j, k]) * x[j]
                acc += x[i] * inner
            out.append(acc)
        return _ref_unit_sum(out)

    def _matrix_at(self, k):
        p, n = self.p, self.n
        x = self.traj[k]
        mat = [[mpmath.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = mpmath.mpf(0)
                for l in range(n):
                    if p[i, l, j] != 0.0 and x[l] != 0:
                        acc += mpmath.mpf(p[i, l, j]) * x[l]
                mat[i][j] = acc
        return [_ref_unit_sum(row) for row in mat]

    def extend(self, horizon):
        with mpmath.workdps(self.dps):
            while len(self.traj) <= horizon:
                self.traj.append(self._apply(self.traj[-1]))
            while len(self.mats) < horizon:
                self.mats.append(self._matrix_at(len(self.mats)))

    def _compose(self, k, m):
        self.extend(m)
        n = self.n
        with mpmath.workdps(self.dps):
            acc = self.mats[k]
            for t in range(k + 1, m):
                # the partial products are kept, so that a mixing series
                # costs one loop per term
                if (k, t + 1) not in self.products:
                    nxt = self.mats[t]
                    self.products[k, t + 1] = [
                        [sum(acc[i][l] * nxt[l][j] for l in range(n)) for j in range(n)] for i in range(n)
                    ]
                acc = self.products[k, t + 1]
            return acc

    def _chain(self, acc, start, states):
        self.extend(start + len(states))
        with mpmath.workdps(self.dps):
            for offset in range(len(states) - 1):
                acc *= self.mats[start + offset][states[offset] - 1][states[offset + 1] - 1]
            return acc

    def _cylinder(self, start, states):
        self.extend(start)
        return self._chain(self.traj[start][states[0] - 1], start, states)

    def _view(self, values, log):
        with mpmath.workdps(self.dps):
            convert = _ref_log_float if log else _ref_float
            if isinstance(values, list):
                return np.array([[convert(v) for v in row] if isinstance(row, list) else convert(row) for row in values])
            return convert(values)

    def trajectory_point(self, k, log=False):
        self.extend(k)
        return self._view(self.traj[k], log)

    def transition_matrix(self, k, log=False):
        self.extend(k + 1)
        return self._view(self.mats[k], log)

    def compose_transitions(self, k, m, log=False):
        return self._view(self._compose(k, m), log)

    def cylinder_measure(self, c, log=False):
        return self._view(self._cylinder(c.start, c.states), log)

    def mixing_gap(self, A, B, m):
        """tau_m and its bound: the composed product from A's end to the
        shifted B's start, then B's chain factors after it."""
        l, s = A.end, B.start
        prefix = self._cylinder(A.start, A.states)
        comp = self._compose(l, s + m)
        with mpmath.workdps(self.dps):
            diff = abs(comp[A.states[-1] - 1][B.states[0] - 1] - self.traj[s + m][B.states[0] - 1])
            suffix = self._chain(mpmath.mpf(1), s + m, B.states)
            tau = prefix * suffix * diff
            return _ref_float(tau), _ref_float(diff)


def reference_markov(operator, start, dps=40):
    return ReferenceMarkov(operator, start, dps)


# -- the two-state family's closed forms and series in an mpmath dps-40
# context, as abscont computed them before it ran on the markov kernel


@lru_cache(maxsize=None)
def _ctx():
    """The private dps-40 context of every closed form, not mpmath's global one."""
    ctx = mpmath.MPContext()
    ctx.dps = 40
    return ctx


def _constructive_mpf(params: VaParams, c: CylinderClass):
    """Product of the closed-form chain factors, in extended arithmetic.

    Uses x1 at time t = a^(2^t - 1) * x1^(2^t) and the one-step entries.
    """
    ctx = _ctx()
    a = ctx.mpf(params.a)
    x1 = ctx.mpf(params.x1)

    def traj_x1(t: int):
        if t == 0:
            return x1
        return a ** ((1 << t) - 1) * x1 ** (1 << t)

    def h11(t: int):
        return (a * x1) ** (1 << t)

    if c.kind == "two_one":
        return ctx.zero
    if c.kind == "all_ones":
        acc = traj_x1(c.l)
        for t in range(c.l, c.m):
            acc *= h11(t)
        return acc
    if c.kind == "all_twos":
        return 1 - traj_x1(c.l)
    # ones_then_twos: ones through time k, a single 1->2 step, twos after
    acc = traj_x1(c.l)
    for t in range(c.l, c.k):
        acc *= h11(t)
    acc *= 1 - h11(c.k)
    return acc


def _printed_mpf(params: VaParams, c: CylinderClass):
    """The tabulated closed-form values, taken verbatim (exponent 2^(l-1))."""
    ctx = _ctx()
    a = ctx.mpf(params.a)
    x1 = ctx.mpf(params.x1)
    half_exp = ctx.mpf(2) ** (c.l - 1)  # fractional for l = 0, as written
    if c.kind == "two_one":
        return ctx.zero
    if c.kind == "all_ones":
        if a == 0:
            return ctx.zero if c.m > 0 or x1 == 0 else x1
        return a ** ((1 << c.m) - half_exp) * x1 ** (1 << c.m)
    if c.kind == "all_twos":
        return 1 - a**half_exp * x1 ** (1 << c.l)
    if a == 0:
        return ctx.zero
    return a ** ((1 << c.k) - half_exp) * x1 ** (1 << c.k) * (1 - (a * x1) ** (1 << c.k))


def _stay_rate(params: VaParams):
    """a * x1 in extended precision: the stay probability at time 0."""
    ctx = _ctx()
    return ctx.mpf(params.a) * ctx.mpf(params.x1)


def _expectation_term(num_rate, den_rate, m: int):
    """The two surviving series contributions at step m >= 1, from the two
    stay rates a * x1.

    K: squared deviation of the escape-probability ratio, weighted by the
    numerator's escape probability on the ones-then-exit event.
    K_hat: squared deviation of the stay-probability ratio, weighted by the
    numerator's stay probability on the all-ones event. Both >= 0; infinite
    when the denominator's mass vanishes while the numerator's does not.
    """
    e = 1 << (m - 1)
    p = num_rate**e  # numerator stay probability
    q = den_rate**e
    # escape-ratio term
    if q == 1:
        k_term = 0.0 if p == 1 else math.inf
    else:
        escape = 1 - p
        k_term = (1 - escape / (1 - q)) ** 2 * escape
    # stay-ratio term
    if q == 0:
        khat = 0.0 if p == 0 else math.inf
    else:
        khat = (1 - p / q) ** 2 * p
    # a term past the double range reads inf
    return float(k_term), float(khat)


def reference_closed_form(params, c):
    """The four CylinderValue fields, as doubles."""
    cons = _constructive_mpf(params, c)
    printed = _printed_mpf(params, c)
    return float(cons), float(_ctx().log(cons)), float(printed), float(abs(cons - printed))


def reference_rn_series(num, den, m_max):
    """rn_series's terms, its classification and whether it excludes the
    exceptional set, each term from its own power of the stay rates; the
    exceptional set and the classification are decided on the exact rates:
    the series diverges iff the rates differ and the numerator's is 1 or the
    denominator's is 0 or 1."""
    num_rate, den_rate = _stay_rate(num), _stay_rate(den)
    exceptional = 1 > num_rate > den_rate > 0
    terms, partial = [], 0.0
    for m in range(1, m_max + 1):
        k_term, khat = _expectation_term(num_rate, den_rate, m)
        partial += k_term if exceptional else k_term + khat
        terms.append((m, k_term, khat, partial))
    singular = num_rate != den_rate and (num_rate == 1 or den_rate in (0, 1))
    return terms, "singular_evidence" if singular else "equivalent_evidence", exceptional


@pytest.fixture(autouse=True)
def global_precision_unchanged():
    """No library call may leave mpmath's global precision changed."""
    prec = mpmath.mp.prec
    yield
    assert mpmath.mp.prec == prec, f"mpmath.mp.prec changed from {prec} to {mpmath.mp.prec}"


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
