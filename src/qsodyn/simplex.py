"""Simplex geometry: points, prefix-sum order, majorization, sampling.

All indices in public interfaces are 1-based; arrays are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional, Sequence

import numpy as np

EPS_SIMPLEX = 1e-12
EPS_ORDER = 1e-12


class SimplexError(ValueError):
    """Input does not describe a valid probability vector."""


class DimensionMismatch(ValueError):
    """Operands live on simplices of different dimension."""


@dataclass(frozen=True)
class SimplexPoint:
    """A probability vector on the simplex of dimension n-1."""

    coords: tuple

    @property
    def n(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a prefix-sum order comparison.

    ``first_violating_index`` is the smallest 1-based k where the prefix sum
    of the left argument exceeds that of the right; ``gap`` is the (negative)
    difference right-minus-left at that k.
    """

    holds: bool
    first_violating_index: Optional[int] = None
    gap: float = 0.0

    def __bool__(self) -> bool:
        return self.holds


def make_point(coords: Sequence[float], eps: float = EPS_SIMPLEX) -> SimplexPoint:
    """Validate, clamp tiny negatives, and renormalize to sum exactly 1."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise SimplexError(f"need at least 2 coordinates, got shape {arr.shape}")
    return SimplexPoint(tuple(renormalize_rows(arr, eps).tolist()))


def renormalize_rows(X: np.ndarray, eps: float = EPS_SIMPLEX) -> np.ndarray:
    """The checks and the clip-and-renormalize of :func:`make_point`, applied
    to every row of X (a single point is a 1-D X)."""
    # NaN fails this comparison; +inf fails the sum check below
    if not X.min() >= -eps:
        idx = np.unravel_index(np.argmin(X >= -eps), X.shape)
        v = X[idx]
        reason = f"below -{eps}" if v < -eps else "not a number"
        raise SimplexError(f"coordinate {idx[-1] + 1} is {v}, {reason}")
    totals = X.sum(axis=-1)
    dev = abs(totals - 1.0)
    # a single point's dev is a numpy scalar, whose .max() costs microseconds
    if (dev.max() if X.ndim > 1 else dev) > eps:
        total = float(np.ravel(totals)[np.argmax(dev)])
        raise SimplexError(f"coordinates sum to {total}, deviation exceeds {eps}")
    X = X.clip(0.0)
    return X / X.sum(axis=-1, keepdims=True)


def vertex(n: int, i: int) -> SimplexPoint:
    """The i-th (1-based) vertex of the simplex on n states."""
    coords = [0.0] * n
    coords[i - 1] = 1.0
    return SimplexPoint(tuple(coords))


def terminal_vertex(n: int) -> SimplexPoint:
    """(0, ..., 0, 1): minimal element of the prefix-sum order."""
    return vertex(n, n)


def partial_sum(x: SimplexPoint, k: int) -> float:
    """Sum of the first k coordinates, 1 <= k <= n-1."""
    if not 1 <= k <= x.n - 1:
        raise ValueError(f"k={k} out of range 1..{x.n - 1}")
    return float(sum(x.coords[:k]))


def _check_same_dim(x: SimplexPoint, y: SimplexPoint) -> None:
    if x.n != y.n:
        raise DimensionMismatch(f"dimensions differ: {x.n} vs {y.n}")


def b_leq(x: SimplexPoint, y: SimplexPoint, eps: float = EPS_ORDER) -> OrderVerdict:
    """Prefix-sum (b-)order: holds iff every prefix sum of x is <= that of y."""
    _check_same_dim(x, y)
    cx = np.cumsum(x.coords)[:-1]
    cy = np.cumsum(y.coords)[:-1]
    for k0, (a, b) in enumerate(zip(cx, cy)):
        if a > b + eps:
            return OrderVerdict(False, first_violating_index=k0 + 1, gap=float(b - a))
    return OrderVerdict(True)


def rearrange_desc(x: SimplexPoint) -> SimplexPoint:
    """Coordinates sorted non-increasing; ties keep their original order."""
    arr = x.as_array()
    order = np.argsort(-arr, kind="stable")
    return SimplexPoint(tuple(float(arr[i]) for i in order))


def majorizes(x: SimplexPoint, y: SimplexPoint, eps: float = EPS_ORDER) -> OrderVerdict:
    """Classical majorization x ≺ y: b_leq after sorting both non-increasing."""
    _check_same_dim(x, y)
    return b_leq(rearrange_desc(x), rearrange_desc(y), eps=eps)


def l1_distance(x: SimplexPoint, y: SimplexPoint) -> float:
    _check_same_dim(x, y)
    return float(np.abs(x.as_array() - y.as_array()).sum())


def support(x: SimplexPoint, eps: float = EPS_SIMPLEX) -> set:
    """1-based indices of nonzero coordinates."""
    return {i + 1 for i, v in enumerate(x.coords) if v > eps}


def in_relative_interior(x: SimplexPoint, eps: float = EPS_SIMPLEX) -> bool:
    return all(v > eps for v in x.coords)


def _as_points(X: np.ndarray) -> list:
    """Rows of an array already on the simplex as points, without revalidation."""
    return [SimplexPoint(tuple(row)) for row in X.tolist()]


def sample_array(n: int, count: int, seed: int) -> np.ndarray:
    """(count, n) uniform points via exponential normalization, driven by PCG64(seed).

    Rows are normalized twice, as :func:`make_point` would renormalize them.
    """
    if n < 2 or count < 1:
        raise ValueError("need n >= 2 and count >= 1")
    draws = np.random.default_rng(seed).exponential(size=(count, n))
    draws /= draws.sum(axis=1, keepdims=True)
    return draws / draws.sum(axis=1, keepdims=True)


def sample_simplex(n: int, count: int, seed: int) -> list:
    """The rows of :func:`sample_array` as points."""
    return _as_points(sample_array(n, count, seed))


def grid_array(n: int, resolution: int) -> np.ndarray:
    """All lattice points (k_1/r, ..., k_n/r) with sum k_i = r, lexicographic."""
    if n < 2 or resolution < 1:
        raise ValueError("need n >= 2 and resolution >= 1")
    r = resolution
    # stars-and-bars: cut positions determine the composition of r into n parts
    cut_iter = chain.from_iterable(combinations(range(r + n - 1), n - 1))
    cuts = np.fromiter(cut_iter, dtype=np.int64).reshape(-1, n - 1)
    edges = np.pad(cuts, ((0, 0), (1, 1)), constant_values=(-1, r + n - 1))
    X = (np.diff(edges, axis=1) - 1) / r
    return X / X.sum(axis=1, keepdims=True)


def grid_simplex(n: int, resolution: int) -> list:
    """The rows of :func:`grid_array` as points."""
    return _as_points(grid_array(n, resolution))
