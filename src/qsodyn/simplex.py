"""Simplex geometry: points, prefix-sum order, sampling.

All indices in public interfaces are 1-based; arrays are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from math import copysign
from operator import add
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
    """Validate, clip tiny negatives, and divide by the computed sum."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise SimplexError(f"need at least 2 coordinates, got shape {arr.shape}")
    return SimplexPoint(tuple(_renormalize(arr.tolist(), eps)))


def _sum(xs: list) -> float:
    """xs summed as np.add.reduce sums a contiguous float64 vector, to the bit:
    from +0.0; to 128 terms, 8 running sums combined pairwise if n >= 8, then
    the rest left to right; beyond, two halves split at a multiple of 8."""
    n = len(xs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum(xs[:half]) + _sum(xs[half:])
    s, m = 0.0, 0
    if n >= 8:
        m = n - n % 8
        r = xs[:8]
        for i in range(8, m, 8):
            r = list(map(add, r, xs[i : i + 8]))
        s += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in xs[m:]:
        s += v
    return s


def _renormalize(xs: list, eps: float) -> list:
    """One point's checks and clip-and-renormalize on floats, rounding as the
    array code would: reject the first coordinate not >= -eps, then a sum off
    1 by more than eps; clip only a negative or -0.0 entry; divide by the sum."""
    for i, v in enumerate(xs):
        if not v >= -eps:  # NaN fails too; +inf fails the sum check
            reason = f"below -{eps}" if v < -eps else "not a number"
            raise SimplexError(f"coordinate {i + 1} is {v}, {reason}")
    total = _sum(xs)
    if abs(total - 1.0) > eps:
        raise SimplexError(f"coordinates sum to {total}, deviation exceeds {eps}")
    if min(xs) <= 0.0 and any(copysign(1.0, v) < 0.0 for v in xs):
        xs = [v if v > 0.0 else 0.0 for v in xs]
        total = _sum(xs)
    return [v / total for v in xs]


def renormalize_rows(X: np.ndarray, eps: float = EPS_SIMPLEX) -> np.ndarray:
    """:func:`make_point`'s checks and clip-and-renormalize on every row of a
    (count, n) array X."""
    low = X.min()
    # NaN fails this comparison; +inf fails the sum check below
    if not low >= -eps:
        idx = np.unravel_index(np.argmin(X >= -eps), X.shape)
        v = X[idx]
        reason = f"below -{eps}" if v < -eps else "not a number"
        raise SimplexError(f"coordinate {idx[-1] + 1} is {v}, {reason}")
    totals = X.sum(axis=1)
    dev = abs(totals - 1.0)
    if dev.max() > eps:
        total = float(totals[np.argmax(dev)])
        raise SimplexError(f"coordinates sum to {total}, deviation exceeds {eps}")
    # unless an entry is negative or -0.0 (which clip maps to +0.0), the clip
    # would change nothing and the totals are already the sums to divide by
    if low < 0.0 or (low == 0.0 and np.signbit(X).any()):
        X = X.clip(0.0)
        return X / X.sum(axis=1, keepdims=True)
    return X / totals[:, None]


def vertex(n: int, i: int) -> SimplexPoint:
    """The i-th (1-based) vertex of the simplex on n states."""
    coords = [0.0] * n
    coords[i - 1] = 1.0
    return SimplexPoint(tuple(coords))


def partial_sum(x: SimplexPoint, k: int) -> float:
    """Sum of the first k coordinates, 1 <= k <= n-1."""
    if not 1 <= k <= x.n - 1:
        raise ValueError(f"k={k} out of range 1..{x.n - 1}")
    # left to right as np.cumsum; sum() compensates its rounding since 3.12
    return float(reduce(add, x.coords[:k]))


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


def l1_distance(x: SimplexPoint, y: SimplexPoint) -> float:
    _check_same_dim(x, y)
    return float(np.abs(x.as_array() - y.as_array()).sum())


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
