"""Deterministic random generation of structured heredity tensors.

The generated tensors put all outcome mass for a pair (i, j) on outcomes
k >= min(i, j) and keep the cumulative mass below outcome j under 1/2 for
off-diagonal pairs. Then no entry of A_k - S_k exceeds 0, where
A_k[i,j] = sum_{m<=k} p[i,j,m] and S_k[i,j] = ([i<=k] + [j<=k]) / 2: this
is the coefficient bound of the order verifier, decided exactly on the
stored doubles, which therefore proves the order-decreasing property for
these tensors without sampling.
"""

from __future__ import annotations

import numpy as np

from .operator import HeredityTensor, QsoOperator, make_operator


def random_structured_tensor(
    n: int, rng: np.random.Generator, uniqueness_margin: float = 0.02
) -> QsoOperator:
    """One random operator with the zero upper-block structure.

    With ``uniqueness_margin`` > 0 the diagonal weight p[k,k,k] stays below
    1 - margin and every early off-diagonal weight below 1/2 - margin, so the
    uniqueness bounds hold strictly.
    """
    p = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i, n):
            lo = min(i, j)  # earliest admissible outcome, 0-based
            if i == j:
                row = np.zeros(n)
                if i == n - 1:
                    row[-1] = 1.0  # the last pair is forced onto the last outcome
                else:
                    weights = rng.random(n - lo)
                    weights /= weights.sum()
                    row[lo:] = weights
                    if uniqueness_margin > 0 and row[i] > 1.0 - uniqueness_margin:
                        excess = row[i] - (1.0 - uniqueness_margin)
                        row[i] -= excess
                        row[-1] += excess
            else:
                # mass on outcomes before j is capped below 1/2
                early = rng.random(j - lo)
                cap = rng.uniform(0.0, 0.5 - uniqueness_margin)
                early = early / early.sum() * cap if early.sum() > 0 else early
                late = rng.random(n - j)
                late = late / late.sum() * (1.0 - cap)
                row = np.zeros(n)
                row[lo:j] = early
                row[j:] = late
            p[i, j, :] = row
            p[j, i, :] = row
    return make_operator(HeredityTensor(n, p))


def random_structured_tensors(
    n: int, count: int, seed: int, uniqueness_margin: float = 0.02
) -> list:
    rng = np.random.default_rng(seed)
    return [random_structured_tensor(n, rng, uniqueness_margin) for _ in range(count)]
