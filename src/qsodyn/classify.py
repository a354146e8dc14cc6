"""Certificate checks: order-preservation structure, uniqueness conditions,
vertex stability, and strict-contraction criteria."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .operator import (
    QsoOperator,
    block_rows,
    evaluate_array,
    proven_fixed_points,
    vertex_eigenvalues,
)
from .simplex import EPS_ORDER, SimplexPoint, grid_array, sample_array

DEFAULT_SAMPLES = 10_000


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    witness: Optional[tuple] = None


def check_necessary_bbistochastic(V: QsoOperator) -> list:
    """Coefficient-level necessary conditions for order-decreasing operators,
    one ConditionReport each with a first witness, as
    :attr:`QsoOperator.clauses` decides them: cumulative_mass,
    upper_block_zero, absorbing_last and half_bound."""
    return [ConditionReport(name, w is None, w) for name, w in V.clauses.necessary.items()]


@dataclass(frozen=True)
class NumericOrderVerdict:
    """Search result for a point where V(x) fails to sit below x in b-order.

    A witness is found only by the sampled search. Its absence is proof
    where the coefficients give e <= 0 exactly (``order_bound`` of
    :attr:`QsoOperator.clauses`), and otherwise evidence from the stated
    search effort.
    """

    violated: bool
    witness_point: Optional[SimplexPoint] = None
    violating_k: Optional[int] = None
    gap: float = 0.0
    resolution: int = 0
    sample_count: int = 0


def _default_resolution(n: int) -> int:
    if n <= 3:
        return 40
    if n == 4:
        return 12
    return 6


def _first_witness(V: QsoOperator, X: np.ndarray) -> Optional[tuple]:
    """(point, k, gap) at the first row of X, in row order, where a prefix sum
    of V(x) exceeds that of x by more than EPS_ORDER; None if there is none."""
    # block by block, so that the prefix-sum arrays stay small
    block = block_rows(V.n)
    for s in range(0, len(X), block):
        B = X[s : s + block]
        cx = np.cumsum(B, axis=1)[:, :-1]
        cy = np.cumsum(evaluate_array(V, B), axis=1)[:, :-1]
        bad = cy > cx + EPS_ORDER
        if bad.any():
            r = int(np.nonzero(bad.any(axis=1))[0][0])
            k = int(np.nonzero(bad[r])[0][0])
            return SimplexPoint(tuple(B[r].tolist())), k + 1, float(cx[r, k] - cy[r, k])
    return None


def verify_bbistochastic_numeric(
    V: QsoOperator,
    resolution: Optional[int] = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> NumericOrderVerdict:
    """Evaluate b_leq(V(x), x) over a grid plus random samples, vectorized.

    A witness is a prefix sum of V(x) above that of x by more than
    EPS_ORDER. Returns the first witness in grid order, then sample order.
    The samples are drawn only when the grid has no witness. Before either,
    the coefficients are tried: on the simplex U_k(x) = x^T S_k x and
    U_k(V(x)) = x^T A_k x for the prefix sums U_k, so no excess
    U_k(V(x)) - U_k(x) is above e (see :class:`CoefficientClauses`). Where
    e <= 0 exactly, a scanned excess is no more than the scan's rounding,
    some n * 2^-53, far below EPS_ORDER: the verdict the scan would return is
    returned without scanning.
    """
    if resolution is not None and resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = V.n
    res = _default_resolution(n) if resolution is None else resolution
    if V.clauses.order_bound:
        return NumericOrderVerdict(False, resolution=res, sample_count=samples)
    hit = _first_witness(V, grid_array(n, res))
    if hit is None and samples > 0:
        hit = _first_witness(V, sample_array(n, samples, seed))
    if hit is None:
        return NumericOrderVerdict(False, resolution=res, sample_count=samples)
    return NumericOrderVerdict(True, *hit, resolution=res, sample_count=samples)


@dataclass(frozen=True)
class UniquenessReport:
    met: bool
    violations: list  # list[(k, j)] 1-based; (k, k) marks a diagonal failure


def check_uniqueness_conditions(V: QsoOperator) -> UniquenessReport:
    """Strict coefficient bounds sufficient for a unique fixed point:
    p[k,k,k] < 1 and p[k,j,k] < 1/2 for every k < n and j > k, as
    :attr:`QsoOperator.clauses` decides them."""
    violations = list(V.clauses.violations)
    return UniquenessReport(met=not violations, violations=violations)


def classify_vertex_stability(V: QsoOperator) -> str:
    """Spectral verdict at (0,...,0,1) on the exact eigenvalues 2 p[k,n,k]:
    attracting if all are below 1, non_hyperbolic if one is 1, else mixed.
    Eigenvalue k is below 1 exactly where p[k,n,k] < 1/2, the uniqueness
    clause (k, n)."""
    eigs = vertex_eigenvalues(V)
    if all(e < 1.0 for e in eigs):
        return "attracting"
    return "non_hyperbolic" if 1.0 in eigs else "mixed"


# A contraction criterion's float is off its exact value on the stored
# doubles by under 2n * 2^-53: the modulus sums n rounded differences of
# coefficients in [0, 1], at most 2 in all; the closed forms round less.
# That is below the window for n < 4096, past any n whose n^4 array fits.
EXACT_WINDOW = 2.0**-40


def _below_one(value: float, exact) -> bool:
    """Whether a criterion is below 1 exactly: its float value decides outside
    EXACT_WINDOW of 1, and exact(), the criterion in Fraction, inside it."""
    return (exact() if abs(value - 1.0) <= EXACT_WINDOW else value) < 1


@dataclass(frozen=True)
class ContractionResult:
    modulus: float
    is_strict: bool
    argmax_triple: tuple  # (i1, i2, k), 1-based


def strict_contraction_general(V: QsoOperator) -> ContractionResult:
    """Contraction modulus: max over i1, i2, k of sum_j |p[i1,k,j] - p[i2,k,j]|,
    the float sum at the first largest triple; strict where the exact
    modulus on the stored doubles is below 1."""
    p, n = V.tensor.p, V.n
    D = np.abs(p[:, None] - p[None, :]).sum(axis=3)  # D[i1, i2, k], symmetric in i1, i2
    r = int(D.argmax())  # so the first largest has i1 < i2, or is (1, 1, 1) where D = 0
    modulus = D.item(r)

    def exact():
        P = p.tolist()
        near = zip(*np.nonzero(D >= 1.0 - EXACT_WINDOW))
        return max(sum(abs(Fraction(x) - Fraction(y)) for x, y in zip(P[i][k], P[j][k])) for i, j, k in near)

    return ContractionResult(modulus, _below_one(modulus, exact), (r // (n * n) + 1, r // n % n + 1, r % n + 1))


def strict_contraction_1d(V: QsoOperator) -> bool:
    """Two-state criterion: max{p[1,2,1], |p[1,1,1] - p[1,2,1]|} < 1/2,
    decided exactly."""
    if V.n != 2:
        raise ValueError(f"criterion needs n = 2, got n = {V.n}")
    a, b = V.tensor.p[0, :, 0].tolist()
    twice = lambda a, b: 2 * max(b, abs(a - b))  # in floats or in Fractions, against 1
    return _below_one(twice(a, b), lambda: twice(Fraction(a), Fraction(b)))


@dataclass(frozen=True)
class Contraction2D:
    max_quantity: float
    which: str  # one of 'a'..'i'
    is_strict: bool
    quantities: dict


def _three_state(A1, A2, B1, B2, C1, C2, D2, E2) -> dict:
    """The nine closed-form quantities in A = p[1,1,:], B = p[1,2,:],
    C = p[1,3,:], D = p[2,2,:], E = p[2,3,:], in floats or in Fractions."""
    return {
        "a": abs(A1 - B1) + abs(A2 - B2) + abs(A1 + A2 - B1 - B2),
        "b": B1 + abs(B2 - D2) + abs(B1 + B2 - D2),
        "c": C1 + abs(C2 - E2) + abs(C1 + C2 - E2),
        "d": abs(A1 - C1) + abs(A2 - C2) + abs(A1 + A2 - C1 - C2),
        "e": B1 + abs(B2 - E2) + abs(B1 + B2 - E2),
        "f": 2 * C1 + 2 * C2,
        "g": abs(B1 - C1) + abs(B2 - C2) + abs(B1 + B2 - C1 - C2),
        "h": 2 * abs(D2 - E2),
        "i": 2 * E2,
    }


def strict_contraction_2d(V: QsoOperator) -> Contraction2D:
    """Three-state criterion: the nine quantities of :func:`_three_state` as
    floats, and the first largest; strict where their exact maximum on the
    stored doubles is below 1."""
    if V.n != 3:
        raise ValueError(f"criterion needs n = 3, got n = {V.n}")
    P = V.tensor.p.tolist()
    args = (*P[0][0][:2], *P[0][1][:2], *P[0][2][:2], P[1][1][1], P[1][2][1])
    q = _three_state(*args)
    which = max(q, key=q.get)
    strict = _below_one(q[which], lambda: max(_three_state(*map(Fraction, args)).values()))
    return Contraction2D(max_quantity=q[which], which=which, is_strict=strict, quantities=q)


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregate of every certificate applicable to the operator's dimension."""

    n: int
    necessary: list  # list[ConditionReport]
    numeric_b_verdict: NumericOrderVerdict
    uniqueness: UniquenessReport
    proven_fixed_points: Optional[np.ndarray]  # vertex rows, None where the check does not apply
    vertex_stability: str
    vertex_eigenvalues: list
    contraction: ContractionResult
    contraction_1d: Optional[bool] = None
    contraction_2d: Optional[Contraction2D] = None


def classify_operator(V: QsoOperator, seed: int = 0) -> ClassificationReport:
    return ClassificationReport(
        n=V.n,
        necessary=check_necessary_bbistochastic(V),
        numeric_b_verdict=verify_bbistochastic_numeric(V, seed=seed),
        uniqueness=check_uniqueness_conditions(V),
        proven_fixed_points=proven_fixed_points(V),
        vertex_stability=classify_vertex_stability(V),
        vertex_eigenvalues=vertex_eigenvalues(V),
        contraction=strict_contraction_general(V),
        contraction_1d=strict_contraction_1d(V) if V.n == 2 else None,
        contraction_2d=strict_contraction_2d(V) if V.n == 3 else None,
    )
