"""Certificate checks: order-preservation structure, uniqueness conditions,
vertex stability, and strict-contraction criteria."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .operator import (
    EPS_COEF,
    HeredityTensor,
    QsoOperator,
    TensorError,
    block_rows,
    evaluate_array,
    make_operator,
    vertex_eigenvalues,
)
from .simplex import EPS_ORDER, SimplexPoint, grid_array, sample_array

EPS_CONTRACTION = 1e-12
EPS_EIGEN = 1e-10

DEFAULT_SAMPLES = 10_000


@dataclass(frozen=True)
class ConditionReport:
    name: str
    passed: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class NecessaryReport:
    """Necessary structural conditions for order-decreasing operators."""

    conditions: list  # list[ConditionReport]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def by_name(self, name: str) -> ConditionReport:
        return next(c for c in self.conditions if c.name == name)


def check_necessary_bbistochastic(V: QsoOperator, eps: float = EPS_COEF) -> NecessaryReport:
    """Coefficient-level necessary conditions, each with a first witness.

    cumulative_mass:  sum_{m<=k} sum_{ij} p[i,j,m] <= k*n for every k
    upper_block_zero: p[i,j,k] = 0 whenever both i, j > k
    absorbing_last:   p[n,n,n] = 1
    half_bound:       p[l,j,l] <= 1/2 for j > l
    """
    p = V.tensor.p
    n = V.n
    conds = []

    running = 0.0
    witness = None
    for k in range(1, n + 1):
        running += float(p[:, :, k - 1].sum())
        if running > k * n + eps and witness is None:
            witness = (k, running)
    conds.append(ConditionReport("cumulative_mass", witness is None, witness))

    witness = None
    for k in range(n - 1):
        block = p[k + 1 :, k + 1 :, k]
        if np.abs(block).max() > eps:
            i, j = np.unravel_index(np.argmax(np.abs(block)), block.shape)
            witness = (int(i) + k + 2, int(j) + k + 2, k + 1)
            break
    conds.append(ConditionReport("upper_block_zero", witness is None, witness))

    ok = abs(p[-1, -1, -1] - 1.0) <= eps
    conds.append(
        ConditionReport("absorbing_last", ok, None if ok else (n, n, n, float(p[-1, -1, -1])))
    )

    witness = None
    for l in range(n - 1):
        for j in range(l + 1, n):
            if p[l, j, l] > 0.5 + eps:
                witness = (l + 1, j + 1, float(p[l, j, l]))
                break
        if witness:
            break
    conds.append(ConditionReport("half_bound", witness is None, witness))
    return NecessaryReport(conds)


@dataclass(frozen=True)
class NumericOrderVerdict:
    """Search result for a point where V(x) fails to sit below x in b-order.

    A witness is found only by the sampled search. Its absence is proof when
    the coefficient bound of :func:`verify_bbistochastic_numeric` holds, and
    otherwise evidence from the stated search effort.
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


def _order_bound_holds(V: QsoOperator, eps: float) -> bool:
    """Whether the coefficients prove that the sampled scan finds no witness.

    On the simplex, U_k(x) = x^T S_k x and U_k(V(x)) = x^T A_k x, where U_k
    is the k-th prefix sum, S_k[i,j] = ([i<=k] + [j<=k]) / 2 and
    A_k[i,j] = sum_{m<=k} p[i,j,m]. The products x_i x_j are nonnegative and
    sum to 1, so no point has U_k(V(x)) - U_k(x) above
    e = max over k < n, i, j of (A_k - S_k)[i,j]. The entries of A_k - S_k
    lie in [-1, 1 + 1e-12], since make_operator lets a pair's outcome mass
    miss 1 by 1e-12, and e >= 0, since (A_k - S_k)[n,n] = A_k[n,n] >= 0.

    The scan compares doubles, so the bound holds when e plus a rounding slack
    is at most eps. With u = 2^-53, the roundings for a prefix k <= n - 1 of
    one scanned row x come to at most (8n - 4)u + u*eps, to first order:

    - row sums: grid_array and sample_array divide each row by its computed
      sum, so the row's exact sum s is within nu of 1, and
      U_k(V(x)) - U_k(x) = x^T (A_k - S_k) x + U_k(x)(s - 1) <= e s^2 + s nu,
      at most e + 3nu;
    - computing e: the cumsum over outcomes rounds k - 1 <= n - 2 times on
      entries of A_k at most 1 + 1e-12, and the subtraction of S_k once: nu;
    - ``evaluate_array``: each term p[i,j,m] x_i x_j passes n roundings in
      each einsum, then k - 1 in the cumsum of the image, on a prefix sum at
      most 1: (3n - 2)u;
    - the cumsum of the row: k - 1 roundings on U_k(x) <= 1: (n - 2)u;
    - the threshold fl(cx + eps): u(1 + eps).

    So the slack is taken as 8n*u*(1 + eps): the 4u and the eps*8nu beyond
    that sum cover the second-order terms and the rounding of this very
    comparison. Since e >= 0, the bound holds only when eps is at least the
    slack, and never for eps <= 0. It relies on the scanned rows coming from
    grid_array and sample_array, normalized as above.
    """
    n = V.n
    A = np.cumsum(V.tensor.p, axis=2)[:, :, :-1]  # A[i, j, k] for k = 0..n-2
    leading = (np.arange(n)[:, None] <= np.arange(n - 1)).astype(float)  # [i <= k]
    S = 0.5 * (leading[:, None, :] + leading[None, :, :])
    e = float((A - S).max())
    return e + 8 * n * 2.0**-53 * (1.0 + eps) <= eps


def _first_witness(V: QsoOperator, X: np.ndarray, eps: float) -> Optional[tuple]:
    """(point, k, gap) at the first row of X, in row order, where a prefix sum
    of V(x) exceeds that of x by more than eps; None if there is none."""
    # block by block, so that the prefix-sum arrays stay small
    block = block_rows(V.n)
    for s in range(0, len(X), block):
        B = X[s : s + block]
        cx = np.cumsum(B, axis=1)[:, :-1]
        cy = np.cumsum(evaluate_array(V, B), axis=1)[:, :-1]
        bad = cy > cx + eps
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
    eps: float = EPS_ORDER,
) -> NumericOrderVerdict:
    """Evaluate b_leq(V(x), x) over a grid plus random samples, vectorized.

    Returns the first witness in grid order, then sample order. The samples
    are drawn only when the grid has no witness. Before either, a bound on
    the coefficients is tried: every prefix-sum excess U_k(V(x)) - U_k(x) on
    the simplex is at most e = max over k, i, j of (A_k - S_k)[i,j], where
    A_k[i,j] = sum_{m<=k} p[i,j,m] and S_k[i,j] = ([i<=k] + [j<=k]) / 2.
    When e plus the scan's rounding slack 8n * 2^-53 * (1 + eps) is at most
    eps, no scanned point can be a witness, and the verdict the scan would
    return is returned without scanning.
    """
    if resolution is not None and resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = V.n
    res = _default_resolution(n) if resolution is None else resolution
    if _order_bound_holds(V, eps):
        return NumericOrderVerdict(False, resolution=res, sample_count=samples)
    hit = _first_witness(V, grid_array(n, res), eps)
    if hit is None and samples > 0:
        hit = _first_witness(V, sample_array(n, samples, seed), eps)
    if hit is None:
        return NumericOrderVerdict(False, resolution=res, sample_count=samples)
    return NumericOrderVerdict(True, *hit, resolution=res, sample_count=samples)


@dataclass(frozen=True)
class UniquenessReport:
    met: bool
    violations: list  # list[(k, j)] 1-based; (k, k) marks a diagonal failure


def check_uniqueness_conditions(V: QsoOperator, eps: float = EPS_COEF) -> UniquenessReport:
    """Strict coefficient bounds sufficient for a unique fixed point:
    p[k,k,k] < 1 and p[k,j,k] < 1/2 for every k < n and j > k."""
    p = V.tensor.p
    n = V.n
    violations = []
    for k in range(n - 1):
        if p[k, k, k] >= 1.0 - eps:
            violations.append((k + 1, k + 1))
        for j in range(k + 1, n):
            if p[k, j, k] >= 0.5 - eps:
                violations.append((k + 1, j + 1))
    return UniquenessReport(met=not violations, violations=violations)


def check_convex_combination(V1: QsoOperator, V2: QsoOperator, lam: float) -> QsoOperator:
    """Coefficient-wise blend lam*V1 + (1-lam)*V2 of two operators that both
    meet the uniqueness bounds; the blend is checked to meet them too."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if V1.n != V2.n:
        raise ValueError("operators must share a dimension")
    for V in (V1, V2):
        if not check_uniqueness_conditions(V).met:
            raise ValueError("both operators must satisfy the uniqueness bounds")
    blended = lam * V1.tensor.p + (1.0 - lam) * V2.tensor.p
    out = make_operator(HeredityTensor(V1.n, blended))
    if not check_uniqueness_conditions(out).met:
        raise TensorError(f"blend at lambda={lam} violates the uniqueness bounds")
    return out


def classify_vertex_stability(V: QsoOperator, eps: float = EPS_EIGEN) -> str:
    """Spectral verdict at (0,...,0,1): attracting, non_hyperbolic, or mixed."""
    eigs = vertex_eigenvalues(V)
    if any(abs(e - 1.0) <= eps for e in eigs):
        return "non_hyperbolic"
    if all(e < 1.0 - eps for e in eigs):
        return "attracting"
    return "mixed"


@dataclass(frozen=True)
class ContractionResult:
    modulus: float
    is_strict: bool
    boundary: bool
    argmax_triple: tuple  # (i1, i2, k), 1-based


def strict_contraction_general(V: QsoOperator, eps: float = EPS_CONTRACTION) -> ContractionResult:
    """Contraction modulus: max over i1, i2, k of sum_j |p[i1,k,j] - p[i2,k,j]|."""
    p = V.tensor.p
    n = V.n
    modulus = 0.0
    arg = (1, 1, 1)
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            diffs = np.abs(p[i1] - p[i2]).sum(axis=1)  # indexed by the shared k
            k = int(np.argmax(diffs))
            if diffs[k] > modulus:
                modulus = float(diffs[k])
                arg = (i1 + 1, i2 + 1, k + 1)
    return ContractionResult(
        modulus=modulus,
        is_strict=modulus < 1.0 - eps,
        boundary=abs(modulus - 1.0) <= eps,
        argmax_triple=arg,
    )


def strict_contraction_1d(V: QsoOperator, eps: float = EPS_CONTRACTION) -> bool:
    """Two-state criterion: max{p[1,2,1], |p[1,1,1] - p[1,2,1]|} < 1/2."""
    if V.n != 2:
        raise ValueError(f"criterion needs n = 2, got n = {V.n}")
    a = V.tensor.entry(1, 1, 1)
    b = V.tensor.entry(1, 2, 1)
    return max(b, abs(a - b)) < 0.5 - eps / 2


_2D_NAMES = "abcdefghi"


@dataclass(frozen=True)
class Contraction2D:
    max_quantity: float
    which: str  # one of 'a'..'i'
    is_strict: bool
    quantities: dict


def strict_contraction_2d(V: QsoOperator, eps: float = EPS_CONTRACTION) -> Contraction2D:
    """Three-state criterion: nine closed-form quantities, strict iff max < 1."""
    if V.n != 3:
        raise ValueError(f"criterion needs n = 3, got n = {V.n}")
    t = V.tensor
    A1, A2 = t.entry(1, 1, 1), t.entry(1, 1, 2)
    B1, B2 = t.entry(1, 2, 1), t.entry(1, 2, 2)
    C1, C2 = t.entry(1, 3, 1), t.entry(1, 3, 2)
    D2 = t.entry(2, 2, 2)
    E2 = t.entry(2, 3, 2)
    q = {
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
    which = max(_2D_NAMES, key=lambda name: q[name])
    return Contraction2D(
        max_quantity=q[which],
        which=which,
        is_strict=q[which] < 1.0 - eps,
        quantities=q,
    )


def linear_form_nonpositive(A: Sequence[float], C: float, strict: bool = False) -> bool:
    """A_1 x_1 + ... + A_n x_n + C <= 0 (resp. < 0) on the solid simplex
    iff C <= 0 and every A_k + C <= 0 (strict variants alike)."""
    if strict:
        return C < 0 and all(a + C < 0 for a in A)
    return C <= 0 and all(a + C <= 0 for a in A)


def order_checks_to_dict(necessary: NecessaryReport, verdict: NumericOrderVerdict) -> dict:
    """Report fields shared by ``validate`` and ``classify``."""
    witness = verdict.witness_point
    return {
        "necessary_conditions": [asdict(c) for c in necessary.conditions],
        "numeric_b_verdict": {
            **asdict(verdict),
            "witness_point": list(witness.coords) if witness else None,
        },
    }


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregate of every certificate applicable to the operator's dimension."""

    n: int
    necessary: NecessaryReport
    numeric_b_verdict: NumericOrderVerdict
    uniqueness: UniquenessReport
    vertex_stability: str
    vertex_eigenvalues: list
    contraction: ContractionResult
    contraction_1d: Optional[bool] = None
    contraction_2d: Optional[Contraction2D] = None

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            **order_checks_to_dict(self.necessary, self.numeric_b_verdict),
            "uniqueness_conditions_met": self.uniqueness.met,
            "uniqueness_violations": [list(v) for v in self.uniqueness.violations],
            "vertex_stability": self.vertex_stability,
            "vertex_eigenvalues": self.vertex_eigenvalues,
            "contraction": {
                "modulus": self.contraction.modulus,
                "is_strict": self.contraction.is_strict,
                "boundary": self.contraction.boundary,
                "argmax_triple": list(self.contraction.argmax_triple),
            },
        }
        if self.contraction_1d is not None:
            d["contraction_1d"] = self.contraction_1d
        if self.contraction_2d is not None:
            d["contraction_2d"] = {
                "max_quantity": self.contraction_2d.max_quantity,
                "which": self.contraction_2d.which,
                "is_strict": self.contraction_2d.is_strict,
                "quantities": self.contraction_2d.quantities,
            }
        return d


def classify_operator(
    V: QsoOperator,
    resolution: Optional[int] = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> ClassificationReport:
    return ClassificationReport(
        n=V.n,
        necessary=check_necessary_bbistochastic(V),
        numeric_b_verdict=verify_bbistochastic_numeric(
            V, resolution=resolution, samples=samples, seed=seed
        ),
        uniqueness=check_uniqueness_conditions(V),
        vertex_stability=classify_vertex_stability(V),
        vertex_eigenvalues=vertex_eigenvalues(V),
        contraction=strict_contraction_general(V),
        contraction_1d=strict_contraction_1d(V) if V.n == 2 else None,
        contraction_2d=strict_contraction_2d(V) if V.n == 3 else None,
    )
