"""Nonhomogeneous Markov chains generated by an operator and a start point:
time-dependent transition matrices, cylinder-set measures, and the mixing gap.

Entries decay doubly exponentially along these chains, far past double
underflow. The family therefore runs its recursion in extended-exponent
arithmetic (mpmath) and exposes both linear floats and log-domain views.
"""

from __future__ import annotations

import io
import threading
from dataclasses import dataclass

import mpmath
import numpy as np

from .operator import QsoOperator
from .simplex import SimplexPoint

UNDERFLOW_GUARD = 1e-300

_DPS = 40


def _unit_sum(values: np.ndarray) -> np.ndarray:
    """The values scaled so that each row sums to 1 in the working precision
    (all-zero rows stay)."""
    total = values.sum(axis=-1, keepdims=True)
    return values / np.where(total == 0, 1, total)


class TransitionFamily:
    """Memoized trajectory, one-step matrices and running products for
    (operator, start).

    All arithmetic runs in the family's own mpmath context, so families at
    different precisions never share state. The running products
    H^[k,k+1] ... H^[m-1,m] are computed once and kept, one list per start
    time k asked about: one n x n matrix per (k, m) pair reached, so each
    start holds at most as many matrices as the one-step list up to the
    horizon. Every list is append-only and grows under the lock; reads of
    already-computed entries are safe from any thread.
    """

    def __init__(self, operator: QsoOperator, start: SimplexPoint, dps: int = _DPS):
        if start.n != operator.n:
            raise ValueError("start point dimension does not match operator")
        self.operator = operator
        self.start = start
        self.n = operator.n
        ctx = mpmath.MPContext()
        ctx.dps = dps
        self._log = np.frompyfunc(ctx.log, 1, 1)
        self._lock = threading.Lock()
        to_mpf = np.frompyfunc(ctx.mpf, 1, 1)
        # P[i, j, l] = p[i, l, j], so that P @ x is the one-step matrix at x
        self._P = to_mpf(operator.tensor.p.transpose(0, 2, 1))
        # a double start point sums to 1 only within float rounding; at
        # this precision that error would set a floor under every gap
        self._traj = [_unit_sum(to_mpf(start.as_array()))]
        self._mats: list = []  # _mats[k] = one-step matrix from time k
        self._prods: dict = {}  # _prods[k][m - k - 1] = H^[k,k+1] ... H^[m-1,m]

    def extend(self, horizon: int) -> None:
        """Ensure trajectory up to x^(horizon) and matrices up to H^[horizon-1, horizon]."""
        with self._lock:
            while len(self._mats) < horizon:
                x = self._traj[-1]
                raw = self._P @ x
                # coefficient rows sum to 1 only within float rounding
                self._mats.append(_unit_sum(raw))
                # x^(k+1) = x^(k) H^[k,k+1]; the exact map preserves total
                # mass, and renormalizing keeps sub-ulp round-off in the
                # stored coefficients from doubling every step
                self._traj.append(_unit_sum(x @ raw))

    def _view(self, values, log: bool = False) -> np.ndarray:
        """Doubles of extended values, or of their natural logs (-inf at zeros)."""
        return np.asarray(self._log(values) if log else values, dtype=float)

    def _point(self, k: int) -> np.ndarray:
        if k < 0:
            raise ValueError("k must be >= 0")
        self.extend(k)
        return self._traj[k]

    def _matrix(self, k: int) -> np.ndarray:
        if k < 0:
            raise ValueError("k must be >= 0")
        self.extend(k + 1)
        return self._mats[k]

    def _product(self, k: int, m: int) -> np.ndarray:
        """The stored running product H^[k,k+1] ... H^[m-1,m]; callers must
        not change it in place."""
        if not 0 <= k < m:
            raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
        # lists only grow, and each entry is complete before it is appended,
        # so an index below a length read here needs no lock
        chain = self._prods.get(k)
        if chain is None or len(chain) < m - k:
            self.extend(m)
            with self._lock:
                chain = self._prods.setdefault(k, [self._mats[k]])
                while len(chain) < m - k:
                    chain.append(chain[-1] @ self._mats[k + len(chain)])
        return chain[m - k - 1]

    # -- views -------------------------------------------------------------

    def trajectory_point(self, k: int) -> np.ndarray:
        return self._view(self._point(k))

    def trajectory_point_log(self, k: int) -> np.ndarray:
        return self._view(self._point(k), log=True)

    def transition_matrix(self, k: int) -> np.ndarray:
        """One-step matrix H^[k, k+1], row-stochastic."""
        return self._view(self._matrix(k))

    def transition_matrix_log(self, k: int) -> np.ndarray:
        return self._view(self._matrix(k), log=True)

    def compose_transitions(self, k: int, m: int) -> np.ndarray:
        """Ordered product H^[k,k+1] ... H^[m-1,m]."""
        return self._view(self._product(k, m))

    def compose_transitions_log(self, k: int, m: int) -> np.ndarray:
        return self._view(self._product(k, m), log=True)


def probabilities_close(
    p: float, p_log: float, q: float, q_log: float, tol: float = 1e-12
) -> bool:
    """Linear comparison above the underflow guard, log-domain (relative) below."""
    if p >= UNDERFLOW_GUARD and q >= UNDERFLOW_GUARD:
        return abs(p - q) <= tol
    if p_log == float("-inf") or q_log == float("-inf"):
        return p_log == q_log
    scale = max(abs(p_log), abs(q_log), 1.0)
    return abs(p_log - q_log) <= tol * scale


@dataclass(frozen=True)
class CylinderSet:
    """Trajectories pinned to given states (1-based) on [start, start+len-1]."""

    start: int
    states: tuple

    def __post_init__(self):
        if self.start < 0:
            raise ValueError("window start must be >= 0")
        if not self.states:
            raise ValueError("cylinder needs at least one state")

    @property
    def end(self) -> int:
        return self.start + len(self.states) - 1


def shift_cylinder(c: CylinderSet, m: int) -> CylinderSet:
    """Preimage window of the m-fold shift: same states, start moved by m."""
    if m < 0:
        raise ValueError("shift must be >= 0")
    return CylinderSet(c.start + m, c.states)


def _check_states(family: TransitionFamily, c: CylinderSet) -> None:
    for s in c.states:
        if not 1 <= s <= family.n:
            raise ValueError(f"state {s} out of range 1..{family.n}")


def _chain_factors(family: TransitionFamily, head, c: CylinderSet):
    """head times the one-step factors H^[t,t+1]_{i_t i_(t+1)} along the window."""
    for t, (i, j) in enumerate(zip(c.states, c.states[1:]), c.start):
        head *= family._matrix(t)[i - 1, j - 1]
    return head


def _cylinder_measure_mpf(family: TransitionFamily, c: CylinderSet):
    _check_states(family, c)
    return _chain_factors(family, family._point(c.start)[c.states[0] - 1], c)


def cylinder_measure(family: TransitionFamily, c: CylinderSet) -> float:
    """Initial weight at the window start times the one-step chain factors."""
    return float(_cylinder_measure_mpf(family, c))


def cylinder_measure_log(family: TransitionFamily, c: CylinderSet) -> float:
    return float(family._view(_cylinder_measure_mpf(family, c), log=True))


def two_point_measure(family: TransitionFamily, k: int, i: int, m: int, j: int) -> float:
    """Mass of trajectories with state i at time k and j at time m > k."""
    if k >= m:
        raise ValueError("need k < m")
    _check_states(family, CylinderSet(k, (i, j)))
    return float(family._point(k)[i - 1] * family._product(k, m)[i - 1, j - 1])


@dataclass(frozen=True)
class MixingSeries:
    A: CylinderSet
    B: CylinderSet
    terms: list  # list of (m, tau_m, bound_m)
    numerically_mixing: bool


def _gap_terms(family: TransitionFamily, A: CylinderSet, B: CylinderSet, m_min: int, m_max: int):
    """(m, tau_m, bound_m) of mixing_gap for m = m_min..m_max, along the
    stored running products from A's window end."""
    l = A.end
    s = B.start
    if l >= s + m_min:
        raise ValueError(
            f"windows overlap: A ends at {l}, shifted B starts at {s + m_min}"
        )
    _check_states(family, B)
    prefix = _cylinder_measure_mpf(family, A)
    i, j = A.states[-1] - 1, B.states[0] - 1
    for m in range(m_min, m_max + 1):
        diff = abs(family._product(l, s + m)[i, j] - family._point(s + m)[j])
        suffix = _chain_factors(family, 1, shift_cylinder(B, m))
        tau = prefix * suffix * diff
        yield m, float(tau), float(diff)


def mixing_gap(family: TransitionFamily, A: CylinderSet, B: CylinderSet, m: int):
    """Correlation gap tau_m between A and the m-shifted B, plus its bound.

    tau_m = (common chain factors) * |H^[l, s+m]_{i_l j_s} - x^(s+m)_{j_s}|
    with l = A's window end and s = B's window start; the bound is the bare
    absolute difference. Requires A's window to end before the shifted B begins.
    """
    ((_, tau, bound),) = _gap_terms(family, A, B, m, m)
    return tau, bound


def mixing_series(
    family: TransitionFamily,
    A: CylinderSet,
    B: CylinderSet,
    m_max: int,
    mixing_threshold: float = 1e-10,
) -> MixingSeries:
    """tau_m and its bound for every admissible shift up to m_max."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    m_min = max(1, A.end - B.start + 1)
    terms = list(_gap_terms(family, A, B, m_min, m_max))
    tail = [t for _, t, _ in terms[-3:]]
    mixing = len(tail) == 3 and all(t < mixing_threshold for t in tail)
    return MixingSeries(A=A, B=B, terms=terms, numerically_mixing=mixing)


def mixing_series_csv(series: MixingSeries) -> str:
    buf = io.StringIO()
    buf.write("m,tau_m,bound_m\n")
    for m, tau, bound in series.terms:
        buf.write(f"{m},{tau:.17g},{bound:.17g}\n")
    return buf.getvalue()
