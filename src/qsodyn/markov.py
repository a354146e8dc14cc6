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
from typing import Optional

import mpmath as mp
import numpy as np

from .operator import QsoOperator
from .simplex import SimplexPoint

UNDERFLOW_GUARD = 1e-300

_DPS = 40


def _to_float(v) -> float:
    try:
        return float(v)
    except OverflowError:
        return 0.0


def _log_float(v) -> float:
    if v == 0:
        return float("-inf")
    return _to_float(mp.log(v))


def _unit_sum(values: list) -> list:
    """The values scaled to sum 1 in the working precision (all-zero stays)."""
    total = sum(values)
    if total != 0 and total != 1:
        return [v / total for v in values]
    return values


class TransitionFamily:
    """Memoized trajectory and one-step matrices for (operator, start).

    Extension of the horizon is append-only and guarded by a lock; reads of
    already-computed entries are safe from any thread.
    """

    def __init__(self, operator: QsoOperator, start: SimplexPoint, dps: int = _DPS):
        if start.n != operator.n:
            raise ValueError("start point dimension does not match operator")
        self.operator = operator
        self.start = start
        self.n = operator.n
        self._dps = dps
        self._lock = threading.Lock()
        with mp.workdps(dps):
            # a double start point sums to 1 only within float rounding; at
            # this precision that error would set a floor under every gap
            self._traj = [_unit_sum([mp.mpf(c) for c in start.coords])]
        self._mats: list = []  # _mats[k] = one-step matrix from time k

    # -- internal extension ------------------------------------------------

    def _apply(self, x):
        p = self.operator.tensor.p
        n = self.n
        out = []
        for k in range(n):
            acc = mp.mpf(0)
            for i in range(n):
                if x[i] == 0:
                    continue
                row = p[i, :, k]
                inner = mp.mpf(0)
                for j in range(n):
                    if row[j] != 0.0 and x[j] != 0:
                        inner += mp.mpf(row[j]) * x[j]
                acc += x[i] * inner
            out.append(acc)
        # the exact map preserves total mass; renormalize so that sub-ulp
        # round-off in the stored coefficients cannot double every step
        return _unit_sum(out)

    def _matrix_at(self, k: int):
        p = self.operator.tensor.p
        n = self.n
        x = self._traj[k]
        mat = [[mp.mpf(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = mp.mpf(0)
                for l in range(n):
                    if p[i, l, j] != 0.0 and x[l] != 0:
                        acc += mp.mpf(p[i, l, j]) * x[l]
                mat[i][j] = acc
        # coefficient rows sum to 1 only within float rounding
        return [_unit_sum(row) for row in mat]

    def extend(self, horizon: int) -> None:
        """Ensure trajectory up to x^(horizon) and matrices up to H^[horizon-1, horizon]."""
        with self._lock, mp.workdps(self._dps):
            while len(self._traj) <= horizon:
                self._traj.append(self._apply(self._traj[-1]))
            while len(self._mats) < horizon:
                self._mats.append(self._matrix_at(len(self._mats)))

    # -- trajectory views --------------------------------------------------

    def trajectory_point(self, k: int) -> np.ndarray:
        self.extend(k)
        return np.array([_to_float(v) for v in self._traj[k]])

    def trajectory_point_log(self, k: int) -> np.ndarray:
        self.extend(k)
        with mp.workdps(self._dps):
            return np.array([_log_float(v) for v in self._traj[k]])

    # -- transition matrices -----------------------------------------------

    def _mat_mpf(self, k: int):
        if k < 0:
            raise ValueError("k must be >= 0")
        self.extend(k + 1)
        return self._mats[k]

    def transition_matrix(self, k: int) -> np.ndarray:
        """One-step matrix H^[k, k+1], row-stochastic."""
        mat = self._mat_mpf(k)
        return np.array([[_to_float(v) for v in row] for row in mat])

    def transition_matrix_log(self, k: int) -> np.ndarray:
        mat = self._mat_mpf(k)
        with mp.workdps(self._dps):
            return np.array([[_log_float(v) for v in row] for row in mat])

    def _compose_mpf(self, k: int, m: int):
        if not 0 <= k < m:
            raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
        self.extend(m)
        with mp.workdps(self._dps):
            acc = self._mats[k]
            for t in range(k + 1, m):
                nxt = self._mats[t]
                n = self.n
                acc = [
                    [sum(acc[i][l] * nxt[l][j] for l in range(n)) for j in range(n)]
                    for i in range(n)
                ]
            return acc

    def compose_transitions(self, k: int, m: int) -> np.ndarray:
        """Ordered product H^[k,k+1] ... H^[m-1,m]."""
        acc = self._compose_mpf(k, m)
        return np.array([[_to_float(v) for v in row] for row in acc])

    def compose_transitions_log(self, k: int, m: int) -> np.ndarray:
        acc = self._compose_mpf(k, m)
        with mp.workdps(self._dps):
            return np.array([[_log_float(v) for v in row] for row in acc])


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


def _cylinder_measure_mpf(family: TransitionFamily, c: CylinderSet):
    for s in c.states:
        if not 1 <= s <= family.n:
            raise ValueError(f"state {s} out of range 1..{family.n}")
    family.extend(c.end)
    with mp.workdps(family._dps):
        acc = family._traj[c.start][c.states[0] - 1]
        for offset in range(len(c.states) - 1):
            t = c.start + offset
            mat = family._mat_mpf(t)
            acc *= mat[c.states[offset] - 1][c.states[offset + 1] - 1]
        return acc


def cylinder_measure(family: TransitionFamily, c: CylinderSet) -> float:
    """Initial weight at the window start times the one-step chain factors."""
    return _to_float(_cylinder_measure_mpf(family, c))


def cylinder_measure_log(family: TransitionFamily, c: CylinderSet) -> float:
    with mp.workdps(family._dps):
        return _log_float(_cylinder_measure_mpf(family, c))


def two_point_measure(family: TransitionFamily, k: int, i: int, m: int, j: int) -> float:
    """Mass of trajectories with state i at time k and j at time m > k."""
    if k >= m:
        raise ValueError("need k < m")
    with mp.workdps(family._dps):
        comp = family._compose_mpf(k, m)
        return _to_float(family._traj[k][i - 1] * comp[i - 1][j - 1])


@dataclass(frozen=True)
class MixingSeries:
    A: CylinderSet
    B: CylinderSet
    terms: list  # list of (m, tau_m, bound_m)
    numerically_mixing: bool


def mixing_gap(family: TransitionFamily, A: CylinderSet, B: CylinderSet, m: int):
    """Correlation gap tau_m between A and the m-shifted B, plus its bound.

    tau_m = (common chain factors) * |H^[l, s+m]_{i_l j_s} - x^(s+m)_{j_s}|
    with l = A's window end and s = B's window start; the bound is the bare
    absolute difference. Requires A's window to end before the shifted B begins.
    """
    l = A.end
    s = B.start
    if l >= s + m:
        raise ValueError(
            f"windows overlap: A ends at {l}, shifted B starts at {s + m}"
        )
    with mp.workdps(family._dps):
        prefix = _cylinder_measure_mpf(family, A)
        comp = family._compose_mpf(l, s + m)
        family.extend(s + m)
        diff = abs(
            comp[A.states[-1] - 1][B.states[0] - 1]
            - family._traj[s + m][B.states[0] - 1]
        )
        suffix = mp.mpf(1)
        shifted = shift_cylinder(B, m)
        for offset in range(len(shifted.states) - 1):
            t = shifted.start + offset
            mat = family._mat_mpf(t)
            suffix *= mat[shifted.states[offset] - 1][shifted.states[offset + 1] - 1]
        tau = prefix * suffix * diff
        return _to_float(tau), _to_float(diff)


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
    terms = []
    for m in range(m_min, m_max + 1):
        tau, bound = mixing_gap(family, A, B, m)
        terms.append((m, tau, bound))
    tail = [t for _, t, _ in terms[-3:]]
    mixing = len(tail) == 3 and all(t < mixing_threshold for t in tail)
    return MixingSeries(A=A, B=B, terms=terms, numerically_mixing=mixing)


def mixing_series_csv(series: MixingSeries) -> str:
    buf = io.StringIO()
    buf.write("m,tau_m,bound_m\n")
    for m, tau, bound in series.terms:
        buf.write(f"{m},{tau:.17g},{bound:.17g}\n")
    return buf.getvalue()
