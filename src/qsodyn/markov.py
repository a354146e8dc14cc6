"""Nonhomogeneous Markov chains generated by an operator and a start point:
time-dependent transition matrices, cylinder-set measures, and the mixing gap.

Entries decay doubly exponentially along these chains, far past double
underflow. The family therefore runs its recursion on nonnegative (mantissa,
exponent) pairs of Python ints, value m * 2**e: the package's one
extended-precision kernel, which abscont's closed forms and series run on
too. Products, sums, quotients and square roots are rounded once, half-even,
so each gives the one value that mpmath's ``mpf_mul``, ``mpf_add``,
``mpf_div`` and ``mpf_sqrt`` give at the same precision, and an integer
power takes ``mpf_pow_int``'s own steps; with the operations in the same
order, every stored value is the one an mpmath computation would store. The
dot product, where nearly all the time goes, is one loop with the product,
the sum and both roundings inlined; term by term it gives the very pairs
that _add of _mul gives. No signed values arise: coefficients lie in [0, 1]
and the start point on the simplex, and a difference such as the mixing
gap's |H - x| is rounded as a magnitude, as ``mpf_sub`` rounds it.
Float views round a pair to the nearest double as mpmath does (inf above
the double range); the log view sums its own series and rounds it
correctly. Every call gets the precision as an argument; mpmath is not used.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .operator import QsoOperator
from .simplex import SimplexPoint

_PREC = 136  # bits: libmp.dps_to_prec(40), 40 decimal digits

# -- the kernel: nonnegative (mantissa, exponent) pairs at prec bits ----------

_ZERO = (0, 0)
_ONE = (1, 0)


def _round(m: int, e: int, prec: int) -> tuple:
    """m * 2**e rounded half-even to prec bits."""
    n = m.bit_length() - prec
    if n > 0:
        t = m >> (n - 1)  # the kept bits and the first dropped one
        # round up above half, and at exactly half when the kept part is odd
        if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
            m = (t >> 1) + 1
        else:
            m = t >> 1
        e += n
    return m, e


def _mul(a: tuple, b: tuple, prec: int) -> tuple:
    return _round(a[0] * b[0], a[1] + b[1], prec)


def _add(a: tuple, b: tuple, prec: int, sub: bool = False) -> tuple:
    """a + b, or |a - b| when sub, rounded once."""
    (m, e), (k, f) = a, b
    if not k:
        return _round(m, e, prec)
    if not m:
        return _round(k, f, prec)
    if e < f:
        m, e, k, f = k, f, m, e
    if e - f > 100 and e + m.bit_length() - f - k.bit_length() > prec + 4:
        # the smaller term lies wholly below the rounding point: as in
        # mpf_add, it only moves a sticky bit under the larger one
        return _round((m << (prec + 4)) + (-1 if sub else 1), e - prec - 4, prec)
    m <<= e - f
    return _round(abs(m - k) if sub else m + k, f, prec)


def _div(a: tuple, b: tuple, prec: int) -> tuple:
    """a / b for b > 0: a quotient of at least prec + 4 bits and a sticky
    bit for a nonzero remainder, as in mpf_div, then one rounding."""
    (m, e), (k, f) = a, b
    shift = max(prec - m.bit_length() + k.bit_length() + 5, 5)
    q, r = divmod(m << shift, k)
    return _round((q << 1) | (r > 0), e - f - shift - 1, prec)


def _sqrt(a: tuple, prec: int) -> tuple:
    """The square root: an integer root of at least prec + 2 bits and a
    sticky bit for a nonzero remainder, as in mpf_sqrt, then one rounding."""
    m, e = a
    shift = max(2 * prec - m.bit_length() + 4, 4)
    shift += (shift - e) & 1  # leaves an even exponent to halve
    m <<= shift
    r = math.isqrt(m)
    return _round((r << 1) | (r * r < m), (e - shift) // 2 - 1, prec)


def _pow(a: tuple, k: int, prec: int) -> tuple:
    """a**k for k >= 0 in mpf_pow_int's steps, so with its bits: for k <= 2,
    or below 1000 bits, the exact power rounded once; above, binary powering
    with every product truncated to prec + 4 * k.bit_length() + 4 bits, then
    one rounding. At prec bits the power would lose about log2(k) bits."""
    m, e = a
    odd_bits = m.bit_length() - (m & -m).bit_length() + 1  # as mpmath stores m
    if k <= 2 or odd_bits * k < 1000:
        return _round(m**k, e * k, prec)
    work = prec + 4 * k.bit_length() + 4
    pm, pe = 1, 0
    while True:
        if k & 1:
            pm, pe = pm * m, pe + e
            n = max(pm.bit_length() - work, 0)  # truncated, as in mpf_pow_int
            pm, pe = pm >> n, pe + n
            if k == 1:
                return _round(pm, pe, prec)
        m, e = m * m, 2 * e
        n = max(m.bit_length() - work, 0)
        m, e = m >> n, e + n
        k >>= 1


def _dot(xs, ys, prec: int) -> tuple:
    """sum_l xs[l] * ys[l], accumulated left to right; a zero product
    leaves the sum as it is, so it is skipped.

    One loop: each term is acc = _add(acc, _mul(a, b, prec), prec) with
    _mul, _add and both _round calls inlined, and gives the same pair."""
    m = e = 0
    for (a, ea), (b, eb) in zip(xs, ys):
        if not (a and b):
            continue
        # _mul: the product, rounded
        k = a * b
        f = ea + eb
        n = k.bit_length() - prec
        if n > 0:
            t = k >> (n - 1)
            if t & 1 and (t & 2 or k & ((1 << (n - 1)) - 1)):
                k = (t >> 1) + 1
            else:
                k = t >> 1
            f += n
        if not m:
            # _add(_ZERO, p) rounds p once more, which moves only a
            # product that rounded up to 2**prec
            if k >> prec:
                k >>= 1
                f += 1
            m, e = k, f
            continue
        # _add: align the two, add, round
        if e < f:
            m, e, k, f = k, f, m, e
        if e - f > 100 and e + m.bit_length() - f - k.bit_length() > prec + 4:
            # the smaller term only moves a sticky bit, as in _add
            m = (m << (prec + 4)) + 1
            e -= prec + 4
        else:
            m = (m << (e - f)) + k
            e = f
        n = m.bit_length() - prec
        if n > 0:
            t = m >> (n - 1)
            if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
                m = (t >> 1) + 1
            else:
                m = t >> 1
            e += n
    return m, e


def _unit_sum(row: list, prec: int) -> list:
    """The row scaled to sum 1 in the working precision (an all-zero row stays)."""
    total = _ZERO
    for v in row:
        total = _add(total, v, prec)
    return [_div(v, total, prec) for v in row] if total[0] else row


def _matmul(A: list, B: list, prec: int) -> list:
    cols = list(zip(*B))
    return [[_dot(r, c, prec) for c in cols] for r in A]


def _pair(v: float, prec: int) -> tuple:
    """A nonnegative double rounded to prec bits as mpmath converts it: an odd
    mantissa, or (0, 0), so that no trailing zero bits ride through products."""
    m, d = v.as_integer_ratio()  # d is a power of two
    m, e = _round(m, 1 - d.bit_length(), prec)
    z = (m & -m).bit_length() - 1
    return (m >> z, e + z) if m else _ZERO


def _to_float(v: tuple) -> float:
    """The double mpmath's to_float gives: 53 bits half-even, then ldexp
    (which rounds a second time below the normal range); inf above it."""
    try:
        return math.ldexp(*_round(*v, 53))
    except OverflowError:
        return math.inf


def _atanh2(p: int, q: int, w: int) -> int:
    """2 atanh(p/q) = 2 sum (p/q)**(2i+1) / (2i+1) at w bits, for 0 <= p/q <= 1/3."""
    t = (p << w) // q
    t2, total, k = t * t >> w, t, 1
    while t:
        t, k = t * t2 >> w, k + 2
        total += t // k
    return 2 * total


_ln2 = functools.lru_cache(maxsize=16)(lambda w: _atanh2(1, 3, w))  # ln 2 = 2 atanh(1/3)


def _log_float(v: tuple, prec: int) -> float:
    """The natural log correctly rounded to prec bits, then to a double by
    _to_float (-inf at zero). v = f * 2**s, f in [1/sqrt 2, sqrt 2): s ln 2 +
    2 atanh((f - 1) / (f + 1)) in fixed point, with 40 guard bits plus the
    leading zeros of f - 1. Each series sums from below, within w units of
    2**-w; where that error could move the rounding, w doubles and it is redone."""
    m, e = v
    if not m:
        return -math.inf
    d = m.bit_length() - 1  # f = m / 2**d
    d += m * m >= 1 << (2 * d + 1)  # halve an f >= sqrt 2
    num, s = m - (1 << d), e + d  # f - 1 = num / 2**d
    w = prec + 40 + (d - abs(num).bit_length() if num else 0)
    while num or s:  # v != 1, so the log is irrational and the loop ends
        log = _atanh2(abs(num), m + (1 << d), w) * (-1 if num < 0 else 1) + (s * _ln2(w) if s else 0)
        mag, err = abs(log), 2 * w * (abs(s) + 1)
        lo = _round(mag - err, -w, prec)
        if lo == _round(mag + err, -w, prec):
            return _to_float(lo) * (-1 if log < 0 else 1)
        w *= 2
    return 0.0


def _view(values: list, log: bool = False) -> np.ndarray:
    """Doubles of a matrix of kernel values at _PREC bits, or of their logs."""
    return np.array([[_log_float(v, _PREC) if log else _to_float(v) for v in row] for row in values])


class TransitionFamily:
    """Memoized trajectory, one-step matrices and running products for
    (operator, start).

    All arithmetic, the log view included, runs at _PREC bits (40 decimal
    digits), passed to each operation as an argument. The running
    products H^[k,k+1] ... H^[m-1,m] are computed once and kept, one list
    per start time k asked about: one n x n matrix per (k, m) pair reached,
    so each start holds at most as many matrices as the one-step list up to
    the horizon. Every list is append-only and grows under the lock; reads
    of already-computed entries are safe from any thread.
    """

    def __init__(self, operator: QsoOperator, start: SimplexPoint):
        if start.n != operator.n:
            raise ValueError("start point dimension does not match operator")
        self.operator = operator
        self.start = start
        self.n = operator.n
        self._lock = threading.Lock()
        # P[i][j][l] = p[i, l, j], so that row i of the one-step matrix at x
        # is [dot(P[i][j], x) for j]
        p = operator.tensor.p.transpose(0, 2, 1).tolist()
        self._P = [[[_pair(v, _PREC) for v in vec] for vec in plane] for plane in p]
        # a double start point sums to 1 only within float rounding; at
        # this precision that error would set a floor under every gap
        self._traj = [_unit_sum([_pair(v, _PREC) for v in start], _PREC)]
        self._mats: list = []  # _mats[k] = one-step matrix from time k
        self._prods: dict = {}  # _prods[k][m - k - 1] = H^[k,k+1] ... H^[m-1,m]

    def extend(self, horizon: int) -> None:
        """Ensure trajectory up to x^(horizon) and matrices up to H^[horizon-1, horizon]."""
        with self._lock:
            while len(self._mats) < horizon:
                x = self._traj[-1]
                raw = [[_dot(vec, x, _PREC) for vec in plane] for plane in self._P]
                # coefficient rows sum to 1 only within float rounding
                self._mats.append([_unit_sum(row, _PREC) for row in raw])
                # x^(k+1) = x^(k) H^[k,k+1]; the exact map preserves total
                # mass, and renormalizing keeps sub-ulp round-off in the
                # stored coefficients from doubling every step
                self._traj.append(_unit_sum([_dot(x, col, _PREC) for col in zip(*raw)], _PREC))

    def _point(self, k: int) -> list:
        self.extend(k)
        return self._traj[k]

    def _matrix(self, k: int) -> list:
        if k < 0:
            raise ValueError("k must be >= 0")
        self.extend(k + 1)
        return self._mats[k]

    def _product(self, k: int, m: int) -> list:
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
                    chain.append(_matmul(chain[-1], self._mats[k + len(chain)], _PREC))
        return chain[m - k - 1]

    # -- views -------------------------------------------------------------

    def transition_matrix(self, k: int) -> np.ndarray:
        """One-step matrix H^[k, k+1], row-stochastic."""
        return _view(self._matrix(k))

    def transition_matrix_log(self, k: int) -> np.ndarray:
        return _view(self._matrix(k), log=True)

    def compose_transitions(self, k: int, m: int) -> np.ndarray:
        """Ordered product H^[k,k+1] ... H^[m-1,m]."""
        return _view(self._product(k, m))


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


def _chain_factors(family: TransitionFamily, head: tuple, c: CylinderSet) -> tuple:
    """head times the one-step factors H^[t,t+1]_{i_t i_(t+1)} along the window."""
    for t, (i, j) in enumerate(zip(c.states, c.states[1:]), c.start):
        head = _mul(head, family._matrix(t)[i - 1][j - 1], _PREC)
    return head


def _cylinder_measure_pair(family: TransitionFamily, c: CylinderSet) -> tuple:
    _check_states(family, c)
    return _chain_factors(family, family._point(c.start)[c.states[0] - 1], c)


def cylinder_measure(family: TransitionFamily, c: CylinderSet) -> float:
    """Initial weight at the window start times the one-step chain factors."""
    return _to_float(_cylinder_measure_pair(family, c))


@dataclass(frozen=True)
class MixingSeries:
    A: CylinderSet
    B: CylinderSet
    terms: list  # list of (m, tau_m, bound_m)


def mixing_series(family: TransitionFamily, A: CylinderSet, B: CylinderSet, m_max: int) -> MixingSeries:
    """Correlation gap tau_m between A and the m-shifted B, with its bound,
    for every shift m <= m_max that puts B after A's window (ValueError if none).

    tau_m = (common chain factors) * |H^[l, s+m]_{i_l j_s} - x^(s+m)_{j_s}|
    with l = A's window end and s = B's window start; the bound is the bare
    absolute difference. Each tau_m is read along the stored running
    products from time l.
    """
    l = A.end
    s = B.start
    _check_states(family, B)
    first = max(1, l - s + 1)
    if first > m_max:
        raise ValueError(f"no shift m <= {m_max} puts B after A; the first is m = {first}")
    prefix = _cylinder_measure_pair(family, A)
    i, j = A.states[-1] - 1, B.states[0] - 1
    terms = []
    for m in range(first, m_max + 1):
        diff = _add(family._product(l, s + m)[i][j], family._point(s + m)[j], _PREC, sub=True)
        suffix = _chain_factors(family, _ONE, shift_cylinder(B, m))
        tau = _mul(_mul(prefix, suffix, _PREC), diff, _PREC)
        terms.append((m, _to_float(tau), _to_float(diff)))
    return MixingSeries(A=A, B=B, terms=terms)
