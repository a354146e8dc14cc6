"""The one-parameter two-state family with closed-form transitions, its
cylinder measures, likelihood-ratio machinery, and the numerical
absolute-continuity classifier.

The family keeps only p[1,1,1] = a free; the remaining coefficients are
forced by normalization. One-step transitions then have the closed form
H_11 at time k = (a*x1)^(2^k), with state 2 absorbing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operator import QsoOperator, make_operator, tensor_from_entries
from .simplex import SimplexPoint, make_point


@functools.cache
def _ctx():
    """The private dps-40 context of every closed form, not mpmath's global one
    that other threads may set; built on first use, so importing loads no mpmath."""
    import mpmath
    ctx = mpmath.MPContext()
    ctx.dps = 40
    return ctx


TAIL_TOL = 1e-12
DECREASE_FACTOR = 10.0
SINGULAR_FLOOR = 1e-6


def va_operator(a: float) -> QsoOperator:
    """The two-state operator with self-replication weight a on state 1."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0, 1], got {a}")
    entries = {
        (1, 1, 1): a,
        (1, 1, 2): 1.0 - a,
        (1, 2, 1): 0.0,
        (1, 2, 2): 1.0,
        (2, 2, 1): 0.0,
        (2, 2, 2): 1.0,
    }
    return make_operator(tensor_from_entries(2, entries))


@dataclass(frozen=True)
class VaParams:
    a: float
    x: SimplexPoint

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"a must lie in [0, 1], got {self.a}")
        if self.x.n != 2:
            raise ValueError("the family lives on two states")

    @property
    def x1(self) -> float:
        return self.x[0]

    @classmethod
    def of(cls, a: float, x1: float) -> "VaParams":
        return cls(a, make_point([x1, 1.0 - x1]))


@dataclass(frozen=True)
class ClosedFormTransition:
    linear: np.ndarray  # 2x2 floats
    log: np.ndarray  # elementwise logs, -inf at exact zeros


def va_transition_closed_form(params: VaParams, k: int) -> ClosedFormTransition:
    """H_11 = (a*x1)^(2^k); state 2 is absorbing."""
    if k < 0:
        raise ValueError("k must be >= 0")
    ax = params.a * params.x1
    e = 1 << k
    if ax == 0.0:
        h11, log_h11 = 0.0, float("-inf")
    elif ax == 1.0:
        h11, log_h11 = 1.0, 0.0
    else:
        log_h11 = e * math.log(ax)
        h11 = math.exp(log_h11) if log_h11 > -745.0 else 0.0
    h12 = 1.0 - h11
    log_h12 = math.log(h12) if h12 > 0 else float("-inf")
    linear = np.array([[h11, h12], [0.0, 1.0]])
    logs = np.array([[log_h11, log_h12], [float("-inf"), 0.0]])
    return ClosedFormTransition(linear=linear, log=logs)


@dataclass(frozen=True)
class CylinderClass:
    """The four cylinder families with closed-form measures.

    kind: all_ones / all_twos / ones_then_twos / two_one.
    Windows run over absolute times [l, m]; ones_then_twos holds state 1
    through time k and state 2 afterwards. two_one pins (2, 1) on [k, k+1].
    """

    kind: str
    l: int = 0
    m: int = 0
    k: int = 0

    def __post_init__(self):
        if self.kind not in {"all_ones", "all_twos", "ones_then_twos", "two_one"}:
            raise ValueError(f"unknown cylinder kind {self.kind!r}")
        if self.kind == "two_one":
            if self.k < 0:
                raise ValueError(f"need k >= 0, got k={self.k}")
        elif self.l < 0:
            raise ValueError(f"window start must be >= 0, got l={self.l}")
        elif self.kind == "ones_then_twos":
            if not self.l <= self.k <= self.m - 1:
                raise ValueError(f"need l <= k <= m-1, got l={self.l}, k={self.k}, m={self.m}")
        elif self.m < self.l:
            raise ValueError("window end must be >= window start")


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


@dataclass(frozen=True)
class CylinderValue:
    constructive: float
    constructive_log: float
    printed: float
    discrepancy: float  # |constructive - printed|, linear domain


def va_cylinder_closed_form(params: VaParams, c: CylinderClass) -> CylinderValue:
    """Constructive chain-product measure, with the tabulated formula value
    recorded alongside; the constructive value is the ground truth."""
    cons = _constructive_mpf(params, c)
    printed = _printed_mpf(params, c)
    return CylinderValue(
        constructive=float(cons),
        constructive_log=float(_ctx().log(cons)),
        printed=float(printed),
        discrepancy=float(abs(cons - printed)),
    )


def cylinder_discrepancy_log(params: VaParams, windows: list) -> list:
    """Classes whose tabulated value differs from the constructive one by
    more than 1e-15.

    Returns (class, constructive, printed, |difference|) for each mismatch.
    """
    out = []
    for c in windows:
        v = va_cylinder_closed_form(params, c)
        if v.discrepancy > 1e-15:
            out.append((c, v.constructive, v.printed, v.discrepancy))
    return out


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


@dataclass(frozen=True)
class RNSeriesReport:
    numerator: VaParams
    denominator: VaParams
    terms: list  # list of (m, K_term, Khat_term, partial_sum)
    classification: str  # equivalent_evidence / singular_evidence / undecided
    exceptional_set_note: str


def _classify_terms(totals: list) -> str:
    last = totals[-1]
    if last < TAIL_TOL:
        tail = totals[-3:]
        decreasing = all(
            b == 0.0 or b <= a / DECREASE_FACTOR for a, b in zip(tail, tail[1:])
        )
        if decreasing or all(t == 0.0 for t in tail):
            return "equivalent_evidence"
    if len(totals) >= 5 and all(t >= SINGULAR_FLOOR for t in totals[-5:]):
        return "singular_evidence"
    return "undecided"


def rn_series(num: VaParams, den: VaParams, m_max: int) -> RNSeriesReport:
    """Partial sums of the conditional second-moment series, with an
    evidence-level convergence verdict (never a proof).

    When the numerator's stay rate exceeds the denominator's and is below 1,
    the stay-event contribution lives only on the single all-ones trajectory,
    which carries zero mass for both chains in the limit; that exceptional
    trajectory is excluded from the accumulated series and reported in the
    note, matching the almost-sure form of the convergence dichotomy.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    # a zero denominator stay rate against a positive numerator one is a
    # finite-horizon singular witness, not a limit phenomenon; keep it. At a
    # numerator stay rate of 1 that chain never leaves state 1, so the
    # all-ones trajectory carries all of its mass; keep it too
    den_stay = den.a * den.x1
    exceptional = 1.0 > num.a * num.x1 > den_stay > 0.0
    terms = []
    totals = []
    partial = 0.0
    num_rate, den_rate = _stay_rate(num), _stay_rate(den)
    for m in range(1, m_max + 1):
        k_term, khat = _expectation_term(num_rate, den_rate, m)
        contribution = k_term if exceptional else k_term + khat
        partial += contribution
        terms.append((m, k_term, khat, partial))
        totals.append(contribution)
    classification = _classify_terms(totals)
    note = ""
    if exceptional:
        note = (
            "the all-ones trajectory is exceptional: the likelihood ratio "
            "diverges along it while its limiting mass is zero under both "
            "chains; its stay-event contribution is excluded from the "
            "accumulated series"
        )
    return RNSeriesReport(
        numerator=num,
        denominator=den,
        terms=terms,
        classification=classification,
        exceptional_set_note=note,
    )
