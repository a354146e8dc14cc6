"""The one-parameter two-state family's closed-form transitions, its
cylinder measures, likelihood-ratio machinery, and the exact verdict on
whether its absolute-continuity series converges.

The family keeps only p[1,1,1] = a free (specfile writes its coefficients).
One-step transitions have the closed form H_11 at time k = (a*x1)^(2^k),
with state 2 absorbing. Closed forms and series terms run on markov's
integer kernel at 136 bits, the series carried wider (see rn_series), and
their log views on its log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .markov import _ONE, _PREC, _ZERO, _add, _div, _log_float, _mul, _pair, _pow, _round, _sqrt, _to_float, _view
from .operator import QsoOperator
from .simplex import SimplexPoint, make_point
from .specfile import OperatorSpec, check_weight


def va_operator(a: float) -> QsoOperator:
    """The two-state operator with self-replication weight a on state 1."""
    return OperatorSpec(n=2, va=a).build()


@dataclass(frozen=True)
class VaParams:
    a: float
    x: SimplexPoint

    def __post_init__(self):
        check_weight(self.a)
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
    """H_11 = (a*x1)^(2^k), as _closed_form_pairs takes a stay; state 2 is absorbing."""
    if k < 0:
        raise ValueError("k must be >= 0")
    h11 = _pow(_mul(_pair(params.a, _PREC), _pair(params.x1, _PREC), _PREC), 1 << k, _PREC)
    h = [[h11, _add(_ONE, h11, _PREC, sub=True)], [_ZERO, _ONE]]
    return ClosedFormTransition(linear=_view(h), log=_view(h, log=True))


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


def _closed_form_pairs(params: VaParams, c: CylinderClass) -> tuple:
    """The class's constructive and tabulated values, as _PREC-bit pairs.

    Constructive: x1 at time l, a^(2^l - 1) * x1^(2^l), times the one-step
    stay probabilities (a*x1)^(2^t) through the last time in state 1.
    Tabulated: the printed formulas taken verbatim, with the exponent
    2^(l-1), fractional for l = 0, as written.
    """
    if c.kind == "two_one":
        return _ZERO, _ZERO
    a, x1 = _pair(params.a, _PREC), _pair(params.x1, _PREC)
    ax = _mul(a, x1, _PREC)
    # the last time in state 1; all_twos leaves it before its window
    end = {"all_ones": c.m, "all_twos": c.l, "ones_then_twos": c.k}[c.kind]
    cons = x1 if c.l == 0 else _mul(_pow(a, (1 << c.l) - 1, _PREC), _pow(x1, 1 << c.l, _PREC), _PREC)
    for t in range(c.l, end):
        cons = _mul(cons, _pow(ax, 1 << t, _PREC), _PREC)
    # the printed power of a, 2^end - 2^(l-1), is n/2 for odd n at l = 0:
    # the square root's n-th power, the root taken at _PREC bits for n = 1
    # and at _PREC + 10 otherwise, as the reference's half-integer power does
    n = (1 << (end + 1)) - (1 << c.l)
    if c.l:
        power = _pow(a, n >> 1, _PREC)
    else:
        power = _sqrt(a, _PREC) if n == 1 else _pow(_sqrt(a, _PREC + 10), n, _PREC)
    printed = _mul(power, _pow(x1, 1 << end, _PREC), _PREC)
    if c.kind == "all_twos":
        return _add(_ONE, cons, _PREC, sub=True), _add(_ONE, printed, _PREC, sub=True)
    if c.kind == "ones_then_twos":  # then a single 1->2 step
        escape = _add(_ONE, _pow(ax, 1 << c.k, _PREC), _PREC, sub=True)
        return _mul(cons, escape, _PREC), _mul(printed, escape, _PREC)
    # at a = 0 the table gives the one-time window [0, 0] as x1 itself
    return cons, x1 if params.a == 0.0 and c.m == 0 else printed


@dataclass(frozen=True)
class CylinderValue:
    constructive: float
    constructive_log: float
    printed: float
    discrepancy: float  # |constructive - printed|, linear domain


def va_cylinder_closed_form(params: VaParams, c: CylinderClass) -> CylinderValue:
    """Constructive chain-product measure, with the tabulated formula value
    recorded alongside; the constructive value is the ground truth."""
    cons, printed = _closed_form_pairs(params, c)
    return CylinderValue(
        constructive=_to_float(cons),
        constructive_log=_log_float(cons, _PREC),
        printed=_to_float(printed),
        discrepancy=_to_float(_add(cons, printed, _PREC, sub=True)),
    )


def cylinder_discrepancy_log(params: VaParams, windows: list) -> list:
    """Classes whose tabulated value differs from the constructive one by
    more than 1e-15.

    Returns (class, constructive, printed, |difference|) for each mismatch.
    """
    values = ((c, va_cylinder_closed_form(params, c)) for c in windows)
    return [(c, v.constructive, v.printed, v.discrepancy) for c, v in values if v.discrepancy > 1e-15]


def _expectation_term(p: tuple, q: tuple) -> tuple:
    """The two surviving series contributions at one step, from the two
    stay probabilities p and q at _PREC bits; they are the pair _ONE only at
    a stay rate of exactly 1, as a rate below it is at most 1 - 2**-53.

    K: squared deviation of the escape-probability ratio, weighted by the
    numerator's escape probability on the ones-then-exit event.
    K_hat: squared deviation of the stay-probability ratio, weighted by the
    numerator's stay probability on the all-ones event. Both >= 0; infinite
    when the denominator's mass vanishes while the numerator's does not.
    """
    if q == _ONE:  # escape-ratio term
        k_term = 0.0 if p == _ONE else math.inf
    else:
        escape = _add(_ONE, p, _PREC, sub=True)
        ratio = _div(escape, _add(_ONE, q, _PREC, sub=True), _PREC)
        deviation = _add(_ONE, ratio, _PREC, sub=True)
        k_term = _to_float(_mul(_mul(deviation, deviation, _PREC), escape, _PREC))
    if not q[0]:  # stay-ratio term
        khat = 0.0 if not p[0] else math.inf
    else:
        deviation = _add(_ONE, _div(p, q, _PREC), _PREC, sub=True)
        khat = _to_float(_mul(_mul(deviation, deviation, _PREC), p, _PREC))
    return k_term, khat


@dataclass(frozen=True)
class RNSeriesReport:
    numerator: VaParams
    denominator: VaParams
    terms: list  # list of (m, K_term, Khat_term, partial_sum)
    classification: str  # singular_evidence iff the series diverges, else equivalent_evidence
    exceptional_set_note: str


def rn_series(num: VaParams, den: VaParams, m_max: int) -> RNSeriesReport:
    """Partial sums of the conditional second-moment series, and whether it
    converges, decided exactly on the stay rates alpha = a*x1 (numerator) and
    beta = a'*y1 (denominator): singular_evidence iff alpha != beta and
    alpha = 1, beta = 0 or beta = 1. The verdict is the convergence of the
    printed series; it reads no start law.

    Where 1 > alpha > beta > 0, the stay-event contribution lives only on the
    all-ones trajectory, whose limiting mass is zero under both chains; that
    exceptional trajectory is left out of the accumulated series and named
    in the note, the almost-sure form of the convergence dichotomy.

    Proof, with the step-m stay probabilities p_m = alpha^(2^(m-1)) and
    q_m = beta^(2^(m-1)): if alpha = beta, every term is exactly 0; if
    beta = 1 != alpha, every K term is infinite; if beta = 0 < alpha, every
    K_hat term is; if alpha = 1 > beta > 0, K_hat_m = (1 - 1/q_m)^2 has no
    bound. Otherwise alpha < 1 and 0 < beta < 1: p_m and q_m fall doubly
    exponentially, so does K_m = (p_m - q_m)^2 (1 - p_m) / (1 - q_m)^2, and
    K_hat_m <= p_m is counted only where p_m <= q_m. Both series converge.

    The stay probabilities take one squaring a step. Each squaring doubles
    the relative error carried, so both are carried m_max + 24 bits wider
    than _PREC and rounded to it for each step's terms: at _PREC, terms of
    exactly 1.0 drift from m = 87 and read inf by m = 150.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    # exact rates, as double products round and underflow; beta = 0 < alpha is a finite-horizon
    # witness, and at alpha = 1 all-ones carries all the numerator's mass: neither is exceptional
    alpha, beta = Fraction(num.a) * Fraction(num.x1), Fraction(den.a) * Fraction(den.x1)
    exceptional = 1 > alpha > beta > 0
    singular = alpha != beta and (alpha == 1 or beta in (0, 1))
    terms = []
    partial = 0.0
    wide = _PREC + m_max + 24
    # the stay rates a * x1, exact: a product of two doubles has 106 bits
    p_wide = _mul(_pair(num.a, _PREC), _pair(num.x1, _PREC), _PREC)
    q_wide = _mul(_pair(den.a, _PREC), _pair(den.x1, _PREC), _PREC)
    for m in range(1, m_max + 1):
        k_term, khat = _expectation_term(_round(*p_wide, _PREC), _round(*q_wide, _PREC))
        partial += k_term if exceptional else k_term + khat
        terms.append((m, k_term, khat, partial))
        p_wide, q_wide = _mul(p_wide, p_wide, wide), _mul(q_wide, q_wide, wide)
    note = ""
    if exceptional:
        note = (
            "the all-ones trajectory is exceptional: the likelihood ratio "
            "diverges along it while its limiting mass is zero under both "
            "chains; its stay-event contribution is excluded from the "
            "accumulated series"
        )
    return RNSeriesReport(num, den, terms, "singular_evidence" if singular else "equivalent_evidence", note)
