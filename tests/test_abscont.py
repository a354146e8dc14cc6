import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qsodyn.abscont import (
    CylinderClass,
    VaParams,
    cylinder_discrepancy_log,
    rn_series,
    va_cylinder_closed_form,
    va_operator,
    va_transition_closed_form,
)
from conftest import reference_closed_form, reference_rn_series
from qsodyn.classify import check_uniqueness_conditions
from qsodyn.markov import TransitionFamily
from qsodyn.operator import evaluate
from qsodyn.simplex import make_point


class TestVaOperator:
    def test_a_zero_kills_first_coordinate(self):
        y = evaluate(va_operator(0.0), make_point([0.7, 0.3]))
        assert y.coords == (0.0, 1.0)

    def test_a_one_squares(self):
        y = evaluate(va_operator(1.0), make_point([0.6, 0.4]))
        assert y[0] == pytest.approx(0.36, abs=1e-15)

    def test_uniqueness_conditions_below_one(self):
        assert check_uniqueness_conditions(va_operator(0.99)).met

    def test_range_guard(self):
        with pytest.raises(ValueError):
            va_operator(1.5)

    @pytest.mark.parametrize(
        "a, x, message",
        [
            (1.5, (0.3, 0.7), "a must lie in [0, 1], got 1.5"),
            (-0.1, (0.3, 0.7), "a must lie in [0, 1], got -0.1"),
            (0.5, (0.2, 0.3, 0.5), "the family lives on two states"),
        ],
        ids=["a_above_one", "a_below_zero", "three_states"],
    )
    def test_params_checked(self, a, x, message):
        with pytest.raises(ValueError) as err:
            VaParams(a, make_point(x))
        assert str(err.value) == message


class TestClosedFormTransitions:
    def test_hand_values(self):
        p = VaParams.of(0.5, 0.5)
        H0 = va_transition_closed_form(p, 0)
        assert np.allclose(H0.linear, [[0.25, 0.75], [0.0, 1.0]], atol=1e-15)
        H2 = va_transition_closed_form(p, 2)
        assert H2.linear[0, 0] == pytest.approx(0.25**4, abs=1e-18)

    def test_a_zero(self):
        p = VaParams.of(0.0, 0.5)
        for k in range(5):
            assert va_transition_closed_form(p, k).linear[0, 0] == 0.0

    def test_a_x1_one_stays(self):
        """At a * x1 = 1 state 1 is never left: H_11 = 1 and its log 0."""
        H = va_transition_closed_form(VaParams.of(1.0, 1.0), 3)
        assert H.linear.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert H.log.tolist() == [[0.0, -math.inf], [-math.inf, 0.0]]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            va_transition_closed_form(VaParams.of(0.5, 0.5), -1)

    def test_matches_generic_chain_linear(self):
        for a in (0.1, 0.5, 0.9):
            for x1 in (0.1, 0.5, 0.9):
                params = VaParams.of(a, x1)
                fam = TransitionFamily(va_operator(a), params.x)
                for k in range(11):
                    cf = va_transition_closed_form(params, k)
                    assert np.abs(cf.linear - fam.transition_matrix(k)).max() <= 1e-12

    def test_matches_generic_chain_log(self):
        params = VaParams.of(0.9, 0.9)
        fam = TransitionFamily(va_operator(0.9), params.x)
        for k in range(11, 21):
            cf = va_transition_closed_form(params, k)
            assert math.isclose(cf.log[0, 0], fam.transition_matrix_log(k)[0, 0], rel_tol=1e-12)


class TestCylinderClosedForms:
    def test_two_one_zero(self):
        v = va_cylinder_closed_form(VaParams.of(0.5, 0.5), CylinderClass("two_one", k=3))
        assert v.constructive == 0.0

    def test_all_ones_hand_value(self):
        v = va_cylinder_closed_form(VaParams.of(0.5, 0.5), CylinderClass("all_ones", 0, 1))
        assert v.constructive == pytest.approx(0.125, abs=1e-15)

    def test_all_twos_from_vertex(self):
        v = va_cylinder_closed_form(VaParams.of(0.5, 0.0), CylinderClass("all_twos", 0, 6))
        assert v.constructive == 1.0

    def test_matches_chain_product(self):
        params = VaParams.of(0.7, 0.4)
        fam = TransitionFamily(va_operator(0.7), params.x)
        from qsodyn.markov import CylinderSet, cylinder_measure

        cases = [
            (CylinderClass("all_ones", 1, 4), CylinderSet(1, (1, 1, 1, 1))),
            (CylinderClass("all_twos", 2, 5), CylinderSet(2, (2, 2, 2, 2))),
            (CylinderClass("ones_then_twos", 0, 4, 2), CylinderSet(0, (1, 1, 1, 2, 2))),
            (CylinderClass("two_one", k=1), CylinderSet(1, (2, 1))),
        ]
        for cls, cyl in cases:
            closed = va_cylinder_closed_form(params, cls).constructive
            assert closed == pytest.approx(cylinder_measure(fam, cyl), abs=1e-13)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            CylinderClass("ones_then_twos", 2, 3, 5)
        with pytest.raises(ValueError):
            CylinderClass("all_ones", 4, 2)

    @pytest.mark.parametrize(
        "kind,l,m,k,message",
        [
            ("ones_then_twos", 0, 5, 9, "need l <= k <= m-1, got l=0, k=9, m=5"),
            ("ones_then_twos", 3, 5, 1, "need l <= k <= m-1, got l=3, k=1, m=5"),
            ("all_ones", -2, 3, 0, "window start must be >= 0, got l=-2"),
            ("two_one", 0, 0, -1, "need k >= 0, got k=-1"),
            ("bogus", 0, 0, 0, "unknown cylinder kind 'bogus'"),
        ],
        ids=["k_past_window", "k_before_window", "negative_start", "two_one_negative_k", "unknown_kind"],
    )
    def test_constructor_checks_the_window(self, kind, l, m, k, message):
        """The constructor rejects a window that does not exist."""
        with pytest.raises(ValueError) as err:
            CylinderClass(kind, l=l, m=m, k=k)
        assert str(err.value) == message

    def test_discrepancy_localized(self):
        params = VaParams.of(0.6, 0.7)
        windows = [
            CylinderClass("all_ones", 0, 3),
            CylinderClass("all_ones", 1, 3),
            CylinderClass("all_ones", 2, 4),
            CylinderClass("all_twos", 1, 3),
            CylinderClass("two_one", k=2),
        ]
        log = cylinder_discrepancy_log(params, windows)
        kinds = {(c.kind, c.l) for c, *_ in log}
        # the tabulated exponent matches the chain product only at window
        # start 1; starts 0 and 2 disagree
        assert ("all_ones", 0) in kinds
        assert ("all_ones", 2) in kinds
        assert ("all_ones", 1) not in kinds
        assert ("all_twos", 1) not in kinds


class TestSeriesTerms:
    def test_diagonal_zero(self):
        p = VaParams.of(0.5, 0.4)
        terms = rn_series(p, p, 7).terms
        for m in (1, 3, 7):
            assert terms[m - 1][:3] == (m, 0.0, 0.0)

    def test_hand_value(self):
        ((_, k, khat, _), _) = rn_series(VaParams.of(0.5, 0.3), VaParams.of(0.5, 0.6), 2).terms
        assert khat == pytest.approx(0.0375, abs=1e-15)
        assert k == pytest.approx((1 - 0.85 / 0.7) ** 2 * 0.85, abs=1e-12)

    def test_doubly_exponential_decay(self):
        num, den = VaParams.of(0.5, 0.3), VaParams.of(0.5, 0.6)
        totals = [k + kh for _, k, kh, _ in rn_series(num, den, 8).terms]
        assert all(b < a for a, b in zip(totals[3:], totals[4:]))
        assert totals[-1] < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(80)
        for _ in range(50):
            num = VaParams.of(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            den = VaParams.of(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            m = int(rng.integers(1, 10))
            _, k, khat, _ = rn_series(num, den, max(m, 2)).terms[m - 1]
            assert k >= 0.0 and khat >= 0.0


class TestRnSeries:
    def test_equivalent_forward(self):
        r = rn_series(VaParams.of(0.5, 0.3), VaParams.of(0.5, 0.6), 12)
        assert r.classification == "equivalent_evidence"
        assert r.exceptional_set_note == ""

    def test_equivalent_backward_with_exceptional_note(self):
        r = rn_series(VaParams.of(0.5, 0.6), VaParams.of(0.5, 0.3), 12)
        assert r.classification == "equivalent_evidence"
        assert "all-ones" in r.exceptional_set_note

    def test_diagonal_identically_zero(self):
        r = rn_series(VaParams.of(0.5, 0.4), VaParams.of(0.5, 0.4), 8)
        assert all(k == 0.0 and kh == 0.0 for _, k, kh, _ in r.terms)
        assert r.classification == "equivalent_evidence"

    def test_cross_parameter(self):
        r = rn_series(VaParams.of(0.3, 0.4), VaParams.of(0.7, 0.5), 12)
        assert r.classification == "equivalent_evidence"

    def test_partial_sums_non_decreasing(self):
        r = rn_series(VaParams.of(0.4, 0.2), VaParams.of(0.6, 0.7), 12)
        sums = [s for _, _, _, s in r.terms]
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_singular_direction(self):
        # a denominator start with no mass on state 1 makes every stay event
        # a positive-over-zero witness
        r = rn_series(VaParams.of(0.5, 0.5), VaParams.of(0.5, 0.0), 8)
        assert r.classification == "singular_evidence"

    def test_m_max_guard(self):
        with pytest.raises(ValueError):
            rn_series(VaParams.of(0.5, 0.3), VaParams.of(0.5, 0.6), 1)

    def test_denominator_that_never_leaves_state_one(self):
        """The denominator's stay probability is 1 at every m: escape-ratio
        terms K are infinite, as the numerator escapes and the denominator
        cannot."""
        r = rn_series(VaParams.of(0.5, 0.3), VaParams.of(1.0, 1.0), 3)
        assert [t[1] for t in r.terms] == [math.inf] * 3

    def test_numerator_that_never_leaves_state_one_is_singular(self):
        # at a * x1 = 1 the numerator chain stays at state 1 forever, so the
        # all-ones trajectory carries all of its mass and is no exception
        r = rn_series(VaParams.of(1.0, 1.0), VaParams.of(1.0, 0.5), 12)
        assert r.classification == "singular_evidence"
        assert r.exceptional_set_note == ""


class TestExceptionalSet:
    @pytest.mark.parametrize("d", [1e-150, 1e-200])
    def test_decided_on_exact_stay_rates(self, d):
        """The denominator's stay rate d * d is positive and below the
        numerator's 0.15 at both d; at 1e-200 it underflows to 0.0 as a
        double product, which must not change the verdict or the note."""
        r = rn_series(VaParams.of(0.5, 0.3), VaParams.of(d, d), 12)
        assert r.classification == "equivalent_evidence"
        assert "all-ones" in r.exceptional_set_note


# 0.6 cut to 26 bits, so that S * S is a double: a stay rate S**2 against S**3
S = float.fromhex("0x1.3333330000000p-1")
EDGES = [0.0, 1.0, 0.5, 2 / 3, 1 - 2**-53, 1e-200, 3.7e-201, S]
WINDOWS = [
    CylinderClass("all_ones", 0, 0),
    CylinderClass("all_ones", 2, 5),
    CylinderClass("all_ones", 5, 40),
    CylinderClass("all_twos", 0, 0),
    CylinderClass("all_twos", 0, 4),
    CylinderClass("all_twos", 2, 5),
    CylinderClass("ones_then_twos", 0, 1, 0),
    CylinderClass("ones_then_twos", 0, 5, 2),
    CylinderClass("ones_then_twos", 2, 6, 3),
    CylinderClass("two_one", k=3),
]


def draws(rng, count):
    """Edge values, values of the 1e-200 scale and values in [0, 1)."""
    out = []
    for _ in range(count):
        r = rng.random()
        if r < 0.35:
            out.append(EDGES[rng.integers(len(EDGES))])
        else:
            out.append(rng.random() * (1e-200 if r < 0.45 else 1.0))
    return out


def random_window(rng):
    kind = ("all_ones", "all_twos", "ones_then_twos")[rng.integers(3)]
    l = int(rng.integers(0, 7))
    m = l + int(rng.integers(1, 11))
    return CylinderClass(kind, l, m, int(rng.integers(l, m)))


def series_pair(rng):
    """A numerator and a denominator, the latter equal to the former, one
    double off it, with y1 = x1**2, or drawn on its own."""
    a, x1, b, y1 = draws(rng, 4)
    den = [
        (a, x1),
        (a, float(np.nextafter(x1, 0.0))),
        (a, y1),
        (b, x1 * x1),
        (b, y1),
    ][rng.integers(5)]
    return VaParams.of(a, x1), VaParams.of(*den)


class TestAgainstTheMpmathReference:
    """Every closed form and series term equals, as a double, what the
    mpmath dps-40 computation in conftest gives."""

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_forms(self, seed):
        rng = np.random.default_rng(seed)
        for a, x1 in zip(draws(rng, 50), draws(rng, 50)):
            params = VaParams.of(a, x1)
            for c in WINDOWS + [random_window(rng) for _ in range(6)]:
                v = va_cylinder_closed_form(params, c)
                got = (v.constructive, v.constructive_log, v.printed, v.discrepancy)
                assert got == reference_closed_form(params, c), (a, x1, c)

    @pytest.mark.parametrize("m_max, count", [(12, 60), (40, 40), (100, 20), (256, 10)])
    def test_series(self, m_max, count):
        rng = np.random.default_rng(m_max)
        for _ in range(count):
            num, den = series_pair(rng)
            r = rn_series(num, den, m_max)
            terms, classification, exceptional = reference_rn_series(num, den, m_max)
            assert r.terms == terms, (num, den)
            assert r.classification == classification
            assert bool(r.exceptional_set_note) == exceptional

    def test_two_hundred_squarings(self):
        """Each squaring doubles the relative error of a stay probability:
        carried at 136 bits, the K_hat terms here drift from 1.0 at m = 87
        and read inf by m = 150."""
        num, den = VaParams.of(S, S), VaParams.of(S, S * S)
        r = rn_series(num, den, 200)
        assert r.terms == reference_rn_series(num, den, 200)[0]
        assert [khat for _, _, khat, _ in r.terms[7:]] == [1.0] * 193



class TestExactVerdict:
    def test_one_verdict_at_every_horizon_and_the_tail_agrees(self):
        """On a, x1, a', y1 over EDGES the verdict does not move with the
        horizon, and at 256 terms it reads equivalent exactly where the last
        counted contribution is 0.0, singular exactly where it is inf or at
        least 1. Every start pair runs at m_max 2; the longer horizons run
        once for each pair of exact stay rates a * x1, which fix every term."""
        verdicts = {}
        for a, x1, b, y1 in product(EDGES, repeat=4):
            num, den = VaParams.of(a, x1), VaParams.of(b, y1)
            got = rn_series(num, den, 2).classification
            rates = (Fraction(a) * Fraction(x1), Fraction(b) * Fraction(y1))
            if rates in verdicts:
                assert got == verdicts[rates], (num, den)
                continue
            verdicts[rates] = got
            assert {rn_series(num, den, m).classification for m in (5, 12, 40)} == {got}, (num, den)
            r = rn_series(num, den, 256)
            assert r.classification == got, (num, den)
            _, k, khat, _ = r.terms[-1]
            last = k if r.exceptional_set_note else k + khat
            assert (got == "equivalent_evidence") == (last == 0.0), (num, den, last)
            assert (got == "singular_evidence") == (last >= 1.0), (num, den, last)
        assert len(verdicts) == 29 * 29
