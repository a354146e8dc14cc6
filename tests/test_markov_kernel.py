"""The Markov chain's integer kernel against mpmath's own raw operations.

Each kernel operation on nonnegative (mantissa, exponent) pairs must give
the value that ``mpf_mul``, ``mpf_add``, ``mpf_sub`` (as a magnitude),
``mpf_div``, ``mpf_sqrt`` and ``mpf_pow_int`` give at the same precision with
round-half-even. Operands are handed to mpmath through
``from_man_exp``, and results are compared as normalized mpf tuples, so two
equal values compare equal however their mantissas are scaled.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp

from conftest import reference_dot
from qsodyn import markov
from qsodyn.markov import (
    _PREC, _add, _atanh2, _div, _dot, _log_float, _matmul, _mul, _pair, _pow, _round, _sqrt, _to_float, _unit_sum,
)

RND = libmp.round_nearest
PRECS = [libmp.dps_to_prec(dps) for dps in (15, 40, 60)]  # 53, 136, 203 bits


def mpf(v):
    return libmp.from_man_exp(*v)


def same(got, want):
    assert mpf(got) == want, (mpf(got), want)


def rounded_log(v, prec):
    """log v correctly rounded to prec bits, then to a double: mpf_log at
    prec + 60 bits and wider, until four units in its last place (more than
    its error) leave the rounding to prec bits settled. In [1/4, 1/2),
    mpmath 1.3's mpf_log takes an x for one next to 1 (log(1/4 + 2**-32) at
    7 bits reads 2**-30), so there it is log 2x - ln 2."""
    x = mpf(v)
    if x in (libmp.fzero, libmp.fone):
        return libmp.to_float(libmp.mpf_log(x, prec))
    work = prec + 60
    while True:
        if x[2] + x[3] == -1:
            r = libmp.mpf_sub(libmp.mpf_log(libmp.mpf_shift(x, 1), work, RND), libmp.mpf_ln2(work, RND), work, RND)
        else:
            r = libmp.mpf_log(x, work, RND)
        ulps = libmp.from_man_exp(4, r[2] + r[3] - work)
        lo, hi = (libmp.mpf_pos(libmp.mpf_add(r, u), prec, RND) for u in (libmp.mpf_neg(ulps), ulps))
        if lo == hi:
            return libmp.to_float(lo, rnd=RND)
        work *= 2


def normalized(m, e):
    """The pair as mpmath stores it: odd mantissa, or (0, 0)."""
    _, m, e, _ = libmp.from_man_exp(m, e)
    return m, e


def mpf_dot(xs, ys, prec):
    """mpmath's left-to-right sum of rounded products, from zero."""
    acc = libmp.fzero
    for a, b in zip(xs, ys):
        acc = libmp.mpf_add(acc, libmp.mpf_mul(mpf(a), mpf(b), prec, RND), prec, RND)
    return acc


def tie(prec, odd, below=5):
    """A pair whose mantissa of prec + below bits drops exactly half an ulp
    at prec bits, with its kept part odd or even."""
    kept = (1 << (prec - 1)) | (0b1010 << 3) | odd
    return (kept << below) | (1 << (below - 1)), 0


def rounds_up(prec):
    """prec + 1 one bits: times (1, 0), a product that rounds up to 2**prec."""
    return (1 << (prec + 1)) - 1, 0


ONE = (1, 0)

# mantissas of up to three times the widest precision, with any exponent:
# wide enough that the kernel's rounding, not its inputs, sets the result
mantissas = st.integers(min_value=0, max_value=(1 << 3 * max(PRECS)) - 1)
exponents = st.integers(min_value=-1200, max_value=1200)
pairs = st.builds(normalized, mantissas, exponents)
positive = pairs.filter(lambda v: v[0] > 0)
precs = st.sampled_from(PRECS)


def squares(n):
    return st.lists(st.lists(pairs, min_size=n, max_size=n), min_size=n, max_size=n)


class TestRound:
    @given(pairs, precs)
    def test_matches_from_man_exp(self, v, prec):
        same(_round(*v, prec), libmp.from_man_exp(*v, prec=prec, rnd=RND))

    @pytest.mark.parametrize("prec", PRECS)
    @pytest.mark.parametrize("odd", [0, 1])
    @pytest.mark.parametrize("below", [1, 2, 7, 64])
    def test_exact_half_goes_to_even(self, prec, odd, below):
        m, e = tie(prec, odd, below)
        kept = m >> below
        assert _round(m, e, prec) == (kept + odd, e + below)
        same(_round(m, e, prec), libmp.from_man_exp(m, e, prec, RND))

    @pytest.mark.parametrize("prec", PRECS)
    def test_rounds_up_to_a_power_of_two(self, prec):
        m = ((1 << prec) - 1) << 3 | 0b100  # all ones, then exactly half
        assert mpf(_round(m, -7, prec)) == (0, 1, prec - 7 + 3, 1)
        same(_round(m, -7, prec), libmp.from_man_exp(m, -7, prec, RND))
        # one bit below half stays all ones
        assert _round(m - 1, -7, prec) == ((1 << prec) - 1, -4)


class TestOperations:
    @given(pairs, pairs, precs)
    @example((0, 0), (3, -2), 53)
    @example((3, -2), (0, 0), 53)
    def test_mul(self, a, b, prec):
        same(_mul(a, b, prec), libmp.mpf_mul(mpf(a), mpf(b), prec, RND))

    @given(pairs, pairs, precs)
    @example((0, 0), (0, 0), 53)
    @example((0, 0), (5, 7), 136)
    @example((5, 7), (0, 0), 136)
    def test_add(self, a, b, prec):
        same(_add(a, b, prec), libmp.mpf_add(mpf(a), mpf(b), prec, RND))

    @given(pairs, pairs, precs)
    @example((0, 0), (5, 7), 136)
    @example((5, 7), (0, 0), 136)
    @example((5, 7), (5, 7), 53)
    @example((5, 7), (5, 7 - 300), 53)
    def test_absolute_difference(self, a, b, prec):
        want = libmp.mpf_abs(libmp.mpf_sub(mpf(a), mpf(b), prec, RND))
        same(_add(a, b, prec, sub=True), want)

    @given(pairs, positive, precs)
    @example((0, 0), (3, 1), 53)
    def test_div(self, a, b, prec):
        same(_div(a, b, prec), libmp.mpf_div(mpf(a), mpf(b), prec, RND))

    @given(st.lists(st.tuples(pairs, pairs), min_size=1, max_size=8), precs)
    def test_dot_is_a_left_to_right_sum_of_rounded_products(self, terms, prec):
        xs, ys = zip(*terms)
        same(_dot(xs, ys, prec), mpf_dot(xs, ys, prec))

    @given(st.lists(st.tuples(pairs, pairs), max_size=8), precs)
    # a product that rounds up to 2**prec, as the first term and as a later one
    @example([(rounds_up(53), ONE)], 53)
    @example([(rounds_up(136), ONE), ((3, -7), (5, 2))], 136)
    @example([((3, 0), (5, 0)), (rounds_up(53), ONE)], 53)
    @example([((1, 300), ONE), (rounds_up(203), ONE)], 203)
    # products on a tie, and a sum on a tie that rounds up to 2**prec
    @example([(tie(53, 1), ONE)], 53)
    @example([(tie(136, 0), ONE)], 136)
    @example([(((1 << 53) - 1, 1), ONE), (ONE, ONE)], 53)
    @example([(ONE, ONE), (((1 << 136) - 1, 1), ONE)], 136)
    # a term more than 100 binary orders below the sum, and the reverse order
    @example([(((1 << 53) - 1, 0), ONE), ((1, -200), ONE)], 53)
    @example([((1, -200), ONE), (((1 << 53) - 1, 0), ONE)], 53)
    @example([((5, 0), (3, 0)), ((7, -150), (1, -150))], 136)
    @example([(ONE, ONE), ((1, -300), ONE)], 53)  # a power of two over the far term
    # zeros before, between and after the nonzero terms
    @example([((0, 0), ONE), ((3, -1), (5, 2)), ((7, 1), (0, 0)), ((9, -4), (11, 3)), ((0, 0), (0, 0))], 136)
    # a single term, an all-zero dot and an empty one
    @example([((3, -1), (5, 2))], 53)
    @example([((0, 0), (5, 1)), ((3, 2), (0, 0))], 53)
    @example([], 53)
    def test_dot_gives_the_pairs_of_mul_then_add(self, terms, prec):
        """The single loop returns the very pair, mantissa and exponent,
        that an _add of each term's _mul returns."""
        xs, ys = [a for a, _ in terms], [b for _, b in terms]
        assert _dot(xs, ys, prec) == reference_dot(xs, ys, prec)

    @given(st.lists(pairs, min_size=1, max_size=6), precs)
    def test_unit_sum(self, row, prec):
        total = libmp.fzero
        for v in row:
            total = libmp.mpf_add(total, mpf(v), prec, RND)
        got = _unit_sum(row, prec)
        if total == libmp.fzero:
            assert got == row
            return
        for g, v in zip(got, row):
            same(g, libmp.mpf_div(mpf(v), total, prec, RND))

    @settings(max_examples=30)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(squares(n), squares(n))), precs)
    def test_matmul(self, AB, prec):
        A, B = AB
        got = _matmul(A, B, prec)
        for i, row in enumerate(A):
            for j, col in enumerate(zip(*B)):
                same(got[i][j], mpf_dot(row, col, prec))


class TestRootsAndPowers:
    """The two operations the two-state family's closed forms add."""

    # the family's precision, and the 10 bits wider that its half-integer
    # powers take the root at
    ROOT_PRECS = [53, _PREC, _PREC + 10]

    @given(pairs, st.sampled_from(ROOT_PRECS))
    # roots whose dropped bits read exactly half but for the remainder: only
    # the sticky bit rounds them up
    @example((1, 49), 53)
    @example((7, 46), _PREC)
    @example((5, -33), _PREC + 10)
    @example((0, 0), 53)
    @example((1, 0), _PREC)
    @example((1, -1), _PREC)
    def test_sqrt_is_mpf_sqrt(self, v, prec):
        same(_sqrt(v, prec), libmp.mpf_sqrt(mpf(v), prec, RND))

    @settings(max_examples=60)
    @given(pairs, st.integers(0, 1 << 12), precs)
    @example((3, -2), 1 << 12, _PREC)
    @example((1, -5), 3000, 53)  # a power of two stays exact
    @example(((1 << 136) - 1, -136), 1 << 12, _PREC)
    @example(((1 << 600) - 1, -600), 2, 53)  # a wide square, rounded once
    @example((0, 0), 0, 53)
    def test_pow_is_mpf_pow_int(self, v, k, prec):
        """The same steps, so the same bits: the exact power below 1000 bits,
        truncated binary powering above."""
        same(_pow(v, k, prec), libmp.mpf_pow_int(mpf(v), k, prec, RND))

    @settings(max_examples=60)
    @given(st.builds(normalized, st.integers(1, (1 << 146) - 1), exponents), st.integers(1, 1 << 12), precs)
    @example(((1 << 136) - 1, -136), 1 << 12, _PREC)
    @example(((1 << 53) - 1, -53), (1 << 12) - 1, 53)
    def test_pow_is_within_two_ulps_of_the_exact_power(self, v, k, prec):
        """|_pow - v**k| <= 2**(1 - prec) v**k, against the exact integer power."""
        (m, e), x = _pow(v, k, prec), v[0] ** k
        shift = e - v[1] * k
        got, exact = m << max(shift, 0), x << max(-shift, 0)
        assert abs(got - exact) << (prec - 1) <= exact

    @given(positive, st.integers(1025, 10**6))
    @example((1, 0), 1025)  # 2**1024
    @example(((1 << 54) - 1, 0), 1024)  # rounds up to 2**1024
    @example((1, 0), 10**9)
    def test_float_view_is_inf_above_the_double_range(self, v, top):
        """A value in [2**(top - 1), 2**top), past the largest double."""
        v = (v[0], top - v[0].bit_length())
        assert _to_float(v) == libmp.to_float(mpf(v), rnd=RND) == math.inf


class TestRoundingCases:
    """The boundaries the properties above reach only by chance."""

    @pytest.mark.parametrize("prec", PRECS)
    @pytest.mark.parametrize("odd", [0, 1])
    def test_tie_of_both_parities(self, prec, odd):
        a = tie(prec, odd)
        for b in ((1, 0), (1, 4)):  # exact products that land on the tie
            same(_mul(a, b, prec), libmp.mpf_mul(mpf(a), mpf(b), prec, RND))
        wide = tie(prec, odd, below=2 * prec)  # a sum with zero rounds it
        same(_add(wide, (0, 0), prec), libmp.mpf_add(mpf(wide), libmp.fzero, prec, RND))

    @pytest.mark.parametrize("prec", PRECS)
    @pytest.mark.parametrize("odd", [0, 1])
    @pytest.mark.parametrize("far", [101, 150, 10**6])
    def test_sticky_bit_breaks_a_tie(self, prec, odd, far):
        """A term far below a tied sum pushes it up, even when the kept part
        is even: the sticky bit stands in for the term."""
        a = tie(prec, odd, below=1)
        b = (1, -(prec + far))
        want = libmp.mpf_add(mpf(a), mpf(b), prec, RND)
        assert want == mpf(((a[0] >> 1) + 1, 1))
        same(_add(a, b, prec), want)
        same(_add(b, a, prec), want)
        # taking the term away moves the sticky bit down: the tie rounds down
        want = libmp.mpf_abs(libmp.mpf_sub(mpf(a), mpf(b), prec, RND))
        assert want == mpf((a[0] >> 1, 1))
        same(_add(a, b, prec, sub=True), want)
        same(_add(b, a, prec, sub=True), want)

    @pytest.mark.parametrize("prec", PRECS)
    @pytest.mark.parametrize("gap", [99, 100, 101, 102])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    def test_exponent_gaps_around_both_thresholds(self, prec, gap, extra):
        """Exponent gaps on each side of 100 bits, with the smaller term's
        top bit on each side of prec + 4 bits below the larger one's."""
        for top in (1, 2, 3):
            a = (((1 << (prec + top - 1)) | 1), 0)  # prec + top bits, odd
            # the top-bit gap is gap + (prec + top) - width(b)
            width = gap + prec + top - (prec + 4 + extra)
            if width < 1:
                continue
            b = ((1 << (width - 1)) | 1, -gap)
            for x, y in ((a, b), (b, a)):
                same(_add(x, y, prec), libmp.mpf_add(mpf(x), mpf(y), prec, RND))
                diff = libmp.mpf_abs(libmp.mpf_sub(mpf(x), mpf(y), prec, RND))
                same(_add(x, y, prec, sub=True), diff)

    @pytest.mark.parametrize("prec", PRECS)
    def test_sum_rounds_up_to_a_power_of_two(self, prec):
        a = ((1 << prec) - 1, -prec)  # 1 - 2**-prec
        b = (1, -prec - 1)  # exactly half an ulp: the odd kept part goes up
        want = libmp.mpf_add(mpf(a), mpf(b), prec, RND)
        assert want == libmp.fone
        same(_add(a, b, prec), want)
        c = (3, -2 * prec - 2)  # far below the last bit: the sum stays
        for x, y in ((a, c), (c, a)):
            same(_add(x, y, prec), libmp.mpf_add(mpf(x), mpf(y), prec, RND))

    @pytest.mark.parametrize("prec", PRECS)
    def test_quotient_on_a_tie_and_with_a_remainder(self, prec):
        a = tie(prec, 1, below=1)
        for b in ((1, 0), (2, 0), (3, 0), (7, 5), ((1 << prec) - 1, -prec)):
            same(_div(a, b, prec), libmp.mpf_div(mpf(a), mpf(b), prec, RND))
        same(_div((0, 0), (3, 0), prec), libmp.fzero)

    @pytest.mark.parametrize("prec", PRECS)
    def test_scaled_mantissas_give_the_same_values(self, prec):
        """The kernel keeps trailing zeros; a value's scaling never matters."""
        a, b = tie(prec, 1, below=1), (5, -prec - 200)
        scaled = [(m << 37, e - 37) for m, e in (a, b)]
        for op in (_mul, _add, _div):
            assert mpf(op(a, b, prec)) == mpf(op(*scaled, prec))


class TestDoubles:
    TINY = [5e-324, 1e-320, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-300, 0.1, 0.5, 1.0, 0.0]
    # mantissas ending in zero bits, which a pair must not carry along
    ROUND = [0.75, 0.375, 2.0**-40, 1 - 2.0**-53, 0.3]

    @pytest.mark.parametrize("prec", [7] + PRECS)
    @pytest.mark.parametrize("v", TINY + ROUND)
    def test_pair_is_mpmath_conversion(self, prec, v):
        """The same pair as mpmath's, mantissa and exponent alike."""
        _, m, e, _ = libmp.from_float(v, prec, RND)
        assert _pair(v, prec) == normalized(m, e)

    def test_family_precision_is_40_digits(self):
        assert _PREC == libmp.dps_to_prec(40)

    @pytest.mark.parametrize("prec", PRECS)
    def test_subnormal_and_tiny_operands(self, prec):
        for u in self.TINY:
            for v in self.TINY:
                a, b = _pair(u, prec), _pair(v, prec)
                same(_mul(a, b, prec), libmp.mpf_mul(mpf(a), mpf(b), prec, RND))
                same(_add(a, b, prec), libmp.mpf_add(mpf(a), mpf(b), prec, RND))
                if v:
                    same(_div(a, b, prec), libmp.mpf_div(mpf(a), mpf(b), prec, RND))

    @given(pairs)
    @example((1, -1074))
    @example((3, -1076))  # below the smallest subnormal
    @example(((1 << 60) - 1, -1100))  # rounds inside the subnormal range
    @example((1, -(10**9)))
    @example((0, 0))
    def test_float_view_is_mpmath_to_float(self, v):
        m, e = v
        if e + m.bit_length() > 1000:  # views only see values <= 1
            return
        assert _to_float(v) == libmp.to_float(mpf(v), rnd=RND)

    @pytest.mark.parametrize("dps", [1, 15, 40, 60])
    @given(v=pairs)
    @example(v=(0, 0))
    @example(v=(1, 0))
    @example(v=(1, -(10**9)))
    @example(v=((1 << 135) + 1, -135))  # next to 1: f - 1 has 134 leading zeros
    @example(v=((1 << 136) - 1, -136))
    @example(v=(1, -(2**1100)))  # a log past the double range
    @example(v=((1 << 30) + 1, -32))  # just above 1/4
    # next to 1, within 2**-47 ulp of a 53-bit and 2**-71 ulp of a 7-bit
    # midpoint: the first width leaves the rounding open
    @example(v=((1 << 51) - 3, -51))
    @example(v=((1 << 83) + 0b10000011, -83))
    # s ln 2 within 2**-20 ulp of a 7-bit and a 53-bit midpoint: ln 2 needs
    # more than 20 guard bits
    @example(v=(1, -36379))
    @example(v=(1, -21741))
    def test_log_view_is_a_context_log(self, dps, v):
        """The double of mpmath's log at dps digits, correctly rounded."""
        prec = libmp.dps_to_prec(dps)
        assert _log_float(v, prec) == rounded_log(v, prec)

    @pytest.mark.parametrize("dps, v", [(1, (1, -108583)), (15, (27, -850)), (1, ((1 << 30) + 1, -32))])
    def test_log_view_is_correctly_rounded_where_mpf_log_is_not(self, dps, v):
        """mpf_log at dps digits (mpmath 1.3) rounds the first two wrongly,
        as they lie about 2**-22 ulp from a rounding midpoint, and takes the
        third, just above 1/4, for a value next to 1. The kernel gives the
        double that a 4,000-bit log rounds to."""
        prec = libmp.dps_to_prec(dps)
        exact = libmp.mpf_log(mpf(v), 4000, RND)
        assert _log_float(v, prec) == libmp.to_float(libmp.mpf_pos(exact, prec, RND), rnd=RND)

    @pytest.mark.parametrize("v", [((1 << 135) + 1, -135), ((1 << 136) - 1, -136), (3, -1), (1, -(2**1100))])
    def test_log_view_sums_one_series_off_a_rounding_point(self, monkeypatch, v):
        """The first width settles the rounding away from a hard case, next
        to 1 too, where the leading zeros of f - 1 widen it: one series for
        f, besides ln 2's."""
        calls = []
        monkeypatch.setattr(markov, "_atanh2", lambda p, q, w: calls.append((p, q)) or _atanh2(p, q, w))
        _log_float(v, _PREC)
        assert len([c for c in calls if c != (1, 3)]) == 1
