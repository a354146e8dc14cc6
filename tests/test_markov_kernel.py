"""The Markov chain's integer kernel against mpmath's own raw operations.

Each kernel operation on nonnegative (mantissa, exponent) pairs must give
the value that ``mpf_mul``, ``mpf_add``, ``mpf_sub`` (as a magnitude) and
``mpf_div`` give at the same precision with round-half-even. Operands are handed to mpmath through
``from_man_exp``, and results are compared as normalized mpf tuples, so two
equal values compare equal however their mantissas are scaled.
"""

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp

from conftest import reference_dot
from qsodyn.markov import _PREC, _add, _div, _dot, _log_float, _matmul, _mul, _pair, _round, _to_float, _unit_sum

RND = libmp.round_nearest
PRECS = [libmp.dps_to_prec(dps) for dps in (15, 40, 60)]  # 53, 136, 203 bits


def mpf(v):
    return libmp.from_man_exp(*v)


def same(got, want):
    assert mpf(got) == want, (mpf(got), want)


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
    def test_log_view_is_a_context_log(self, dps, v):
        ctx = mpmath.MPContext()
        ctx.dps = dps
        assert _log_float(v, libmp.dps_to_prec(dps)) == float(ctx.log(ctx.make_mpf(mpf(v))))
