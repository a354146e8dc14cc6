"""Which side of its boundary each coefficient check falls on.

Most cases are the two-state operator with p[1,1,.] = (a, 1-a),
p[1,2,.] = p[2,1,.] = (b, 1-b) and p[2,2,.] = (c, 1-c), moved to just inside
and just outside one boundary; the lopsided one gives p[1,2,1] and p[2,1,1]
apart. make_operator accepts coefficients to within EPS_COEF = 1e-12 and
stores each pair as its average.
Every verdict on the stored coefficients has no tolerance: the necessary
conditions, the uniqueness bounds, the vertex spectrum and the contraction
criteria are decided exactly on the stored doubles, so their cases sit one
double apart, with math.nextafter. A contraction criterion is computed in
floats and decided again in Fraction where its float lies within
EXACT_WINDOW of 1: the last cases round to the float 1.0 from an exact
value on either side of 1.
"""

from math import nextafter

import numpy as np
import pytest

from conftest import load_fixture, two_state
from qsodyn.classify import (
    check_necessary_bbistochastic,
    check_uniqueness_conditions,
    classify_vertex_stability,
    strict_contraction_1d,
    strict_contraction_2d,
    strict_contraction_general,
)
from qsodyn.operator import HeredityTensor, TensorError, make_operator, proven_fixed_points


def lopsided(row, mirror):
    """two_state with p[1,2,1] = row and p[2,1,1] = mirror given apart, which
    make_operator accepts while they differ by at most EPS_COEF."""
    p = np.array([[[0.3, 0.7], [row, 1 - row]], [[mirror, 1 - mirror], [0.0, 1.0]]])
    return make_operator(HeredityTensor(2, p))


def passed(V, name):
    return {c.name: c.passed for c in check_necessary_bbistochastic(V)}[name]


def test_make_operator_coefficient_tolerance():
    V = two_state(c=-5e-13)
    assert V.tensor.p[1, 1, 0] == 0.0  # clipped onto [0, 1]
    with pytest.raises(TensorError, match=r"outside \[0, 1\]"):
        two_state(c=-2e-12)


def test_uniqueness_bound_tolerance():
    below = nextafter(0.5, 0)
    assert check_uniqueness_conditions(two_state(b=below)).met
    assert check_uniqueness_conditions(two_state(b=0.5)).violations == [(1, 2)]


@pytest.mark.parametrize(
    "name, inside, outside",
    [
        ("half_bound", {"b": 0.5}, {"b": nextafter(0.5, 1)}),
        ("upper_block_zero", {"c": 0.0}, {"c": 5e-324}),
        # 1 - 2^-53 is the double below 1
        ("absorbing_last", {"c": 0.0}, {"c": 2.0**-53}),
        # a + 2b + c against k*n = 2 at k = 1, with b over the half cap so
        # that the order bound does not decide it; a + 2b + c is exact here
        ("cumulative_mass", {"a": 0.75, "b": 0.625}, {"a": nextafter(0.75, 1), "b": 0.625}),
    ],
)
def test_necessary_condition_tolerance(name, inside, outside):
    assert passed(two_state(**inside), name)
    assert not passed(two_state(**outside), name)


@pytest.mark.parametrize("row", [0.5 - 5e-13, 0.5])
def test_lopsided_pair_is_stored_as_its_average(row):
    """p[2,1,1] = 1/2 + 1e-13 and p[1,2,1] = row: within EPS_COEF of each
    other, so make_operator accepts the pair and stores both halves as their
    average, the tensor equal to its transpose to the bit. Every verdict
    follows the average: 1/2 - 2e-13 passes half_bound, the uniqueness
    bounds and the order bound, 1/2 + 5e-14 fails them."""
    mirror = 0.5 + 1e-13
    V = lopsided(row, mirror)
    p = V.tensor.p
    assert p.tobytes() == p.transpose(1, 0, 2).tobytes(order="C")
    mean = 0.5 * (row + mirror)
    assert p[0, 1, 0] == mean and mean != 0.5
    below = mean < 0.5
    half = {c.name: c for c in check_necessary_bbistochastic(V)}["half_bound"]
    assert half.passed is below and half.witness == (None if below else (1, 2, mean))
    assert check_uniqueness_conditions(V).met is below
    assert V.clauses.order_bound is below
    assert (proven_fixed_points(V) is not None) is below


def test_vertex_eigenvalue_tolerance():
    """The one vertex eigenvalue is 2b, an exact double."""
    assert classify_vertex_stability(two_state(b=0.5)) == "non_hyperbolic"
    assert classify_vertex_stability(two_state(b=nextafter(0.5, 0))) == "attracting"
    assert classify_vertex_stability(two_state(b=nextafter(0.5, 1))) == "repelling"


def test_contraction_tolerance():
    """With a = b and c = 0 the modulus is b + (1 - p[1,2,2]) at (1, 2, 2),
    p[1,2,2] being 1 - b rounded, and the two-state criterion reads 2b < 1:
    both are strict one double below 1/2 and not at 1/2. One double below,
    p[1,2,2] rounds to 1/2 and the float modulus to 1.0, so the exact value
    1 - 2^-54 decides."""
    below = two_state(a=nextafter(0.5, 0), b=nextafter(0.5, 0))
    assert strict_contraction_general(below).modulus == 1.0
    assert strict_contraction_general(below).is_strict is True
    assert strict_contraction_1d(below) is True
    edge = two_state(a=0.5, b=0.5)
    assert strict_contraction_general(edge).is_strict is False
    assert strict_contraction_1d(edge) is False


def window_three_state():
    """A structured three-state operator with p[1,3,:] = (3/8, 1/8 - 2^-56,
    1/2): criterion f, 2 p[1,3,1] + 2 p[1,3,2], and the modulus at (1, 3, 3)
    are the largest and round to 1.0 from 1 - 2^-55 and 1 - 2^-56."""
    c = (0.375, 0.125 - 2.0**-56, 0.5)
    rows = {(0, 0): c, (0, 1): (0.1, 0.1, 0.8), (0, 2): c, (1, 1): (0, 0.1, 0.9), (1, 2): (0, 0.1, 0.9)}
    p = np.zeros((3, 3, 3))
    p[2, 2, 2] = 1.0
    for (i, j), row in rows.items():
        p[i, j] = p[j, i] = row
    return make_operator(HeredityTensor(3, p))


def test_contraction_is_decided_in_fraction_within_the_window():
    """Each float criterion here is 1.0, which a float rule reads as not
    strict; the exact value decides. Below 1: a two-state operator with
    p[1,1,1] - p[1,2,1] = 1/2 - 2^-55, which rounds to 1/2, and the
    three-state one above. Above 1: uniqueness_sufficiency_gap, whose
    modulus is 1 + 2^-54 and whose closed-form maximum is 1 + 2^-53."""
    V = two_state(a=0.625, b=0.125 + 2.0**-55)
    assert 2 * abs(V.tensor.p[0, 0, 0] - V.tensor.p[0, 1, 0]) == 1.0
    assert strict_contraction_1d(V) is True
    general = strict_contraction_general(V)
    assert (general.modulus, general.is_strict) == (1.0, True)
    V = window_three_state()
    general, closed = strict_contraction_general(V), strict_contraction_2d(V)
    assert (general.modulus, general.argmax_triple, general.is_strict) == (1.0, (1, 3, 3), True)
    assert (closed.max_quantity, closed.which, closed.is_strict) == (1.0, "f", True)
    V = load_fixture("uniqueness_sufficiency_gap").build()
    general, closed = strict_contraction_general(V), strict_contraction_2d(V)
    assert (general.modulus, general.is_strict) == (1.0, False)
    assert (closed.max_quantity, closed.is_strict) == (1.0, False)


def test_every_triple_within_the_window_is_decided():
    """Four triples tie at the float 1.0. The first, (1, 2, 1), is
    1 - 2^-54 exactly, but (1, 2, 3), (1, 3, 3) and (2, 3, 1) are
    1 + 2^-54: reading the first largest triple alone would call the
    operator strict."""
    near_half = 0.5 - 2.0**-54
    p = np.empty((3, 3, 3))
    p[:] = (0.0, 1.0, 0.0)
    p[0, 0] = (near_half, 0.5, 0.0)
    p[0, 2] = p[2, 0] = (near_half, 0.5, 2.0**-53)
    res = strict_contraction_general(make_operator(HeredityTensor(3, p)))
    assert (res.modulus, res.argmax_triple, res.is_strict) == (1.0, (1, 2, 1), False)
