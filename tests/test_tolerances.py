"""Which side of its boundary each coefficient check falls on.

Every case is the two-state operator with p[1,1,.] = (a, 1-a),
p[1,2,.] = p[2,1,.] = (b, 1-b) and p[2,2,.] = (c, 1-c), moved to just inside
and just outside one boundary; the lopsided one gives p[1,2,1] and p[2,1,1]
apart. make_operator accepts coefficients to within EPS_COEF = 1e-12 and
stores each pair as its average; the vertex spectrum has EPS_EIGEN = 1e-10
and the contraction criteria EPS_CONTRACTION = 1e-12.
The necessary conditions and the uniqueness bounds have no tolerance: they
are decided exactly on the stored doubles, so their cases sit one double
apart, with math.nextafter.
"""

from math import nextafter

import numpy as np
import pytest

from qsodyn.classify import (
    check_necessary_bbistochastic,
    check_uniqueness_conditions,
    classify_vertex_stability,
    strict_contraction_1d,
    strict_contraction_general,
)
from qsodyn.operator import HeredityTensor, TensorError, make_operator, proven_fixed_points


def two_state(a=0.3, b=0.3, c=0.0):
    p = np.array([[[a, 1 - a], [b, 1 - b]], [[b, 1 - b], [c, 1 - c]]])
    return make_operator(HeredityTensor(2, p))


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
    """The one vertex eigenvalue is 2b."""
    assert classify_vertex_stability(two_state(b=0.5 - 2.5e-11)) == "non_hyperbolic"
    assert classify_vertex_stability(two_state(b=0.5 - 1e-10)) == "attracting"


def test_contraction_tolerance():
    """With a = b and c = 0 the modulus is 2b and the two-state criterion
    reads b < 1/2 - EPS_CONTRACTION / 2: both move at the same b."""
    b = 0.5 - 2.5e-13
    edge = strict_contraction_general(two_state(a=b, b=b))
    assert not edge.is_strict and edge.boundary
    assert not strict_contraction_1d(two_state(a=b, b=b))
    b = 0.5 - 1e-12
    assert strict_contraction_general(two_state(a=b, b=b)).is_strict
    assert strict_contraction_1d(two_state(a=b, b=b))
