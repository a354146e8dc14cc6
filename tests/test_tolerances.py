"""Which side of its fixed tolerance each coefficient check falls on.

Every case is the two-state operator with p[1,1,.] = (a, 1-a),
p[1,2,.] = p[2,1,.] = (b, 1-b) and p[2,2,.] = (c, 1-c), moved to just
inside and just outside one tolerance: EPS_COEF = 1e-12 for make_operator,
the necessary conditions and the uniqueness bounds, EPS_EIGEN = 1e-10 for
the vertex spectrum, and EPS_CONTRACTION = 1e-12 for the contraction
criteria.
"""

import numpy as np
import pytest

from qsodyn.classify import (
    check_necessary_bbistochastic,
    check_uniqueness_conditions,
    classify_vertex_stability,
    strict_contraction_1d,
    strict_contraction_general,
)
from qsodyn.operator import HeredityTensor, TensorError, make_operator


def two_state(a=0.3, b=0.3, c=0.0):
    p = np.array([[[a, 1 - a], [b, 1 - b]], [[b, 1 - b], [c, 1 - c]]])
    return make_operator(HeredityTensor(2, p))


def test_make_operator_coefficient_tolerance():
    V = two_state(c=-5e-13)
    assert V.tensor.p[1, 1, 0] == 0.0  # clipped onto [0, 1]
    with pytest.raises(TensorError, match=r"outside \[0, 1\]"):
        two_state(c=-2e-12)


def test_uniqueness_bound_tolerance():
    assert check_uniqueness_conditions(two_state(b=0.5 - 5e-13)).violations == [(1, 2)]
    assert check_uniqueness_conditions(two_state(b=0.5 - 2e-12)).met


@pytest.mark.parametrize(
    "name, inside, outside",
    [
        ("half_bound", {"b": 0.5 + 5e-13}, {"b": 0.5 + 2e-12}),
        ("upper_block_zero", {"c": 5e-13}, {"c": 2e-12}),
        ("absorbing_last", {"c": 5e-13}, {"c": 2e-12}),
    ],
)
def test_necessary_condition_tolerance(name, inside, outside):
    def passed(V):
        return {c.name: c.passed for c in check_necessary_bbistochastic(V)}[name]

    assert passed(two_state(**inside))
    assert not passed(two_state(**outside))


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
