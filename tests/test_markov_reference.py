"""The Markov kernel against the per-entry reference in conftest.

The reference computes the trajectory by the quadratic map, each one-step
matrix entry, each matrix product and each chain factor in its own mpmath
loop, as ``TransitionFamily`` did before it became one object-array kernel.
Every float view, the log view of the one-step matrices, and each
trajectory coordinate (read as the measure of a one-state cylinder) is
required equal to the reference's to the bit.
"""

import numpy as np
import pytest
from mpmath import libmp

from conftest import load_fixture, reference_markov
from qsodyn.abscont import va_operator
from qsodyn.generate import random_structured_tensors
from qsodyn.markov import (
    _PREC,
    CylinderSet,
    TransitionFamily,
    cylinder_measure,
    mixing_series,
)
from qsodyn.simplex import make_point, vertex

HORIZON = 30


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


def cylinders(n):
    return [CylinderSet(0, (i,)) for i in range(1, n + 1)] + [
        CylinderSet(0, (1, n)),
        CylinderSet(0, (n, 1)),
        CylinderSet(3, (1, n, 1, n)),
        CylinderSet(5, (1, 1, 1)),
        CylinderSet(20, (n, n, 1)),
    ]


def mixing_pairs(n):
    return [
        (CylinderSet(0, (1,)), CylinderSet(0, (n,))),
        (CylinderSet(1, (n, 1)), CylinderSet(0, (1, n))),
        (CylinderSet(2, (1, n, 1)), CylinderSet(4, (n,))),
    ]


def assert_kernel_matches_reference(V, x):
    fam = TransitionFamily(V, x)
    ref = reference_markov(V, x)
    n = V.n
    for k in range(HORIZON + 1):
        # a one-state cylinder at time k weighs the trajectory's coordinate
        point = [cylinder_measure(fam, CylinderSet(k, (i,))) for i in range(1, n + 1)]
        assert_same_bits(point, ref.trajectory_point(k))
    for k in range(HORIZON):
        assert_same_bits(fam.transition_matrix(k), ref.transition_matrix(k))
        assert_same_bits(fam.transition_matrix_log(k), ref.transition_matrix(k, log=True))
    for k, m in ((0, 1), (0, 7), (0, HORIZON), (1, 9), (3, 17), (4, HORIZON),
                 (12, HORIZON), (HORIZON - 1, HORIZON)):
        assert_same_bits(fam.compose_transitions(k, m), ref.compose_transitions(k, m))
    for c in cylinders(n):
        assert_same_bits(cylinder_measure(fam, c), ref.cylinder_measure(c))
    for A, B in mixing_pairs(n):
        series = mixing_series(fam, A, B, HORIZON)
        m_min = max(1, A.end - B.start + 1)
        assert [m for m, _, _ in series.terms] == list(range(m_min, HORIZON + 1))
        for m, tau, bound in series.terms:
            assert_same_bits((tau, bound), ref.mixing_gap(A, B, m))


FIXTURE_STARTS = {
    "va_a0": [(0.5, 0.5), (0.9, 0.1), (1.0, 0.0)],
    "va_a05": [(0.5, 0.5), (0.9, 0.1), (0.0, 1.0)],
    "va_a23": [(0.9, 0.1), (0.3, 0.7), (1.0, 0.0)],
    "attracting_not_unique": [(0.2, 0.3, 0.5), (0.6, 0.3, 0.1)],
    "uniqueness_sufficiency_gap": [(0.2, 0.3, 0.5), (0.0, 0.0, 1.0)],
    "unique_not_contractive_s2": [(0.2, 0.3, 0.5), (1.0, 0.0, 0.0)],
}


@pytest.mark.parametrize("name", sorted(FIXTURE_STARTS))
def test_fixtures_match_reference(name):
    V = load_fixture(name).build()
    for x in FIXTURE_STARTS[name]:
        assert_kernel_matches_reference(V, make_point(x))


@pytest.mark.parametrize("a", [0.0, 0.5, 2.0 / 3.0, 0.9, 1.0])
def test_two_state_family_matches_reference(a):
    assert_kernel_matches_reference(va_operator(a), make_point([0.9, 0.1]))


@pytest.mark.parametrize("n, count", [(2, 4), (3, 4), (4, 2), (6, 1)])
def test_seeded_operators_match_reference(n, count):
    rng = np.random.default_rng(500 + n)
    for V in random_structured_tensors(n, count, seed=80 + n):
        assert_kernel_matches_reference(V, make_point(rng.dirichlet(np.ones(n))))
    assert_kernel_matches_reference(V, vertex(n, 1))


def test_six_states_at_the_benchmark_horizon_match_reference():
    """One n = 6 family to horizon 40, the chains benchmark's horizon. Up
    to horizon 30 none of its dot products meets a term more than 100
    binary orders below the running sum, the sticky branch; to 40, 112 do.
    The stored products are compared at the working precision as well as
    through the float view."""
    horizon = 40
    V = random_structured_tensors(6, 1, seed=604)[0]
    x = make_point(np.random.default_rng(604).dirichlet(np.ones(6)))
    fam = TransitionFamily(V, x)
    ref = reference_markov(V, x)
    for k in (0, 17):
        assert_same_bits(fam.compose_transitions(k, horizon), ref.compose_transitions(k, horizon))
        got = [[libmp.from_man_exp(*v, _PREC) for v in row] for row in fam._product(k, horizon)]
        assert got == [[v._mpf_ for v in row] for row in ref._compose(k, horizon)]
    A, B = CylinderSet(0, (1,)), CylinderSet(0, (6,))
    series = mixing_series(fam, A, B, horizon)
    assert [m for m, _, _ in series.terms] == list(range(1, horizon + 1))
    for m, tau, bound in series.terms:
        assert_same_bits((tau, bound), ref.mixing_gap(A, B, m))


def order_queries(n):
    """Queries that share running products, each with its reference value."""
    A, B = CylinderSet(0, (1,)), CylinderSet(0, (n,))
    window = (0, 7), (0, HORIZON), (12, 20), (12, HORIZON)
    queries = {
        "mixing": (
            lambda f: mixing_series(f, A, B, HORIZON).terms,
            lambda r: [(m, *r.mixing_gap(A, B, m)) for m in range(1, HORIZON + 1)],
        ),
        "compose_mid": (
            lambda f: [f.compose_transitions(0, 20), f.compose_transitions(12, 25)],
            lambda r: [r.compose_transitions(0, 20), r.compose_transitions(12, 25)],
        ),
    }
    for k, m in window:
        queries[f"compose_{k}_{m}"] = (
            lambda f, k=k, m=m: f.compose_transitions(k, m),
            lambda r, k=k, m=m: r.compose_transitions(k, m),
        )
    return queries


QUERY_ORDERS = {
    "mixing_first": ("mixing", "compose_0_7", "compose_0_30", "compose_mid", "compose_12_20", "compose_12_30"),
    "short_first": ("compose_0_7", "compose_12_20", "compose_mid", "compose_0_30", "compose_12_30", "mixing"),
    "long_first": ("compose_0_30", "compose_12_30", "mixing", "compose_0_7", "compose_12_20", "compose_mid"),
    "late_start_first": ("compose_12_30", "compose_12_20", "compose_mid", "compose_0_30", "mixing", "compose_0_7"),
}


ORDER_CASES = {
    "attracting_not_unique": (lambda: load_fixture("attracting_not_unique").build(), (0.2, 0.3, 0.5)),
    "va_a23": (lambda: va_operator(2.0 / 3.0), (0.9, 0.1)),
    "random_n4": (lambda: random_structured_tensors(4, 1, seed=91)[0], (0.1, 0.2, 0.3, 0.4)),
}


@pytest.mark.parametrize("order", sorted(QUERY_ORDERS))
@pytest.mark.parametrize("case", sorted(ORDER_CASES))
def test_query_order_does_not_change_bits(case, order):
    """Products stored by one query and read by the next give the bits that
    a fresh reference computes, whatever the order of the queries."""
    build, x = ORDER_CASES[case]
    V = build()
    fam = TransitionFamily(V, make_point(x))
    ref = reference_markov(V, make_point(x))
    queries = order_queries(V.n)
    for key in QUERY_ORDERS[order]:
        got, want = queries[key]
        assert_same_bits(got(fam), want(ref))


def test_returned_composition_is_a_copy():
    V, x = va_operator(0.5), make_point([0.9, 0.1])
    fam = TransitionFamily(V, x)
    ref = reference_markov(V, x)
    first = fam.compose_transitions(0, HORIZON)
    first[:] = 0.5
    assert_same_bits(fam.compose_transitions(0, HORIZON), ref.compose_transitions(0, HORIZON))
    A, B = CylinderSet(0, (1,)), CylinderSet(0, (2,))
    for m, tau, bound in mixing_series(fam, A, B, HORIZON).terms:
        assert_same_bits((tau, bound), ref.mixing_gap(A, B, m))
