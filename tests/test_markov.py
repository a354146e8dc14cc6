import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest

from qsodyn.abscont import va_operator
from qsodyn.generate import random_structured_tensors
from qsodyn.markov import (
    CylinderSet,
    TransitionFamily,
    cylinder_measure,
    cylinder_measure_log,
    mixing_gap,
    mixing_series,
    mixing_series_csv,
    probabilities_close,
    shift_cylinder,
    two_point_measure,
)
from qsodyn.simplex import make_point, sample_simplex


@pytest.fixture
def half_family():
    return TransitionFamily(va_operator(0.5), make_point([0.5, 0.5]))


class TestTransitionMatrices:
    def test_hand_values(self, half_family):
        H0 = half_family.transition_matrix(0)
        assert np.allclose(H0, [[0.25, 0.75], [0.0, 1.0]], atol=1e-15)
        H1 = half_family.transition_matrix(1)
        assert H1[0, 0] == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_row_stochastic(self):
        for V in random_structured_tensors(4, 5, seed=70):
            fam = TransitionFamily(V, make_point([0.4, 0.3, 0.2, 0.1]))
            for k in range(16):
                H = fam.transition_matrix(k)
                assert (H >= 0).all()
                assert np.allclose(H.sum(axis=1), 1.0, atol=1e-12)

    def test_composition_closed_form(self, half_family):
        comp = half_family.compose_transitions(0, 2)
        assert comp[0, 0] == pytest.approx(0.25**3, abs=1e-15)
        assert np.allclose(comp.sum(axis=1), 1.0, atol=1e-14)

    def test_single_factor(self, half_family):
        assert np.allclose(
            half_family.compose_transitions(3, 4), half_family.transition_matrix(3)
        )

    def test_chapman_kolmogorov(self):
        for V in random_structured_tensors(3, 5, seed=71):
            fam = TransitionFamily(V, make_point([0.5, 0.3, 0.2]))
            full = fam.compose_transitions(0, 15)
            for j in (1, 7, 14):
                split = fam.compose_transitions(0, j) @ fam.compose_transitions(j, 15)
                assert np.abs(full - split).max() <= 1e-13

    def test_invalid_window(self, half_family):
        with pytest.raises(ValueError):
            half_family.compose_transitions(3, 3)

    @pytest.mark.parametrize("view", ["trajectory_point", "trajectory_point_log"])
    def test_negative_time_rejected(self, half_family, view):
        half_family.extend(5)
        with pytest.raises(ValueError):
            getattr(half_family, view)(-1)

    def test_log_view_beyond_underflow(self):
        fam = TransitionFamily(va_operator(0.9), make_point([0.9, 0.1]))
        logs = fam.transition_matrix_log(20)
        # H_11 at time k is (a*x1)^(2^k); its log stays finite long after
        # the linear value underflows to 0
        assert logs[0, 0] == pytest.approx(2**20 * math.log(0.81), rel=1e-12)
        assert fam.transition_matrix(20)[0, 0] == 0.0


class TestCylinderMeasures:
    def test_hand_value(self, half_family):
        assert cylinder_measure(half_family, CylinderSet(0, (1, 1))) == pytest.approx(
            0.125, abs=1e-15
        )

    def test_singleton(self, half_family):
        assert cylinder_measure(half_family, CylinderSet(0, (2,))) == pytest.approx(0.5)

    def test_absorbing_escape_impossible(self, half_family):
        for k in range(5):
            assert cylinder_measure(half_family, CylinderSet(k, (2, 1))) == 0.0

    def test_total_mass(self):
        for V in random_structured_tensors(3, 3, seed=72):
            fam = TransitionFamily(V, make_point([0.5, 0.3, 0.2]))
            total = sum(
                cylinder_measure(fam, CylinderSet(0, seq))
                for seq in itertools.product((1, 2, 3), repeat=4)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_kolmogorov_consistency(self):
        for V in random_structured_tensors(4, 3, seed=73):
            fam = TransitionFamily(V, make_point([0.4, 0.3, 0.2, 0.1]))
            for seq in itertools.product((1, 2, 3, 4), repeat=3):
                short = cylinder_measure(fam, CylinderSet(2, seq))
                extended = sum(
                    cylinder_measure(fam, CylinderSet(2, seq + (s,))) for s in (1, 2, 3, 4)
                )
                assert abs(short - extended) <= 1e-13

    def test_state_out_of_range(self, half_family):
        with pytest.raises(ValueError):
            cylinder_measure(half_family, CylinderSet(0, (3,)))

    def test_log_measure(self, half_family):
        c = CylinderSet(0, (1, 1, 1))
        lin = cylinder_measure(half_family, c)
        assert cylinder_measure_log(half_family, c) == pytest.approx(math.log(lin))


class TestTwoPointMeasure:
    def test_consistency_with_marginal(self, half_family):
        for i in (1, 2):
            total = sum(two_point_measure(half_family, 1, i, 5, j) for j in (1, 2))
            assert total == pytest.approx(half_family.trajectory_point(1)[i - 1], abs=1e-14)

    def test_absorbing_zero(self, half_family):
        assert two_point_measure(half_family, 0, 2, 4, 1) == 0.0

    def test_single_step_matches_cylinder(self, half_family):
        assert two_point_measure(half_family, 2, 1, 3, 2) == pytest.approx(
            cylinder_measure(half_family, CylinderSet(2, (1, 2)))
        )

    def test_window_order_enforced(self, half_family):
        with pytest.raises(ValueError):
            two_point_measure(half_family, 3, 1, 3, 1)

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (3, 1), (1, 3)])
    def test_state_out_of_range(self, half_family, i, j):
        with pytest.raises(ValueError):
            two_point_measure(half_family, 0, i, 3, j)


class TestShift:
    def test_shift_moves_window(self):
        c = CylinderSet(0, (1, 2))
        s = shift_cylinder(c, 3)
        assert s.start == 3 and s.states == (1, 2)

    def test_zero_shift_identity(self):
        c = CylinderSet(2, (1,))
        assert shift_cylinder(c, 0) == c


class TestMixing:
    def test_gap_dominated_by_bound(self, half_family):
        A = CylinderSet(0, (1,))
        B = CylinderSet(0, (1,))
        for m in range(1, 10):
            tau, bound = mixing_gap(half_family, A, B, m)
            assert tau <= bound + 1e-12

    def test_overlap_rejected(self, half_family):
        with pytest.raises(ValueError):
            mixing_gap(half_family, CylinderSet(0, (1, 1)), CylinderSet(0, (1,)), 1)

    def test_zero_prefix_measure(self):
        fam = TransitionFamily(va_operator(0.5), make_point([0.0, 1.0]))
        tau, _ = mixing_gap(fam, CylinderSet(0, (1,)), CylinderSet(0, (1,)), 3)
        assert tau == 0.0

    def test_series_decays(self, half_family):
        series = mixing_series(half_family, CylinderSet(0, (1,)), CylinderSet(0, (1,)), 8)
        assert series.numerically_mixing
        taus = [t for _, t, _ in series.terms]
        assert taus[-1] < taus[0]
        assert taus[-1] < 1e-10

    def test_gap_decays_past_double_rounding(self):
        """The start point and the matrix rows sum to 1 in the working
        precision, so the gap is not held near 2.5e-17 by float rounding."""
        fam = TransitionFamily(va_operator(2.0 / 3.0), make_point([0.9, 0.1]))
        series = mixing_series(fam, CylinderSet(0, (1,)), CylinderSet(0, (2,)), 12)
        tail = [tau for m, tau, _ in series.terms if m >= 8]
        assert len(tail) == 5
        assert all(tau < 1e-39 for tau in tail)

    def test_series_skips_overlapping_shifts(self, half_family):
        series = mixing_series(half_family, CylinderSet(0, (1, 1, 1)), CylinderSet(0, (1,)), 8)
        assert series.terms[0][0] == 3

    def test_csv_format(self, half_family):
        series = mixing_series(half_family, CylinderSet(0, (1,)), CylinderSet(0, (1,)), 4)
        lines = mixing_series_csv(series).strip().splitlines()
        assert lines[0] == "m,tau_m,bound_m"
        assert len(lines) == 5


class TestProbabilitiesClose:
    def test_linear_domain(self):
        assert probabilities_close(0.5, math.log(0.5), 0.5 + 1e-13, math.log(0.5 + 1e-13))
        assert not probabilities_close(0.5, math.log(0.5), 0.6, math.log(0.6))

    def test_log_domain(self):
        assert probabilities_close(0.0, -1e6, 0.0, -1e6 * (1 + 1e-13))
        assert not probabilities_close(0.0, -1e6, 0.0, -2e6)

    def test_exact_zero(self):
        assert probabilities_close(0.0, float("-inf"), 0.0, float("-inf"))
        assert not probabilities_close(0.0, float("-inf"), 0.0, -1e6)


def run_threaded(jobs):
    """Each job in its own thread, started together at a 10 us switch
    interval; a job's exception is its result."""
    barrier = threading.Barrier(len(jobs))
    results = [None] * len(jobs)

    def run(idx, job):
        barrier.wait()
        try:
            results[idx] = job()
        except Exception as exc:
            results[idx] = exc

    threads = [threading.Thread(target=run, args=(i, job)) for i, job in enumerate(jobs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def float_bits(result):
    """The bytes of a view's doubles; anything else, an exception included,
    as itself."""
    try:
        return np.asarray(result, dtype=float).tobytes()
    except (TypeError, ValueError):
        return result


def test_thread_safe_extension():
    """Threads extending one family, threads running families at three
    precisions next to the likelihood-ratio series, and threads reading
    running products of one shared family each get exactly their serial
    result: no thread changes another's working precision, and no product
    is read before it is stored or stored twice."""
    from qsodyn.abscont import VaParams, rn_series

    fam = TransitionFamily(va_operator(0.5), make_point([0.5, 0.5]))
    results = run_threaded([lambda: [fam.transition_matrix(k) for k in range(30)]] * 4)
    assert not any(isinstance(r, Exception) for r in results)

    V = random_structured_tensors(3, 1, seed=74)[0]
    x = make_point([0.5, 0.3, 0.2])
    A, B = CylinderSet(0, (1,)), CylinderSet(1, (3, 2))
    num, den = VaParams.of(0.5, 0.3), VaParams.of(0.5, 0.6)
    jobs = [
        lambda dps=dps: mixing_series(TransitionFamily(V, x, dps=dps), A, B, 30).terms
        for dps in (15, 40, 60)
    ] + [lambda: rn_series(num, den, 40).terms]
    serial = [job() for job in jobs]
    assert run_threaded(jobs * 3) == serial * 3

    def walk(k, delay):
        """Every composition from k in turn, started late enough to run
        into a chain that another thread is still extending."""

        def job(f):
            time.sleep(delay)
            return [f.compose_transitions(k, m) for m in range(k + 1, 31)]

        return job

    calls = [
        lambda f: f.compose_transitions(0, 30),
        lambda f: f.compose_transitions(0, 9),
        lambda f: f.compose_transitions_log(0, 24),
        lambda f: f.compose_transitions(6, 30),
        lambda f: f.compose_transitions(6, 11),
        lambda f: two_point_measure(f, 0, 1, 27, 3),
        lambda f: two_point_measure(f, 6, 2, 20, 1),
        lambda f: mixing_series(f, CylinderSet(0, (1,)), CylinderSet(0, (3,)), 30).terms,
        lambda f: mixing_series(f, CylinderSet(5, (2, 1)), CylinderSet(0, (1,)), 30).terms,
        *(walk(0, delay) for delay in (0, 3e-4, 1e-3, 3e-3)),
        *(walk(6, delay) for delay in (0, 1e-3)),
    ]
    serial = [float_bits(call(TransitionFamily(V, x))) for call in calls]
    for _ in range(20):
        shared = TransitionFamily(V, x)
        results = run_threaded([lambda call=call: call(shared) for call in calls * 2])
        assert [float_bits(r) for r in results] == serial * 2
