"""Tests for the analytic Gaussian mechanism and its calibrations."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp.gaussian import (
    CALIBRATION_MEMO_SIZE,
    GaussianMechanism,
    analytic_gaussian_sigma,
    classical_gaussian_sigma,
    gaussian_delta,
    minimal_epsilon,
)


class TestGaussianDelta:
    def test_zero_sigma_gives_delta_one(self):
        assert gaussian_delta(1.0, 0.0) == 1.0

    def test_zero_sensitivity_gives_delta_zero(self):
        assert gaussian_delta(1.0, 1.0, sensitivity=0.0) == 0.0

    def test_monotone_decreasing_in_epsilon(self):
        deltas = [gaussian_delta(eps, sigma=2.0) for eps in (0.1, 0.5, 1.0, 2.0)]
        assert deltas == sorted(deltas, reverse=True)

    def test_monotone_decreasing_in_sigma(self):
        deltas = [gaussian_delta(1.0, sigma) for sigma in (0.5, 1.0, 2.0, 4.0)]
        assert deltas == sorted(deltas, reverse=True)

    def test_large_epsilon_does_not_overflow(self):
        assert 0.0 <= gaussian_delta(500.0, 0.01) <= 1.0

    def test_known_direction(self):
        # With sigma from the analytic calibration, delta is achieved exactly.
        sigma = analytic_gaussian_sigma(1.0, 1e-6)
        assert gaussian_delta(1.0, sigma) == pytest.approx(1e-6, rel=1e-4)


class TestAnalyticCalibration:
    @pytest.mark.parametrize("epsilon", [0.05, 0.4, 1.0, 3.2, 6.4, 20.0])
    @pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_calibrated_sigma_achieves_delta(self, epsilon, delta):
        sigma = analytic_gaussian_sigma(epsilon, delta)
        achieved = gaussian_delta(epsilon, sigma)
        assert achieved <= delta * (1 + 1e-6)

    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 5.0])
    def test_calibration_is_tight(self, epsilon):
        # Slightly less noise must violate the delta target.
        delta = 1e-9
        sigma = analytic_gaussian_sigma(epsilon, delta)
        assert gaussian_delta(epsilon, sigma * 0.99) > delta

    def test_sensitivity_scales_sigma_linearly(self):
        base = analytic_gaussian_sigma(1.0, 1e-9, sensitivity=1.0)
        scaled = analytic_gaussian_sigma(1.0, 1e-9, sensitivity=3.0)
        assert scaled == pytest.approx(3.0 * base, rel=1e-9)

    def test_sigma_decreases_with_epsilon(self):
        sigmas = [analytic_gaussian_sigma(eps, 1e-9)
                  for eps in (0.4, 0.8, 1.6, 3.2, 6.4)]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_sigma_decreases_with_delta(self):
        sigmas = [analytic_gaussian_sigma(1.0, d)
                  for d in (1e-12, 1e-9, 1e-6, 1e-3)]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_beats_classical_calibration(self):
        # Balle-Wang dominates the classical calibration where it is valid.
        for eps in (0.2, 0.5, 0.9):
            assert (analytic_gaussian_sigma(eps, 1e-6)
                    < classical_gaussian_sigma(eps, 1e-6))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_bad_epsilon(self, bad):
        with pytest.raises(ValueError):
            analytic_gaussian_sigma(bad, 1e-9)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.1])
    def test_rejects_bad_delta(self, bad):
        with pytest.raises(ValueError):
            analytic_gaussian_sigma(1.0, bad)

    def test_rejects_bad_sensitivity(self):
        with pytest.raises(ValueError):
            analytic_gaussian_sigma(1.0, 1e-9, sensitivity=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        epsilon=st.floats(min_value=0.01, max_value=30.0),
        delta=st.floats(min_value=1e-12, max_value=0.4),
    )
    def test_property_calibration_satisfies_condition(self, epsilon, delta):
        sigma = analytic_gaussian_sigma(epsilon, delta)
        assert gaussian_delta(epsilon, sigma) <= delta * (1 + 1e-6)


class TestMinimalEpsilon:
    def test_round_trips_calibration(self):
        for eps in (0.4, 1.6, 6.4):
            sigma = analytic_gaussian_sigma(eps, 1e-9)
            recovered = minimal_epsilon(sigma, 1e-9, precision=1e-9)
            assert recovered == pytest.approx(eps, abs=1e-6)

    def test_result_satisfies_condition(self):
        eps = minimal_epsilon(5.0, 1e-9)
        assert gaussian_delta(eps, 5.0) <= 1e-9

    def test_result_is_minimal_within_precision(self):
        precision = 1e-6
        eps = minimal_epsilon(5.0, 1e-9, precision=precision)
        assert gaussian_delta(eps - 2 * precision, 5.0) > 1e-9

    def test_smaller_sigma_needs_larger_epsilon(self):
        eps_values = [minimal_epsilon(s, 1e-9) for s in (20.0, 10.0, 5.0, 2.0)]
        assert eps_values == sorted(eps_values)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            minimal_epsilon(1e-12, 1e-9, upper=1.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            minimal_epsilon(0.0, 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(sigma=st.floats(min_value=0.5, max_value=100.0))
    def test_property_inverse_consistency(self, sigma):
        eps = minimal_epsilon(sigma, 1e-9, precision=1e-8)
        # Recalibrating at the found epsilon cannot need more noise.
        assert analytic_gaussian_sigma(eps, 1e-9) <= sigma * (1 + 1e-5)


class TestGaussianMechanism:
    def test_release_shape_and_bias(self, rng):
        mech = GaussianMechanism(epsilon=2.0, delta=1e-9)
        values = np.arange(2000, dtype=float)
        noisy = mech.release(values, rng)
        assert noisy.shape == values.shape
        residual = noisy - values
        assert abs(residual.mean()) < mech.sigma * 5 / math.sqrt(values.size)

    def test_empirical_variance_matches_sigma(self, rng):
        mech = GaussianMechanism(epsilon=1.0, delta=1e-6)
        noise = mech.release(np.zeros(50000), rng)
        assert noise.std() == pytest.approx(mech.sigma, rel=0.05)

    def test_variance_property(self):
        mech = GaussianMechanism(epsilon=1.0, delta=1e-9)
        assert mech.variance == pytest.approx(mech.sigma ** 2)

    def test_classical_flag(self):
        analytic = GaussianMechanism(1.0, 1e-6, analytic=True)
        classical = GaussianMechanism(1.0, 1e-6, analytic=False)
        assert analytic.sigma < classical.sigma


class TestCalibrationMemo:
    """Both directions are memoised on their exact arguments: a hit is the
    float the reference search (``__wrapped__``) returns, errors are never
    stored, and the memo is bounded.  Counts and equalities only."""

    @settings(max_examples=40, deadline=None)
    @given(
        sigma=st.floats(min_value=0.05, max_value=500.0),
        delta=st.floats(min_value=1e-12, max_value=0.4),
        sensitivity=st.floats(min_value=0.1, max_value=20.0),
        upper=st.floats(min_value=0.5, max_value=200.0),
        precision=st.floats(min_value=1e-9, max_value=1e-3),
    )
    def test_minimal_epsilon_equals_reference_cold_and_warm(
            self, sigma, delta, sensitivity, upper, precision):
        args = (sigma, delta, sensitivity, upper, precision)
        try:
            expected = minimal_epsilon.__wrapped__(*args)
        except ValueError as exc:  # infeasible under this ``upper``
            for _ in range(2):
                with pytest.raises(ValueError, match="cannot satisfy") as hit:
                    minimal_epsilon(*args)
                assert str(hit.value) == str(exc)
            return
        minimal_epsilon.cache_clear()
        assert minimal_epsilon(*args) == expected                  # cold
        hits = minimal_epsilon.cache_info().hits
        assert minimal_epsilon(*args) == expected                  # warm
        assert minimal_epsilon.cache_info().hits == hits + 1

    @settings(max_examples=40, deadline=None)
    @given(
        epsilon=st.floats(min_value=0.01, max_value=30.0),
        delta=st.floats(min_value=1e-12, max_value=0.4),
        sensitivity=st.floats(min_value=0.1, max_value=20.0),
    )
    def test_sigma_equals_reference_cold_and_warm(self, epsilon, delta,
                                                  sensitivity):
        args = (epsilon, delta, sensitivity)
        expected = analytic_gaussian_sigma.__wrapped__(*args)
        analytic_gaussian_sigma.cache_clear()
        assert analytic_gaussian_sigma(*args) == expected          # cold
        hits = analytic_gaussian_sigma.cache_info().hits
        assert analytic_gaussian_sigma(*args) == expected          # warm
        assert analytic_gaussian_sigma.cache_info().hits == hits + 1

    def test_errors_are_not_cached(self):
        minimal_epsilon.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match="cannot satisfy"):
                minimal_epsilon(1e-12, 1e-9, 1.0, 1.0, 1e-6)
        info = minimal_epsilon.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(5))
    def test_minimal_epsilon_rejects_non_finite(self, bad, position):
        args = [5.0, 1e-9, 1.0, 100.0, 1e-6]
        args[position] = bad
        minimal_epsilon.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError):
                minimal_epsilon(*args)
        assert minimal_epsilon.cache_info().currsize == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_sigma_rejects_non_finite(self, bad, position):
        args = [1.0, 1e-9, 1.0, 1e-12]
        args[position] = bad
        analytic_gaussian_sigma.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError):
                analytic_gaussian_sigma(*args)
        assert analytic_gaussian_sigma.cache_info().currsize == 0

    def test_flood_of_distinct_arguments_stays_bounded(self):
        """10k never-repeating accuracies (hostile input) cannot grow the
        memo past its bound."""
        minimal_epsilon.cache_clear()
        for i in range(10_000):
            minimal_epsilon(1.0 + i, 1e-9, 1.0, 100.0, 1e-3)
        info = minimal_epsilon.cache_info()
        assert info.maxsize == CALIBRATION_MEMO_SIZE
        assert info.currsize == CALIBRATION_MEMO_SIZE
        assert (info.hits, info.misses) == (0, 10_000)

    def test_threads_across_the_bound_return_only_reference_floats(self):
        """8 threads, each alternating a shared hot set (hits) with its own
        never-repeating tail (misses; together more than the bound, so
        entries are evicted under the readers): every returned float
        equals the reference search's."""
        import sys
        import threading

        tail = CALIBRATION_MEMO_SIZE // 8 + 64
        hot = [2.0 + i for i in range(8)]
        results: list[list[tuple[float, float]]] = [[] for _ in range(8)]

        def worker(index: int) -> None:
            out = results[index]
            for step in range(tail):
                for sigma in (hot[(step + index) % len(hot)],
                              50.0 + index * tail + step):
                    out.append((sigma, minimal_epsilon(sigma, 1e-9, 1.0,
                                                       100.0, 1e-6)))

        minimal_epsilon.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        info = minimal_epsilon.cache_info()
        assert info.currsize == CALIBRATION_MEMO_SIZE
        assert info.misses >= 8 * tail and info.hits > 0
        reference = minimal_epsilon.__wrapped__
        for out in results:
            assert len(out) == 2 * tail
            for sigma, got in out:
                assert got == reference(sigma, 1e-9, 1.0, 100.0, 1e-6)
