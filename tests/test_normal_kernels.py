"""The standard-library normal kernels against scipy, the tests' oracle.

``repro.dp.gaussian.ndtr`` / ``log_ndtr`` and the confidence-interval
``inv_cdf`` replace ``scipy.special.ndtr`` / ``log_ndtr`` / ``ndtri`` in the
program; scipy stays a test dependency only.  The kernels must agree with it
to 1e-12 relative over every argument the calibration searches visit, and
so must both searches built on them.  A subprocess checks that importing the
program loads neither scipy nor networkx.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.core.accuracy import ConfidenceInterval
from repro.dp import gaussian
from repro.dp.gaussian import (
    analytic_gaussian_sigma,
    log_ndtr,
    minimal_epsilon,
    ndtr,
)

RELATIVE = 1e-12
SRC = Path(__file__).resolve().parent.parent / "src"


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= RELATIVE * abs(expected)


# -- kernels -------------------------------------------------------------------
#: ``Phi(x)`` is a normal float on [-37, 37]; ``log Phi`` is finite far
#: below, where the searches' ``b = -Δ/2σ - εσ/Δ`` lands for large ε·σ.
CDF_GRID = np.concatenate([np.linspace(-37.0, 37.0, 7401), [0.0, -0.0]])
LOG_GRID = np.concatenate([CDF_GRID, -np.geomspace(37.0, 1e6, 400),
                           [-35.999, -36.0, -36.001, -1.0, -0.999]])


class TestKernelsAgainstScipy:
    def test_ndtr_on_grid(self):
        bad = [x for x in CDF_GRID
               if not _close(ndtr(float(x)), float(special.ndtr(x)))]
        assert bad == []

    def test_log_ndtr_on_grid(self):
        bad = [x for x in LOG_GRID
               if not _close(log_ndtr(float(x)), float(special.log_ndtr(x)))]
        assert bad == []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.floats(-37.0, 37.0))
    def test_ndtr_on_draws(self, x):
        assert _close(ndtr(x), float(special.ndtr(x)))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.floats(-1e6, 37.0))
    def test_log_ndtr_on_draws(self, x):
        assert _close(log_ndtr(x), float(special.log_ndtr(x)))

    def test_tails_and_non_finite(self):
        assert ndtr(math.inf) == 1.0 and ndtr(-math.inf) == 0.0
        assert log_ndtr(math.inf) == 0.0
        assert log_ndtr(-math.inf) == -math.inf
        assert math.isnan(ndtr(math.nan)) and math.isnan(log_ndtr(math.nan))

    def test_z_score_is_ndtri(self):
        confidences = np.concatenate([np.linspace(1e-6, 0.999999, 999),
                                      [0.9, 0.95, 0.99, 1 - 1e-12]])
        for confidence in confidences:
            expected = float(special.ndtri((1.0 + confidence) / 2.0))
            z = ConfidenceInterval(1.0, float(confidence)).z_score
            assert abs(z - expected) <= RELATIVE * abs(expected) + 1e-15


# -- the searches on a scipy-backed reference -------------------------------------
def _reference_delta(epsilon, sigma, sensitivity=1.0):
    a = sensitivity / (2.0 * sigma) - epsilon * sigma / sensitivity
    b = -sensitivity / (2.0 * sigma) - epsilon * sigma / sensitivity
    second = math.exp(min(epsilon + float(special.log_ndtr(b)), 700.0))
    return max(float(special.ndtr(a)) - second, 0.0)


def _reference_minimal_epsilon(sigma, delta, upper=100.0, precision=1e-9):
    lo, hi = 0.0, upper
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if _reference_delta(mid, sigma) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def _reference_sigma(epsilon, delta):
    def tail(v):
        return math.exp(min(epsilon + float(special.log_ndtr(
            -math.sqrt(epsilon * (v + 2.0)))), 700.0))

    def b_plus(v):
        return float(special.ndtr(math.sqrt(epsilon * v))) - tail(v)

    def b_minus(v):
        return float(special.ndtr(-math.sqrt(epsilon * v))) - tail(v)

    delta_zero = b_plus(0.0)
    if math.isclose(delta, delta_zero, rel_tol=1e-15):
        alpha = 1.0
    elif delta > delta_zero:
        v = gaussian._bracket_and_bisect(b_plus, delta, increasing=True)
        alpha = math.sqrt(1.0 + v / 2.0) - math.sqrt(v / 2.0)
    else:
        v = gaussian._bracket_and_bisect(b_minus, delta, increasing=False)
        alpha = math.sqrt(1.0 + v / 2.0) + math.sqrt(v / 2.0)
    return alpha / math.sqrt(2.0 * epsilon)


EPSILONS = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0)
DELTAS = (1e-1, 1e-3, 1e-6, 1e-9, 1e-12)


class TestSearchesAgainstScipyReference:
    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_sigma(self, epsilon, delta):
        assert _close(analytic_gaussian_sigma.__wrapped__(epsilon, delta),
                      _reference_sigma(epsilon, delta))

    @pytest.mark.parametrize("precision", (1e-9, 1e-6))
    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_minimal_epsilon(self, epsilon, delta, precision):
        # A noise level 7% above the calibrated one: the answer lies
        # strictly inside (0, epsilon) and the bisection runs its course.
        sigma = 1.07 * _reference_sigma(epsilon, delta)
        found = minimal_epsilon.__wrapped__(sigma, delta, 1.0, 100.0,
                                            precision)
        assert _close(found, _reference_minimal_epsilon(
            sigma, delta, precision=precision))
        assert found < epsilon


# -- what the program imports ----------------------------------------------------
def test_import_loads_neither_scipy_nor_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, repro; print(sorted({m.split('.')[0] for m in "
             "sys.modules} & {'scipy', 'networkx'}))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    assert result.stdout.strip() == "[]"
