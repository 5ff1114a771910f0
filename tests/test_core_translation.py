"""Tests for accuracy-to-privacy translation (Def. 9 and Eq. 3)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from repro.core.translation import (
    additive_budget_request,
    epsilon_for_variance,
    fresh_variance_for_target,
    vanilla_translate,
)
from repro.dp.gaussian import analytic_gaussian_sigma, minimal_epsilon
from repro.exceptions import TranslationError
from repro.views.linear import LinearQuery

DELTA = 1e-9


def _range_query(width: int) -> LinearQuery:
    weights = np.zeros(100)
    weights[:width] = 1.0
    return LinearQuery("v", weights)


class TestEpsilonForVariance:
    def test_achieves_variance(self):
        eps = epsilon_for_variance(100.0, DELTA)
        assert analytic_gaussian_sigma(eps, DELTA) ** 2 <= 100.0 * (1 + 1e-6)

    def test_smaller_variance_needs_more_budget(self):
        eps_values = [epsilon_for_variance(v, DELTA)
                      for v in (1000.0, 100.0, 10.0)]
        assert eps_values == sorted(eps_values)

    def test_infeasible_raises(self):
        with pytest.raises(TranslationError):
            epsilon_for_variance(1e-9, DELTA, upper=0.5)

    def test_nonpositive_variance_raises(self):
        with pytest.raises(TranslationError):
            epsilon_for_variance(0.0, DELTA)


class TestVanillaTranslate:
    def test_meets_accuracy_requirement(self):
        query = _range_query(10)
        eps, per_bin = vanilla_translate(query, accuracy=2500.0, delta=DELTA)
        sigma = analytic_gaussian_sigma(eps, DELTA)
        # Proposition 5.1(i): the realised answer variance meets v_i.
        assert query.answer_variance(sigma ** 2) <= 2500.0 * (1 + 1e-6)

    def test_per_bin_variance_is_divided_by_norm(self):
        query = _range_query(25)
        _, per_bin = vanilla_translate(query, accuracy=2500.0, delta=DELTA)
        assert per_bin == pytest.approx(100.0)

    def test_near_minimality(self):
        """Proposition 5.1(ii): eps within precision of the true minimum."""
        query = _range_query(5)
        precision = 1e-6
        eps, _ = vanilla_translate(query, 1000.0, DELTA, precision=precision)
        smaller = eps - 2 * precision
        sigma = analytic_gaussian_sigma(smaller, DELTA)
        assert query.answer_variance(sigma ** 2) > 1000.0

    def test_wider_query_needs_more_budget(self):
        narrow, _ = vanilla_translate(_range_query(2), 1000.0, DELTA)
        wide, _ = vanilla_translate(_range_query(50), 1000.0, DELTA)
        assert wide > narrow


class TestFreshVarianceClosedForm:
    def test_harmonic_identity(self):
        w, v_t = fresh_variance_for_target(target=50.0, current=200.0)
        assert 1.0 / 50.0 == pytest.approx(1.0 / 200.0 + 1.0 / v_t)
        assert w == pytest.approx(50.0 / 200.0)

    def test_degenerates_when_target_not_smaller(self):
        w, v_t = fresh_variance_for_target(target=200.0, current=100.0)
        assert w == 0.0
        assert math.isinf(v_t)

    def test_rejects_nonpositive(self):
        with pytest.raises(TranslationError):
            fresh_variance_for_target(0.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        target=st.floats(min_value=0.1, max_value=99.0),
        current=st.floats(min_value=100.0, max_value=10000.0),
    )
    def test_property_matches_numerical_optimiser(self, target, current):
        """Closed form w* = v/v' maximises v_t = (v - w^2 v') / (1-w)^2."""
        _, closed_v_t = fresh_variance_for_target(target, current)

        def negative_v_t(w: float) -> float:
            return -(target - w ** 2 * current) / (1 - w) ** 2

        result = minimize_scalar(negative_v_t, bounds=(0.0, 0.999999),
                                 method="bounded")
        assert -result.fun == pytest.approx(closed_v_t, rel=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(
        target=st.floats(min_value=0.1, max_value=99.0),
        current=st.floats(min_value=100.0, max_value=10000.0),
    )
    def test_property_combination_achieves_target(self, target, current):
        """Inverse-variance combining current with v_t gives exactly target."""
        _, v_t = fresh_variance_for_target(target, current)
        weight = current / (v_t + current)       # Eq. 2 weight on fresh
        combined = (1 - weight) ** 2 * current + weight ** 2 * v_t
        assert combined == pytest.approx(target, rel=1e-6)


class TestAdditiveBudgetRequest:
    def test_first_release_mirrors_vanilla(self):
        query = _range_query(10)
        request = additive_budget_request(query, 2500.0, DELTA, current=None)
        eps, per_bin = vanilla_translate(query, 2500.0, DELTA)
        assert request.needs_update
        assert request.local_epsilon == pytest.approx(eps)
        assert request.delta_epsilon == pytest.approx(eps)
        assert request.per_bin_variance == pytest.approx(per_bin)
        assert request.global_epsilon_after == pytest.approx(eps)

    def test_accurate_global_needs_no_update(self):
        query = _range_query(10)
        request = additive_budget_request(query, 2500.0, DELTA,
                                          current=(2.0, 10.0))
        assert not request.needs_update
        assert request.delta_epsilon == 0.0
        assert request.global_epsilon_after == pytest.approx(2.0)

    def test_friction_update_is_cheaper_than_fresh(self):
        """Delta budget must cost less than re-buying the accuracy outright."""
        query = _range_query(10)
        current_eps = 0.5
        current_var = analytic_gaussian_sigma(current_eps, DELTA) ** 2
        request = additive_budget_request(query, 2500.0, DELTA,
                                          current=(current_eps, current_var))
        if request.needs_update:
            assert request.delta_epsilon < request.local_epsilon

    def test_update_grows_global_budget(self):
        query = _range_query(50)
        current_eps = 0.1
        current_var = analytic_gaussian_sigma(current_eps, DELTA) ** 2
        request = additive_budget_request(query, 400.0, DELTA,
                                          current=(current_eps, current_var))
        assert request.needs_update
        assert request.global_epsilon_after == pytest.approx(
            current_eps + request.delta_epsilon
        )

    def test_fresh_variance_respects_combination(self):
        query = _range_query(10)
        current = (0.3, 500.0)
        request = additive_budget_request(query, 2500.0, DELTA, current=current)
        assert request.needs_update
        # Combining current 500 with the fresh v_t must reach the target.
        target = request.per_bin_variance
        v_t = request.fresh_variance
        combined = (500.0 * v_t) / (500.0 + v_t)
        assert combined == pytest.approx(target, rel=1e-6)


class TestColdVersusWarmMemo:
    """Translation through a cold and a warm calibration memo is the same
    object, field for field — the memo sits below this module and returns
    the float the bisection returned."""

    #: ``current`` for Algorithm 4's three branches: no global synopsis yet,
    #: one that is already accurate enough, and one needing a friction update.
    BRANCHES = {
        "current is None": None,
        "needs_update=False": (2.0, 10.0),
        "friction update": (0.3, 500.0),
    }

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_additive_budget_request(self, branch):
        query, current = _range_query(10), self.BRANCHES[branch]
        minimal_epsilon.cache_clear()
        cold = additive_budget_request(query, 2500.0, DELTA, current)
        searched = minimal_epsilon.cache_info().misses
        warm = additive_budget_request(query, 2500.0, DELTA, current)
        assert warm == cold
        assert cold.needs_update == (branch != "needs_update=False")
        # One search per distinct variance (two on the friction branch),
        # none on the repeat.
        assert searched == (2 if branch == "friction update" else 1)
        assert minimal_epsilon.cache_info().misses == searched

    def test_vanilla_translate(self):
        query = _range_query(10)
        minimal_epsilon.cache_clear()
        cold = vanilla_translate(query, 2500.0, DELTA)
        warm = vanilla_translate(query, 2500.0, DELTA)
        assert warm == cold
        info = minimal_epsilon.cache_info()
        assert (info.misses, info.hits) == (1, 1)
