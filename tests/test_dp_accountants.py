"""Tests for the RDP and zCDP accountants."""

from __future__ import annotations

import math

import pytest

from repro.dp.gaussian import analytic_gaussian_sigma
from repro.dp.rdp import DEFAULT_ORDERS, RdpAccountant, gaussian_rdp, rdp_to_approx_dp
from repro.dp.zcdp import (
    ZCdpAccountant,
    rho_for_epsilon,
    rho_from_sigma,
    zcdp_to_approx_dp,
)


class TestGaussianRdp:
    def test_formula(self):
        assert gaussian_rdp(2.0, sigma=1.0) == pytest.approx(1.0)
        assert gaussian_rdp(2.0, sigma=2.0) == pytest.approx(0.25)

    def test_scales_with_sensitivity_squared(self):
        assert gaussian_rdp(2.0, 1.0, sensitivity=3.0) == pytest.approx(9.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_rdp(2.0, 0.0)


class TestRdpAccountant:
    def test_empty_accountant_has_zero_epsilon(self):
        assert RdpAccountant().epsilon(1e-9) == 0.0

    def test_composition_is_additive_per_order(self):
        one = RdpAccountant()
        one.record_gaussian(2.0)
        two = RdpAccountant()
        two.record_gaussian(2.0)
        two.record_gaussian(2.0)
        # Two identical releases double the curve -> epsilon grows sublinearly.
        assert two.epsilon(1e-9) < 2 * one.epsilon(1e-9) + 1e-9
        assert two.epsilon(1e-9) > one.epsilon(1e-9)

    def test_tighter_than_basic_for_many_releases(self):
        delta = 1e-9
        eps_single = 0.1
        sigma = analytic_gaussian_sigma(eps_single, delta)
        accountant = RdpAccountant()
        k = 200
        for _ in range(k):
            accountant.record_gaussian(sigma)
        assert accountant.epsilon(delta) < k * eps_single

    def test_release_count(self):
        accountant = RdpAccountant()
        accountant.record_gaussian(1.0)
        accountant.record_gaussian(1.0)
        assert accountant.releases == 2

    def test_rejects_orders_at_most_one(self):
        with pytest.raises(ValueError):
            RdpAccountant(orders=[1.0, 2.0])

    def test_conversion_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            rdp_to_approx_dp(DEFAULT_ORDERS, [0.1] * len(DEFAULT_ORDERS), 0.0)


class TestZCdp:
    def test_rho_from_sigma(self):
        assert rho_from_sigma(1.0) == pytest.approx(0.5)
        assert rho_from_sigma(2.0) == pytest.approx(0.125)

    def test_conversion_formula(self):
        rho, delta = 0.1, 1e-9
        expected = rho + 2 * math.sqrt(rho * math.log(1 / delta))
        assert zcdp_to_approx_dp(rho, delta) == pytest.approx(expected)

    def test_rho_for_epsilon_round_trip(self):
        eps, delta = 1.5, 1e-9
        rho = rho_for_epsilon(eps, delta)
        assert zcdp_to_approx_dp(rho, delta) == pytest.approx(eps, rel=1e-9)

    def test_accountant_accumulates(self):
        acc = ZCdpAccountant()
        acc.record_gaussian(1.0)
        acc.record_gaussian(2.0)
        assert acc.rho == pytest.approx(0.625)
        assert acc.releases == 2

    def test_empty_accountant_zero(self):
        assert ZCdpAccountant().epsilon(1e-9) == 0.0

    def test_tighter_than_basic_for_many_releases(self):
        delta = 1e-9
        eps_single = 0.1
        sigma = analytic_gaussian_sigma(eps_single, delta)
        acc = ZCdpAccountant()
        k = 200
        for _ in range(k):
            acc.record_gaussian(sigma)
        assert acc.epsilon(delta) < k * eps_single


class TestCompositionTheorems:
    """Composition identities both accountants must satisfy exactly (the
    tight counterparts of basic composition, Theorem 2.1)."""

    @pytest.mark.parametrize("k", (1, 4, 16))
    def test_zcdp_k_releases_equal_one_release_at_sigma_over_root_k(self, k):
        many = ZCdpAccountant()
        for _ in range(k):
            many.record_gaussian(2.0)
        one = ZCdpAccountant()
        one.record_gaussian(2.0 / math.sqrt(k))
        assert many.rho == pytest.approx(one.rho, rel=1e-12)
        assert many.epsilon(1e-9) == pytest.approx(one.epsilon(1e-9),
                                                   rel=1e-12)

    @pytest.mark.parametrize("k", (1, 4, 16))
    def test_rdp_k_releases_equal_one_release_at_sigma_over_root_k(self, k):
        many = RdpAccountant()
        for _ in range(k):
            many.record_gaussian(2.0)
        one = RdpAccountant()
        one.record_gaussian(2.0 / math.sqrt(k))
        assert many.epsilon(1e-9) == pytest.approx(one.epsilon(1e-9),
                                                   rel=1e-12)

    def test_composition_is_order_independent(self):
        sigmas = (0.5, 3.0, 1.25, 8.0)
        forward, backward = RdpAccountant(), RdpAccountant()
        zforward, zbackward = ZCdpAccountant(), ZCdpAccountant()
        for sigma in sigmas:
            forward.record_gaussian(sigma)
            zforward.record_gaussian(sigma)
        for sigma in reversed(sigmas):
            backward.record_gaussian(sigma)
            zbackward.record_gaussian(sigma)
        assert forward.epsilon(1e-6) == pytest.approx(backward.epsilon(1e-6),
                                                      rel=1e-12)
        assert zforward.rho == pytest.approx(zbackward.rho, rel=1e-12)

    @pytest.mark.parametrize("sigma", (0.5, 2.0, 20.0))
    def test_rdp_grid_never_beats_the_zcdp_closed_form(self, sigma):
        """A Gaussian's RDP curve is ``alpha * rho``; minimising
        ``alpha rho + ln(1/delta)/(alpha - 1)`` over all alpha > 1 gives
        ``rho + 2 sqrt(rho ln(1/delta))``, so a finite grid can only match
        the zCDP conversion or lose to it — and the default grid is dense
        enough to stay within 5%."""
        rdp, zcdp = RdpAccountant(), ZCdpAccountant()
        rdp.record_gaussian(sigma)
        zcdp.record_gaussian(sigma)
        exact = zcdp.epsilon(1e-9)
        assert rdp.epsilon(1e-9) >= exact - 1e-12
        assert rdp.epsilon(1e-9) <= 1.05 * exact

    @pytest.mark.parametrize("accountant", (RdpAccountant, ZCdpAccountant))
    def test_epsilon_grows_with_every_release(self, accountant):
        acc = accountant()
        previous = 0.0
        for _ in range(5):
            acc.record_gaussian(4.0)
            current = acc.epsilon(1e-9)
            assert current > previous
            previous = current

    @pytest.mark.parametrize("accountant", (RdpAccountant, ZCdpAccountant))
    def test_epsilon_shrinks_as_delta_grows(self, accountant):
        acc = accountant()
        acc.record_gaussian(1.0)
        assert acc.epsilon(1e-3) < acc.epsilon(1e-6) < acc.epsilon(1e-12)


class TestConversionInputs:
    @pytest.mark.parametrize("delta", (0.0, 1.0, 1.5, -1e-9))
    def test_zcdp_conversion_rejects_delta_outside_unit_interval(self, delta):
        with pytest.raises(ValueError):
            zcdp_to_approx_dp(0.1, delta)

    def test_zcdp_conversion_rejects_negative_rho(self):
        with pytest.raises(ValueError):
            zcdp_to_approx_dp(-0.1, 1e-9)

    def test_zero_rho_converts_to_zero_epsilon(self):
        assert zcdp_to_approx_dp(0.0, 1e-9) == 0.0

    @pytest.mark.parametrize("epsilon", (0.0, -1.0))
    def test_rho_for_epsilon_rejects_nonpositive_epsilon(self, epsilon):
        with pytest.raises(ValueError):
            rho_for_epsilon(epsilon, 1e-9)

    @pytest.mark.parametrize("sigma", (0.0, -1.0))
    def test_rho_from_sigma_rejects_nonpositive_sigma(self, sigma):
        with pytest.raises(ValueError):
            rho_from_sigma(sigma)

    def test_rdp_conversion_ignores_orders_at_most_one(self):
        # Order 1 would divide by zero; it is skipped, not fatal.
        assert rdp_to_approx_dp([1.0, 2.0], [0.0, 0.5], 0.5) == \
            pytest.approx(0.5 + math.log(2.0))

    def test_rdp_conversion_takes_the_best_order(self):
        orders, curve = (2.0, 11.0), (5.0, 0.1)
        expected = min(5.0 + math.log(1e6) / 1.0,
                       0.1 + math.log(1e6) / 10.0)
        assert rdp_to_approx_dp(orders, curve, 1e-6) == \
            pytest.approx(expected)
