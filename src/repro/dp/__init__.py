"""Differential-privacy primitives.

This subpackage is the noise/accounting substrate for the DProvDB
reproduction: the analytic Gaussian mechanism of Balle & Wang (2018) with both
calibration directions (``(eps, delta) -> sigma`` and ``sigma -> minimal
eps``), the classical Gaussian mechanism, and privacy accountants (Renyi DP,
zCDP).
"""

from repro.dp.gaussian import (
    GaussianMechanism,
    analytic_gaussian_sigma,
    classical_gaussian_sigma,
    gaussian_delta,
    minimal_epsilon,
)
from repro.dp.rdp import RdpAccountant
from repro.dp.zcdp import ZCdpAccountant, rho_from_sigma, zcdp_to_approx_dp
from repro.dp.rng import ensure_generator
from repro.dp.sensitivity import Neighboring, histogram_l2_sensitivity

__all__ = [
    "GaussianMechanism",
    "Neighboring",
    "RdpAccountant",
    "ZCdpAccountant",
    "analytic_gaussian_sigma",
    "classical_gaussian_sigma",
    "ensure_generator",
    "gaussian_delta",
    "histogram_l2_sensitivity",
    "minimal_epsilon",
    "rho_from_sigma",
    "zcdp_to_approx_dp",
]
