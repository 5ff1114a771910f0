"""Shared fixtures: small, seeded dataset bundles and default analysts."""

from __future__ import annotations

import numpy as np
import pytest

# The paper-figure shape checks are plain asserts in src/: rewrite them so
# that a failure shows the compared values.
pytest.register_assert_rewrite("repro.experiments.figures")

from repro import Analyst  # noqa: E402
from repro.datasets import load_adult, load_tpch  # noqa: E402


@pytest.fixture(scope="session")
def adult_bundle():
    """A reduced Adult bundle (5k rows) shared across the suite."""
    return load_adult(num_rows=5000, seed=42)


@pytest.fixture(scope="session")
def tpch_bundle():
    """A reduced TPC-H bundle shared across the suite."""
    return load_tpch(lineitem_rows=8000, seed=42)


@pytest.fixture
def analysts():
    """The paper's default pair: privilege 1 and privilege 4."""
    return [Analyst("low", privilege=1), Analyst("high", privilege=4)]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def gaussian_delta_calls(monkeypatch):
    """Argument tuples of every ``gaussian_delta`` evaluation the
    calibration search makes, starting from cold calibration memos — how
    tests count searches instead of timing them."""
    import repro.dp.gaussian as gaussian

    calls: list[tuple] = []
    reference = gaussian.gaussian_delta

    def counting(*args, **kwargs):
        calls.append(args)
        return reference(*args, **kwargs)

    monkeypatch.setattr(gaussian, "gaussian_delta", counting)
    gaussian.minimal_epsilon.cache_clear()
    gaussian.analytic_gaussian_sigma.cache_clear()
    return calls
