"""Tests for sensitivity conventions and RNG helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dp.rng import ensure_generator, spawn, stable_seed
from repro.dp.sensitivity import (
    Neighboring,
    clipped_value_bound,
    histogram_l2_sensitivity,
)


class TestSensitivity:
    def test_unbounded_histogram(self):
        assert histogram_l2_sensitivity(Neighboring.UNBOUNDED) == 1.0

    def test_bounded_histogram(self):
        assert histogram_l2_sensitivity(Neighboring.BOUNDED) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_clipped_bound(self):
        assert clipped_value_bound(0.0, 100.0) == pytest.approx(100.0)
        assert clipped_value_bound(0.0, 100.0, bin_size=10.0) == pytest.approx(10.0)

    def test_clipped_bound_rejects_empty_range(self):
        with pytest.raises(ValueError):
            clipped_value_bound(5.0, 5.0)

    def test_clipped_bound_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            clipped_value_bound(0.0, 1.0, bin_size=0.0)


class TestRng:
    def test_ensure_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_generator(gen) is gen

    def test_ensure_generator_from_seed_is_deterministic(self):
        a = ensure_generator(7).integers(0, 1000, 10)
        b = ensure_generator(7).integers(0, 1000, 10)
        assert (a == b).all()

    def test_spawn_children_are_independent_streams(self):
        parent = ensure_generator(0)
        children = spawn(parent, 3)
        draws = [c.integers(0, 2**31, 5).tolist() for c in children]
        assert draws[0] != draws[1] != draws[2]

    def test_stable_seed_deterministic_and_distinct(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert 0 <= stable_seed("x") < 2**63
