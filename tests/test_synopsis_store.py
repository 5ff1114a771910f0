"""Tests for the Synopsis dataclass and the SynopsisStore."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.synopsis import Synopsis, SynopsisStore


def make(view="v", analyst=None, epsilon=0.5, variance=4.0):
    return Synopsis(view_name=view, values=np.zeros(3), epsilon=epsilon,
                    delta=1e-9, variance=variance, analyst=analyst)


class TestSynopsis:
    def test_values_coerced_to_float(self):
        synopsis = Synopsis("v", np.array([1, 2, 3]), 0.5, 1e-9, 1.0)
        assert synopsis.values.dtype == np.float64

    def test_is_global(self):
        assert make().is_global
        assert not make(analyst="a").is_global

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            make(epsilon=-0.1)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            make(variance=-1.0)


class TestSynopsisStore:
    def test_global_round_trip(self):
        store = SynopsisStore()
        assert store.global_synopsis("v") is None
        synopsis = make()
        store.put_global(synopsis)
        assert store.global_synopsis("v") is synopsis
        assert store.global_views == ("v",)

    def test_local_round_trip(self):
        store = SynopsisStore()
        assert store.local_synopsis("a", "v") is None
        synopsis = make(analyst="a")
        store.put_local(synopsis)
        assert store.local_synopsis("a", "v") is synopsis
        assert store.local_keys == (("a", "v"),)

    def test_put_global_rejects_owned(self):
        with pytest.raises(ValueError):
            SynopsisStore().put_global(make(analyst="a"))

    def test_put_local_requires_owner(self):
        with pytest.raises(ValueError):
            SynopsisStore().put_local(make())

    def test_replacement(self):
        store = SynopsisStore()
        store.put_global(make(epsilon=0.5))
        better = make(epsilon=0.9, variance=1.0)
        store.put_global(better)
        assert store.global_synopsis("v") is better

    def test_clear(self):
        store = SynopsisStore()
        store.put_global(make())
        store.put_local(make(analyst="a"))
        store.clear()
        assert store.global_views == ()
        assert store.local_keys == ()

    def test_isolation_between_analysts(self):
        store = SynopsisStore()
        store.put_local(make(analyst="a"))
        assert store.local_synopsis("b", "v") is None
