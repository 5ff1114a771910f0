"""One generation per (rows, int seed) per process, read-only tables, and
each exact histogram counted once per table."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.datasets.adult as adult
import repro.datasets.tpch as tpch
from repro import Analyst, QueryService
from repro.datasets import load_adult, load_tpch
from repro.db.table import Table


def _columns(bundle):
    for name in bundle.database.table_names:
        table = bundle.database.table(name)
        for column in table.schema.names:
            yield name, column, table.column(column)


def _assert_same_columns(tables: dict, bundle) -> None:
    seen = 0
    for name, column, values in _columns(bundle):
        reference = tables[name].column(column)
        assert values.dtype == reference.dtype, (name, column)
        assert values.tobytes() == reference.tobytes(), (name, column)
        seen += 1
    assert seen == sum(len(t.schema) for t in tables.values())


class TestMemoisedLoadsAreTheGeneration:
    @pytest.mark.parametrize("rows, seed", [(700, 3), (1500, 11)])
    def test_adult(self, rows, seed):
        load_adult(num_rows=rows, seed=seed)       # memoised from here on
        bundle = load_adult(num_rows=rows, seed=seed)
        reference = adult.generate_adult_table(rows,
                                               np.random.default_rng(seed))
        _assert_same_columns({"adult": reference}, bundle)

    @pytest.mark.parametrize("rows, seed", [(800, 3), (1200, 11)])
    def test_tpch(self, rows, seed):
        load_tpch(lineitem_rows=rows, seed=seed)
        bundle = load_tpch(lineitem_rows=rows, seed=seed)
        rng = np.random.default_rng(seed)
        reference = {"lineitem": tpch.generate_lineitem(rows, rng),
                     "orders": tpch.generate_orders(max(1, rows // 4), rng)}
        _assert_same_columns(reference, bundle)

    def test_tables_are_shared_and_bundles_are_not(self):
        first = load_adult(num_rows=600, seed=5)
        second = load_adult(num_rows=600, seed=np.int64(5))
        assert second.database.table("adult") is first.database.table("adult")
        assert second is not first
        assert second.database is not first.database

    def test_the_memo_is_bounded(self):
        from repro.datasets.base import TABLE_MEMO_SIZE

        def table(seed):
            return load_adult(num_rows=50, seed=seed).database.table("adult")

        oldest = table(1000)
        assert table(1000) is oldest
        for seed in range(1001, 1001 + TABLE_MEMO_SIZE):
            table(seed)
        assert table(1000) is not oldest

    def test_bool_seed_is_not_an_integer_seed(self):
        shared = load_adult(num_rows=300, seed=1).database.table("adult")
        flagged = load_adult(num_rows=300, seed=True).database.table("adult")
        assert flagged is not shared


class TestReadOnly:
    def test_every_column_refuses_writes(self, adult_bundle, tpch_bundle):
        for bundle in (adult_bundle, tpch_bundle):
            for name, column, values in _columns(bundle):
                with pytest.raises(ValueError):
                    values[0] = 1
                with pytest.raises(ValueError):
                    values += 1

    def test_histograms_refuse_writes(self, adult_bundle):
        table = adult_bundle.database.table("adult")
        for names in (("age",), ("sex", "income")):
            counts = table.histogram(names)
            with pytest.raises(ValueError):
                counts[0] = 1

    def test_histogram_is_counted_once_and_equal(self, adult_bundle):
        table = adult_bundle.database.table("adult")
        counts = table.histogram(["race", "sex"])
        assert table.histogram(("race", "sex")) is counts
        fresh = Table(table.schema, {n: table.column(n).copy()
                                     for n in table.schema.names})
        assert np.array_equal(fresh.histogram(("race", "sex")), counts)
        assert counts.sum() == table.num_rows

    def test_views_get_their_own_float_copy(self, adult_bundle):
        a = QueryService.build(adult_bundle, [Analyst("x", 1)], 1.0, seed=1)
        b = QueryService.build(adult_bundle, [Analyst("x", 1)], 1.0, seed=1)
        try:
            first = a.engine.registry.exact_values("adult.age")
            second = b.engine.registry.exact_values("adult.age")
            assert first.dtype == np.float64 and first.flags.writeable
            assert first is not second
            assert np.array_equal(first, second)
        finally:
            a.close()
            b.close()


class TestUnmemoisedSeeds:
    def test_none_seeds_differ(self):
        a = load_adult(num_rows=400, seed=None).database.table("adult")
        b = load_adult(num_rows=400, seed=None).database.table("adult")
        assert a is not b
        assert any(not np.array_equal(a.column(n), b.column(n))
                   for n in a.schema.names)

    def test_a_generator_is_consumed_as_before(self):
        used = np.random.default_rng(21)
        first = load_tpch(lineitem_rows=400, seed=used)
        second = load_tpch(lineitem_rows=400, seed=used)
        reference = np.random.default_rng(21)
        for bundle in (first, second):
            expected = {
                "lineitem": tpch.generate_lineitem(400, reference),
                "orders": tpch.generate_orders(100, reference),
            }
            _assert_same_columns(expected, bundle)
        # The generator moved on exactly as far as the two draws took it.
        assert used.random() == reference.random()


@pytest.fixture
def generation_counts(monkeypatch):
    """How many tables are generated and histograms counted from here on."""
    counts = {"tables": 0, "histograms": 0}
    generate = adult.generate_adult_table
    count = Table._count

    def counting_generate(*args, **kwargs):
        counts["tables"] += 1
        return generate(*args, **kwargs)

    def counting_count(self, names):
        counts["histograms"] += 1
        return count(self, names)

    monkeypatch.setattr(adult, "generate_adult_table", counting_generate)
    monkeypatch.setattr(Table, "_count", counting_count)
    return counts


def test_a_second_world_generates_and_counts_nothing(generation_counts):
    analysts = [Analyst("low", 1), Analyst("high", 4)]

    def world():
        bundle = load_adult(num_rows=2500, seed=4)
        service = QueryService.build(bundle, analysts, 2.0, seed=8)
        service.engine.setup()
        service.engine.register_view(("age", "sex"))
        service.engine.registry.exact_values("adult.age_sex")
        service.close()

    world()
    first = dict(generation_counts)
    world()
    assert first["histograms"] > 0
    assert generation_counts == first


def test_concurrent_first_loads_agree():
    results: list = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in (101, 102, 103):
            start = threading.Barrier(8)

            def load(seed=seed, start=start):
                start.wait(timeout=30)
                table = load_adult(num_rows=900, seed=seed).database.table(
                    "adult")
                results.append((seed, table, table.histogram(("age",))))

            threads = [threading.Thread(target=load) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert len(results) == 24
    for seed in (101, 102, 103):
        mine = [(t, h) for s, t, h in results if s == seed]
        table, reference = mine[0]
        for other, counts in mine[1:]:
            assert all(np.array_equal(other.column(n), table.column(n))
                       for n in table.schema.names)
            assert np.array_equal(counts, reference)
        assert reference.sum() == 900
