"""Tests for dyadic hierarchical views and cost-based view selection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Analyst, DProvDB
from repro.db.database import Database
from repro.db.schema import Attribute, CategoricalDomain, IntegerDomain, Schema
from repro.db.sql.parser import parse
from repro.db.table import Table
from repro.exceptions import SchemaError, UnanswerableQuery
from repro.views.hierarchical import HierarchicalView, hierarchical_view
from repro.views.registry import ViewRegistry


@pytest.fixture
def schema():
    return Schema([
        Attribute("x", IntegerDomain(0, 99)),
        Attribute("color", CategoricalDomain(["r", "g"])),
    ])


@pytest.fixture
def db(schema, rng):
    n = 2000
    return Database({"t": Table.from_values(schema, {
        "x": rng.integers(0, 100, n),
        "color": rng.choice(["r", "g"], n).tolist(),
    })})


@pytest.fixture
def view(schema):
    return hierarchical_view(schema, "t", "x")


class TestGeometry:
    def test_leaf_count_is_power_of_two(self, view):
        assert view.leaf_count == 128
        assert view.size == 256
        assert view.height == 8

    def test_sensitivity_is_sqrt_height(self, view):
        assert view.sensitivity() == pytest.approx(math.sqrt(8))

    def test_exact_power_of_two_domain(self, schema):
        small = Schema([Attribute("y", IntegerDomain(0, 63))])
        v = hierarchical_view(small, "t", "y")
        assert v.leaf_count == 64
        assert v.height == 7

    def test_rejects_categorical(self, schema):
        with pytest.raises(SchemaError):
            hierarchical_view(schema, "t", "color")


class TestDecompose:
    def test_full_range_is_root(self, schema):
        small = Schema([Attribute("y", IntegerDomain(0, 63))])
        v = hierarchical_view(small, "t", "y")
        assert v.decompose(0, 63) == [1]

    def test_single_leaf(self, view):
        nodes = view.decompose(5, 5)
        assert nodes == [view.leaf_count + 5]

    def test_node_count_logarithmic(self, view):
        for low, high in [(0, 99), (3, 77), (1, 98), (17, 64)]:
            nodes = view.decompose(low, high)
            assert len(nodes) <= 2 * int(math.log2(view.leaf_count))

    def test_out_of_range(self, view):
        with pytest.raises(UnanswerableQuery):
            view.decompose(0, 100)

    @settings(max_examples=50, deadline=None)
    @given(low=st.integers(0, 99), width=st.integers(0, 99))
    def test_property_decomposition_is_exact_partition(self, low, width):
        fresh_schema = Schema([Attribute("x", IntegerDomain(0, 99))])
        view = hierarchical_view(fresh_schema, "t", "x")
        high = min(99, low + width)
        nodes = view.decompose(low, high)
        # Expand every node back to its leaves: must be exactly [low, high].
        m = view.leaf_count
        covered: list[int] = []
        for node in nodes:
            level = node.bit_length() - 1
            span = m >> level
            start = (node << (int(math.log2(m)) - level)) - m
            covered.extend(range(start, start + span))
        assert sorted(covered) == list(range(low, high + 1))


class TestMaterializeAndAnswer:
    def test_node_sums_consistent(self, db, view):
        nodes = view.materialize(db)
        m = view.leaf_count
        for i in range(1, m):
            assert nodes[i] == nodes[2 * i] + nodes[2 * i + 1]

    def test_range_query_matches_sql(self, db, view):
        nodes = view.materialize(db)
        for sql in ("SELECT COUNT(*) FROM t WHERE x BETWEEN 10 AND 90",
                    "SELECT COUNT(*) FROM t WHERE x >= 37",
                    "SELECT COUNT(*) FROM t WHERE x < 12",
                    "SELECT COUNT(*) FROM t WHERE x = 50",
                    "SELECT COUNT(*) FROM t"):
            stmt = parse(sql)
            query = view.to_linear(stmt)
            assert query.answer(nodes) == db.execute(stmt).scalar()

    def test_wide_range_has_small_weight_norm(self, view):
        stmt = parse("SELECT COUNT(*) FROM t WHERE x BETWEEN 1 AND 98")
        query = view.to_linear(stmt)
        assert query.weight_norm_sq <= 2 * math.log2(view.leaf_count)

    def test_unanswerable_statements(self, view):
        for sql in ("SELECT SUM(x) FROM t",
                    "SELECT COUNT(*) FROM t WHERE color = 'r'",
                    "SELECT COUNT(*) FROM t WHERE x != 3",
                    "SELECT x, COUNT(*) FROM t GROUP BY x"):
            assert not view.answerable(parse(sql))

    def test_empty_range_rejected(self, view):
        stmt = parse("SELECT COUNT(*) FROM t WHERE x > 50 AND x < 51")
        with pytest.raises(UnanswerableQuery):
            view.to_linear(stmt)

    @pytest.mark.parametrize("where", [
        "x BETWEEN 'a' AND 40",          # used to raise TypeError
        "x < 'a'",
        "x = 'a'",                       # used to raise ValueError
        "x = 2.5",                       # used to answer bin 2
    ])
    def test_operands_no_integer_satisfies_are_unanswerable(self, view,
                                                            where):
        assert not view.answerable(parse(f"SELECT COUNT(*) FROM t WHERE "
                                         f"{where}"))

    def test_a_float_literal_past_the_double_range_is_unbounded(self, db,
                                                                 view):
        # '1' followed by 400 zeros lexes as one NUMBER and parses to inf.
        huge = "1" + "0" * 400 + ".0"
        nodes = view.materialize(db)
        for sql in (f"SELECT COUNT(*) FROM t WHERE x < {huge}",
                    f"SELECT COUNT(*) FROM t WHERE x BETWEEN -{huge} AND 9"):
            stmt = parse(sql)
            assert view.to_linear(stmt).answer(nodes) == \
                db.execute(stmt).scalar()


class TestCostBasedSelection:
    def test_wide_range_prefers_dyadic(self, db):
        registry = ViewRegistry(db)
        registry.add_attribute_views("t", ("x",))
        registry.add_hierarchical_view("t", "x")
        view, query = registry.compile(
            parse("SELECT COUNT(*) FROM t WHERE x BETWEEN 2 AND 97")
        )
        assert isinstance(view, HierarchicalView)

    def test_point_query_prefers_flat(self, db):
        registry = ViewRegistry(db)
        registry.add_attribute_views("t", ("x",))
        registry.add_hierarchical_view("t", "x")
        view, query = registry.compile(
            parse("SELECT COUNT(*) FROM t WHERE x = 3")
        )
        assert not isinstance(view, HierarchicalView)

    def test_compiled_answers_agree_with_sql(self, db):
        registry = ViewRegistry(db)
        registry.add_attribute_views("t", ("x",))
        registry.add_hierarchical_view("t", "x")
        stmt = parse("SELECT COUNT(*) FROM t WHERE x BETWEEN 5 AND 95")
        view, query = registry.compile(stmt)
        exact = registry.exact_values(view.name)
        assert query.answer(exact) == db.execute(stmt).scalar()


class TestEngineIntegration:
    def test_register_and_answer_through_engine(self, adult_bundle):
        engine = DProvDB(adult_bundle, [Analyst("a", 4)], epsilon=2.0,
                         seed=1)
        name = engine.register_hierarchical_view("age")
        assert name.endswith("#dyadic")
        sql = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 18 AND 88"
        answer = engine.submit("a", sql, accuracy=2500.0)
        assert answer.view_name == name  # wide range routed to the tree
        exact = adult_bundle.database.execute(sql).scalar()
        assert abs(answer.value - exact) < 6 * math.sqrt(2500.0)

    def test_dyadic_view_is_cheaper_for_wide_ranges(self, adult_bundle):
        sql = "SELECT COUNT(*) FROM adult WHERE age BETWEEN 18 AND 88"
        flat = DProvDB(adult_bundle, [Analyst("a", 4)], epsilon=4.0, seed=1)
        tree = DProvDB(adult_bundle, [Analyst("a", 4)], epsilon=4.0, seed=1)
        tree.register_hierarchical_view("age")
        flat_cost = flat.submit("a", sql, accuracy=2500.0).epsilon_charged
        tree_cost = tree.submit("a", sql, accuracy=2500.0).epsilon_charged
        assert tree_cost < flat_cost
