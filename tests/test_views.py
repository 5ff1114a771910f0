"""Tests for histogram views, linear queries, transformation and registry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.database import Database
from repro.db.schema import Attribute, CategoricalDomain, IntegerDomain, Schema
from repro.db.sql.parser import parse
from repro.db.table import Table
from repro.exceptions import SchemaError, UnanswerableQuery
from repro.views.histogram import HistogramView, attribute_views
from repro.views.linear import LinearQuery
from repro.views.registry import ViewRegistry
from repro.views.transform import (
    is_answerable,
    transform,
    transform_avg_parts,
    transform_group_by,
)


@pytest.fixture
def schema():
    return Schema([
        Attribute("age", IntegerDomain(0, 9)),
        Attribute("color", CategoricalDomain(["r", "g", "b"])),
        Attribute("score", IntegerDomain(0, 4)),
    ])


@pytest.fixture
def db(schema):
    table = Table.from_values(schema, {
        "age": [1, 3, 3, 7, 9, 3],
        "color": ["r", "g", "g", "b", "r", "b"],
        "score": [0, 2, 3, 4, 4, 1],
    })
    return Database({"t": table})


@pytest.fixture
def age_view(schema):
    return HistogramView("t.age", "t", ("age",), schema)


@pytest.fixture
def two_way_view(schema):
    return HistogramView("t.age_color", "t", ("age", "color"), schema)


class TestHistogramView:
    def test_shape_and_size(self, age_view, two_way_view):
        assert age_view.shape == (10,)
        assert age_view.size == 10
        assert two_way_view.shape == (10, 3)
        assert two_way_view.size == 30

    def test_materialize_matches_direct_histogram(self, db, age_view):
        values = age_view.materialize(db)
        assert values.sum() == 6
        assert values[3] == 3

    def test_two_way_materialize(self, db, two_way_view):
        values = two_way_view.materialize(db).reshape(10, 3)
        assert values[3, 1] == 2   # age=3, color=g
        assert values[3, 2] == 1   # age=3, color=b

    def test_sensitivity_default(self, age_view):
        assert age_view.sensitivity() == 1.0

    def test_requires_attributes(self, schema):
        with pytest.raises(SchemaError):
            HistogramView("v", "t", (), schema)

    def test_unknown_attribute(self, schema):
        with pytest.raises(SchemaError):
            HistogramView("v", "t", ("nope",), schema)

    def test_attribute_views_helper(self, schema):
        views = attribute_views(schema, "t", ("age", "color"))
        assert [v.name for v in views] == ["t.age", "t.color"]
        assert all(len(v.attributes) == 1 for v in views)

    def test_axis_of(self, two_way_view):
        assert two_way_view.axis_of("color") == 1
        with pytest.raises(SchemaError):
            two_way_view.axis_of("score")


class TestLinearQuery:
    def test_answer_is_dot_product(self):
        query = LinearQuery("v", np.array([1.0, 0.0, 2.0]))
        assert query.answer(np.array([3.0, 5.0, 1.0])) == pytest.approx(5.0)

    def test_weight_norm_sq(self):
        query = LinearQuery("v", np.array([1.0, 0.0, 2.0]))
        assert query.weight_norm_sq == pytest.approx(5.0)

    def test_variance_round_trip(self):
        query = LinearQuery("v", np.ones(4))
        per_bin = query.per_bin_variance_for(100.0)
        assert query.answer_variance(per_bin) == pytest.approx(100.0)

    def test_empty_support_calibration_rejected(self):
        query = LinearQuery("v", np.zeros(3))
        with pytest.raises(ValueError):
            query.per_bin_variance_for(1.0)

    def test_shape_mismatch(self):
        query = LinearQuery("v", np.ones(3))
        with pytest.raises(ValueError):
            query.answer(np.ones(4))

    @settings(max_examples=30, deadline=None)
    @given(weights=st.lists(st.floats(-5, 5), min_size=1, max_size=20))
    def test_property_answer_variance_scales(self, weights):
        arr = np.array(weights)
        if not np.any(arr):
            return
        query = LinearQuery("v", arr)
        assert query.answer_variance(2.0) == pytest.approx(
            2.0 * float(np.dot(arr, arr))
        )


class TestTransform:
    def test_count_range(self, db, age_view):
        stmt = parse("SELECT COUNT(*) FROM t WHERE age BETWEEN 2 AND 5")
        query = transform(stmt, age_view)
        exact = age_view.materialize(db)
        assert query.answer(exact) == db.execute(stmt).scalar()

    def test_count_equality(self, db, age_view):
        stmt = parse("SELECT COUNT(*) FROM t WHERE age = 3")
        query = transform(stmt, age_view)
        assert query.answer(age_view.materialize(db)) == 3

    def test_count_inequalities(self, db, age_view):
        for sql in ("SELECT COUNT(*) FROM t WHERE age >= 7",
                    "SELECT COUNT(*) FROM t WHERE age < 4",
                    "SELECT COUNT(*) FROM t WHERE age != 3"):
            stmt = parse(sql)
            query = transform(stmt, age_view)
            assert query.answer(age_view.materialize(db)) == \
                db.execute(stmt).scalar()

    def test_count_on_categorical_view(self, db, schema):
        view = HistogramView("t.color", "t", ("color",), schema)
        stmt = parse("SELECT COUNT(*) FROM t WHERE color IN ('r', 'b')")
        query = transform(stmt, view)
        assert query.answer(view.materialize(db)) == db.execute(stmt).scalar()

    def test_two_way_conjunction(self, db, two_way_view):
        stmt = parse(
            "SELECT COUNT(*) FROM t WHERE age BETWEEN 2 AND 8 AND color = 'g'"
        )
        query = transform(stmt, two_way_view)
        assert query.answer(two_way_view.materialize(db)) == \
            db.execute(stmt).scalar()

    def test_sum_over_view_attribute(self, db, schema):
        view = HistogramView("t.score", "t", ("score",), schema)
        stmt = parse("SELECT SUM(score) FROM t")
        query = transform(stmt, view)
        assert query.answer(view.materialize(db)) == \
            db.execute(stmt).scalar()

    def test_sum_with_clipping(self, db, schema):
        view = HistogramView("t.score", "t", ("score",), schema)
        stmt = parse("SELECT SUM(score) FROM t")
        query = transform(stmt, view, clip=(0.0, 2.0))
        # Values 0,2,3,4,4,1 clipped at 2 -> 0+2+2+2+2+1 = 9.
        assert query.answer(view.materialize(db)) == pytest.approx(9.0)

    def test_avg_parts(self, db, schema):
        view = HistogramView("t.score", "t", ("score",), schema)
        stmt = parse("SELECT AVG(score) FROM t WHERE score >= 1")
        sum_q, count_q = transform_avg_parts(stmt, view)
        exact = view.materialize(db)
        assert sum_q.answer(exact) / count_q.answer(exact) == pytest.approx(
            db.execute(stmt).scalar()
        )

    def test_unanswerable_wrong_table(self, age_view):
        stmt = parse("SELECT COUNT(*) FROM other WHERE age = 1")
        assert not is_answerable(stmt, age_view)

    def test_unanswerable_uncovered_column(self, age_view):
        stmt = parse("SELECT COUNT(*) FROM t WHERE color = 'r'")
        assert not is_answerable(stmt, age_view)
        with pytest.raises(UnanswerableQuery):
            transform(stmt, age_view)

    def test_unanswerable_sum_outside_view(self, age_view):
        stmt = parse("SELECT SUM(score) FROM t WHERE age = 1")
        assert not is_answerable(stmt, age_view)

    def test_empty_selection_rejected(self, age_view):
        stmt = parse("SELECT COUNT(*) FROM t WHERE age > 100")
        with pytest.raises(UnanswerableQuery):
            transform(stmt, age_view)

    def test_ordering_on_categorical_rejected(self, db, schema):
        view = HistogramView("t.color", "t", ("color",), schema)
        stmt = parse("SELECT COUNT(*) FROM t WHERE color <= 'g'")
        with pytest.raises(UnanswerableQuery):
            transform(stmt, view)


class TestTransformGroupBy:
    def test_full_domain_groups(self, db, schema):
        view = HistogramView("t.color", "t", ("color",), schema)
        stmt = parse("SELECT color, COUNT(*) FROM t GROUP BY color")
        groups = transform_group_by(stmt, view)
        assert [key for key, _ in groups] == [("r",), ("g",), ("b",)]
        exact = view.materialize(db)
        counts = {key[0]: q.answer(exact) for key, q in groups}
        assert counts == {"r": 2, "g": 2, "b": 2}

    def test_group_by_covers_absent_values(self, db, schema):
        view = HistogramView("t.age", "t", ("age",), schema)
        stmt = parse("SELECT age, COUNT(*) FROM t GROUP BY age")
        groups = transform_group_by(stmt, view)
        assert len(groups) == 10  # full domain, including empty bins
        exact = view.materialize(db)
        assert groups[0][1].answer(exact) == 0.0  # age=0 has no rows

    def test_group_by_with_predicate(self, db, two_way_view):
        stmt = parse(
            "SELECT color, COUNT(*) FROM t WHERE age <= 3 GROUP BY color"
        )
        groups = transform_group_by(stmt, two_way_view)
        exact = two_way_view.materialize(db)
        counts = {key[0]: q.answer(exact) for key, q in groups}
        assert counts == {"r": 1, "g": 2, "b": 1}

    def test_requires_group_by(self, db, age_view):
        stmt = parse("SELECT COUNT(*) FROM t WHERE age = 1")
        with pytest.raises(UnanswerableQuery):
            transform_group_by(stmt, age_view)

    def test_scalar_transform_rejects_group_by(self, age_view):
        stmt = parse("SELECT age, COUNT(*) FROM t GROUP BY age")
        with pytest.raises(UnanswerableQuery):
            transform(stmt, age_view)


class TestViewRegistry:
    def test_add_and_select_smallest(self, db, schema):
        registry = ViewRegistry(db)
        registry.add(HistogramView("t.age", "t", ("age",), schema))
        registry.add(HistogramView("t.age_color", "t", ("age", "color"), schema))
        stmt = parse("SELECT COUNT(*) FROM t WHERE age = 3")
        assert registry.select(stmt).name == "t.age"

    def test_wider_view_used_when_needed(self, db, schema):
        registry = ViewRegistry(db)
        registry.add(HistogramView("t.age", "t", ("age",), schema))
        registry.add(HistogramView("t.age_color", "t", ("age", "color"), schema))
        stmt = parse("SELECT COUNT(*) FROM t WHERE age = 3 AND color = 'g'")
        assert registry.select(stmt).name == "t.age_color"

    def test_unanswerable(self, db, schema):
        registry = ViewRegistry(db)
        registry.add(HistogramView("t.age", "t", ("age",), schema))
        with pytest.raises(UnanswerableQuery):
            registry.select(parse("SELECT COUNT(*) FROM t WHERE color = 'r'"))

    def test_exact_values_cached(self, db, schema):
        registry = ViewRegistry(db)
        registry.add(HistogramView("t.age", "t", ("age",), schema))
        first = registry.exact_values("t.age")
        second = registry.exact_values("t.age")
        assert first is second

    def test_materialize_all_reports_time(self, db, schema):
        registry = ViewRegistry(db)
        registry.add_attribute_views("t", ("age", "color"))
        assert registry.materialize_all() >= 0.0
        assert set(registry.view_names) == {"t.age", "t.color"}

    def test_duplicate_view_rejected(self, db, schema):
        registry = ViewRegistry(db)
        view = HistogramView("t.age", "t", ("age",), schema)
        registry.add(view)
        with pytest.raises(SchemaError):
            registry.add(view)

    def test_compile(self, db, schema):
        registry = ViewRegistry(db)
        registry.add_attribute_views("t", ("age",))
        view, query = registry.compile(
            parse("SELECT COUNT(*) FROM t WHERE age BETWEEN 0 AND 9")
        )
        assert view.name == "t.age"
        assert query.answer(registry.exact_values("t.age")) == 6
