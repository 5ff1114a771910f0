"""View routing through the column-set index.

The registry files each view under every subset of its attributes at
``add()`` time and routes a statement with one dict probe.  The index is
an optimisation of a sweep over every registered view, so the sweep —
kept here as the oracle — must agree with it on the chosen view, the
compiled weights, and the exception raised when no view answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.database import Database
from repro.db.schema import (
    Attribute,
    CategoricalDomain,
    IntegerDomain,
    Schema,
)
from repro.db.sql.parser import parse
from repro.db.table import Table
from repro.exceptions import UnanswerableQuery
from repro.views.hierarchical import HierarchicalView
from repro.views.histogram import HistogramView
from repro.views.registry import ViewRegistry
from repro.views.transform import is_answerable, transform

SCHEMA = Schema((
    Attribute("a", IntegerDomain(0, 31)),
    Attribute("b", IntegerDomain(0, 4)),
    Attribute("w", IntegerDomain(0, 39, bin_size=10)),
    Attribute("c", CategoricalDomain(("x", "y", "z"))),
))


def make_registry() -> ViewRegistry:
    rows = np.arange(60)
    table = Table(SCHEMA, {
        "a": rows % 10, "b": rows % 5, "w": rows % 40,
        "c": np.array(["x", "y", "z"])[rows % 3],
    })
    registry = ViewRegistry(Database({"t": table, "u": table}))
    for attributes in (("a",), ("b",), ("w",), ("c",), ("a", "c")):
        registry.add(HistogramView("t." + "_".join(attributes), "t",
                                   attributes, SCHEMA))
    registry.add(HierarchicalView("t.a#dyadic", "t", "a", SCHEMA))
    return registry


# -- the oracle: sweep every registered view --------------------------------
def sweep_compile(registry: ViewRegistry, statement, clip=None):
    """The pre-index algorithm: probe every view for answerability, then
    compile the answerable ones and keep the cheapest."""
    best, best_cost = None, float("inf")
    for name in registry.view_names:
        view = registry.view(name)
        hierarchical = isinstance(view, HierarchicalView)
        if not (view.answerable(statement) if hierarchical
                else is_answerable(statement, view)):
            continue
        try:
            query = (view.to_linear(statement) if hierarchical
                     else transform(statement, view, clip))
        except UnanswerableQuery:
            continue
        cost = view.sensitivity() ** 2 * query.weight_norm_sq
        if cost < best_cost:
            best, best_cost = (view, query), cost
    if best is None:
        raise UnanswerableQuery(f"no registered view answers: {statement}")
    return best


def sweep_select(registry: ViewRegistry, statement):
    answering = [registry.view(name) for name in registry.view_names
                 if isinstance(registry.view(name), HistogramView)
                 and is_answerable(statement, registry.view(name))]
    if not answering:
        raise UnanswerableQuery(f"no registered view answers: {statement}")
    return min(answering, key=lambda v: v.size)


def outcome(function, *args):
    try:
        result = function(*args)
    except UnanswerableQuery as exc:
        return ("raised", type(exc), str(exc))
    if isinstance(result, tuple):
        view, query = result
        return (view.name, query.weights.tolist())
    return (result.name,)


SCALARS = [
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(*) FROM t WHERE a >= 2 AND a <= 3",
    "SELECT COUNT(*) FROM t WHERE a BETWEEN 0 AND 31",      # dyadic wins
    "SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 3 AND c IN ('x', 'z')",
    "SELECT COUNT(*) FROM t WHERE c != 'y'",
    "SELECT COUNT(a) FROM t WHERE b = 2",
    "SELECT SUM(a) FROM t WHERE a > 4",
    "SELECT SUM(a) FROM t WHERE c = 'x'",
    "SELECT COUNT(*) FROM t WHERE w BETWEEN 10 AND 29",      # bin-aligned
    "SELECT COUNT(*) FROM t WHERE w BETWEEN 5 AND 29",       # misaligned
    "SELECT COUNT(*) FROM t WHERE a >= 2 AND b <= 3",        # no joint view
    "SELECT COUNT(*) FROM t WHERE a > 50",                   # selects nothing
    "SELECT COUNT(*) FROM t WHERE c < 'y'",                  # ordered on cat.
    "SELECT SUM(c) FROM t",                                  # non-numeric
    "SELECT MIN(a) FROM t",
    "SELECT COUNT(*), SUM(a) FROM t WHERE a >= 2",           # two aggregates
    "SELECT COUNT(*) FROM u WHERE a >= 2",                   # no views on u
    "SELECT COUNT(*) FROM nowhere WHERE a >= 2",
    "SELECT COUNT(*) FROM t WHERE missing = 1",
    "SELECT a, COUNT(*) FROM t GROUP BY a",                  # not scalar
]

SELECTS = [
    "SELECT a, COUNT(*) FROM t GROUP BY a",
    "SELECT c, COUNT(*) FROM t WHERE a >= 3 GROUP BY c",
    "SELECT a, c, SUM(a) FROM t GROUP BY a, c",
    "SELECT b, COUNT(*) FROM t WHERE a >= 3 GROUP BY b",     # no joint view
    "SELECT AVG(a) FROM t WHERE a >= 3",
    "SELECT AVG(a) FROM t WHERE c = 'x'",
    "SELECT AVG(w) FROM t WHERE w BETWEEN 5 AND 29",         # misaligned
    "SELECT AVG(c) FROM t",
    "SELECT a, COUNT(*) FROM u GROUP BY a",
]


@pytest.mark.parametrize("sql", SCALARS)
def test_compile_agrees_with_the_sweep(sql):
    registry = make_registry()
    statement = parse(sql)
    assert outcome(registry.compile, statement) \
        == outcome(sweep_compile, registry, statement)


@pytest.mark.parametrize("sql", SELECTS)
def test_select_agrees_with_the_sweep(sql):
    registry = make_registry()
    statement = parse(sql)
    assert outcome(registry.select, statement) \
        == outcome(sweep_select, registry, statement)


def test_clip_reaches_the_single_transform():
    registry = make_registry()
    statement = parse("SELECT SUM(a) FROM t WHERE a > 4")
    assert outcome(registry.compile, statement, (0.0, 6.0)) \
        == outcome(sweep_compile, registry, statement, (0.0, 6.0))
    assert outcome(registry.compile, statement, (6.0, 0.0))[0] == "raised"


def test_new_cheaper_view_wins_mid_stream():
    registry = make_registry()
    joint = parse("SELECT COUNT(*) FROM t WHERE a >= 0 AND a <= 3 "
                  "AND b >= 1 AND b <= 2")
    narrow = parse("SELECT COUNT(*) FROM t WHERE a = 3 AND c = 'x'")
    with pytest.raises(UnanswerableQuery):
        registry.compile(joint)
    assert registry.compile(narrow)[0].name == "t.a_c"
    generation = registry.routing_counters()["generation"]
    registry.add(HistogramView("t.a_b", "t", ("a", "b"), SCHEMA))
    registry.add(HistogramView("t.a_c_again", "t", ("a", "c"), SCHEMA))
    assert registry.routing_counters()["generation"] == generation + 2
    assert registry.compile(joint)[0].name == "t.a_b"
    # Equal cost: the earlier registration keeps the statement.
    assert registry.compile(narrow)[0].name == "t.a_c"
    for sql in SCALARS:
        statement = parse(sql)
        assert outcome(registry.compile, statement) \
            == outcome(sweep_compile, registry, statement)
    for sql in SELECTS:
        statement = parse(sql)
        assert outcome(registry.select, statement) \
            == outcome(sweep_select, registry, statement)


def test_each_covering_view_is_transformed_exactly_once(monkeypatch):
    import repro.views.registry as registry_module

    registry = make_registry()
    seen = []

    def counting(statement, view, clip=None):
        seen.append(view.name)
        return transform(statement, view, clip)

    monkeypatch.setattr(registry_module, "transform", counting)
    registry.compile(parse("SELECT COUNT(*) FROM t WHERE a >= 2 AND a <= 7"))
    # Flat views covering {a}; t.b, t.w and t.c are never touched.
    assert seen == ["t.a", "t.a_c"]


def test_candidates_depend_on_columns_not_literals():
    registry = make_registry()
    first = registry.candidates(parse(
        "SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 3 AND c IN ('x')"))
    second = registry.candidates(parse(
        "SELECT COUNT(*) FROM t WHERE c = 'z' AND a > 8"))
    assert [v.name for v in first] == ["t.a_c"]
    assert second is first
    statement = parse("SELECT COUNT(*) FROM t WHERE a = 2 AND c = 'y'")
    assert outcome(registry.compile, statement, None, first) \
        == outcome(sweep_compile, registry, statement)


def test_counters_count_index_probes():
    registry = make_registry()
    before = registry.routing_counters()
    # Every subset of every view's attributes, per table: {}, {a}, {b},
    # {w}, {c}, {a, c}.
    assert before["entries"] == 6
    registry.compile(parse(SCALARS[1]))
    with pytest.raises(UnanswerableQuery):
        registry.compile(parse("SELECT COUNT(*) FROM t WHERE missing = 1"))
    after = registry.routing_counters()
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"] + 1
    assert after["entries"] == before["entries"]  # statements never grow it
    assert set(after) == {"hits", "misses", "entries", "generation",
                          "hit_rate"}
    assert all(isinstance(v, (int, float)) for v in after.values())
    assert after["hit_rate"] == pytest.approx(0.5)
