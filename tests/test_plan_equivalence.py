"""A statement compiled by its shape's plan equals the same statement
parsed and compiled in full.

:meth:`DProvDB.compile_statement` compiles a statement whose shape it has
parsed before straight from the literal slots of its text
(:class:`repro.core.compile_cache.StatementPlan`).  The reference here is
the parsed path spelled out: ``parse`` + ``_plan_for`` +
``_compile_routed``.  For every text the two agree on the routing kind,
the chosen view, every part's weights (dtype and bytes) and the
strictness anchor — or both raise the same exception class and message.

The views cover flat integer domains with bins of width 1 to 5, a
categorical domain, two-attribute grids and a dyadic tree; the literals
cover inverted ``BETWEEN`` ends, every comparison operator, ints, halves,
negatives, out-of-domain values, values past int64 and past a double,
malformed numbers, ``''`` escapes, ``IN`` lists with duplicates, and
keyword-case and whitespace variants of one shape.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Analyst, DProvDB
from repro.datasets.base import DatasetBundle
from repro.db.database import Database
from repro.db.schema import Attribute, CategoricalDomain, IntegerDomain, Schema
from repro.db.sql.lexer import scan_slots
from repro.db.sql.parser import parse
from repro.db.table import Table
from repro.exceptions import ReproError

COLORS = ("x", "y", "it's", "")
SCHEMA = Schema([
    Attribute("n1", IntegerDomain(-4, 23)),
    Attribute("n2", IntegerDomain(0, 29, 2)),
    Attribute("n3", IntegerDomain(-5, 24, 3)),
    Attribute("n4", IntegerDomain(0, 39, 4)),
    Attribute("n5", IntegerDomain(1, 28, 5)),       # a short last bin
    Attribute("c", CategoricalDomain(COLORS)),
])
INTEGER = ("n1", "n2", "n3", "n4", "n5")
#: Column sets a statement draws from; the last has no covering view.
COLUMN_SETS = [(name,) for name in INTEGER + ("c",)] + [
    ("n1", "c"), ("n3", "c"), ("n2", "n5"), ("n1", "n2")]


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(7)
    rows = 400
    values = {}
    for attribute in SCHEMA.attributes:
        domain = attribute.domain
        if isinstance(domain, IntegerDomain):
            values[attribute.name] = rng.integers(domain.low, domain.high + 1,
                                                  rows)
        else:
            values[attribute.name] = [COLORS[i] for i in
                                      rng.integers(0, len(COLORS), rows)]
    table = Table.from_values(SCHEMA, values)
    bundle = DatasetBundle("plans", Database({"t": table}), "t",
                           INTEGER + ("c",))
    engine = DProvDB(bundle, [Analyst("a", 4)], 64.0, seed=0)
    for pair in (("n1", "c"), ("n3", "c"), ("n2", "n5")):
        engine.register_view(pair)
    engine.register_hierarchical_view("n1")
    return engine


# -- strategies ------------------------------------------------------------
numbers = st.one_of(
    st.integers(-6, 40).map(str),                   # mostly in domain
    st.integers(-40, 60).map(str),                  # in and out of domain
    st.integers(-80, 120).map(lambda n: str(n / 2)),  # halves and x.0
    st.sampled_from([
        "9223372036854775808", "-9223372036854775809", "1" + "0" * 30,
        "1" + "0" * 400 + ".5",                     # a double's inf
        "1.5.2", "1..2", "7.", "-0", "007",
        "9" * 5000,                                 # past int()'s digit limit
    ]),
)
strings = st.sampled_from(["'x'", "'y'", "'it''s'", "''", "''''", "'3'",
                           "'IN (1, 2)'"])
#: Operands for an integer column and for the categorical one; each
#: mostly of the column's type, sometimes of the other.
operands = {False: st.one_of(numbers, numbers, numbers, strings),
            True: st.one_of(strings, strings, strings, numbers)}
FORMS = ("BETWEEN", "=", "!=", "<>", "<", "<=", ">", ">=", "IN")


@st.composite
def shapes(draw):
    """One statement structure: (aggregate, conditions, GROUP BY keys)."""
    columns = draw(st.sampled_from(COLUMN_SETS))
    integers = [c for c in columns if c in INTEGER]
    kind = draw(st.sampled_from(("count", "sum", "avg", "group_by")))
    if kind == "group_by":
        keys = (draw(st.sampled_from(columns)),)
        aggregate = draw(st.sampled_from(
            ["COUNT(*)"] + [f"SUM({c})" for c in integers]))
    else:
        keys = ()
        aggregate = ("COUNT(*)" if kind == "count" or not integers else
                     f"{kind.upper()}({draw(st.sampled_from(integers))})")
    conditions = draw(st.lists(
        st.tuples(st.sampled_from(columns), st.sampled_from(FORMS)),
        min_size=1, max_size=2))
    return aggregate, conditions, keys


def fillings(conditions):
    """Literal texts for each condition of a shape."""
    def one(column, form):
        literals = operands[column == "c"]
        if form == "BETWEEN":
            return st.tuples(literals, literals)
        if form == "IN":
            return st.lists(literals, min_size=1, max_size=5).map(tuple)
        return literals.map(lambda text: (text,))
    return st.tuples(*(one(column, form) for column, form in conditions))


def render(shape, filling, style) -> str:
    aggregate, conditions, keys = shape
    upper, gap = style
    words = {w: (w if upper else w.lower())
             for w in ("SELECT", "FROM", "WHERE", "AND", "BETWEEN", "IN",
                       "GROUP", "BY")}
    predicate = []
    for (column, form), texts in zip(conditions, filling):
        if form == "BETWEEN":
            predicate.append(f"{column} {words['BETWEEN']} {texts[0]}"
                             f"{gap}{words['AND']} {texts[1]}")
        elif form == "IN":
            predicate.append(f"{column} {words['IN']} ({', '.join(texts)})")
        else:
            predicate.append(f"{column}{gap}{form}{gap}{texts[0]}")
    select = ", ".join(keys + (aggregate,))
    sql = (f"{words['SELECT']} {select} {words['FROM']}{gap}t "
           f"{words['WHERE']} " + f" {words['AND']} ".join(predicate))
    if keys:
        sql += f" {words['GROUP']} {words['BY']} {', '.join(keys)}"
    return sql


@st.composite
def same_shape_texts(draw):
    """A warm text (every literal ``1``) and fresh fillings of its shape,
    each in one of the shape's keyword-case / whitespace variants."""
    shape = draw(shapes())
    styles = [(True, " "), (False, "  "), (True, "\n\t")]
    warm = tuple(tuple("1" for _ in texts) for texts in
                 draw(fillings(shape[1])))
    texts = []
    for _ in range(draw(st.integers(1, 5))):
        style = draw(st.sampled_from(styles))
        texts.append((render(shape, warm, style),
                      render(shape, draw(fillings(shape[1])), style)))
    return texts


# -- the two paths --------------------------------------------------------
def _bits(query):
    return None if query is None else \
        (query.weights.dtype.str, query.weights.tobytes())


def _product(entry):
    parts = (entry.group_parts if entry.kind == "group_by" else
             entry.avg_parts if entry.kind == "avg" else (entry.query,))
    if entry.kind == "group_by":
        parts = [(key, _bits(query)) for key, query in parts]
    else:
        parts = [_bits(query) for query in parts]
    return entry.kind, entry.view.name, parts, _bits(entry.strictest)


def _outcome(compile_text, sql):
    try:
        return _product(compile_text(sql))
    except (ReproError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def reference(engine, sql):
    statement = parse(sql)
    return engine._compile_routed(statement, engine._plan_for(statement))


class TestPlanAgainstFullParse:
    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(texts=same_shape_texts())
    def test_plan_compiles_what_the_parse_compiles(self, engine, texts):
        cache = engine.statement_cache
        for warm, sql in texts:
            _outcome(engine.compile_statement, warm)   # the shape's plan
            plan_hits = cache.plan_hits
            expected = _outcome(lambda text: reference(engine, text), sql)
            assert _outcome(engine.compile_statement, sql) == expected, sql
            if sql != warm:
                assert cache.plan_hits == plan_hits + 1 \
                    or cache.get(sql) is not None
            if expected[0] in ("scalar", "avg", "group_by"):
                assert engine.compile_statement(sql).statement == parse(sql)

    @pytest.mark.parametrize("sql", [
        # A wide range routes to the dyadic view, a narrow one to a grid.
        "SELECT COUNT(*) FROM t WHERE n1 BETWEEN -4 AND 20",
        "SELECT COUNT(*) FROM t WHERE n1 BETWEEN 3 AND 4",
        "SELECT COUNT(*) FROM t WHERE n1 BETWEEN 9 AND 2",         # low > high
        "SELECT COUNT(*) FROM t WHERE n2 BETWEEN 2 AND 7",         # aligned
        "SELECT COUNT(*) FROM t WHERE n2 BETWEEN 3 AND 7",         # cut bin
        "SELECT COUNT(*) FROM t WHERE n5 >= 26",                   # short bin
        "SELECT COUNT(*) FROM t WHERE n1 IN (1, 1, 2.0, 2.5, 'x')",
        "SELECT COUNT(*) FROM t WHERE c IN ('it''s', '', 'it''s')",
        "SELECT COUNT(*) FROM t WHERE c <> '' AND n1 < 3.5",
        "SELECT AVG(n3) FROM t WHERE n3 > -3 AND c = 'y'",
        "SELECT c, SUM(n1) FROM t WHERE n1 <= 9223372036854775808 "
        "GROUP BY c",
        "SELECT n2, COUNT(*) FROM t WHERE n5 = 6 GROUP BY n2",     # cut bin
        "SELECT COUNT(*) FROM t WHERE n1 = 1.5.2",
        "SELECT COUNT(*) FROM t WHERE n1 < 'x'",
    ])
    def test_pinned_statements(self, engine, sql):
        shape, _ = scan_slots(sql)
        # The same shape with every literal slot ("?", or "?)" for an IN
        # list) filled with 1: it parses, so it leaves the shape's plan.
        warm = "".join("1" if part == "?" else "1)" if part == "?)"
                       else part for part in shape)
        assert scan_slots(warm)[0] == shape
        _outcome(engine.compile_statement, warm)
        plan_hits = engine.statement_cache.plan_hits
        expected = _outcome(lambda text: reference(engine, text), sql)
        assert _outcome(engine.compile_statement, sql) == expected
        assert engine.statement_cache.plan_hits == plan_hits + 1
