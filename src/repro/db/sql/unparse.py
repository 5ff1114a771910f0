"""AST -> SQL text (the inverse of :func:`repro.db.sql.parser.parse`).

Used by the wire protocol (statements submitted as objects travel as
canonical SQL), by workload generators that manipulate statements
programmatically, and by the parser round-trip property tests.
"""

from __future__ import annotations

from repro.db.sql.ast import (
    Aggregate,
    Between,
    Comparison,
    Condition,
    InList,
    Literal,
    Predicate,
    SelectStatement,
)
from repro.exceptions import SQLError


def _literal(value: Literal) -> str:
    if isinstance(value, bool):
        raise SQLError("boolean literals are not part of the SQL subset")
    if isinstance(value, (int, float)):
        return repr(value)
    return "'" + str(value).replace("'", "''") + "'"


def _aggregate(agg: Aggregate) -> str:
    inner = "*" if agg.column is None else agg.column
    return f"{agg.func}({inner})"


def _condition(cond: Condition) -> str:
    if isinstance(cond, Comparison):
        return f"{cond.column} {cond.op} {_literal(cond.value)}"
    if isinstance(cond, Between):
        return (f"{cond.column} BETWEEN {_literal(cond.low)} "
                f"AND {_literal(cond.high)}")
    if isinstance(cond, InList):
        values = ", ".join(_literal(v) for v in cond.values)
        return f"{cond.column} IN ({values})"
    raise SQLError(f"unknown condition type {type(cond).__name__}")


def _predicate(predicate: Predicate) -> str:
    return " AND ".join(_condition(c) for c in predicate.conditions)


def to_sql(statement: SelectStatement) -> str:
    """Render a statement as canonical SQL text.

    The output parses back to an equal AST (modulo the ``<>`` vs ``!=``
    normalisation the parser already applies).
    """
    items = list(statement.group_by) + [
        _aggregate(a) for a in statement.aggregates
    ]
    parts = [f"SELECT {', '.join(items)}", f"FROM {statement.table}"]
    if statement.predicate.conditions:
        parts.append(f"WHERE {_predicate(statement.predicate)}")
    if statement.group_by:
        parts.append(f"GROUP BY {', '.join(statement.group_by)}")
    return " ".join(parts)


__all__ = ["to_sql"]
