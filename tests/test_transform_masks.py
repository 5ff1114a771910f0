"""Bin masks: the reduced mask path against the per-bin code it replaced.

:mod:`repro.views.transform` reduces each condition on an integer domain
to a bin-index slice or a set of bins by integer arithmetic and writes
the float mask directly.  The per-bin code it replaced — the vectorized
comparison over every bin and the Python loop over every bin — lives on
here as the oracle, moved unchanged except where marked ``ORACLE
CHANGE``:

1. On a bucketised domain an ``=`` / ``!=`` / ``IN`` operand counts
   toward a bin only if it equals an integer.  The old code counted
   ``0.5`` as a member of bin ``[0, 1]``, so ``IN (0, 0.5)`` selected the
   whole bin and answered for rows holding ``1``; and a string operand of
   ``=`` / ``!=`` crashed with ``TypeError``.
2. An ordering comparison (or ``BETWEEN``) with a non-numeric operand is
   :class:`UnanswerableQuery` — the old code raised ``TypeError`` out of
   the registry.

Every mask the new path returns is also checked against a row-by-row
count, so the oracle's semantics are pinned to the query actually asked.
"""

from __future__ import annotations

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.schema import Attribute, CategoricalDomain, IntegerDomain, Schema
from repro.db.sql.ast import (
    Aggregate,
    Between,
    Comparison,
    InList,
    Predicate,
    SelectStatement,
)
from repro.db.table import Table
from repro.exceptions import UnanswerableQuery
from repro.views.histogram import HistogramView
from repro.views.transform import _axis_mask, transform, transform_group_by

# ---------------------------------------------------------------------------
# The oracle: the per-bin mask code moved out of repro.views.transform.
# ---------------------------------------------------------------------------

_COMPARE = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


def _is_plain_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _equals_integer(value) -> bool:
    """ORACLE CHANGE 1: the operands a bucketised bin can count."""
    return isinstance(value, int) or (isinstance(value, float)
                                      and value.is_integer())


def _evaluate_array(values: np.ndarray, cond) -> np.ndarray:
    """Vectorized condition evaluation over an array of bin values."""
    if isinstance(cond, Comparison):
        return _COMPARE[cond.op](values, cond.value)
    if isinstance(cond, Between):
        return (cond.low <= values) & (values <= cond.high)
    return np.isin(values, list(cond.values))


def _integer_bin_mask(domain: IntegerDomain, cond, ordered: bool):
    """Vectorized mask over an integer domain's bins, or ``None`` when a
    non-numeric operand needs the per-bin loop."""
    if isinstance(cond, Comparison):
        if not _is_plain_number(cond.value):
            return None
    elif isinstance(cond, Between):
        if not (_is_plain_number(cond.low) and _is_plain_number(cond.high)):
            return None
    elif not all(_is_plain_number(v) for v in cond.values):
        return None

    lows = domain.low + np.arange(domain.size, dtype=np.int64) \
        * domain.bin_size
    if domain.bin_size == 1:
        return _evaluate_array(lows, cond)

    highs = np.minimum(lows + domain.bin_size - 1, domain.high)
    if ordered:
        if isinstance(cond, Between):
            if cond.low > cond.high:
                return np.zeros(domain.size, dtype=bool)
            all_in = (cond.low <= lows) & (highs <= cond.high)
            disjoint = (cond.high < lows) | (cond.low > highs)
            partial = ~(all_in | disjoint)
            if partial.any():
                i = int(np.argmax(partial))
                raise UnanswerableQuery(
                    f"predicate on {cond.column!r} is not aligned with "
                    f"the view's bin boundaries (bin [{int(lows[i])}, "
                    f"{int(highs[i])}])"
                )
            return all_in
        in_low = _evaluate_array(lows, cond)
        in_high = _evaluate_array(highs, cond)
        mismatch = in_low != in_high
        if mismatch.any():
            i = int(np.argmax(mismatch))
            raise UnanswerableQuery(
                f"predicate on {cond.column!r} is not aligned with the "
                f"view's bin boundaries (bin [{int(lows[i])}, "
                f"{int(highs[i])}])"
            )
        return in_low

    widths = highs - lows + 1
    if isinstance(cond, InList):
        targets = np.unique([v for v in cond.values
                             if domain.low <= v <= domain.high
                             and _equals_integer(v)])  # ORACLE CHANGE 1
        satisfied = (np.searchsorted(targets, highs, side="right")
                     - np.searchsorted(targets, lows, side="left"))
    else:
        hit = (lows <= cond.value) & (cond.value <= highs) \
            & _equals_integer(cond.value)  # ORACLE CHANGE 1
        satisfied = hit.astype(np.int64) if cond.op == "=" \
            else widths - hit.astype(np.int64)
    full = satisfied == widths
    partial = ~full & (satisfied > 0)
    if partial.any():
        i = int(np.argmax(partial))
        raise UnanswerableQuery(
            f"predicate on {cond.column!r} selects part of a bucketised "
            f"bin [{int(lows[i])}, {int(highs[i])}]"
        )
    return full


def oracle_bin_mask(domain: IntegerDomain, cond) -> np.ndarray:
    """Boolean inclusion vector of one condition, bin by bin."""
    ordered = isinstance(cond, Between) or (
        isinstance(cond, Comparison) and cond.op in ("<", "<=", ">", ">=")
    )
    if ordered:  # ORACLE CHANGE 2
        operands = (cond.low, cond.high) if isinstance(cond, Between) \
            else (cond.value,)
        for operand in operands:
            if not isinstance(operand, (int, float)):
                raise UnanswerableQuery(
                    f"non-numeric operand {operand!r} for integer column "
                    f"{cond.column!r}"
                )
    vectorized = _integer_bin_mask(domain, cond, ordered)
    if vectorized is not None:
        return vectorized

    members = set(cond.values) if isinstance(cond, InList) else None

    def evaluate(value) -> bool:
        if isinstance(cond, Comparison):
            return bool(_COMPARE[cond.op](value, cond.value))
        if isinstance(cond, Between):
            return bool(cond.low <= value <= cond.high)
        return value in members

    def wide_bin_inclusion(low: int, high: int) -> bool:
        """All-in -> True, all-out -> False, partial -> unanswerable."""
        if ordered:
            if isinstance(cond, Between):
                if cond.low > cond.high:
                    return False
                all_in = cond.low <= low and high <= cond.high
                disjoint = cond.high < low or cond.low > high
                if not (all_in or disjoint):
                    raise UnanswerableQuery(
                        f"predicate on {cond.column!r} is not aligned "
                        f"with the view's bin boundaries "
                        f"(bin [{low}, {high}])"
                    )
                return all_in
            in_low, in_high = evaluate(low), evaluate(high)
            if in_low != in_high:
                raise UnanswerableQuery(
                    f"predicate on {cond.column!r} is not aligned with the "
                    f"view's bin boundaries (bin [{low}, {high}])"
                )
            return in_low
        if isinstance(cond, InList):
            satisfied = len({v for v in cond.values
                             if _equals_integer(v)  # ORACLE CHANGE 1
                             and low <= v <= high})
        else:
            hit = _equals_integer(cond.value) \
                and low <= cond.value <= high  # ORACLE CHANGE 1
            satisfied = int(hit) if cond.op == "=" \
                else (high - low + 1) - int(hit)
        if satisfied == 0:
            return False
        if satisfied == high - low + 1:
            return True
        raise UnanswerableQuery(
            f"predicate on {cond.column!r} selects part of a bucketised "
            f"bin [{low}, {high}]"
        )

    mask = np.zeros(domain.size, dtype=bool)
    for i in range(domain.size):
        if domain.bin_size > 1:
            mask[i] = wide_bin_inclusion(*domain.bin_bounds(i))
        else:
            mask[i] = evaluate(domain.value_of(i))
    return mask


def oracle_categorical_mask(domain: CategoricalDomain, cond) -> np.ndarray:
    if not isinstance(cond, InList) and (isinstance(cond, Between)
                                         or cond.op not in ("=", "!=")):
        raise UnanswerableQuery(
            f"ordering comparison on categorical column {cond.column!r}")
    values = [domain.value_of(i) for i in range(domain.size)]
    if isinstance(cond, InList):
        return np.array([v in set(cond.values) for v in values], dtype=bool)
    return np.array([(v == cond.value) == (cond.op == "=") for v in values],
                    dtype=bool)


def oracle_axis_mask(domain, conditions) -> np.ndarray:
    """The old conjunction: AND of the per-condition masks, in order."""
    mask = np.ones(domain.size, dtype=bool)
    for cond in conditions:
        if isinstance(domain, IntegerDomain):
            mask &= oracle_bin_mask(domain, cond)
        else:
            mask &= oracle_categorical_mask(domain, cond)
    return mask


def oracle_indicator(statement: SelectStatement,
                     view: HistogramView) -> np.ndarray:
    grid = None
    for attr in view.attributes:
        axis = oracle_axis_mask(
            view.schema.domain(attr),
            [c for c in statement.predicate.conditions if c.column == attr],
        ).astype(np.float64)
        grid = axis if grid is None else np.multiply.outer(grid, axis)
    return grid.reshape(-1)


def _outcome(function, *args):
    """A mask, or the message of the UnanswerableQuery raised."""
    try:
        return function(*args)
    except UnanswerableQuery as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

#: Operands the parser can produce (ints, floats, strings; a float literal
#: too long for a double is inf) plus what a built statement can carry.
_EDGE_OPERANDS = (math.nan, math.inf, -math.inf, 2 ** 63, -(2 ** 63) - 1,
                  2 ** 70, -(2 ** 70), 10 ** 30, 1e300, -1e300)

operands = st.one_of(
    st.integers(-8, 30),
    st.integers(-16, 60).map(lambda n: n / 2),  # integral and half floats
    st.integers(-8, 30).map(lambda n: n + 0.25),
    st.booleans(),
    st.sampled_from(("x", "", "3")),
    st.sampled_from(_EDGE_OPERANDS),
)

integer_domains = st.builds(
    lambda low, span, width: IntegerDomain(low, low + span, width),
    st.integers(-5, 5), st.integers(0, 20), st.integers(1, 5))


def conditions_on(column: str, values=operands):
    return st.one_of(
        st.builds(Comparison, column=st.just(column),
                  op=st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
                  value=values),
        st.builds(Between, column=st.just(column), low=values, high=values),
        st.builds(InList, column=st.just(column),
                  values=st.lists(values, min_size=1, max_size=4).map(tuple)),
    )


def _row_matches(cond, value) -> bool:
    """SQL semantics of one condition on one row's value."""
    if isinstance(cond, Comparison):
        return bool(_COMPARE[cond.op](value, cond.value))
    if isinstance(cond, Between):
        return bool(cond.low <= value <= cond.high)
    return value in cond.values


# ---------------------------------------------------------------------------
# Integer-domain masks vs the oracle.
# ---------------------------------------------------------------------------

class TestIntegerMaskAgainstOracle:
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(domain=integer_domains,
           conditions=st.lists(conditions_on("n"), min_size=1, max_size=3))
    def test_mask_equals_per_bin_oracle(self, domain, conditions):
        new = _outcome(_axis_mask, domain, conditions)
        old = _outcome(oracle_axis_mask, domain, conditions)
        if isinstance(old, str):
            assert new == old
        else:
            assert isinstance(new, np.ndarray), new
            assert new.dtype == np.float64 and new.shape == (domain.size,)
            assert np.array_equal(new, old.astype(np.float64))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(domain=integer_domains,
           conditions=st.lists(conditions_on("n"), min_size=1, max_size=3),
           data=st.data())
    def test_an_answered_mask_counts_exactly_the_matching_rows(
            self, domain, conditions, data):
        mask = _outcome(_axis_mask, domain, conditions)
        if isinstance(mask, str):
            return
        rows = data.draw(st.lists(st.integers(domain.low, domain.high),
                                  min_size=1, max_size=30))
        table = Table.from_values(Schema([Attribute("n", domain)]),
                                  {"n": rows})
        expected = sum(all(_row_matches(c, v) for c in conditions)
                       for v in rows)
        assert float(mask @ table.histogram(("n",))) == expected

    @pytest.mark.parametrize("cond, width, expected", [
        # low > high selects nothing and cuts nothing, at any width.
        (Between("n", 7, 2), 1, "empty"),
        (Between("n", 7, 2), 4, "empty"),
        # No integer between the ends: a width-1 bin fails, a wide bin
        # holding both neighbours is cut (the old containment rule).
        (Between("n", 1.5, 1.7), 1, "empty"),
        (Between("n", 1.5, 1.7), 4, "not aligned"),
        # A NaN end keeps the old outcome: nothing, or a cut bin.
        (Between("n", math.nan, 5), 1, "empty"),
        (Between("n", math.nan, 5), 2, "not aligned"),
        (Between("n", 3.5, math.nan), 4, "not aligned"),
        (Comparison("n", "<", math.nan), 4, "empty"),
        (Comparison("n", "!=", math.nan), 4, "all"),
        # inf reaches here from SQL text (a float literal past 1.8e308).
        (Comparison("n", "<", math.inf), 4, "all"),
        (Comparison("n", ">=", -math.inf), 1, "all"),
        (Comparison("n", "=", math.inf), 1, "empty"),
        (Comparison("n", "<", 2 ** 70), 3, "all"),
        (Comparison("n", ">", 2 ** 70), 3, "empty"),
        # Bools are the ints they equal.
        (Comparison("n", "=", True), 1, [1]),
        (InList("n", (False, 2.0, "2")), 1, [0, 2]),
        # ORACLE CHANGE 1: a fractional operand is no member of a wide bin.
        (InList("n", (0, 0.5)), 2, "selects part"),
        (InList("n", (0, 1)), 2, [0]),
        (Comparison("n", "=", 2.5), 2, "empty"),
        # ORACLE CHANGE 2: strings never order against integers.
        (Comparison("n", "<", "x"), 1, "non-numeric"),
        (Between("n", "b", "a"), 4, "non-numeric"),
        (Comparison("n", "!=", "x"), 4, "all"),
    ])
    def test_pinned_edges(self, cond, width, expected):
        domain = IntegerDomain(0, 11, width)
        outcome = _outcome(_axis_mask, domain, [cond])
        if expected == "empty":
            assert not outcome.any()
        elif expected == "all":
            assert outcome.all()
        elif isinstance(expected, str):
            assert isinstance(outcome, str) and expected in outcome
        else:
            assert np.flatnonzero(outcome).tolist() == expected
        old = _outcome(oracle_axis_mask, domain, [cond])
        if isinstance(old, str):
            assert outcome == old
        else:
            assert np.array_equal(outcome, old.astype(np.float64))


# ---------------------------------------------------------------------------
# transform / transform_group_by weights vs the oracle-built indicator.
# ---------------------------------------------------------------------------

_COLORS = ("r", "g", "b", 1)


def _view_over(width: int) -> HistogramView:
    schema = Schema([Attribute("n", IntegerDomain(-2, 9, width)),
                     Attribute("c", CategoricalDomain(_COLORS)),
                     Attribute("m", IntegerDomain(0, 3))])
    return HistogramView("t.n_c_m", "t", ("n", "c", "m"), schema)


_categorical_operands = st.sampled_from(_COLORS + ("z", 1.0, True, 0))


@st.composite
def statements(draw, group_by: tuple = ()):
    conditions = draw(st.lists(st.one_of(
        conditions_on("n"),
        conditions_on("m", st.integers(-1, 4)),
        st.builds(Comparison, column=st.just("c"),
                  op=st.sampled_from(("=", "!=")),
                  value=_categorical_operands),
        st.builds(InList, column=st.just("c"),
                  values=st.lists(_categorical_operands, min_size=1,
                                  max_size=3).map(tuple)),
    ), max_size=4))
    return SelectStatement((Aggregate("COUNT"),), "t",
                           Predicate(tuple(conditions)), group_by)


class TestTransformWeightsAgainstOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(width=st.integers(1, 3), statement=statements())
    def test_transform_weights(self, width, statement):
        view = _view_over(width)
        expected = _outcome(oracle_indicator, statement, view)
        try:
            weights = transform(statement, view).weights
        except UnanswerableQuery as exc:
            if isinstance(expected, str):
                assert str(exc) == expected
            else:
                assert not expected.any()
            return
        assert weights.dtype == np.float64
        assert np.array_equal(weights, expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(width=st.integers(1, 3), data=st.data())
    def test_transform_group_by_weights(self, width, data):
        keys = data.draw(st.sampled_from((("c",), ("m",), ("c", "m"))))
        statement = data.draw(statements(keys))
        view = _view_over(width)
        base = _outcome(oracle_indicator, statement, view)
        try:
            parts = transform_group_by(statement, view)
        except UnanswerableQuery as exc:
            assert str(exc) == base
            return
        grid = base.reshape(view.shape)
        axes = [view.axis_of(k) for k in keys]
        combos = list(np.ndindex(*(view.shape[a] for a in axes)))
        assert len(parts) == len(combos)
        for (_, query), combo in zip(parts, combos):
            index = [slice(None)] * len(view.shape)
            for axis, i in zip(axes, combo):
                index[axis] = i
            expected = np.zeros(view.shape)
            expected[tuple(index)] = grid[tuple(index)]
            assert query.weights.dtype == np.float64
            assert np.array_equal(query.weights, expected.reshape(-1))
