"""Query transformation: SQL -> linear query over a view (Def. 6).

A statement is *answerable* over a view ``V`` when

* it targets the view's relation;
* every predicate column is one of the view's attributes;
* the aggregate is ``COUNT(*)`` (indicator weights) or ``SUM``/``AVG`` over a
  numeric view attribute (value-weighted bins, optionally clipped per the
  paper's Appendix D).

``GROUP BY`` over view attributes is compiled to one linear query per group
bin (full-domain semantics, so absent values appear as noisy-zero bins).
"""

from __future__ import annotations

import operator

import numpy as np

from repro.db.schema import CategoricalDomain, Domain, IntegerDomain
from repro.db.sql.ast import (
    Aggregate,
    Between,
    Comparison,
    Condition,
    InList,
    SelectStatement,
)
from repro.exceptions import SchemaError, UnanswerableQuery
from repro.views.histogram import HistogramView
from repro.views.linear import LinearQuery


def is_answerable(statement: SelectStatement, view: HistogramView) -> bool:
    """Full answerability check (Def. 6).

    Structural coverage (table, predicate/aggregate columns) plus, for
    scalar statements, bin alignment: a range that cuts through a
    bucketised bin cannot be answered exactly and makes the view
    inapplicable.  GROUP BY statements are checked structurally only
    (their per-group compilation happens in :func:`transform_group_by`).
    """
    try:
        _check_answerable(statement, view)
        if not statement.group_by:
            transform(statement, view)
        return True
    except UnanswerableQuery:
        return False


def _check_answerable(statement: SelectStatement, view: HistogramView) -> None:
    if statement.table != view.table:
        raise UnanswerableQuery(
            f"query targets {statement.table!r}, view is over {view.table!r}"
        )
    view_attrs = set(view.attributes)
    for column in statement.predicate.columns():
        if column not in view_attrs:
            raise UnanswerableQuery(
                f"predicate column {column!r} not covered by view {view.name!r}"
            )
    for key in statement.group_by:
        if key not in view_attrs:
            raise UnanswerableQuery(
                f"GROUP BY key {key!r} not covered by view {view.name!r}"
            )
    if len(statement.aggregates) != 1:
        raise UnanswerableQuery("view transformation supports one aggregate")
    agg = statement.aggregates[0]
    if agg.func == "COUNT":
        return
    if agg.func in ("SUM", "AVG"):
        if agg.column not in view_attrs:
            raise UnanswerableQuery(
                f"{agg.func} column {agg.column!r} not covered by view"
            )
        if not isinstance(view.schema.domain(agg.column), IntegerDomain):
            raise UnanswerableQuery(f"{agg.func} needs a numeric attribute")
        return
    raise UnanswerableQuery(f"aggregate {agg.func} not answerable over views")


#: Comparison operators; apply to a scalar bin value or, elementwise, to
#: an array of them.
_COMPARE = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


def _is_plain_number(value) -> bool:
    """Numeric operand the vectorized mask path handles (bools keep the
    scalar path's python-equality semantics)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _evaluate_array(values: np.ndarray, cond: Condition) -> np.ndarray:
    """Vectorized condition evaluation over an array of bin values."""
    if isinstance(cond, Comparison):
        return _COMPARE[cond.op](values, cond.value)
    if isinstance(cond, Between):
        return (cond.low <= values) & (values <= cond.high)
    if isinstance(cond, InList):
        return np.isin(values, list(cond.values))
    raise UnanswerableQuery(  # pragma: no cover - parser limited
        f"unsupported condition {type(cond).__name__}"
    )


def _integer_bin_mask(domain: IntegerDomain, cond: Condition,
                      ordered: bool) -> np.ndarray | None:
    """Vectorized mask over an integer domain's bins.

    Returns ``None`` when a non-numeric operand needs the scalar path's
    python-equality semantics.  Semantics (including the partial-overlap
    rejections for ``bin_size > 1``) match the scalar path exactly —
    this is the compile hot loop, evaluated once per domain value before
    vectorization.
    """
    if isinstance(cond, Comparison):
        if not _is_plain_number(cond.value):
            return None
    elif isinstance(cond, Between):
        if not (_is_plain_number(cond.low) and _is_plain_number(cond.high)):
            return None
    elif isinstance(cond, InList):
        if not all(_is_plain_number(v) for v in cond.values):
            return None
    else:
        return None

    lows = domain.low + np.arange(domain.size, dtype=np.int64) \
        * domain.bin_size
    if domain.bin_size == 1:
        return _evaluate_array(lows, cond)

    highs = np.minimum(lows + domain.bin_size - 1, domain.high)
    if ordered:
        if isinstance(cond, Between):
            # Endpoint agreement is NOT sound for intervals: BETWEEN 3
            # AND 4 inside bin [0, 9] fails at both endpoints yet covers
            # interior values.  Use containment directly: a bin is
            # included iff fully inside the interval, excluded iff
            # disjoint from it, misaligned otherwise.
            if cond.low > cond.high:
                # Empty interval: matches nothing, cleanly excluded
                # (same as the bin_size == 1 path).
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
        # Monotone comparisons: the truth set is a half-line, so a bin
        # straddling the threshold disagrees at its endpoints.
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

    # Set-membership over bucketised bins: per-bin count of satisfying
    # values; all-in -> True, all-out -> False, partial -> unanswerable.
    widths = highs - lows + 1
    if isinstance(cond, InList):
        targets = np.unique([v for v in cond.values
                             if domain.low <= v <= domain.high])
        satisfied = (np.searchsorted(targets, highs, side="right")
                     - np.searchsorted(targets, lows, side="left"))
    elif cond.op == "=":
        satisfied = ((lows <= cond.value)
                     & (cond.value <= highs)).astype(np.int64)
    else:  # "!="
        excluded = ((lows <= cond.value)
                    & (cond.value <= highs)).astype(np.int64)
        satisfied = widths - excluded
    full = satisfied == widths
    partial = ~full & (satisfied > 0)
    if partial.any():
        i = int(np.argmax(partial))
        raise UnanswerableQuery(
            f"predicate on {cond.column!r} selects part of a bucketised "
            f"bin [{int(lows[i])}, {int(highs[i])}]"
        )
    return full


def _categorical_bin_mask(domain: CategoricalDomain,
                          cond: Comparison | InList) -> np.ndarray:
    """``=`` / ``!=`` / ``IN`` over an enumerated domain in O(operands).

    The domain's value -> bin lookup is a dict, so an operand selects the
    bin whose value it equals under python equality (``1``, ``1.0`` and
    ``True`` name the same bin) and no bin when the domain lacks it.
    """
    mask = np.zeros(domain.size, dtype=bool)
    operands = cond.values if isinstance(cond, InList) else (cond.value,)
    for operand in operands:
        try:
            mask[domain.index_of(operand)] = True
        except SchemaError:
            pass  # not a domain value: selects nothing
    if isinstance(cond, Comparison) and cond.op == "!=":
        return ~mask
    return mask


def _bin_mask_for_condition(domain: Domain, cond: Condition) -> np.ndarray:
    """Inclusion vector for one condition over one attribute's bins.

    For integer domains with ``bin_size > 1`` a bin is included only when
    its *entire* value range satisfies the condition; a partial overlap
    makes the query unanswerable over this view (bin-misaligned ranges
    cannot be answered exactly from bucketised counts — Appendix D's
    discretisation caveat).

    Integer domains with numeric operands take a vectorized path (one
    numpy comparison over the domain instead of a python loop per bin)
    and categorical domains a value -> bin lookup per operand; integer
    domains with exotic operands keep the scalar loop below, whose
    semantics the other two mirror exactly.
    """
    ordered = isinstance(cond, Between) or (
        isinstance(cond, Comparison) and cond.op in ("<", "<=", ">", ">=")
    )
    if isinstance(domain, CategoricalDomain):
        if ordered:
            raise UnanswerableQuery(
                f"ordering comparison on categorical column {cond.column!r}"
            )
        return _categorical_bin_mask(domain, cond)

    if isinstance(domain, IntegerDomain):
        vectorized = _integer_bin_mask(domain, cond, ordered)
        if vectorized is not None:
            return vectorized

    is_wide_integer = (isinstance(domain, IntegerDomain)
                       and domain.bin_size > 1)
    members = set(cond.values) if isinstance(cond, InList) else None

    def evaluate(value) -> bool:
        if isinstance(cond, Comparison):
            return bool(_COMPARE[cond.op](value, cond.value))
        if isinstance(cond, Between):
            return bool(cond.low <= value <= cond.high)
        if isinstance(cond, InList):
            return value in members
        raise UnanswerableQuery(  # pragma: no cover - parser limited
            f"unsupported condition {type(cond).__name__}"
        )

    def wide_bin_inclusion(low: int, high: int) -> bool:
        """All-in -> True, all-out -> False, partial -> unanswerable."""
        if ordered:
            if isinstance(cond, Between):
                # Containment, not endpoint agreement: an interval lying
                # strictly inside the bin fails at both endpoints yet
                # covers interior values (same rule as the vectorized
                # path in _integer_bin_mask).
                if cond.low > cond.high:
                    return False  # empty interval: cleanly excluded
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
        # Set-membership conditions: count how many bin values satisfy.
        if isinstance(cond, (Comparison, InList)):
            if isinstance(cond, InList):
                targets = {v for v in cond.values
                           if isinstance(v, (int, float))
                           and low <= v <= high}
                satisfied = len(targets)
            elif cond.op == "=":
                satisfied = 1 if low <= cond.value <= high else 0
            else:  # "!="
                excluded = 1 if low <= cond.value <= high else 0
                satisfied = (high - low + 1) - excluded
            bin_width = high - low + 1
            if satisfied == 0:
                return False
            if satisfied == bin_width:
                return True
            raise UnanswerableQuery(
                f"predicate on {cond.column!r} selects part of a bucketised "
                f"bin [{low}, {high}]"
            )
        raise UnanswerableQuery(  # pragma: no cover
            f"unsupported condition {type(cond).__name__}"
        )

    mask = np.zeros(domain.size, dtype=bool)
    for i in range(domain.size):
        if is_wide_integer:
            low, high = domain.bin_bounds(i)
            mask[i] = wide_bin_inclusion(low, high)
        else:
            mask[i] = evaluate(domain.value_of(i))
    return mask


def _condition_bin_mask(domain: Domain, conditions: list[Condition]) -> np.ndarray:
    """Boolean inclusion vector over one attribute's bins (conjunction)."""
    mask = np.ones(domain.size, dtype=bool)
    for cond in conditions:
        mask &= _bin_mask_for_condition(domain, cond)
    return mask


def _indicator(statement: SelectStatement, view: HistogramView) -> np.ndarray:
    """Flattened 0/1 inclusion weights for the predicate over the view grid."""
    per_axis: list[np.ndarray] = []
    for attr in view.attributes:
        conditions = [c for c in statement.predicate.conditions if c.column == attr]
        per_axis.append(
            _condition_bin_mask(view.schema.domain(attr), conditions).astype(np.float64)
        )
    grid = per_axis[0]
    for axis_mask in per_axis[1:]:
        grid = np.multiply.outer(grid, axis_mask)
    return grid.reshape(-1)


def _value_weights(view: HistogramView, column: str,
                   clip: tuple[float, float] | None) -> np.ndarray:
    """Per-bin representative values of ``column``, optionally clipped."""
    domain = view.schema.domain(column)
    axis = view.axis_of(column)
    if isinstance(domain, IntegerDomain):
        values = (domain.low
                  + np.arange(domain.size, dtype=np.float64)
                  * domain.bin_size)
    else:  # pragma: no cover - SUM/AVG require integer attributes
        values = np.array([float(domain.value_of(i))
                           for i in range(domain.size)])
    if clip is not None:
        lower, upper = clip
        if upper <= lower:
            raise UnanswerableQuery(f"invalid clip bounds [{lower}, {upper}]")
        values = np.clip(values, lower, upper)
    # Broadcast along the view grid so each bin carries its column value.
    shape = [1] * len(view.shape)
    shape[axis] = domain.size
    grid = np.broadcast_to(values.reshape(shape), view.shape)
    return np.ascontiguousarray(grid).reshape(-1)


def transform(statement: SelectStatement, view: HistogramView,
              clip: tuple[float, float] | None = None) -> LinearQuery:
    """Compile a scalar statement into a :class:`LinearQuery` over ``view``.

    ``AVG`` is compiled as its SUM numerator — callers divide by a noisy
    count (post-processing); see :func:`transform_avg_parts`.
    """
    _check_answerable(statement, view)
    if statement.group_by:
        raise UnanswerableQuery(
            "use transform_group_by for GROUP BY statements"
        )
    agg = statement.aggregates[0]
    indicator = _indicator(statement, view)
    if agg.func == "COUNT":
        weights = indicator
    else:  # SUM or AVG numerator
        weights = indicator * _value_weights(view, agg.column, clip)
    if not np.any(weights):
        # An all-zero query is answerable trivially but meaningless; treat as
        # an empty-support linear query the caller may answer with 0 noise...
        # except variance calibration needs support, so reject it instead.
        raise UnanswerableQuery("predicate selects no bins of the view")
    return LinearQuery(view.name, weights, label=agg.label())


def transform_avg_parts(statement: SelectStatement, view: HistogramView,
                        clip: tuple[float, float] | None = None
                        ) -> tuple[LinearQuery, LinearQuery]:
    """(numerator SUM, denominator COUNT) pair for an AVG statement."""
    agg = statement.aggregates[0]
    if agg.func != "AVG":
        raise UnanswerableQuery("transform_avg_parts requires an AVG aggregate")
    sum_stmt = SelectStatement(
        (Aggregate("SUM", agg.column),), statement.table, statement.predicate
    )
    count_stmt = SelectStatement(
        (Aggregate("COUNT", None),), statement.table, statement.predicate
    )
    return transform(sum_stmt, view, clip), transform(count_stmt, view)


def transform_group_by(statement: SelectStatement, view: HistogramView
                       ) -> list[tuple[tuple, LinearQuery]]:
    """One linear query per group over the *full domain* of the keys.

    Returns ``[(group_key_values, LinearQuery), ...]`` covering every
    combination of the GROUP BY keys' domains — the DP-safe ``GROUP BY*``
    semantics of Appendix D.
    """
    _check_answerable(statement, view)
    if not statement.group_by:
        raise UnanswerableQuery("statement has no GROUP BY keys")
    agg = statement.aggregates[0]
    if agg.func not in ("COUNT", "SUM"):
        raise UnanswerableQuery(f"GROUP BY with {agg.func} not supported")

    base = _indicator(statement, view)
    # One vectorized scatter replaces the per-group selector grids: each
    # bin belongs to exactly one group (the combination of its key-axis
    # coordinates), so the full weight matrix is built in one pass.  The
    # per-bin weights are identical to the old selector-product path —
    # a selector entry is exactly 1.0 on the group's slice and 0.0 off
    # it, so multiplying by it either preserves the weight bit-exactly
    # or zeroes it.
    if agg.func == "SUM":
        base = base * _value_weights(view, agg.column, None)

    key_domains = [view.schema.domain(k) for k in statement.group_by]
    key_axes = [view.axis_of(k) for k in statement.group_by]
    sizes = [d.size for d in key_domains]
    num_bins = base.size
    # Per-bin coordinate along each GROUP BY axis, flattened to match
    # ``base``; their ravelled combination is the bin's group id.
    coords = []
    for axis, domain in zip(key_axes, key_domains):
        shape = [1] * len(view.shape)
        shape[axis] = domain.size
        axis_index = np.broadcast_to(
            np.arange(domain.size).reshape(shape), view.shape)
        coords.append(axis_index.reshape(-1))
    group_of_bin = np.ravel_multi_index(tuple(coords), tuple(sizes))
    matrix = np.zeros((int(np.prod(sizes)), num_bins), dtype=np.float64)
    matrix[group_of_bin, np.arange(num_bins)] = base

    results: list[tuple[tuple, LinearQuery]] = []
    for group, flat_key in enumerate(np.ndindex(*sizes)):
        key_values = tuple(
            d.value_of(i) for d, i in zip(key_domains, flat_key)
        )
        results.append(
            (key_values, LinearQuery(view.name, matrix[group],
                                     label=f"{agg.label()}@{key_values}"))
        )
    return results


__all__ = [
    "is_answerable",
    "transform",
    "transform_avg_parts",
    "transform_group_by",
]
