"""Query transformation: SQL -> linear query over a view (Def. 6).

A statement is *answerable* over a view ``V`` when

* it targets the view's relation;
* every predicate column is one of the view's attributes;
* the aggregate is ``COUNT(*)`` (indicator weights) or ``SUM``/``AVG`` over a
  numeric view attribute (value-weighted bins, optionally clipped per the
  paper's Appendix D).

``GROUP BY`` over view attributes is compiled to one linear query per group
bin (full-domain semantics, so absent values appear as noisy-zero bins).

Every condition reduces to bin indices without visiting the bins.  On an
:class:`IntegerDomain` an ordering comparison or ``BETWEEN`` becomes the
inclusive integer range it admits (``x < 7.5`` admits ``x <= 7``), and
integer arithmetic maps that range to a slice of bins; ``=``, ``!=`` and
``IN`` become the bins of the integers their operands equal.  On a
:class:`CategoricalDomain` each operand is one value -> bin dict lookup.
A column's conjunction is one slice, one set of selected and one set of
excluded bins, written straight into a float64 axis mask; the view's
indicator is the outer product of its axis masks.  A bucketised bin
that a condition covers only in part makes the view unanswerable
(bin-misaligned ranges cannot be answered exactly from bucketised
counts — Appendix D's discretisation caveat), and the error names that
bin.  Operands follow python semantics: a bool is the int it equals, a
string equals no integer and cannot be ordered against one, and NaN
admits nothing.
"""

from __future__ import annotations

import math
import numbers

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


#: Comparisons that order values; on a categorical domain they are
#: unanswerable, on an integer domain they select a run of bins.
_ORDERING = ("<", "<=", ">", ">=")

#: The empty inclusive range.
_NOTHING = (math.inf, -math.inf)


def _ceil(x):
    """``math.ceil`` passing ±inf through."""
    return x if isinstance(x, float) and math.isinf(x) else math.ceil(x)


def _floor(x):
    """``math.floor`` passing ±inf through."""
    return x if isinstance(x, float) and math.isinf(x) else math.floor(x)


def _real(value, column: str):
    """``value`` if it is a number (a bool is the int it equals); any
    other operand cannot be ordered against an integer column."""
    if isinstance(value, numbers.Real):
        return value
    raise UnanswerableQuery(
        f"non-numeric operand {value!r} for integer column {column!r}"
    )


def value_range(cond: Comparison | Between) -> tuple:
    """The integers an ordering comparison, ``BETWEEN`` or ``=`` admits,
    as an inclusive ``(low, high)``; ends may be ±inf and ``low > high``
    admits none (``x < 7.5`` is ``(-inf, 7)``, ``x = 2.5`` is
    ``(3, 2)``).  A NaN operand admits nothing; a non-numeric operand
    raises :class:`UnanswerableQuery`."""
    if isinstance(cond, Between):
        low, high = _real(cond.low, cond.column), _real(cond.high, cond.column)
        if not low <= high:  # an empty interval, or a NaN end
            return _NOTHING
        return _ceil(low), _floor(high)
    x = _real(cond.value, cond.column)
    if x != x:
        return _NOTHING
    op = cond.op
    if op == "<":
        return -math.inf, _ceil(x) - 1
    if op == "<=":
        return -math.inf, _floor(x)
    if op == ">":
        return _floor(x) + 1, math.inf
    if op == ">=":
        return _ceil(x), math.inf
    return _ceil(x), _floor(x)  # "="


def _misaligned(column: str, domain: IntegerDomain, index: int
                ) -> UnanswerableQuery:
    low, high = domain.bin_bounds(index)
    return UnanswerableQuery(
        f"predicate on {column!r} is not aligned with the view's bin "
        f"boundaries (bin [{low}, {high}])"
    )


def _ordered_slice(domain: IntegerDomain, cond: Comparison | Between
                   ) -> tuple[int, int]:
    """Bins ``[start, stop)`` an ordering comparison or ``BETWEEN``
    selects.  Only the bins holding the two ends of its range can be cut,
    so alignment is two integer checks, not a pass over the bins."""
    low, high = value_range(cond)
    origin, width = domain.low, domain.bin_size
    nan_end = width > 1 and isinstance(cond, Between) \
        and (cond.low != cond.low or cond.high != cond.high)
    if nan_end:
        # A NaN end fails every comparison, so no bucketised bin lies
        # wholly inside the interval and every bin the other end admits
        # is cut (a width-1 domain selects nothing instead).
        low = -math.inf if cond.low != cond.low else _ceil(cond.low)
        high = math.inf if cond.high != cond.high else _floor(cond.high)
    low, high = max(low, origin), min(high, domain.high)
    if low > domain.high or high < origin:
        return 0, 0
    first, last = (low - origin) // width, (high - origin) // width
    if nan_end or low != origin + first * width:
        raise _misaligned(cond.column, domain, first)
    if high != min(origin + last * width + width - 1, domain.high):
        raise _misaligned(cond.column, domain, last)
    return first, last + 1


def _integer_points(domain: IntegerDomain, operands, column: str
                    ) -> set[int]:
    """Bins holding an integer some operand equals.  Strings, NaN, ±inf
    and fractional floats equal no integer; a bucketised bin holding
    some but not all of its integers is cut."""
    origin, width = domain.low, domain.bin_size
    members: dict[int, set[int]] = {}
    for value in operands:
        if not isinstance(value, numbers.Real) or value != value \
                or value in (math.inf, -math.inf):
            continue
        k = math.floor(value)
        if k == value and origin <= k <= domain.high:
            members.setdefault((k - origin) // width, set()).add(k)
    if width > 1:
        for index in sorted(members):
            low, high = domain.bin_bounds(index)
            if len(members[index]) <= high - low:
                raise UnanswerableQuery(
                    f"predicate on {column!r} selects part of a bucketised "
                    f"bin [{low}, {high}]"
                )
    return set(members)


def _categorical_points(domain: CategoricalDomain, operands) -> set[int]:
    """Bins whose value an operand equals, under python equality (``1``,
    ``1.0`` and ``True`` name the same bin); an operand the domain lacks
    selects no bin."""
    points = set()
    for operand in operands:
        try:
            points.add(domain.index_of(operand))
        except SchemaError:
            pass
    return points


def _axis_mask(domain: Domain, conditions) -> np.ndarray:
    """Inclusion vector of a conjunction of conditions over one
    attribute's bins.

    The conjunction is kept as one slice (ordering comparisons), one
    optional set of selected bins (``=``, ``IN``) and one set of excluded
    bins (``!=``), and written into a zero vector.  Conditions are
    reduced in statement order, so the first unanswerable one names the
    error.
    """
    integer = isinstance(domain, IntegerDomain)
    start, stop = 0, domain.size
    points = None
    excluded: set[int] = set()
    for cond in conditions:
        if isinstance(cond, InList):
            operands = cond.values
        elif isinstance(cond, Comparison) and cond.op not in _ORDERING:
            operands = (cond.value,)
        elif integer:
            first, last = _ordered_slice(domain, cond)
            start, stop = max(start, first), min(stop, last)
            continue
        else:
            raise UnanswerableQuery(
                f"ordering comparison on categorical column {cond.column!r}"
            )
        bins = (_integer_points(domain, operands, cond.column) if integer
                else _categorical_points(domain, operands))
        if isinstance(cond, Comparison) and cond.op == "!=":
            excluded |= bins
        else:
            points = bins if points is None else points & bins
    mask = np.zeros(domain.size)
    if points is None:
        mask[start:stop] = 1
    else:
        for i in points:
            if start <= i < stop:
                mask[i] = 1
    for i in excluded:
        mask[i] = 0
    return mask


def _bin_mask_for_condition(domain: Domain, cond: Condition) -> np.ndarray:
    """Boolean inclusion vector of one condition."""
    return _axis_mask(domain, (cond,)) == 1


def _indicator(statement: SelectStatement, view: HistogramView) -> np.ndarray:
    """Flattened 0/1 inclusion weights for the predicate over the view grid."""
    conditions = statement.predicate.conditions
    grid = None
    for attr in view.attributes:
        axis_mask = _axis_mask(view.schema.domain(attr),
                               [c for c in conditions if c.column == attr])
        grid = axis_mask if grid is None \
            else np.multiply.outer(grid, axis_mask)
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
    if not weights.any():
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
