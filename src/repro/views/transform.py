"""Query transformation: SQL -> linear query over a view (Def. 6).

A statement is *answerable* over a view ``V`` when

* it targets the view's relation;
* every predicate column is one of the view's attributes;
* the aggregate is ``COUNT(*)`` (indicator weights) or ``SUM``/``AVG`` over a
  numeric view attribute (value-weighted bins, optionally clipped per the
  paper's Appendix D).

``GROUP BY`` over view attributes is compiled to one linear query per group
bin (full-domain semantics, so absent values appear as noisy-zero bins).

Those checks read no literal; the weight builders (:func:`linear_query`,
:func:`avg_parts`, :func:`group_parts`) read only ``(op, a, b)`` *terms*
(:func:`terms_of`), which a compile plan builds from literal slots.

Every term reduces to bin indices without visiting the bins.  On an
:class:`IntegerDomain` an ordering comparison or ``BETWEEN`` becomes the
inclusive integer range it admits (``x < 7.5`` admits ``x <= 7``), and
integer arithmetic maps that range to a slice of bins; ``=``, ``!=`` and
``IN`` become the bins of the integers their operands equal.  On a
:class:`CategoricalDomain` each operand is one value -> bin dict lookup.
A column's conjunction is a slice or a list of bins, and the view's
indicator writes every axis's selection straight into one zero grid.  A
bucketised bin that a condition covers only in part makes the view
unanswerable (bin-misaligned ranges cannot be answered exactly from
bucketised counts — Appendix D's discretisation caveat), and the error
names that bin.  Operands follow python semantics: a bool is the int it
equals, a string equals no integer and cannot be ordered against one,
and NaN admits nothing.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.db.schema import CategoricalDomain, Domain, IntegerDomain
from repro.db.sql.ast import Aggregate, Between, InList, SelectStatement
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
        check_answerable(statement, view)
        if not statement.group_by:
            transform(statement, view)
        return True
    except UnanswerableQuery:
        return False


def check_answerable(statement: SelectStatement, view: HistogramView) -> None:
    """The structural half of answerability: it reads no literal, so one
    verdict holds for every statement of a shape."""
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


def terms_of(conditions) -> dict[str, list[tuple]]:
    """Each condition as an ``(op, a, b)`` term, grouped by column in
    statement order."""
    terms: dict[str, list[tuple]] = {}
    for cond in conditions:
        if isinstance(cond, Between):
            term = ("BETWEEN", cond.low, cond.high)
        elif isinstance(cond, InList):
            term = ("IN", cond.values, None)
        else:
            term = (cond.op, cond.value, None)
        terms.setdefault(cond.column, []).append(term)
    return terms


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


def value_range(column: str, op: str, a, b=None) -> tuple:
    """The integers an ordering comparison, ``BETWEEN`` or ``=`` term on
    ``column`` admits, as an inclusive ``(low, high)``; ends may be ±inf
    and ``low > high`` admits none (``x < 7.5`` is ``(-inf, 7)``,
    ``x = 2.5`` is ``(3, 2)``).  A NaN operand admits nothing; a
    non-numeric operand raises :class:`UnanswerableQuery`."""
    if op == "BETWEEN":
        low, high = _real(a, column), _real(b, column)
        if not low <= high:  # an empty interval, or a NaN end
            return _NOTHING
        return _ceil(low), _floor(high)
    x = _real(a, column)
    if x != x:
        return _NOTHING
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


def _ordered_slice(domain: IntegerDomain, column: str, op: str, a, b
                   ) -> tuple[int, int]:
    """Bins ``[start, stop)`` an ordering comparison or ``BETWEEN``
    selects.  Only the bins holding the two ends of its range can be cut,
    so alignment is two integer checks, not a pass over the bins."""
    low, high = value_range(column, op, a, b)
    origin, width = domain.low, domain.bin_size
    nan_end = width > 1 and op == "BETWEEN" and (a != a or b != b)
    if nan_end:
        # A NaN end fails every comparison, so no bucketised bin lies
        # wholly inside the interval and every bin the other end admits
        # is cut (a width-1 domain selects nothing instead).
        low = -math.inf if a != a else _ceil(a)
        high = math.inf if b != b else _floor(b)
    low, high = max(low, origin), min(high, domain.high)
    if low > domain.high or high < origin:
        return 0, 0
    first, last = (low - origin) // width, (high - origin) // width
    if nan_end or low != origin + first * width:
        raise _misaligned(column, domain, first)
    if high != min(origin + last * width + width - 1, domain.high):
        raise _misaligned(column, domain, last)
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


def _axis_bins(domain: Domain, column: str, terms) -> slice | list[int]:
    """The bins of one attribute a conjunction of terms selects: a slice,
    or a list of bin indices.

    The conjunction is kept as one slice (ordering comparisons), one
    optional set of selected bins (``=``, ``IN``) and one set of excluded
    bins (``!=``).  Terms are reduced in statement order, so the first
    unanswerable one names the error.
    """
    integer = isinstance(domain, IntegerDomain)
    start, stop = 0, domain.size
    points = None
    excluded: set[int] = set()
    for op, a, b in terms:
        if op == "IN":
            operands = a
        elif op == "=" or op == "!=":
            operands = (a,)
        elif integer:
            first, last = _ordered_slice(domain, column, op, a, b)
            start, stop = max(start, first), min(stop, last)
            continue
        else:
            raise UnanswerableQuery(
                f"ordering comparison on categorical column {column!r}"
            )
        bins = (_integer_points(domain, operands, column) if integer
                else _categorical_points(domain, operands))
        if op == "!=":
            excluded |= bins
        else:
            points = bins if points is None else points & bins
    if points is None:
        if not excluded:
            return slice(start, stop)
        points = range(start, stop)
    return [i for i in points
            if start <= i < stop and i not in excluded]


def _indicator(view: HistogramView, terms: dict) -> np.ndarray:
    """Flattened 0/1 inclusion weights of ``terms`` over the view grid:
    each attribute's selected bins, written straight into a zero grid
    (their outer product)."""
    shape, bins = [], []
    for attr in view.attributes:
        domain = view.schema.domain(attr)
        shape.append(domain.size)
        bins.append(_axis_bins(domain, attr, terms.get(attr, ())))
    if sum(isinstance(axis, list) for axis in bins) > 1:
        # Two index lists would pair up element-wise; ix_ crosses them.
        bins = np.ix_(*(range(axis.start, axis.stop)
                        if isinstance(axis, slice) else axis
                        for axis in bins))
    grid = np.zeros(shape)
    grid[tuple(bins)] = 1
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


def linear_query(view: HistogramView, aggregate: Aggregate, terms: dict,
                 clip: tuple[float, float] | None = None) -> LinearQuery:
    """``aggregate`` restricted by ``terms`` as a :class:`LinearQuery`
    over ``view``, whose structure is already checked.  ``AVG`` is its
    SUM numerator."""
    weights = _indicator(view, terms)
    if aggregate.func != "COUNT":
        weights = weights * _value_weights(view, aggregate.column, clip)
    query = LinearQuery(view.name, weights, label=aggregate.label())
    if not query.weight_norm_sq and not weights.any():
        # An all-zero query is answerable trivially but meaningless, and
        # variance calibration needs support: reject it.
        raise UnanswerableQuery("predicate selects no bins of the view")
    return query


def transform(statement: SelectStatement, view: HistogramView,
              clip: tuple[float, float] | None = None) -> LinearQuery:
    """Compile a scalar statement into a :class:`LinearQuery` over ``view``.

    ``AVG`` is compiled as its SUM numerator — callers divide by a noisy
    count (post-processing); see :func:`transform_avg_parts`.
    """
    check_answerable(statement, view)
    if statement.group_by:
        raise UnanswerableQuery(
            "use transform_group_by for GROUP BY statements"
        )
    return linear_query(view, statement.aggregates[0],
                        terms_of(statement.predicate.conditions), clip)


def avg_parts(view: HistogramView, column: str, terms: dict,
              clip: tuple[float, float] | None = None
              ) -> tuple[LinearQuery, LinearQuery]:
    """(numerator SUM, denominator COUNT) of ``AVG(column)`` restricted
    by ``terms``, over a structurally checked ``view``."""
    return (linear_query(view, Aggregate("SUM", column), terms, clip),
            linear_query(view, Aggregate("COUNT"), terms))


def transform_avg_parts(statement: SelectStatement, view: HistogramView,
                        clip: tuple[float, float] | None = None
                        ) -> tuple[LinearQuery, LinearQuery]:
    """(numerator SUM, denominator COUNT) pair for an AVG statement."""
    agg = statement.aggregates[0]
    if agg.func != "AVG":
        raise UnanswerableQuery("transform_avg_parts requires an AVG aggregate")
    check_answerable(statement, view)
    return avg_parts(view, agg.column,
                     terms_of(statement.predicate.conditions), clip)


def transform_group_by(statement: SelectStatement, view: HistogramView
                       ) -> list[tuple[tuple, LinearQuery]]:
    """One linear query per group over the *full domain* of the keys.

    Returns ``[(group_key_values, LinearQuery), ...]`` covering every
    combination of the GROUP BY keys' domains — the DP-safe ``GROUP BY*``
    semantics of Appendix D.
    """
    check_answerable(statement, view)
    if not statement.group_by:
        raise UnanswerableQuery("statement has no GROUP BY keys")
    return group_parts(view, statement.aggregates[0], statement.group_by,
                       terms_of(statement.predicate.conditions))


def group_parts(view: HistogramView, aggregate: Aggregate,
                keys: tuple[str, ...], terms: dict
                ) -> list[tuple[tuple, LinearQuery]]:
    """:func:`transform_group_by` over a structurally checked ``view``,
    with the predicate as ``terms``."""
    if aggregate.func not in ("COUNT", "SUM"):
        raise UnanswerableQuery(
            f"GROUP BY with {aggregate.func} not supported")

    base = _indicator(view, terms)
    # One vectorized scatter replaces the per-group selector grids: each
    # bin belongs to exactly one group (the combination of its key-axis
    # coordinates), so the full weight matrix is built in one pass.  The
    # per-bin weights are identical to the old selector-product path —
    # a selector entry is exactly 1.0 on the group's slice and 0.0 off
    # it, so multiplying by it either preserves the weight bit-exactly
    # or zeroes it.
    if aggregate.func == "SUM":
        base = base * _value_weights(view, aggregate.column, None)

    key_domains = [view.schema.domain(k) for k in keys]
    key_axes = [view.axis_of(k) for k in keys]
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

    label = aggregate.label()
    results: list[tuple[tuple, LinearQuery]] = []
    for group, flat_key in enumerate(np.ndindex(*sizes)):
        key_values = tuple(
            d.value_of(i) for d, i in zip(key_domains, flat_key)
        )
        results.append(
            (key_values, LinearQuery(view.name, matrix[group],
                                     label=f"{label}@{key_values}"))
        )
    return results


__all__ = ["avg_parts", "check_answerable", "group_parts", "is_answerable",
           "linear_query", "terms_of", "transform", "transform_avg_parts",
           "transform_group_by", "value_range"]
