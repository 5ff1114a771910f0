"""Hierarchical (dyadic) views for range queries.

The paper's future-work list ("system utility optimization") proposes more
careful cached-synopsis structures, e.g. cumulative histogram views.  This
module implements the classic dyadic-tree view: the view's bins are the
nodes of a complete binary tree over the attribute's domain, each node
storing the count of its dyadic interval.  Any range decomposes into at most
``2 log2(m)`` canonical nodes, so a wide range query has weight norm
``O(log m)`` instead of ``O(width)`` — at the cost of a larger view
sensitivity (one tuple touches a root-to-leaf path: ``sqrt(log2(m) + 1)``).

The registry's cost-based selection (``sensitivity^2 * ||w||^2``) then picks
the flat histogram for narrow queries and the dyadic view for wide ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.db.database import Database
from repro.db.schema import IntegerDomain, Schema
from repro.db.sql.ast import Between, Comparison, SelectStatement
from repro.dp.sensitivity import Neighboring
from repro.exceptions import SchemaError, UnanswerableQuery
from repro.views.linear import LinearQuery
from repro.views.transform import value_range


@dataclass(frozen=True)
class HierarchicalView:
    """A dyadic-interval tree over one integer attribute.

    Storage layout is the standard segment-tree array: with ``m`` the
    smallest power of two at least the domain size, node ``1`` is the root,
    node ``i``'s children are ``2i`` and ``2i+1``, and leaves ``m..2m-1``
    map to domain bins (padded bins are structurally zero).  The view vector
    has length ``2m`` (index 0 unused).
    """

    name: str
    table: str
    attribute: str
    schema: Schema

    def __post_init__(self) -> None:
        domain = self.schema.domain(self.attribute)
        if not isinstance(domain, IntegerDomain):
            raise SchemaError(
                f"hierarchical view needs an integer attribute, "
                f"got {self.attribute!r}"
            )

    # -- geometry -------------------------------------------------------------
    @property
    def domain_size(self) -> int:
        return self.schema.domain(self.attribute).size

    @property
    def leaf_count(self) -> int:
        """``m``: domain size rounded up to a power of two."""
        return 1 << max(0, (self.domain_size - 1).bit_length())

    @property
    def size(self) -> int:
        """Length of the flattened view vector (``2m``)."""
        return 2 * self.leaf_count

    @property
    def height(self) -> int:
        """Number of levels (root to leaf inclusive)."""
        return int(math.log2(self.leaf_count)) + 1

    @property
    def attributes(self) -> tuple[str, ...]:
        return (self.attribute,)

    def sensitivity(self, neighboring: Neighboring = Neighboring.UNBOUNDED
                    ) -> float:
        """One tuple touches its full leaf-to-root path."""
        path = math.sqrt(self.height)
        if neighboring is Neighboring.BOUNDED:
            return math.sqrt(2.0) * path
        return path

    # -- materialisation ----------------------------------------------------------
    def materialize(self, database: Database) -> np.ndarray:
        """Exact node counts (curator-side only)."""
        table = database.table(self.table)
        histogram = table.histogram((self.attribute,)).astype(np.float64)
        m = self.leaf_count
        nodes = np.zeros(2 * m)
        nodes[m:m + histogram.size] = histogram
        for i in range(m - 1, 0, -1):
            nodes[i] = nodes[2 * i] + nodes[2 * i + 1]
        return nodes

    # -- query compilation -----------------------------------------------------------
    def decompose(self, low_bin: int, high_bin: int) -> list[int]:
        """Canonical dyadic nodes covering bins ``[low_bin, high_bin]``."""
        if not 0 <= low_bin <= high_bin < self.domain_size:
            raise UnanswerableQuery(
                f"bin range [{low_bin}, {high_bin}] outside domain"
            )
        m = self.leaf_count
        left = low_bin + m
        right = high_bin + m + 1
        nodes: list[int] = []
        while left < right:
            if left & 1:
                nodes.append(left)
                left += 1
            if right & 1:
                right -= 1
                nodes.append(right)
            left >>= 1
            right >>= 1
        return sorted(nodes)

    def _range_of(self, statement: SelectStatement) -> tuple[int, int]:
        """Extract the single range predicate over this view's attribute."""
        if statement.table != self.table:
            raise UnanswerableQuery(
                f"query targets {statement.table!r}, view is over {self.table!r}"
            )
        if statement.group_by:
            raise UnanswerableQuery("hierarchical views answer scalar queries")
        if len(statement.aggregates) != 1 or \
                statement.aggregates[0].func != "COUNT":
            raise UnanswerableQuery("hierarchical views answer COUNT queries")
        domain = self.schema.domain(self.attribute)
        low, high = domain.low, domain.high
        for cond in statement.predicate.conditions:
            if cond.column != self.attribute:
                raise UnanswerableQuery(
                    f"predicate column {cond.column!r} not covered"
                )
            if isinstance(cond, Comparison) and cond.op == "!=":
                raise UnanswerableQuery(
                    "hierarchical views need contiguous ranges"
                )
            if not isinstance(cond, (Between, Comparison)):
                raise UnanswerableQuery(
                    "hierarchical views need range predicates"
                )
            cond_low, cond_high = value_range(cond)
            low, high = max(low, cond_low), min(high, cond_high)
        if high < low:
            raise UnanswerableQuery("predicate selects no bins of the view")
        return low - domain.low, high - domain.low  # bin indices

    def answerable(self, statement: SelectStatement) -> bool:
        try:
            self._range_of(statement)
            return True
        except UnanswerableQuery:
            return False

    def to_linear(self, statement: SelectStatement) -> LinearQuery:
        """Compile a contiguous COUNT range into node-indicator weights."""
        low_bin, high_bin = self._range_of(statement)
        weights = np.zeros(self.size)
        weights[self.decompose(low_bin, high_bin)] = 1.0
        return LinearQuery(self.name, weights, label="count(range)")


def hierarchical_view(schema: Schema, table: str,
                      attribute: str) -> HierarchicalView:
    """Convenience constructor with the canonical naming scheme."""
    return HierarchicalView(f"{table}.{attribute}#dyadic", table, attribute,
                            schema)


__all__ = ["HierarchicalView", "hierarchical_view"]
