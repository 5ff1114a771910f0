"""Columnar relations.

A :class:`Table` stores one NumPy array per attribute.  Categorical columns
are stored as dense bin codes (int64) so filters and histograms are pure
vector operations; the schema's domain maps codes back to raw values.

Tables are read-only: every stored column and every histogram a table
returns refuses writes, which is what lets one generated dataset be
shared by every engine in a process (see :mod:`repro.datasets.base`).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.db.schema import CategoricalDomain, Schema
from repro.exceptions import SchemaError


class Table:
    """An immutable columnar relation conforming to a :class:`Schema`.

    The table takes ownership of the arrays it is given and makes them
    read-only; each exact histogram is counted once and kept.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]) -> None:
        self._schema = schema
        missing = [n for n in schema.names if n not in columns]
        if missing:
            raise SchemaError(f"missing columns {missing}")
        extra = [n for n in columns if n not in schema]
        if extra:
            raise SchemaError(f"columns {extra} not in schema")

        arrays: dict[str, np.ndarray] = {}
        length = None
        for name in schema.names:
            arr = np.asarray(columns[name])
            if arr.ndim != 1:
                raise SchemaError(f"column {name!r} must be one-dimensional")
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise SchemaError("all columns must have the same length")
            arr.flags.writeable = False
            arrays[name] = arr
        self._columns = arrays
        self._length = int(length or 0)
        self._histograms: dict[tuple[str, ...], np.ndarray] = {}

    @classmethod
    def from_values(cls, schema: Schema,
                    columns: Mapping[str, Sequence]) -> "Table":
        """Build a table from raw values, encoding categoricals to codes."""
        encoded: dict[str, np.ndarray] = {}
        for attr in schema:
            raw = columns[attr.name]
            if isinstance(attr.domain, CategoricalDomain):
                encoded[attr.name] = attr.domain.indices_of(np.asarray(raw, dtype=object))
            else:
                encoded[attr.name] = np.asarray(raw, dtype=np.int64)
        return cls(schema, encoded)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._length

    def __len__(self) -> int:
        return self._length

    def column(self, name: str) -> np.ndarray:
        """Raw stored column (codes for categoricals, ints otherwise)."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def codes(self, name: str) -> np.ndarray:
        """Dense bin codes of the column under its domain."""
        attr = self._schema.attribute(name)
        col = self.column(name)
        if isinstance(attr.domain, CategoricalDomain):
            return col  # already stored as codes
        return attr.domain.indices_of(col)

    def decoded(self, name: str) -> np.ndarray:
        """Column with categorical codes mapped back to raw values."""
        attr = self._schema.attribute(name)
        col = self.column(name)
        if isinstance(attr.domain, CategoricalDomain):
            values = np.array(attr.domain.values, dtype=object)
            return values[col]
        return col

    def filter(self, mask: np.ndarray) -> "Table":
        """New table containing only rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._length,):
            raise SchemaError("mask length does not match table")
        return Table(self._schema,
                     {n: c[mask] for n, c in self._columns.items()})

    def histogram(self, names: Sequence[str]) -> np.ndarray:
        """Exact full-domain contingency table over ``names``.

        Returns an array of shape ``(|Dom(a1)|, ..., |Dom(ak)|)`` counting the
        rows in each cell; this is the non-private answer to the paper's
        histogram view V over those attributes.  It is counted on first
        request and the same read-only array is returned afterwards (two
        threads asking first may both count; the counts are equal).
        """
        key = tuple(names)
        counts = self._histograms.get(key)
        if counts is None:
            counts = self._count(key)
            counts.flags.writeable = False
            self._histograms[key] = counts
        return counts

    def _count(self, names: tuple[str, ...]) -> np.ndarray:
        if not names:
            raise SchemaError("histogram needs at least one attribute")
        dims = [self._schema.domain(n).size for n in names]
        multi = np.ravel_multi_index(
            tuple(self.codes(n) for n in names), dims
        )
        flat = np.bincount(multi, minlength=int(np.prod(dims)))
        return flat.astype(np.int64, copy=False).reshape(dims)


__all__ = ["Table"]
