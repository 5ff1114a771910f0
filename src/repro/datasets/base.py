"""Common dataset container used by experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.database import Database

#: Generated datasets kept per process, least recently loaded evicted
#: first.  A full-scale Adult is about 5.4 MB of columns.
TABLE_MEMO_SIZE = 8


@dataclass(frozen=True)
class DatasetBundle:
    """A database plus the metadata experiments need.

    Attributes
    ----------
    name:
        Dataset tag ("adult", "tpch") used in reports and seeds.
    database:
        The catalog of relations.
    fact_table:
        Relation the query workloads target.
    view_attributes:
        Attributes over which one histogram view each is built (the paper
        generates "one histogram view on each attribute").
    """

    name: str
    database: Database
    fact_table: str
    view_attributes: tuple[str, ...]

    @property
    def num_rows(self) -> int:
        return self.database.table(self.fact_table).num_rows

    def delta_cap(self) -> float:
        """Upper cap for privacy-constraint deltas: 1 / dataset size."""
        return 1.0 / max(1, self.num_rows)


def integer(value) -> int | None:
    """``value`` as a plain int, or ``None`` if it is not an integer
    (``bool`` is not one here).  The dataset loaders memoise only loads
    whose rows and seed are both integers."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    return None


__all__ = ["DatasetBundle", "TABLE_MEMO_SIZE", "integer"]
