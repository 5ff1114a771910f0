"""Synthetic TPC-H-shaped dataset.

The paper runs its runtime and BFS experiments on TPC-H at scale factor 1
(1 GB, ~6M ``lineitem`` rows) stored in PostgreSQL.  Reproducing that scale in
pure Python would only slow the harness without changing any comparison, so
the generator defaults to a reduced scale (60k ``lineitem`` rows, 15k
``orders`` rows — the 1:4 TPC-H row ratio) while keeping the TPC-H attribute
domains: quantities 1..50, discounts 0..10%, the seven ship modes, the
three return flags, order dates spread over the 1992-1998 TPC-H window
(bucketised by month).  Pass a larger ``scale`` for stress runs.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.datasets.base import TABLE_MEMO_SIZE, DatasetBundle, integer
from repro.db.database import Database
from repro.db.schema import Attribute, CategoricalDomain, IntegerDomain, Schema
from repro.db.table import Table
from repro.dp.rng import SeedLike, ensure_generator

#: Default lineitem row count (scale 0.01 of TPC-H SF1, row-ratio preserved).
TPCH_DEFAULT_LINEITEM_ROWS = 60000

RETURNFLAG = ("R", "A", "N")
LINESTATUS = ("O", "F")
SHIPMODE = ("REG_AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
ORDERSTATUS = ("O", "F", "P")
ORDERPRIORITY = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT_SPECIFIED", "5-LOW")

#: TPC-H dates span 1992-01 .. 1998-12: 84 month buckets.
NUM_MONTHS = 84


def lineitem_schema() -> Schema:
    return Schema([
        Attribute("quantity", IntegerDomain(1, 50)),
        Attribute("discount", IntegerDomain(0, 10)),       # percent
        Attribute("tax", IntegerDomain(0, 8)),             # percent
        Attribute("returnflag", CategoricalDomain(RETURNFLAG)),
        Attribute("linestatus", CategoricalDomain(LINESTATUS)),
        Attribute("shipmode", CategoricalDomain(SHIPMODE)),
        Attribute("shipdate", IntegerDomain(0, NUM_MONTHS - 1)),
        Attribute("extendedprice", IntegerDomain(0, 99)),  # centile bins
    ])


def orders_schema() -> Schema:
    return Schema([
        Attribute("orderstatus", CategoricalDomain(ORDERSTATUS)),
        Attribute("orderpriority", CategoricalDomain(ORDERPRIORITY)),
        Attribute("orderdate", IntegerDomain(0, NUM_MONTHS - 1)),
        Attribute("totalprice", IntegerDomain(0, 99)),     # centile bins
        Attribute("shippriority", IntegerDomain(0, 1)),
    ])


def generate_lineitem(num_rows: int, rng: np.random.Generator) -> Table:
    n = num_rows
    shipdate = rng.integers(0, NUM_MONTHS, n)
    columns = {
        "quantity": rng.integers(1, 51, n),
        "discount": rng.integers(0, 11, n),
        "tax": rng.integers(0, 9, n),
        "returnflag": rng.choice(3, size=n, p=[0.25, 0.25, 0.50]),
        "linestatus": rng.choice(2, size=n, p=[0.5, 0.5]),
        "shipmode": rng.integers(0, len(SHIPMODE), n),
        "shipdate": shipdate,
        # Price correlates with quantity; binned to percentiles of the range.
        "extendedprice": np.clip(
            (rng.integers(1, 51, n) * 2 + rng.integers(0, 20, n)), 0, 99
        ),
    }
    return Table(lineitem_schema(), columns)


def generate_orders(num_rows: int, rng: np.random.Generator) -> Table:
    n = num_rows
    columns = {
        "orderstatus": rng.choice(3, size=n, p=[0.49, 0.49, 0.02]),
        "orderpriority": rng.integers(0, len(ORDERPRIORITY), n),
        "orderdate": rng.integers(0, NUM_MONTHS, n),
        "totalprice": np.clip(rng.normal(50, 22, n).round().astype(np.int64), 0, 99),
        "shippriority": np.zeros(n, dtype=np.int64),
    }
    return Table(orders_schema(), columns)


def _generate_tables(lineitem_rows: int, seed: SeedLike
                     ) -> tuple[Table, Table]:
    rng = ensure_generator(seed)
    lineitem = generate_lineitem(lineitem_rows, rng)
    orders = generate_orders(max(1, lineitem_rows // 4), rng)
    return lineitem, orders


@functools.lru_cache(maxsize=TABLE_MEMO_SIZE)
def _tpch_tables(lineitem_rows: int, seed: int) -> tuple[Table, Table]:
    return _generate_tables(lineitem_rows, seed)


#: Attributes over which the experiments build one histogram view each.
TPCH_VIEW_ATTRIBUTES = (
    "quantity", "discount", "tax", "returnflag", "linestatus", "shipmode",
    "shipdate", "extendedprice",
)


def load_tpch(lineitem_rows: int = TPCH_DEFAULT_LINEITEM_ROWS,
              seed: SeedLike = 0) -> DatasetBundle:
    """Build the TPC-H bundle; ``lineitem`` is the fact table.

    Both tables are generated once per ``(lineitem_rows, int seed)`` per
    process and shared, read-only, by every bundle loaded with those
    arguments.
    """
    rows, int_seed = integer(lineitem_rows), integer(seed)
    if rows is None or int_seed is None:
        lineitem, orders = _generate_tables(lineitem_rows, seed)
    else:
        lineitem, orders = _tpch_tables(rows, int_seed)
    db = Database({"lineitem": lineitem, "orders": orders})
    return DatasetBundle("tpch", db, "lineitem", TPCH_VIEW_ATTRIBUTES)


__all__ = [
    "NUM_MONTHS",
    "TPCH_DEFAULT_LINEITEM_ROWS",
    "TPCH_VIEW_ATTRIBUTES",
    "generate_lineitem",
    "generate_orders",
    "lineitem_schema",
    "load_tpch",
    "orders_schema",
]
