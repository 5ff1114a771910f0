"""Seeded traffic for the benchmark: SQL text and accuracy bounds only.

Everything the program sees is generated here from ``--seed`` and the
dataset's schema (attribute names and declared domains).  Nothing is
imported from ``repro.service.loadgen`` or ``repro.experiments``: a
performance change that edits those must not be able to edit the
traffic it is measured with.

A *call* is what the driver hands to one public entry point:

* single-query workloads: ``(who, sql, accuracy)``;
* ``adhoc_batch``: ``(who, ((sql, accuracy), ...))`` — one ``submit_batch``.

``who`` indexes the workload's analyst roster; calls visit analysts
round-robin so the multi-analyst provenance table is exercised by one
driver thread with one request in flight.  Streams come in *epochs* of a
fixed number of calls; a run executes whole epochs only, so every count
derived from an epoch repeats exactly for a given seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

#: Per-bin synopsis variance the warmed workloads release up front.  The
#: timed stream then asks strictly looser bounds, so it is served from
#: cache and charges nothing.
WARM_PER_BIN = 400.0

#: Epochs whose streams are hashed into the result.  Fixed, so two runs
#: that executed different numbers of epochs still compare hashes.
HASHED_EPOCHS = 2


@dataclass(frozen=True)
class Column:
    """One view attribute: a name and its declared finite domain."""

    name: str
    low: int | None          # integer domains
    high: int | None
    values: tuple | None     # categorical domains

    @property
    def ordered(self) -> bool:
        return self.values is None

    @property
    def size(self) -> int:
        return (self.high - self.low + 1) if self.ordered \
            else len(self.values)


@dataclass(frozen=True)
class Catalog:
    """The only facts about the dataset the generators may read."""

    table: str
    columns: tuple[Column, ...]

    @classmethod
    def of(cls, bundle) -> "Catalog":
        schema = bundle.database.table(bundle.fact_table).schema
        columns = []
        for name in bundle.view_attributes:
            domain = schema.domain(name)
            if hasattr(domain, "values"):
                columns.append(Column(name, None, None, tuple(domain.values)))
            else:
                columns.append(Column(name, int(domain.low),
                                      int(domain.high), None))
        return cls(bundle.fact_table, tuple(columns))

    @property
    def ordered(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.ordered)

    def column(self, name: str) -> Column:
        return next(c for c in self.columns if c.name == name)


# -- predicate and statement text ------------------------------------------------
def _range(rng, column: Column, width: int | None = None) -> tuple[str, int]:
    """A random closed range (of ``width`` values, if given); returns
    (condition text, bins covered)."""
    if width is None:
        a, b = sorted(int(v) for v in
                      rng.integers(column.low, column.high + 1, size=2))
    else:
        a = int(rng.integers(column.low, column.high - width + 2))
        b = a + width - 1
    return f"{column.name} BETWEEN {a} AND {b}", b - a + 1


def _membership(rng, column: Column, k: int | None = None) -> tuple[str, int]:
    """A random IN-list (of ``k`` members, if given) over a categorical
    domain."""
    if k is None:
        k = int(rng.integers(1, max(2, column.size // 2 + 1)))
    picks = sorted(rng.choice(column.size, size=k, replace=False))
    inner = ", ".join(f"'{column.values[int(i)]}'" for i in picks)
    return f"{column.name} IN ({inner})", k


def _condition(rng, column: Column, bins: int | None = None
               ) -> tuple[str, int]:
    return _range(rng, column, bins) if column.ordered \
        else _membership(rng, column, bins)


def count_where(table: str, *conditions: str) -> str:
    return f"SELECT COUNT(*) FROM {table} WHERE " + " AND ".join(conditions)


def group_by_count(table: str, column: Column) -> str:
    return f"SELECT {column.name}, COUNT(*) FROM {table} " \
           f"GROUP BY {column.name}"


def dyadic_ranges(column: Column, depth: int) -> list[tuple[int, int]]:
    """The breadth-first binary decomposition of an ordered domain, level
    by level — the fixed query set the paper's BFS task walks."""
    level = [(column.low, column.high)]
    out: list[tuple[int, int]] = []
    for _ in range(depth):
        out.extend(level)
        nxt = []
        for low, high in level:
            if low < high:
                mid = (low + high) // 2
                nxt += [(low, mid), (mid + 1, high)]
        level = nxt
    return out


# -- workload specifications -----------------------------------------------------
@dataclass(frozen=True)
class Spec:
    """A workload: who asks, under what budget, and how the world is built.

    ``epoch_calls`` maps scale -> calls per epoch.  ``fresh_world`` means
    every epoch runs against a newly built service (its set-up is timed
    per epoch); otherwise one warmed service serves every epoch.
    """

    name: str
    why: str
    analysts: int
    epsilon: float
    fresh_world: bool
    remote: bool
    batch: int
    pair_views: int
    epoch_calls: dict

    def privileges(self) -> list[int]:
        """Privilege levels 1..4, cycled over the roster."""
        return [1 + i % 4 for i in range(self.analysts)]


FRESH_ROUNDS = Spec(
    name="fresh_rounds",
    why="budget life-cycle from fresh to exhausted (paper Fig. 3 shape): "
        "mechanism, provenance reserve/commit/reject and noise calibration "
        "dominate; statement cache and wire do almost nothing",
    analysts=16, epsilon=12.0, fresh_world=True, remote=False, batch=0,
    pair_views=0,
    # rounds x 15 base views x 16 analysts
    epoch_calls={"full": 8 * 15 * 16, "smoke": 2 * 15 * 16},
)

CACHED_HOT = Spec(
    name="cached_hot",
    why="steady-state serving of a hot statement pool from warmed synopses: "
        "only session, dispatch, statement-cache hit and fast lane remain, "
        "so compile/reserve/noise/wire changes must predict no change here",
    analysts=8, epsilon=64.0, fresh_world=False, remote=False, batch=0,
    pair_views=0,
    epoch_calls={"full": 20000, "smoke": 2000},
)

ADHOC_BATCH = Spec(
    name="adhoc_batch",
    why="same warmed read path but every statement text is new and sent in "
        "batches of 32: lexer/parser, view routing/transform, compile-cache "
        "misses and planner grouping dominate",
    analysts=8, epsilon=64.0, fresh_world=False, remote=False, batch=32,
    pair_views=8,
    epoch_calls={"full": 100, "smoke": 4},
)

MIX_REMOTE = Spec(
    name="mix_remote",
    why="the paper's traffic mix (70% range, 20% BFS dyadic, 10% GROUP BY) "
        "over keep-alive HTTP against a durable daemon: client, daemon, "
        "protocol and ledger dominate; the only workload touching GROUP BY, "
        "the ledger and recovery",
    analysts=8, epsilon=48.0, fresh_world=True, remote=True, batch=0,
    pair_views=0,
    epoch_calls={"full": 1200, "smoke": 120},
)

SPECS = {s.name: s for s in (FRESH_ROUNDS, CACHED_HOT, ADHOC_BATCH,
                             MIX_REMOTE)}

#: Statement pool size of ``cached_hot``; fits the 1024-entry statement
#: cache by design.
HOT_POOL = 256
ZIPF_EXPONENT = 1.1

#: Loosest variance bound of ``fresh_rounds``; it halves every round.
FRESH_BASE_ACCURACY = 64000.0

#: Distinct statement texts per base view in one ``fresh_rounds`` epoch.
FRESH_POOL_PER_VIEW = 8

#: Centre of ``mix_remote``'s accuracy jitter (half to twice this).
MIX_ACCURACY = 20000.0


def pair_view_attributes(catalog: Catalog, count: int) -> list[tuple[str, str]]:
    """``count`` (ordered, categorical) attribute pairs, widest domains
    first: wide domains make almost every generated text distinct, which
    is the property ``adhoc_batch`` exists to have."""
    ordered = sorted(catalog.ordered, key=lambda c: (-c.size, c.name))
    categorical = sorted((c for c in catalog.columns if not c.ordered),
                         key=lambda c: (-c.size, c.name))
    return [(ordered[i % len(ordered)].name,
             categorical[i % len(categorical)].name) for i in range(count)]


def warmup_calls(spec: Spec, catalog: Catalog) -> list[tuple]:
    """One strict single-bin query per (analyst, view): releases every
    synopsis the timed stream will read, at ``WARM_PER_BIN``."""
    calls = []
    for column in catalog.columns:
        literal = column.low if column.ordered else f"'{column.values[0]}'"
        sql = count_where(catalog.table, f"{column.name} = {literal}")
        calls += [(who, sql, WARM_PER_BIN) for who in range(spec.analysts)]
    for a, b in pair_view_attributes(catalog, spec.pair_views):
        ca, cb = catalog.column(a), catalog.column(b)
        sql = count_where(catalog.table, f"{a} = {ca.low}",
                          f"{b} = '{cb.values[0]}'")
        calls += [(who, sql, WARM_PER_BIN) for who in range(spec.analysts)]
    return calls


def _loose(rng, bins: int) -> float:
    """A variance bound 1.5-4x looser than the warmed synopsis gives for
    a query covering ``bins`` bins."""
    return float(WARM_PER_BIN * bins * rng.uniform(1.5, 4.0))


def fresh_shape(spec: Spec, catalog: Catalog, rounds: int):
    """How many bins each pooled statement covers, and which pooled
    statement each (round, view, analyst) asks — drawn from a fixed
    generator, not from ``--seed``.

    A query's privacy cost depends on the bins it covers, not on where
    they lie, so fixing the shape makes every epoch of every seed walk
    the same accounting trajectory: ``answered_share`` and
    ``epsilon_per_answer`` are exact, and the seed still moves every
    literal (and so every text and every released value).
    """
    rng = np.random.default_rng(20230614)
    bins = [[_condition(rng, column)[1] for _ in range(FRESH_POOL_PER_VIEW)]
            for column in catalog.columns]
    picks = rng.integers(0, FRESH_POOL_PER_VIEW,
                         size=(rounds, len(catalog.columns), spec.analysts))
    return bins, picks


def _fresh_rounds(spec, catalog, rng, shape) -> list[tuple]:
    """Rounds of one query per (view, analyst) at a bound that halves each
    round.  Texts come from a small per-epoch pool so the statement cache
    hits and the time goes to release, reserve and rejection instead."""
    bins, picks = shape
    pools = [[count_where(catalog.table, _condition(rng, column, b)[0])
              for b in bins[c]] for c, column in enumerate(catalog.columns)]
    out = []
    for r in range(picks.shape[0]):
        accuracy = FRESH_BASE_ACCURACY / 2.0 ** r
        for c in range(len(catalog.columns)):
            for who in range(spec.analysts):
                out.append((who, pools[c][int(picks[r, c, who])], accuracy))
    return out


def hot_pool(catalog: Catalog, rng) -> list[tuple[str, int]]:
    pool = []
    while len(pool) < HOT_POOL:
        column = catalog.columns[len(pool) % len(catalog.columns)]
        condition, bins = _condition(rng, column)
        pool.append((count_where(catalog.table, condition), bins))
    return pool


def _cached_hot(spec, catalog, rng, calls, pool) -> list[tuple]:
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_EXPONENT
    picks = rng.choice(len(pool), size=calls, p=weights / weights.sum())
    jitter = rng.uniform(1.5, 4.0, size=calls)
    return [(i % spec.analysts, pool[int(p)][0],
             float(WARM_PER_BIN * pool[int(p)][1] * j))
            for i, (p, j) in enumerate(zip(picks, jitter))]


def _adhoc_batch(spec, catalog, rng, calls) -> list[tuple]:
    pairs = pair_view_attributes(catalog, spec.pair_views)
    out = []
    for i in range(calls):
        items = []
        for _ in range(spec.batch):
            a, b = pairs[int(rng.integers(0, len(pairs)))]
            cond_a, bins_a = _range(rng, catalog.column(a))
            cond_b, bins_b = _membership(rng, catalog.column(b))
            items.append((count_where(catalog.table, cond_a, cond_b),
                          _loose(rng, bins_a * bins_b)))
        out.append((i % spec.analysts, tuple(items)))
    return out


def _mix_remote(spec, catalog, rng, calls) -> list[tuple]:
    ordered = catalog.ordered
    bfs = [count_where(catalog.table, f"{c.name} BETWEEN {lo} AND {hi}")
           for c in ordered[:2] for lo, hi in dyadic_ranges(c, 5)]
    out = []
    for i in range(calls):
        accuracy = float(MIX_ACCURACY * 2.0 ** rng.uniform(-1.0, 1.0))
        roll = rng.random()
        if roll < 0.10:
            column = catalog.columns[int(rng.integers(0,
                                                      len(catalog.columns)))]
            sql = group_by_count(catalog.table, column)
        elif roll < 0.30:
            sql = bfs[int(rng.integers(0, len(bfs)))]
        else:
            column = ordered[int(rng.integers(0, len(ordered)))]
            sql = count_where(catalog.table, _range(rng, column)[0])
        out.append((i % spec.analysts, sql, accuracy))
    return out


class Stream:
    """The seeded call stream of one workload at one scale."""

    def __init__(self, spec: Spec, catalog: Catalog, seed: int,
                 scale: str) -> None:
        self.spec, self.catalog = spec, catalog
        self.seed, self.scale = int(seed), scale
        self.calls_per_epoch = spec.epoch_calls[scale]
        self.queries_per_epoch = self.calls_per_epoch * max(1, spec.batch)
        self._pool = (hot_pool(catalog, self._rng("pool"))
                      if spec is CACHED_HOT else None)
        self._shape = (fresh_shape(spec, catalog, self.calls_per_epoch
                                   // (len(catalog.columns) * spec.analysts))
                       if spec is FRESH_ROUNDS else None)

    def _rng(self, *key) -> np.random.Generator:
        digest = hashlib.sha256(
            repr((self.spec.name, self.seed, self.scale) + key).encode())
        return np.random.default_rng(
            int.from_bytes(digest.digest()[:8], "big"))

    def engine_seed(self, epoch: int) -> int:
        """Noise seed of the world an epoch runs against (replays of the
        same epoch must draw identical noise)."""
        return int(self._rng("noise", epoch).integers(0, 2 ** 31))

    def epoch(self, index: int) -> list[tuple]:
        rng = self._rng("epoch", index)
        n = self.calls_per_epoch
        if self.spec is FRESH_ROUNDS:
            return _fresh_rounds(self.spec, self.catalog, rng, self._shape)
        if self.spec is CACHED_HOT:
            return _cached_hot(self.spec, self.catalog, rng, n, self._pool)
        if self.spec is ADHOC_BATCH:
            return _adhoc_batch(self.spec, self.catalog, rng, n)
        return _mix_remote(self.spec, self.catalog, rng, n)

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for index in range(HASHED_EPOCHS):
            digest.update(json.dumps(self.epoch(index)).encode())
        return digest.hexdigest()


def queries_of(call: tuple) -> list[tuple[str, float]]:
    """The (sql, accuracy) pairs inside one call, either shape."""
    return list(call[1]) if len(call) == 2 else [(call[1], call[2])]


__all__ = ["ADHOC_BATCH", "CACHED_HOT", "Catalog", "Column", "FRESH_ROUNDS",
           "MIX_REMOTE", "SPECS", "Spec", "Stream", "WARM_PER_BIN",
           "pair_view_attributes", "queries_of", "warmup_calls"]
