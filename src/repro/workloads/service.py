"""Request streams and analyst rosters for driving a :class:`QueryService`.

* :func:`make_service_analysts` — the roster ``repro serve`` registers
  (``analyst_00``, ``analyst_01``, ... over a fixed privilege ladder).
* :func:`bfs_style_queries` — the counting queries a BFS traversal of one
  attribute issues (the exact shapes :class:`repro.workloads.bfs.BfsExplorer`
  emits, laid out statically so a replay is deterministic).
* :func:`disjoint_view_attribute_sets` + :func:`build_disjoint_workload` —
  the disjoint-view workload: each analyst's stream targets its own wide
  marginal view (every predicate covers all of that view's attributes, so
  no other view answers it), which means per-view critical sections never
  contend across analysts.  Register the views with
  ``engine.register_view(attrs)`` for each set.

The smoke scripts and the service tests replay these streams; the
benchmark (``perf/``) generates its own traffic.
"""

from __future__ import annotations

import itertools

from repro.core.analyst import Analyst
from repro.datasets.base import DatasetBundle
from repro.dp.rng import SeedLike, ensure_generator
from repro.exceptions import ReproError
from repro.service.session import QueryRequest
from repro.workloads.rrq import ordered_attributes

#: Privilege ladder the analysts cycle through (paper's 1..10 scale).
_PRIVILEGES = (1, 2, 4, 6, 8, 10)


def make_service_analysts(num_analysts: int) -> list[Analyst]:
    """``num_analysts`` analysts over the default privilege ladder."""
    return [Analyst(f"analyst_{i:02d}", _PRIVILEGES[i % len(_PRIVILEGES)])
            for i in range(num_analysts)]


def _dyadic_ranges(low: int, high: int, depth: int) -> list[tuple[int, int]]:
    """All BFS decomposition-tree nodes down to ``depth`` (root = level 0)."""
    ranges = [(low, high)]
    level = [(low, high)]
    for _ in range(depth):
        nxt: list[tuple[int, int]] = []
        for lo, hi in level:
            if lo >= hi:
                continue
            mid = (lo + hi) // 2
            nxt.extend([(lo, mid), (mid + 1, hi)])
        ranges.extend(nxt)
        level = nxt
    return ranges


def bfs_style_queries(bundle: DatasetBundle, attribute: str,
                      depth: int = 3) -> list[str]:
    """The counting queries a BFS traversal of ``attribute`` would issue."""
    schema = bundle.database.table(bundle.fact_table).schema
    domain = schema.domain(attribute)
    return [
        (f"SELECT COUNT(*) FROM {bundle.fact_table} "
         f"WHERE {attribute} BETWEEN {lo} AND {hi}")
        for lo, hi in _dyadic_ranges(domain.low, domain.high, depth)
    ]


def disjoint_view_attribute_sets(bundle: DatasetBundle, num_views: int,
                                 width: int = 2) -> list[tuple[str, ...]]:
    """``num_views`` deterministic attribute combinations for wide views.

    Every set starts with an ordered (integer) attribute — so range
    predicates can anchor on it — and is completed from the remaining
    view attributes; sets are unique, generated in a fixed order, and
    independent of any RNG so the same workload can be rebuilt for a
    baseline comparison.
    """
    if width < 2:
        raise ReproError(f"disjoint views need width >= 2, got {width}")
    ordered = ordered_attributes(bundle)
    if not ordered:
        raise ReproError("no ordered attribute to anchor range queries on")
    all_attrs = list(bundle.view_attributes)
    sets: list[tuple[str, ...]] = []
    seen: set[frozenset] = set()
    # Round-robin over the integer anchors; each anchor keeps its own
    # combination cursor so sets spread across anchors deterministically.
    cursors = {
        anchor: itertools.combinations(
            [a for a in all_attrs if a != anchor], width - 1)
        for anchor in ordered
    }
    exhausted: set[str] = set()
    anchors = itertools.cycle(ordered)
    while len(sets) < num_views and len(exhausted) < len(ordered):
        anchor = next(anchors)
        if anchor in exhausted:
            continue
        for rest in cursors[anchor]:
            key = frozenset((anchor,) + rest)
            if key not in seen:
                seen.add(key)
                sets.append((anchor,) + rest)
                break
        else:
            exhausted.add(anchor)
    if len(sets) < num_views:
        raise ReproError(
            f"could not derive {num_views} distinct attribute sets "
            f"(width {width}) from {len(all_attrs)} attributes"
        )
    return sets


def _aligned_range(domain, rng) -> tuple[int, int]:
    """A random [low, high] range aligned with the domain's bin bounds."""
    if getattr(domain, "bin_size", 1) > 1:
        first = int(rng.integers(0, domain.size))
        last = int(rng.integers(first, domain.size))
        return domain.bin_bounds(first)[0], domain.bin_bounds(last)[1]
    low = int(rng.integers(domain.low, domain.high + 1))
    return low, int(rng.integers(low, domain.high + 1))


def build_disjoint_workload(bundle: DatasetBundle, analysts: list[Analyst],
                            queries_per_analyst: int,
                            attribute_sets: list[tuple[str, ...]],
                            accuracy: float = 40000.0,
                            seed: SeedLike = 0
                            ) -> dict[str, list[QueryRequest]]:
    """Per-analyst streams where analyst ``i`` only queries wide view ``i``.

    Every query's predicate covers *all* attributes of the analyst's
    assigned set (a range on the integer anchor, plus membership/threshold
    conditions on the rest), so only the corresponding registered wide
    view can answer it — streams for different analysts touch disjoint
    views.  Accuracy requirements are jittered (half to twice
    ``accuracy``) so strictest-first planning stays exercised.
    """
    rng = ensure_generator(seed)
    schema = bundle.database.table(bundle.fact_table).schema
    table = bundle.fact_table

    workload: dict[str, list[QueryRequest]] = {}
    for i, analyst in enumerate(analysts):
        attrs = attribute_sets[i % len(attribute_sets)]
        anchor, rest = attrs[0], attrs[1:]
        domain = schema.domain(anchor)
        stream: list[QueryRequest] = []
        for _ in range(queries_per_analyst):
            low, high = _aligned_range(domain, rng)
            conditions = [f"{anchor} BETWEEN {low} AND {high}"]
            for attr in rest:
                other = schema.domain(attr)
                if hasattr(other, "values"):  # categorical: membership
                    count = max(1, int(rng.integers(1, other.size + 1)))
                    literals = ", ".join(f"'{v}'"
                                         for v in other.values[:count])
                    conditions.append(f"{attr} IN ({literals})")
                else:  # integer: bin-aligned threshold
                    cut, _ = _aligned_range(other, rng)
                    conditions.append(f"{attr} >= {cut}")
            sql = (f"SELECT COUNT(*) FROM {table} "
                   f"WHERE {' AND '.join(conditions)}")
            jitter = float(accuracy * 2.0 ** rng.uniform(-1.0, 1.0))
            stream.append(QueryRequest(sql, accuracy=jitter))
        workload[analyst.name] = stream
    return workload


__all__ = [
    "bfs_style_queries",
    "build_disjoint_workload",
    "disjoint_view_attribute_sets",
    "make_service_analysts",
]
