"""Concurrent multi-analyst serving layer over the DProvDB engine.

* :mod:`repro.service.session` — sessions and the request/response envelope.
* :mod:`repro.service.planner` — batched planning: group queries by target
  view and run the strictest accuracy first so one synopsis refresh answers
  many queries.
* :mod:`repro.service.sharding` — stable view→shard routing and the worker
  pool that executes a batch's per-view groups in parallel.
* :mod:`repro.service.cache` — LRU-bounded synopsis storage with hit/miss
  statistics (internally locked for concurrent probes).
* :mod:`repro.service.service` — :class:`QueryService`: the thread-safe
  front-end.  There is no global critical section: atomic check-and-charge
  lives in the provenance table and synopsis consistency in the engine's
  per-view sections.
* :mod:`repro.service.executor` — engine-level execution functions shared
  by every backend (one code path for threaded and mp).
* :mod:`repro.service.mp_backend` — the multiprocessing backend: forked
  view-shard workers, shared-memory synopses, parent-brokered accounting
  (``QueryService(backend="mp")``).

Request streams and analyst rosters for driving a service live in
:mod:`repro.workloads.service`; the benchmark is ``perf/``.
"""

from repro.service.cache import LruSynopsisStore
from repro.service.planner import BatchPlan, PlannedQuery, plan_batch
from repro.service.service import (
    BACKENDS,
    DEFAULT_MAX_CACHED,
    QueryService,
    ServiceStats,
)
from repro.service.session import QueryRequest, QueryResponse, Session
from repro.service.sharding import DEFAULT_NUM_SHARDS, ShardManager

__all__ = [
    "BACKENDS",
    "BatchPlan",
    "DEFAULT_MAX_CACHED",
    "DEFAULT_NUM_SHARDS",
    "LruSynopsisStore",
    "PlannedQuery",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ServiceStats",
    "Session",
    "ShardManager",
    "plan_batch",
]
