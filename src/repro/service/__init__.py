"""Concurrent multi-analyst serving layer over the DProvDB engine.

* :mod:`repro.service.session` — sessions and the request/response envelope.
* :mod:`repro.service.planner` — batched planning: group queries by target
  view and run the strictest accuracy first so one synopsis refresh answers
  many queries.
* :mod:`repro.service.cache` — LRU-bounded synopsis storage with hit/miss
  statistics (internally locked for concurrent probes).
* :mod:`repro.service.service` — :class:`QueryService`: the thread-safe
  front-end.  There is no global critical section: atomic check-and-charge
  lives in the provenance table and synopsis consistency in the engine's
  per-view sections; a batch's per-view groups run on the caller's
  thread.
* :mod:`repro.service.executor` — engine-level execution functions: one
  request, one planned entry, one per-view group.

Request streams and analyst rosters for driving a service live in
:mod:`repro.workloads.service`; the benchmark is ``perf/``.
"""

from repro.service.cache import LruSynopsisStore
from repro.service.planner import BatchPlan, PlannedQuery, plan_batch
from repro.service.service import (
    DEFAULT_MAX_CACHED,
    QueryService,
    ServiceStats,
)
from repro.service.session import QueryRequest, QueryResponse, Session

__all__ = [
    "BatchPlan",
    "DEFAULT_MAX_CACHED",
    "LruSynopsisStore",
    "PlannedQuery",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ServiceStats",
    "Session",
    "plan_batch",
]
