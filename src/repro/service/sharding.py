"""View sharding: stable view→shard routing and the parallel batch executor.

The sharded :class:`repro.service.QueryService` no longer funnels
submissions through one global critical section — budget atomicity lives in
:meth:`repro.core.provenance.ProvenanceTable.reserve` and synopsis
consistency in the engine's per-view sections
(:meth:`repro.core.engine.DProvDB.view_section`).  What remains for the
service is *dispatch*: a batch planned into per-view groups should execute
groups on different views concurrently.  :class:`ShardManager` provides
that: views map to one of ``num_shards`` shards by a stable hash, each
shard's groups run sequentially (so two views in one shard never contend
for the engine's locks at the same time), and distinct shards run in
parallel on a bounded worker pool.

Deadlock-freedom: pool tasks only ever acquire engine view locks (in the
engine's sorted-name order) and never wait on other tasks, while the
dispatching thread holds no locks while waiting for the pool — so every
dispatch terminates.
"""

from __future__ import annotations

import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.exceptions import ReproError

#: Default shard count: at most eight view groups of one batch run at
#: once; raise it for wider view sets on bigger hosts.
DEFAULT_NUM_SHARDS = 8

T = TypeVar("T")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset``, a container cpuset), else the host's count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class ShardManager:
    """Routes per-view work onto a bounded worker pool.

    Parameters
    ----------
    num_shards:
        Number of shards (= maximum concurrently executing view groups
        and worker threads).  ``1`` degenerates to inline execution.
    """

    def __init__(self, num_shards: int = DEFAULT_NUM_SHARDS, *,
                 force_pool: bool = False) -> None:
        if num_shards < 1:
            raise ReproError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        # Dispatching to the pool only pays off when shards can actually
        # run in parallel; on a single usable CPU the futures and thread
        # wake-ups are pure overhead, so groups run inline there (the
        # view→shard routing and all locking semantics are identical).
        self._use_pool = force_pool or (num_shards > 1 and usable_cpus() > 1)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_guard = threading.Lock()
        self._closed = False
        #: Dispatch counters (telemetry): total view groups routed, and
        #: how many group batches actually fanned out on the pool.
        self._counter_lock = threading.Lock()
        self.groups_dispatched = 0
        self.parallel_batches = 0

    # -- routing ---------------------------------------------------------------
    def shard_of(self, view_name: str | None) -> int:
        """Stable shard index for a view (hash-based, process-independent).

        ``None`` (unplannable work) routes to shard 0.
        """
        if view_name is None:
            return 0
        return zlib.crc32(view_name.encode("utf-8")) % self.num_shards

    # -- dispatch --------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_guard:
            if self._closed:
                raise ReproError("ShardManager is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_shards,
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    def run_groups(self, groups: Sequence[tuple[str | None, Iterable[T]]],
                   group_fn: Callable[[str | None, Iterable[T]], None]
                   ) -> None:
        """Execute ``group_fn(view_name, items)`` once per group.

        The callee receives whole groups — the granularity the service's
        batched fast lane wants (one versioned cached lookup can answer a
        group's tail in a single pass) — and must keep each group's items
        in order (the planner's strictest-first order carries the cache
        economics).  Groups falling into the same shard run sequentially;
        groups in distinct shards run concurrently on the pool.
        ``group_fn`` is expected to capture its own results/errors (the
        service stores responses by index); an exception escaping it is
        re-raised here after all shards finish, so no work is silently
        dropped.
        """
        by_shard: dict[int, list[tuple[str | None, Iterable[T]]]] = {}
        for view_name, items in groups:
            by_shard.setdefault(self.shard_of(view_name), []).append(
                (view_name, items))

        def run_shard(shard_groups: list[tuple[str | None,
                                               Iterable[T]]]) -> None:
            for view_name, items in shard_groups:
                group_fn(view_name, items)

        if len(by_shard) <= 1 or not self._use_pool:
            with self._counter_lock:
                self.groups_dispatched += len(groups)
            for shard_groups in by_shard.values():
                run_shard(shard_groups)
            return

        with self._counter_lock:
            self.groups_dispatched += len(groups)
            self.parallel_batches += 1
        pool = self._ensure_pool()
        futures = [pool.submit(run_shard, shard_groups)
                   for shard_groups in by_shard.values()]
        errors = []
        for future in futures:
            exc = future.exception()
            if exc is not None:
                errors.append(exc)
        if errors:
            raise errors[0]

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent); pending work completes."""
        with self._pool_guard:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


__all__ = ["DEFAULT_NUM_SHARDS", "ShardManager", "usable_cpus"]
