"""CI smoke test for the mp backend's worker-crash path.

In-process fault injection (the sibling of ``crash_recovery_smoke.py``,
which SIGKILLs the whole daemon): a forked *worker* is SIGKILLed
mid-batch via :meth:`MpBackend.inject_crash` — exactly as a segfault or
the OOM killer would take it — and the parent must:

1. fail the batch's unanswered queries with the tagged error (never
   silently drop, never hang);
2. charge nothing for any query nobody got an answer to (pending
   brokered reservations roll back);
3. fork a replacement worker and answer the resubmitted queries on it.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/worker_crash_smoke.py
"""

from __future__ import annotations

import sys

from repro.datasets import load_adult
from repro.service.service import QueryService
from repro.service.session import QueryRequest
from repro.workloads.rrq import ordered_attributes
from repro.workloads.service import bfs_style_queries, make_service_analysts

ROWS = 2000
EPSILON = 48.0


def main() -> int:
    bundle = load_adult(num_rows=ROWS, seed=0)
    analysts = make_service_analysts(2)
    service = QueryService.build(
        bundle, analysts, EPSILON, backend="mp", workers=1,
        noise_streams="per_view", seed=0)
    attributes = ordered_attributes(bundle)[:2]
    assert len(attributes) == 2, attributes
    queries = [sql for attr in attributes
               for sql in bfs_style_queries(bundle, attr, depth=2)]

    def batch(accuracy: float) -> list[QueryRequest]:
        return [QueryRequest(sql, accuracy=accuracy) for sql in queries]

    try:
        session = service.open_session(analysts[0].name)
        backend = service.mp_backend

        warm = service.submit_batch(session, batch(2e5))
        assert all(r.answer is not None for r in warm), \
            [r.error for r in warm if r.error]
        spent_before = service.snapshot()["provenance"]["table_total"]

        # A strictly tighter accuracy forces fresh releases (real
        # provenance charges in flight when the worker dies).
        backend.inject_crash(0, after_items=2)
        hurt = service.submit_batch(session, batch(5e4))
        answered = [r for r in hurt if r.answer is not None]
        failed = [r for r in hurt if r.error is not None]
        assert failed, "the injected crash produced no failed responses"
        assert len(answered) <= 2, \
            f"{len(answered)} answers survived a crash_after=2 injection"
        for r in failed:
            assert "died mid-batch" in r.error, r.error
            assert not r.rejected, "crash errors must not count as DP " \
                                   "rejections"

        info = backend.describe()
        assert info["crashes"] >= 1, info
        assert info["restarts"] >= 1, info
        assert info["incarnations"][0] >= 1, info

        # Nothing was charged for the failed queries: the only spend
        # since the pre-crash snapshot belongs to the answered ones.
        spent_after = service.snapshot()["provenance"]["table_total"]
        charged = sum(r.answer.epsilon_charged for r in answered)
        assert spent_after - spent_before <= charged + 1e-9, \
            (spent_before, spent_after, charged)

        pids = backend.ping()
        assert all(pid is not None for pid in pids), pids

        retry = service.submit_batch(session, batch(5e4))
        assert all(r.answer is not None for r in retry), \
            [r.error for r in retry if r.error]
    finally:
        service.close()

    print("ok: worker crash failed the batch cleanly, charged nothing "
          "for unanswered queries, and the respawned worker answered "
          "the resubmission")
    return 0


if __name__ == "__main__":
    sys.exit(main())
