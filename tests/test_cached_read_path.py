"""The cached read path leaves no trail and does one probe per query.

A query answered from an analyst's cached synopsis costs zero epsilon
(Thm. 5.6, "answered with cached synopsis"), so what it costs in time and
memory is wrapper code.  These tests pin that wrapper down:

* **no per-query trail** — a long run of warm fast-lane submissions
  retains (almost) no memory: nothing appends per query to an unbounded
  structure;
* **one lean probe** — a warm submission runs the mechanism's
  ``cached_answers_fast`` (a GROUP BY: ``cached_group_fast``) exactly
  once, counts its synopsis-cache hits
  with one ``CacheStats`` call, and never unparses SQL;
* **consistent counters** — every cache-statistics snapshot taken while
  threads keep answering is internally consistent.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sys
import threading
import time
import tracemalloc

from repro import Analyst, QueryService
from repro.metrics.runtime import CacheStats

JOIN_TIMEOUT = 30.0

def warm_statements(table: str) -> list[tuple[str, float]]:
    """One statement of every fast-lane shape: a scalar COUNT (one part),
    an AVG (SUM and COUNT parts) and a GROUP BY (one part per group).
    Multi-part shapes are what tell one hit-count call per query from one
    per answered part."""
    return [(f"SELECT COUNT(*) FROM {table} WHERE age >= 30", 1e4),
            (f"SELECT AVG(age) FROM {table} WHERE age >= 40", 2e6),
            (f"SELECT sex, COUNT(*) FROM {table} GROUP BY sex", 4e4)]


def warmed_service(bundle, roster, statements):
    """A service whose every (analyst, statement) pair is already cached:
    each statement is asked twice per analyst, and the second ask must
    come back from the fast lane."""
    service = QueryService.build(bundle, roster, 64.0, seed=0)
    sessions = {}
    for analyst in roster:
        session = sessions[analyst.name] = service.open_session(analyst.name)
        for sql, accuracy in statements:
            for _ in range(2):
                response = service.submit(session, sql, accuracy=accuracy)
                assert response.ok, response.error
            assert response.lineage.source == "fast_lane"
    return service, sessions


def submit_rounds(service, session, statements, rounds: int) -> None:
    for _ in range(rounds):
        for sql, accuracy in statements:
            service.submit(session, sql, accuracy=accuracy)


class TestNoPerQueryTrail:
    def test_warm_submissions_retain_no_memory(self, adult_bundle):
        roster = [Analyst("a", privilege=4)]
        statements = warm_statements(adult_bundle.fact_table)[:1]
        service, sessions = warmed_service(adult_bundle, roster, statements)
        session = sessions["a"]
        misses = service.snapshot()["fast_lane"]["misses"]
        try:
            tracemalloc.start()
            try:
                # Past every bounded ring (traces are sampled 1-in-8 into
                # a 128-entry ring) before the baseline is read.
                submit_rounds(service, session, statements, 2_000)
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                submit_rounds(service, session, statements, 20_000)
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert service.snapshot()["fast_lane"]["misses"] == misses
            assert grown < 256 * 1024, f"20k cached answers kept {grown} B"
        finally:
            service.close()


def _calls_by_function(profiler: cProfile.Profile) -> dict[tuple, int]:
    """``(file basename, function name) -> primitive call count``."""
    counts: dict[tuple, int] = {}
    for (path, _, name), (calls, *_rest) in \
            pstats.Stats(profiler).stats.items():
        key = (os.path.basename(path), name)
        counts[key] = counts.get(key, 0) + calls
    return counts


class TestOneLeanProbe:
    def test_warm_submit_is_one_probe_and_one_hit_count(self, adult_bundle):
        roster = [Analyst("a", privilege=4)]
        statements = warm_statements(adult_bundle.fact_table)
        service, sessions = warmed_service(adult_bundle, roster, statements)
        rounds = 700
        queries = rounds * len(statements)
        try:
            hits_before = service.cache_stats.as_dict()["hits"]
            profiler = cProfile.Profile()
            profiler.enable()
            submit_rounds(service, sessions["a"], statements, rounds)
            profiler.disable()
            counts = _calls_by_function(profiler)
            parts_answered = service.cache_stats.as_dict()["hits"] \
                - hits_before
        finally:
            service.close()

        # One probe per query: the scalar and the AVG through
        # ``cached_answers_fast``, the GROUP BY through its columnar
        # ``cached_group_fast``.
        assert counts[("mechanism.py", "cached_answers_fast")] \
            + counts[("mechanism.py", "cached_group_fast")] == queries
        assert counts[("mechanism.py", "cached_group_fast")] == rounds
        # A scalar answers one part, an AVG two, a GROUP BY one per group.
        assert parts_answered > queries
        hit_calls = sum(n for (file, name), n in counts.items()
                        if file == "runtime.py" and name.startswith(
                            "record_hit"))
        assert hit_calls <= queries
        assert counts.get(("runtime.py", "record_miss"), 0) == 0
        ran = {name for _, name in counts} | {file for file, _ in counts}
        for forbidden in ("answer_many", "to_sql", "history.py"):
            assert forbidden not in ran, f"{forbidden} ran on a cached hit"
        assert ("mechanism.py", "answer") not in counts  # no slow path


class TestCacheStatsSnapshots:
    def test_snapshots_consistent_under_8_threads(self, adult_bundle):
        roster = [Analyst(f"a{i}", privilege=1 + i % 4) for i in range(8)]
        statements = warm_statements(adult_bundle.fact_table)
        service, sessions = warmed_service(adult_bundle, roster, statements)
        stats = service.cache_stats
        start = stats.as_dict()["hits"]
        submit_rounds(service, sessions["a0"], statements, 1)
        hits_per_round = stats.as_dict()["hits"] - start
        stop = threading.Event()
        errors: list[Exception] = []
        rounds = {a.name: 0 for a in roster}
        snapshots: list[dict] = []

        def worker(name):
            try:
                while not stop.is_set():
                    submit_rounds(service, sessions[name], statements, 1)
                    rounds[name] += 1
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(a.name,),
                                    daemon=True) for a in roster]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for _ in range(200):
                snapshots.append(stats.as_dict())
                snapshots.append(service.snapshot()["synopsis_cache"])
                time.sleep(0.001)  # let the workers run in between
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for thread in threads:
                thread.join(JOIN_TIMEOUT)
            service.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert snapshots[-1]["hits"] > snapshots[0]["hits"]
        # No hit lost to a racing increment.
        assert stats.as_dict()["hits"] - start \
            == hits_per_round * (1 + sum(rounds.values()))
        for snap in snapshots:
            assert snap["hit_rate"] == \
                snap["hits"] / (snap["hits"] + snap["misses"])

    def test_snapshot_waits_for_a_write_in_progress(self):
        """The reader takes the writers' lock, so a snapshot can never
        see a counter half-way through a concurrent update."""
        stats = CacheStats()
        stats.record_hits(3)
        stats.record_miss()
        taken: list[dict] = []
        reader = threading.Thread(target=lambda: taken.append(
            stats.as_dict()), daemon=True)
        with stats._lock:
            reader.start()
            reader.join(0.2)
            assert reader.is_alive(), "as_dict read without the lock"
            stats.hits += 1
        reader.join(JOIN_TIMEOUT)
        assert taken == [{"hits": 4, "misses": 1, "evictions": 0,
                          "hit_rate": 0.8}]
