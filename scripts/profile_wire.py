"""Profile both ends of the wire: a durable service behind ``ReproServer``,
one keep-alive ``RemoteAnalyst``, N mixed queries (7 ranges, 2 dyadic
ranges, 1 GROUP BY per ten) -- once under cProfile on the client thread,
once on the daemon's handler thread; prints the top 15 by self time of each,
then the size of one cached ``GROUP BY age`` reply (74 groups) as protocol-3
JSON, identity and gzip-compressed as the daemon compresses it.  The
GROUP BY is over ``age`` so a per-group cost would show in the tables
(``sex`` would have only two groups).

    PYTHONPATH=src python scripts/profile_wire.py [N]

Exits 1 if either thread ran an ``email/feedparser.py`` frame (the wire's
heads are read by ``repro.server.framing``, not the stdlib header parser),
or called ``per_bin_variance_for``, ``answer_variance`` or
``CompensatedSum.add`` more often than it submitted queries (a GROUP BY's
groups are answered and accounted in columns, never one scalar call per
group).  cProfile inflates python-level calls and not socket waits: read
the tables for *where*, then measure with ``perf/run.py --workload
mix_remote``.  (Python 3.12's cProfile sees every thread, so there each
table is the union.)
"""

from __future__ import annotations

import cProfile
import gzip
import json
import pstats
import shutil
import sys
import tempfile
import threading

from repro import (
    Analyst,
    DurabilityManager,
    QueryService,
    RemoteAnalyst,
    ReproServer,
    load_adult,
)
from repro.metrics.runtime import CompensatedSum
from repro.server.protocol import encode_response
from repro.views.linear import LinearQuery


def queries(bundle, count: int, offset: int) -> list[tuple[str, float]]:
    table = bundle.fact_table
    out = []
    for i in range(offset, offset + count):
        accuracy = 2e4 * (1.0 + (i * 7 % 10) / 10.0)
        if i % 10 == 9:
            sql = f"SELECT age, COUNT(*) FROM {table} GROUP BY age"
        elif i % 10 >= 7:
            width = 8 << (i % 3)
            low = 17 + width * (i % (64 // width))
            sql = (f"SELECT COUNT(*) FROM {table} "
                   f"WHERE age BETWEEN {low} AND {low + width - 1}")
        else:
            low = 17 + i * 13 % 40
            sql = (f"SELECT COUNT(*) FROM {table} "
                   f"WHERE age BETWEEN {low} AND {low + 5 + i * 3 % 30}")
        out.append((sql, accuracy))
    return out


def drive(url: str, stream) -> None:
    with RemoteAnalyst(url, token="a0") as client:
        session = client.open_session()
        for sql, accuracy in stream:
            client.submit(session, sql, accuracy=accuracy)
        client.close_session(session)


#: Scalar methods a query may call at most once on average: calling one
#: per GROUP BY group would put them above the query count.
PER_QUERY = {
    "LinearQuery.per_bin_variance_for": LinearQuery.per_bin_variance_for,
    "LinearQuery.answer_variance": LinearQuery.answer_variance,
    "CompensatedSum.add": CompensatedSum.add,
}


def top(title: str, profiler: cProfile.Profile, queries: int) -> bool:
    """Print the table and the per-query call counts; True when the
    stdlib header parser shows up or a scalar method ran more often than
    ``queries``."""
    print(f"--- {title}: top 15 by self time ---", flush=True)
    stats = pstats.Stats(profiler)
    stats.sort_stats("tottime").print_stats(15)
    failed = any(path.endswith("email/feedparser.py")
                 for path, _, _ in stats.stats)
    if failed:
        print("FAIL: an email/feedparser.py frame ran on the wire path",
              file=sys.stderr)
    for label, function in PER_QUERY.items():
        code = function.__code__
        entry = stats.stats.get(
            (code.co_filename, code.co_firstlineno, code.co_name))
        calls = entry[1] if entry else 0
        print(f"{label}: {calls} calls for {queries} queries")
        if calls > queries:
            print(f"FAIL: {label} ran more often than queries were "
                  f"submitted", file=sys.stderr)
            failed = True
    return failed


def group_by_reply(service, bundle) -> None:
    """Print one cached ``GROUP BY age`` reply's size on the wire."""
    session = service.open_session("a0")
    sql = f"SELECT age, COUNT(*) FROM {bundle.fact_table} GROUP BY age"
    for _ in range(2):
        response = service.submit(session, sql, accuracy=2e4)
    service.close_session(session)
    data = json.dumps(encode_response(response)).encode("utf-8")
    packed = gzip.compress(data, compresslevel=6, mtime=0)
    print(f"GROUP BY age reply ({len(response.groups)} groups, "
          f"{response.lineage.source}): {len(data)} B identity, "
          f"{len(packed)} B gzip")


def main(count: int) -> int:
    bundle = load_adult(num_rows=12000, seed=0)
    data_dir = tempfile.mkdtemp(prefix="profile-wire-")
    service = QueryService.build(
        bundle, [Analyst("a0", 4)], 256.0, seed=0,
        durability=DurabilityManager(data_dir, fsync="batch"))
    handler_profile = cProfile.Profile()
    handler_threads: list[threading.Thread] = []

    def on_thread_start(frame, event, arg):
        # First profile event of a new thread: hand a connection handler
        # thread over to cProfile, leave every other thread unprofiled.
        sys.setprofile(None)
        thread = threading.current_thread()
        if "process_request_thread" in thread.name and not handler_threads:
            handler_threads.append(thread)
            handler_profile.enable()

    try:
        with ReproServer(service, host="127.0.0.1", port=0) as server:
            drive(server.url, queries(bundle, 20, 0))          # warm-up
            with cProfile.Profile() as client_profile:
                drive(server.url, queries(bundle, count, 20))
            threading.setprofile(on_thread_start)
            drive(server.url, queries(bundle, count, 20 + count))
            threading.setprofile(None)
            for thread in handler_threads:
                thread.join(timeout=10.0)
            print({key: service.snapshot()["service"][key]
                   for key in ("submitted", "answered", "fresh_releases",
                               "rejected", "failed")})
            group_by_reply(service, bundle)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    failed = top("client thread", client_profile, count)
    failed |= top("handler thread", handler_profile, count)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000))
