"""Profile both ends of the wire: a durable service behind ``ReproServer``,
one keep-alive ``RemoteAnalyst``, N mixed queries (7 ranges, 2 dyadic
ranges, 1 GROUP BY per ten) -- once under cProfile on the client thread,
once on the daemon's handler thread; prints the top 15 by self time of each.

    PYTHONPATH=src python scripts/profile_wire.py [N]

Exits 1 if either thread ran an ``email/feedparser.py`` frame: the wire's
heads are read by ``repro.server.framing``, not the stdlib header parser.
cProfile inflates python-level calls and not socket waits: read the tables
for *where*, then measure with ``perf/run.py --workload mix_remote``.
(Python 3.12's cProfile sees every thread, so there each table is the union.)
"""

from __future__ import annotations

import cProfile
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


def queries(bundle, count: int, offset: int) -> list[tuple[str, float]]:
    table = bundle.fact_table
    out = []
    for i in range(offset, offset + count):
        accuracy = 2e4 * (1.0 + (i * 7 % 10) / 10.0)
        if i % 10 == 9:
            sql = f"SELECT sex, COUNT(*) FROM {table} GROUP BY sex"
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


def top(title: str, profiler: cProfile.Profile) -> bool:
    """Print the table; True when the stdlib header parser shows up."""
    print(f"--- {title}: top 15 by self time ---", flush=True)
    stats = pstats.Stats(profiler)
    stats.sort_stats("tottime").print_stats(15)
    return any(path.endswith("email/feedparser.py")
               for path, _, _ in stats.stats)


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
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    stdlib_parser = top("client thread", client_profile)
    stdlib_parser |= top("handler thread", handler_profile)
    if stdlib_parser:
        print("FAIL: an email/feedparser.py frame ran on the wire path",
              file=sys.stderr)
    return 1 if stdlib_parser else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000))
