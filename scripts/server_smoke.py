"""CI smoke test for ``python -m repro serve``.

Black-box, process-level: spawns the real daemon as a subprocess (with
per-analyst admission control enabled), drives it with two concurrent
:class:`repro.client.RemoteAnalyst` workers issuing mixed single +
batched queries, replays the identical workload in process, and asserts
the epsilon accounting and fresh-release counts match exactly.  Then
scrapes ``/v1/metrics`` and checks the exposition against the service
snapshot, fires an overload burst until the token bucket refuses with
429 + ``Retry-After`` (asserting refusals charge nothing), and finally
SIGTERMs the daemon and asserts a clean drain (exit code 0 and the
"stopped cleanly" line).

The two analysts query *disjoint attributes* (analyst 0 only the first
ordered attribute, analyst 1 only the second), so each stream is served
by its own single-attribute view and the accounting is independent of
thread interleaving — the equality is deterministic, not probabilistic.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/server_smoke.py
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import threading
import time

from repro.client import RateLimited, RemoteAnalyst
from repro.datasets import load_adult
from repro.metrics import parse_exposition
from repro.service.service import QueryService
from repro.service.session import QueryRequest
from repro.workloads.rrq import ordered_attributes
from repro.workloads.service import bfs_style_queries, make_service_analysts

ROWS = 2000
EPSILON = 48.0
ACCURACY = 2e5
RATE_LIMIT = 50.0
RATE_BURST = 10.0
SERVE_ARGS = ["--port", "0", "--rows", str(ROWS), "--analysts", "2",
              "--epsilon", str(EPSILON), "--seed", "0",
              "--rate-limit", str(RATE_LIMIT),
              "--rate-burst", str(RATE_BURST)]
STARTUP_TIMEOUT = 60.0
SHUTDOWN_TIMEOUT = 30.0
BURST_ATTEMPTS = 200


def build_streams(bundle) -> dict[str, list[QueryRequest]]:
    """Per-analyst streams over disjoint attributes (deterministic)."""
    attrs = ordered_attributes(bundle)[:2]
    assert len(attrs) == 2, "need two ordered attributes for disjointness"
    streams = {}
    for analyst, attribute in zip(make_service_analysts(2), attrs):
        queries = bfs_style_queries(bundle, attribute, depth=3)
        streams[analyst.name] = [QueryRequest(sql, accuracy=ACCURACY)
                                 for sql in queries]
    return streams


def lineage_accounting(lineages) -> list[tuple]:
    """The accounting-bearing lineage surface: everything except the
    run-identifying ids and the label of the non-fresh lane taken."""
    return [(l.view, l.epsilon, l.mechanism, l.composition,
             l.synopsis_generation, l.source == "fresh") for l in lineages]


def replay_remote(url: str, streams) -> dict[str, list]:
    """Two concurrent remote analysts, first half single, rest batched.

    Returns each analyst's per-response :class:`Lineage` records in
    stream order — the wire must carry lineage on every answer, with a
    trace id (these clients ask for one per request)."""
    errors: list[BaseException] = []
    lineages: dict[str, list] = {}

    def worker(analyst: str, stream: list[QueryRequest]) -> None:
        try:
            # Bounded retry waits out any 429 the admission limiter
            # throws during the replay; a refused request charges
            # nothing, so the accounting equality below is unaffected.
            with RemoteAnalyst(url, token=analyst, retry_rate_limited=5,
                               trace_requests=True) as client:
                session = client.open_session()
                half = len(stream) // 2
                collected = []
                for request in stream[:half]:
                    response = client.submit(session, request.sql,
                                             accuracy=request.accuracy)
                    assert response.ok, response.error
                    collected.append(response)
                for response in client.submit_batch(session, stream[half:]):
                    assert response.ok, response.error
                    collected.append(response)
                for response in collected:
                    assert response.lineage is not None, \
                        "remote answers must carry lineage over the wire"
                    assert response.lineage.trace_id, \
                        "client-propagated trace ids must reach lineage"
                lineages[analyst] = [r.lineage for r in collected]
                client.close_session(session)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=item)
               for item in streams.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return lineages


def replay_inproc(bundle, streams) -> tuple[dict, dict[str, list]]:
    """The same mixed workload against an identically-built service."""
    service = QueryService.build(bundle, make_service_analysts(2), EPSILON,
                                 seed=0)
    lineages: dict[str, list] = {}

    def worker(analyst: str, stream: list[QueryRequest]) -> None:
        session = service.open_session(analyst)
        half = len(stream) // 2
        collected = []
        for request in stream[:half]:
            response = service.submit(session, request.sql,
                                      accuracy=request.accuracy)
            assert response.ok, response.error
            collected.append(response)
        for response in service.submit_batch(session, stream[half:]):
            assert response.ok, response.error
            collected.append(response)
        lineages[analyst] = [r.lineage for r in collected]
        service.close_session(session)

    threads = [threading.Thread(target=worker, args=item)
               for item in streams.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    snapshot = service.snapshot()
    service.close()
    return snapshot, lineages


def check_metrics(observer: RemoteAnalyst, snapshot: dict) -> None:
    """Scrape ``/v1/metrics`` and cross-check it against ``snapshot``."""
    metrics = parse_exposition(observer.metrics_text())
    service = snapshot["service"]
    assert metrics["repro_service_submitted_total"][()] == \
        float(service["submitted"]), metrics["repro_service_submitted_total"]
    assert metrics["repro_service_answered_total"][()] == \
        float(service["answered"]), metrics["repro_service_answered_total"]
    # The spent counter family is labeled {analyst,view,mechanism};
    # per-analyst totals are the sum over an analyst's cells (and are
    # also exported directly as repro_epsilon_row_total).
    spent = metrics["repro_epsilon_spent_total"]
    rows = metrics["repro_epsilon_row_total"]
    for analyst, epsilon in snapshot["provenance"][
            "epsilon_by_analyst"].items():
        exported = sum(value for labels, value in spent.items()
                       if dict(labels).get("analyst") == analyst)
        assert abs(exported - epsilon) < 1e-9, \
            f"metrics epsilon for {analyst}: {exported} != {epsilon}"
        assert rows.get((("analyst", analyst),), 0.0) == epsilon, \
            f"row total for {analyst} diverged from the snapshot"
    assert metrics["repro_open_sessions"][()] == 0.0
    assert metrics["repro_uptime_seconds"][()] > 0.0
    # Hot-path cache families (PR 10): the statement cache and the
    # view-routing memo must be exported, cross-check the snapshot, and
    # have actually moved under the replayed workload.
    compiled = snapshot["compiled_statements"]
    cache = metrics["repro_statement_cache_total"]
    assert cache[(("result", "hit"),)] == float(compiled["hits"]), cache
    assert cache[(("result", "miss"),)] == float(compiled["misses"]), cache
    assert cache[(("result", "hit"),)] + cache[(("result", "miss"),)] > 0.0
    assert metrics["repro_statement_cache_entries"][()] == \
        float(compiled["entries"])
    assert metrics["repro_statement_cache_entries"][()] > 0.0
    assert metrics["repro_statement_cache_hit_rate"][()] == \
        float(compiled["hit_rate"])
    assert metrics["repro_statement_cache_evictions_total"][()] == \
        float(compiled["evictions"])
    compile_calls = metrics["repro_compile_calls_total"][()]
    assert compile_calls > 0.0, "no statement was ever resolved?"
    # One resolution per query: the engine may compile a handful of
    # extra statements outside the serving path (view registration),
    # never the other way around.
    assert compile_calls >= cache[(("result", "hit"),)] + \
        cache[(("result", "miss"),)] - 1e-9, compile_calls
    routing = snapshot["view_routing"]
    routed = metrics["repro_view_routing_total"]
    assert routed[(("result", "hit"),)] == float(routing["hits"]), routed
    assert routed[(("result", "miss"),)] == float(routing["misses"]), routed
    # Index semantics: a probe happens once per statement *shape* (text
    # repeats stop at the statement cache, literal variants at the shape
    # table); it hits when some view covers the statement's columns, and
    # this workload asks nothing the registered views cannot cover.
    assert routed[(("result", "hit"),)] > 0.0, \
        "view-routing index never probed under the workload"
    assert routed[(("result", "miss"),)] == 0.0, routed
    assert routed[(("result", "hit"),)] <= \
        float(compiled["templates"]) + 1e-9, (routed, compiled)
    # The index is a function of the catalog alone (every attribute
    # subset of every view), never of the statements served.
    assert metrics["repro_view_routing_entries"][()] == \
        float(routing["entries"]) > 0.0
    print(f"smoke: /v1/metrics matches the snapshot "
          f"({len(metrics)} metric families; statement cache and "
          f"view routing exported and moving)")


def overload_burst(url: str, streams) -> None:
    """Hammer one analyst until the token bucket refuses with a 429."""
    analyst = "analyst_00"
    request = streams[analyst][0]
    refused = None
    with RemoteAnalyst(url, token=analyst) as client:
        session = client.open_session()
        admitted = 0
        for _ in range(BURST_ATTEMPTS):
            try:
                response = client.submit(session, request.sql,
                                         accuracy=request.accuracy)
                assert response.ok, response.error
                admitted += 1
            except RateLimited as exc:
                refused = exc
                break
        assert refused is not None, \
            f"{BURST_ATTEMPTS} rapid submits never tripped admission " \
            f"control (admitted {admitted})"
        assert refused.status == 429, refused.status
        assert refused.retry_after and refused.retry_after > 0.0, \
            f"429 carried no usable Retry-After: {refused.retry_after!r}"
        health = client.health()
        assert health["rate_limited"] >= 1, health
        client.close_session(session)
    print(f"smoke: overload burst refused after {admitted} admits "
          f"(429, Retry-After={refused.retry_after:.3f}s)")


def main() -> int:
    bundle = load_adult(num_rows=ROWS, seed=0)
    streams = build_streams(bundle)

    print(f"smoke: starting daemon: python -m repro serve "
          f"{' '.join(SERVE_ARGS)}")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *SERVE_ARGS],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        url = None
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            line = daemon.stdout.readline()
            if not line:
                raise RuntimeError("daemon exited before listening")
            sys.stdout.write(f"  [daemon] {line}")
            match = re.search(r"listening on (http://\S+)", line)
            if match:
                url = match.group(1)
                break
        assert url, "daemon never printed its listen address"

        print("smoke: replaying mixed single/batch workload over the wire "
              "(two concurrent analysts)")
        remote_lineages = replay_remote(url, streams)
        with RemoteAnalyst(url, token="analyst_00") as observer:
            remote_snapshot = observer.snapshot()
            health = observer.health()
        assert health["status"] == "ok", health

        print("smoke: replaying the same workload in process")
        inproc_snapshot, inproc_lineages = replay_inproc(bundle, streams)

        remote_eps = remote_snapshot["provenance"]["epsilon_by_analyst"]
        inproc_eps = inproc_snapshot["provenance"]["epsilon_by_analyst"]
        assert remote_eps == inproc_eps, \
            f"epsilon accounting diverged: {remote_eps} != {inproc_eps}"
        remote_fresh = remote_snapshot["service"]["fresh_releases"]
        inproc_fresh = inproc_snapshot["service"]["fresh_releases"]
        assert remote_fresh == inproc_fresh, \
            f"fresh releases diverged: {remote_fresh} != {inproc_fresh}"
        assert remote_snapshot["service"]["failed"] == 0
        print(f"smoke: accounting matches in-process replay exactly "
              f"(eps={remote_eps}, fresh={remote_fresh})")

        for analyst in streams:
            remote_acct = lineage_accounting(remote_lineages[analyst])
            inproc_acct = lineage_accounting(inproc_lineages[analyst])
            assert remote_acct == inproc_acct, \
                (f"lineage accounting diverged for {analyst}: "
                 f"{remote_acct[:3]}... != {inproc_acct[:3]}...")
        answered = sum(len(v) for v in remote_lineages.values())
        print(f"smoke: per-answer lineage matches in-process replay "
              f"({answered} answers, every one traced)")

        print("smoke: scraping /v1/metrics")
        with RemoteAnalyst(url, token="analyst_00") as observer:
            check_metrics(observer, remote_snapshot)

        print("smoke: overload burst -> expecting 429 + Retry-After")
        overload_burst(url, streams)
        with RemoteAnalyst(url, token="analyst_00") as observer:
            post_burst = observer.snapshot()
            metrics = parse_exposition(observer.metrics_text())
        # Refused requests charge nothing, and the admitted re-submits
        # of an already-answered query compose away under the additive
        # mechanism — the ledger is untouched by the burst.
        post_eps = post_burst["provenance"]["epsilon_by_analyst"]
        assert post_eps == remote_eps, \
            f"overload burst moved the ledger: {post_eps} != {remote_eps}"
        limited = metrics["repro_rate_limited_total"]
        assert limited.get((("analyst", "analyst_00"),), 0.0) >= 1.0, limited
        print("smoke: burst charged nothing; 429s exported to metrics")

        print("smoke: SIGTERM -> expecting clean drain")
        daemon.send_signal(signal.SIGTERM)
        output, _ = daemon.communicate(timeout=SHUTDOWN_TIMEOUT)
        for line in output.splitlines():
            sys.stdout.write(f"  [daemon] {line}\n")
        assert daemon.returncode == 0, \
            f"daemon exited {daemon.returncode}, want 0"
        assert "stopped cleanly (drained)" in output, \
            "daemon did not report a clean drain"
        print("smoke: ok — clean drain, identical accounting, "
              "metrics + admission control live")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    raise SystemExit(main())
