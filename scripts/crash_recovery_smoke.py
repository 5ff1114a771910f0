"""CI smoke test for crash recovery: SIGKILL mid-workload, no re-grants.

Black-box, process-level, the durability sibling of ``server_smoke.py``:

1. start ``repro serve --data-dir D --fsync always`` (fresh directory);
2. drive it with two concurrent :class:`repro.client.RemoteAnalyst`
   workers issuing mixed single + batched queries over *disjoint*
   attributes (so each analyst's accounting is deterministic and
   independent of thread interleaving), recording per analyst every
   request **sent** and every response **acknowledged** (fully
   received);
3. SIGKILL the daemon mid-workload — no drain, no checkpoint, quite
   possibly a torn final ledger append;
4. restart with ``--recover permissive``, read the recovered
   accounting, and run ``repro audit --verify`` against the live
   daemon — the offline ledger fold must reproduce the recovered
   totals exactly (the daemon holds the data-dir lock, so this also
   exercises the audit's lockless read);
5. replay the *acknowledged* prefix of each stream through an
   identically-built in-process service, and assert the sandwich::

       replay(acked)  <=  recovered  <=  replay(sent)

   per analyst — every acknowledged charge survived the crash (nothing
   was re-granted) and nothing beyond what was ever requested appears;
6. SIGTERM the restarted daemon (clean drain → checkpoint), start it a
   third time, and assert no analyst's budget regressed across the
   checkpoint compaction either.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/crash_recovery_smoke.py
"""

from __future__ import annotations

import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.client import RemoteAnalyst
from repro.client.remote import RemoteError
from repro.datasets import load_adult
from repro.exceptions import ReproError
from repro.service.service import QueryService
from repro.service.session import QueryRequest
from repro.workloads.rrq import ordered_attributes
from repro.workloads.service import bfs_style_queries, make_service_analysts

ROWS = 2000
EPSILON = 48.0
SERVE_ARGS = ["--port", "0", "--rows", str(ROWS), "--analysts", "2",
              "--epsilon", str(EPSILON), "--seed", "0", "--fsync", "always"]
STARTUP_TIMEOUT = 60.0
SHUTDOWN_TIMEOUT = 30.0
#: How long the workload runs before the SIGKILL lands.  The streams are
#: long enough (400 rounds) that the kill interrupts live traffic even
#: on a fast host — the workload finishing early would dodge the point.
KILL_AFTER = 1.5
SLACK = 1e-9


def build_streams(bundle) -> dict[str, list[QueryRequest]]:
    """Per-analyst streams over disjoint attributes.

    Accuracy tightens for the first few rounds (fresh releases flow into
    the ledger), then plateaus (cache hits keep traffic up without
    further spend), so the total spend stays far below the shared table
    constraint — per-analyst accounting is then deterministic and
    independent of cross-analyst interleaving, which is what makes the
    floor/ceiling replays below exact bounds rather than estimates.
    """
    attrs = ordered_attributes(bundle)[:2]
    assert len(attrs) == 2, "need two ordered attributes for disjointness"
    streams: dict[str, list[QueryRequest]] = {}
    for analyst, attribute in zip(make_service_analysts(2), attrs):
        queries = bfs_style_queries(bundle, attribute, depth=3)
        stream = []
        for round_no in range(400):
            accuracy = 2e5 / min(round_no + 1, 8)
            stream.extend(QueryRequest(sql, accuracy=accuracy)
                          for sql in queries)
        streams[analyst.name] = stream
    return streams


def call_plan(stream: list[QueryRequest]
              ) -> list[tuple[str, list[QueryRequest]]]:
    """The deterministic single/batch call pattern a worker issues.

    Shared between the remote worker and the in-process replay so the
    replay goes through *identical* code paths (``submit_batch`` runs
    the strictest-first planner, which may reorder within a batch — the
    replay must too, or the charge sequence diverges).
    """
    calls: list[tuple[str, list[QueryRequest]]] = []
    index = 0
    while index < len(stream):
        if index % 3 == 0:
            chunk = stream[index:index + 4]
            calls.append(("batch", chunk))
            index += len(chunk)
        else:
            calls.append(("single", [stream[index]]))
            index += 1
    return calls


class Worker:
    """One remote analyst: tracks calls sent vs acknowledged."""

    def __init__(self, url: str, analyst: str,
                 stream: list[QueryRequest]) -> None:
        self.analyst = analyst
        self.calls = call_plan(stream)
        self.url = url
        self.sent = 0     # calls handed to the wire
        self.acked = 0    # calls whose full response arrived
        self.rejections = 0
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            client = RemoteAnalyst(self.url, token=self.analyst)
            session = client.open_session()
            for kind, chunk in self.calls:
                self.sent += 1
                if kind == "batch":
                    responses = client.submit_batch(session, chunk)
                else:
                    responses = [client.submit(session, chunk[0].sql,
                                               accuracy=chunk[0].accuracy)]
                self.acked += 1
                self.rejections += sum(1 for r in responses if r.rejected)
        except (RemoteError, ReproError, ConnectionError, OSError):
            return  # the kill — everything acked so far stays recorded


def replay_inproc(bundle, calls_by_analyst: dict
                  ) -> dict[str, float]:
    """Deterministic in-process replay of per-analyst call prefixes."""
    service = QueryService.build(bundle, make_service_analysts(2), EPSILON,
                                 seed=0)
    try:
        for analyst, calls in calls_by_analyst.items():
            session = service.open_session(analyst)
            for kind, chunk in calls:
                if kind == "batch":
                    service.submit_batch(session, chunk)
                else:
                    service.submit(session, chunk[0].sql,
                                   accuracy=chunk[0].accuracy)
            service.close_session(session)
        return {name: float(value) for name, value in
                service.snapshot()["provenance"]["epsilon_by_analyst"]
                .items()}
    finally:
        service.close()


def start_daemon(data_dir: str, recover: str) -> tuple[subprocess.Popen,
                                                       str]:
    args = [sys.executable, "-m", "repro", "serve", *SERVE_ARGS,
            "--data-dir", data_dir, "--recover", recover]
    daemon = subprocess.Popen(args, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + STARTUP_TIMEOUT
    url = None
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
    # Drain the banner so the pipe cannot fill and block the daemon.
    threading.Thread(target=daemon.stdout.read, daemon=True).start()
    return daemon, url


def stop_clean(daemon: subprocess.Popen) -> None:
    daemon.send_signal(signal.SIGTERM)
    assert daemon.wait(timeout=SHUTDOWN_TIMEOUT) == 0, \
        f"daemon exited {daemon.returncode}, want 0"


def epsilon_by_analyst(url: str) -> dict[str, float]:
    with RemoteAnalyst(url, token="analyst_00") as observer:
        snapshot = observer.snapshot()
    assert snapshot["durability"]["enabled"] is True
    return {name: float(value) for name, value in
            snapshot["provenance"]["epsilon_by_analyst"].items()}


def main() -> int:
    bundle = load_adult(num_rows=ROWS, seed=0)
    streams = build_streams(bundle)
    data_dir = tempfile.mkdtemp(prefix="repro-crash-smoke-")
    daemon = None
    try:
        print(f"smoke: starting durable daemon (data_dir={data_dir}, "
              f"fsync=always)")
        daemon, url = start_daemon(data_dir, recover="strict")

        print("smoke: driving mixed single/batch load on two analysts, "
              f"SIGKILL in {KILL_AFTER:.1f}s")
        workers = [Worker(url, analyst, stream)
                   for analyst, stream in streams.items()]
        for worker in workers:
            worker.thread.start()
        time.sleep(KILL_AFTER)
        daemon.kill()  # SIGKILL: no drain, no checkpoint, torn tail likely
        daemon.wait(timeout=SHUTDOWN_TIMEOUT)
        for worker in workers:
            worker.thread.join(timeout=SHUTDOWN_TIMEOUT)
            assert not worker.thread.is_alive(), "worker wedged after kill"
        total_acked = sum(w.acked for w in workers)
        assert total_acked > 0, "kill landed before any work was acked"
        assert sum(w.rejections for w in workers) == 0, \
            "workload hit a constraint — the deterministic-replay " \
            "assumption needs spend well below the shared caps"
        in_flight = sum(w.sent - w.acked for w in workers)
        print(f"smoke: killed mid-workload ({total_acked} calls acked, "
              f"{in_flight} in flight)")

        print("smoke: restarting with --recover permissive")
        daemon, url = start_daemon(data_dir, recover="permissive")
        recovered = epsilon_by_analyst(url)

        # The audit fold must reproduce the recovered daemon's totals
        # *exactly* from the same ledger chain.  The daemon holds the
        # data-dir flock, so this also exercises the lockless fallback;
        # --permissive matches the recovery mode across the torn tail.
        print("smoke: repro audit --verify against the recovered daemon")
        audit = subprocess.run(
            [sys.executable, "-m", "repro", "audit", "--data-dir",
             data_dir, "--permissive", "--verify", url],
            capture_output=True, text=True)
        sys.stdout.write("".join(f"  [audit] {line}\n" for line in
                                 audit.stdout.splitlines()[:12]))
        assert audit.returncode == 0, \
            f"repro audit --verify failed ({audit.returncode}):\n" \
            f"{audit.stdout}\n{audit.stderr}"

        floor = replay_inproc(bundle, {w.analyst: w.calls[:w.acked]
                                       for w in workers})
        ceiling = replay_inproc(bundle, {w.analyst: w.calls[:w.sent]
                                         for w in workers})
        for analyst in sorted(recovered):
            got = recovered[analyst]
            print(f"smoke: {analyst}: acked-replay {floor[analyst]:.6f} "
                  f"<= recovered {got:.6f} "
                  f"<= sent-replay {ceiling[analyst]:.6f}")
            assert got >= floor[analyst] - SLACK, \
                f"{analyst}: recovered {got} under-counts acknowledged " \
                f"charges {floor[analyst]} — budget was re-granted"
            assert got <= ceiling[analyst] + SLACK, \
                f"{analyst}: recovered {got} exceeds every request ever " \
                f"sent ({ceiling[analyst]})"

        print("smoke: clean SIGTERM (drain + checkpoint), then a third "
              "boot — totals must not regress across compaction")
        stop_clean(daemon)
        daemon, url = start_daemon(data_dir, recover="strict")
        after_checkpoint = epsilon_by_analyst(url)
        for analyst, spent in recovered.items():
            assert after_checkpoint[analyst] >= spent - SLACK, \
                f"{analyst}: budget regressed across checkpoint " \
                f"({after_checkpoint[analyst]} < {spent})"
        stop_clean(daemon)
        print("smoke: ok — SIGKILL recovery never re-granted an "
              "acknowledged charge; checkpoint compaction preserved "
              "every total")
        return 0
    finally:
        if daemon is not None and daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
