"""The HTTP daemon: a stdlib-only network front-end over ``QueryService``.

:class:`ReproServer` binds a :class:`http.server.ThreadingHTTPServer`
(one handler thread per connection — exactly the concurrent-submission
shape PR 2's sharded service was built for) and exposes the protocol-v1
resource tree::

    GET    /v1/health                  liveness + protocol + stats summary
    GET    /v1/snapshot                QueryService.snapshot() verbatim
    GET    /v1/metrics                 Prometheus text exposition
    GET    /v1/audit                   budget-audit timeline + forecasts
    POST   /v1/sessions                {"token": ...} -> open a session
    DELETE /v1/sessions/<id>           close a session (idempotent)
    POST   /v1/sessions/<id>/query     one encoded QueryRequest
    POST   /v1/sessions/<id>/batch     {"requests": [QueryRequest, ...]}

Authentication is the paper's trust model in miniature: the server is
configured with an ``auth token -> analyst`` table and each opened
session is bound to the analyst its token names — analysts never name
themselves on the wire, so one analyst cannot submit (and spend) as
another.  Query-level outcomes (rejections, unanswerable queries) stay
HTTP 200 — they are payload, carried in the response envelope exactly as
the in-process API returns them.  Transport-level failures map onto
status codes via the envelope's ``kind`` tag: 400 malformed, 401 unknown
token, 404 unknown session, 409 closed service/session, 429 rate
limited, 503 draining.

Overload defenses (all opt-in by constructor/CLI flags):

* **Admission control** — a per-analyst token bucket (``rate_limit``
  queries/sec, ``rate_burst`` burst) refuses excess submissions with
  ``429`` + a ``Retry-After`` header *before* any engine work, so a
  flooding analyst costs one dict lookup per rejected request and
  cannot starve the others.
* **Adaptive micro-batching** — under queueing pressure (more than
  ``micro_batch_threshold`` requests in flight) queued single queries
  are coalesced across sessions into planner batches through the
  existing ``submit_batch`` path, so burst traffic rides the
  strictest-first planner instead of convoying one query at a time.
* **Slow-client robustness** — handler sockets carry a per-connection
  ``request_timeout`` and request bodies a ``max_body_bytes`` cap: an
  oversized body is refused with ``413`` before it is read, a stalled
  body read times out with ``408``, so a hung client can never pin a
  handler thread past the timeout or block :meth:`ReproServer.shutdown`.

Framing is hand-rolled HTTP/1.1 (:mod:`repro.server.framing`, shared with
the client) on the stdlib's socket server: the handler reads the head
line by line into a lower-cased dict under the stdlib's limits (64 KiB
per line -> 414/431, 100 headers -> 431, ``HTTP/1.0``/``1.1`` only ->
505) and writes every response, on every route and status, as head +
body in **one** ``wfile.write``.  Bodies are delimited by
``Content-Length`` alone: any ``Transfer-Encoding``, two
``Content-Length`` values that disagree, a non-integer one, or a
malformed header line is a tagged 400 on a connection that is then
closed, so no byte of a refused message is ever parsed as the next
request.  ``Connection: close``, HTTP/1.0 close-by-default, ``Expect:
100-continue``, pipelining and two-write clients (``http.client``,
``urllib``) behave as under ``BaseHTTPRequestHandler``.

TLS termination is stdlib ``ssl``: ``tls_cert``/``tls_key`` (both or
neither — ``repro serve --tls-cert/--tls-key``) wrap the listening
socket in a server-side :class:`ssl.SSLContext`, and :attr:`url` flips
to ``https://``.  The client side lives in
:class:`repro.client.remote.RemoteAnalyst`, which accepts ``https://``
URLs plus an optional private CA bundle.

Graceful shutdown (:meth:`ReproServer.shutdown`) flips the server into
*draining*: new sessions and new submissions are refused with 503 while
every in-flight request — notably long batched submissions — runs to
completion; only then does the listener stop and the wrapped service
close.  SIGTERM wiring lives in the CLI (``python -m repro serve``).
"""

from __future__ import annotations

import gzip
import json
import os
import re
import ssl
import stat
import sys
import threading
import time
from urllib.parse import unquote
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping

from contextlib import contextmanager

from repro.exceptions import ClosedError, ReproError, UnknownAnalyst
from repro.metrics import tracing
from repro.metrics.telemetry import TelemetryRegistry
from repro.server import framing
from repro.server.protocol import (
    PROTOCOL_VERSION,
    WireFormatError,
    decode_request,
    encode_error,
    encode_response,
    finite_or_none,
    json_ready,
)
from repro.service.service import QueryService
from repro.service.session import QueryRequest

#: How long :meth:`ReproServer.shutdown` waits for in-flight requests by
#: default before giving up (seconds).
DEFAULT_DRAIN_TIMEOUT = 30.0

#: How long shutdown waits (after the drain) for an in-flight background
#: checkpoint fold before abandoning it (seconds).
CHECKPOINT_ABANDON_TIMEOUT = 5.0

#: Per-connection socket timeout (seconds): bounds the header read, the
#: body read, and keep-alive idle time.  A client that stalls mid-body
#: gets a 408 and its handler thread back within this bound.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Largest accepted request body.  Generous for big batches (a 1000-query
#: batch is ~100 KiB) while refusing a Content-Length designed to pin
#: memory or a handler thread.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: In-flight requests above which single queries are coalesced into
#: planner micro-batches (when micro-batching is enabled).
DEFAULT_MICRO_BATCH_THRESHOLD = 4

#: Smallest response body worth gzip-compressing when the client offers
#: ``Accept-Encoding: gzip`` (protocol v2).  Below this the gzip header
#: plus the deflate call cost more than the bytes saved; above it —
#: large GROUP BY result sets, metrics scrapes — JSON compresses ~5-10x.
#: Clients that send no ``Accept-Encoding`` get identity bodies exactly
#: as before, so v1 clients interoperate unchanged.
GZIP_MIN_BYTES = 2048

#: How long the micro-batcher lets a window fill before dispatching.
DEFAULT_MICRO_BATCH_WAIT = 0.002

#: Most queries one micro-batch dispatch coalesces per session.
DEFAULT_MICRO_BATCH_MAX = 32

_SESSION_PATH = re.compile(r"^/v1/sessions/(\d+)(?:/(query|batch))?$")


def load_token_table(path: str | Path) -> dict[str, str]:
    """Load a ``{"token": "analyst", ...}`` table from a JSON file.

    Tokens are credentials: a file readable by other users leaks every
    analyst's identity to anyone on the host, so a world-readable file
    (any ``o+rwx`` bit) is rejected outright with the fix spelled out —
    tighten the mode, don't weaken the check.  The table must be a
    non-empty JSON object of string -> string; analyst names are
    validated against the engine roster by :class:`ReproServer`.
    """
    path = Path(path)
    try:
        mode = os.stat(path).st_mode
    except OSError as exc:
        raise ReproError(f"cannot read token file {path}: {exc}") from None
    if mode & (stat.S_IROTH | stat.S_IWOTH | stat.S_IXOTH):
        raise ReproError(
            f"token file {path} is world-readable (mode "
            f"{stat.S_IMODE(mode):04o}); tokens are credentials — "
            f"run `chmod 600 {path}` and retry")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"token file {path} is not valid JSON: {exc}") \
            from None
    if not isinstance(payload, dict) or not payload:
        raise ReproError(f"token file {path} must be a non-empty JSON "
                         f"object mapping token -> analyst")
    for token, analyst in payload.items():
        if not isinstance(analyst, str) or not isinstance(token, str) \
                or not token or not analyst:
            raise ReproError(
                f"token file {path}: entries must map non-empty token "
                f"strings to analyst names (got {token!r}: {analyst!r})")
    return dict(payload)


class DrainTimeout(ReproError):
    """Graceful shutdown gave up waiting for in-flight requests."""


class _Gate:
    """Counts in-flight requests and refuses new ones once draining."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._in_flight = 0
        self._draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def try_enter(self) -> bool:
        """Claim an in-flight slot; ``False`` once draining started."""
        with self._lock:
            if self._draining:
                return False
            self._in_flight += 1
            return True

    def leave(self) -> None:
        with self._idle:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.notify_all()

    def drain(self, timeout: float) -> bool:
        """Stop admitting work and wait for the in-flight count to hit 0."""
        with self._idle:
            self._draining = True
            return self._idle.wait_for(lambda: self._in_flight == 0,
                                       timeout=timeout)


class _RateLimiter:
    """Per-analyst token buckets behind one small lock.

    Buckets refill continuously at ``rate`` tokens/sec up to ``burst``.
    :meth:`try_admit` is the whole hot path of a 429: one monotonic
    clock read and a dict update — deliberately cheaper than parsing
    the query it refuses, so overload rejection itself cannot overload.
    """

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._lock = threading.Lock()
        #: analyst -> [tokens, last_refill_monotonic]
        self._buckets: dict[str, list[float]] = {}

    def try_admit(self, analyst: str, cost: float = 1.0) -> float:
        """Admit ``cost`` tokens for ``analyst``; returns 0.0 when
        admitted, else the seconds until enough tokens accrue
        (the ``Retry-After`` value).  A cost above the burst is clamped
        to it so oversized batches remain admissible — they drain the
        bucket to zero instead of being refused forever."""
        cost = min(float(cost), self.burst)
        now = time.monotonic()
        with self._lock:
            bucket = self._buckets.get(analyst)
            if bucket is None:
                bucket = self._buckets[analyst] = [self.burst, now]
            tokens = min(self.burst,
                         bucket[0] + (now - bucket[1]) * self.rate)
            bucket[1] = now
            if tokens >= cost:
                bucket[0] = tokens - cost
                return 0.0
            bucket[0] = tokens
            return (cost - tokens) / self.rate


class _Pending:
    """One queued single query waiting on a micro-batch dispatch."""

    __slots__ = ("session_id", "request", "done", "response", "error")

    def __init__(self, session_id: int, request: QueryRequest) -> None:
        self.session_id = session_id
        self.request = request
        self.done = threading.Event()
        self.response = None
        self.error: BaseException | None = None


class _MicroBatcher:
    """Coalesces queued single queries into planner batches.

    Handler threads enqueue ``(session, request)`` pairs and block on a
    per-item event; one dispatcher thread drains the queue every
    ``max_wait`` seconds, groups the window by session, and pushes each
    multi-query group through ``QueryService.submit_batch`` — the same
    strictest-first planner path explicit client batches take, so the
    engine sees real batches (one synopsis refresh can serve the whole
    group) and the accounting is exactly what an explicit batch would
    have produced.  Lone items fall through to ``submit`` untouched.
    """

    def __init__(self, service: QueryService, max_wait: float,
                 max_batch: int) -> None:
        self._service = service
        self._max_wait = max_wait
        self._max_batch = max(2, int(max_batch))
        self._lock = threading.Lock()
        self._queue: list[_Pending] = []
        self._wake = threading.Event()
        self._stop = False
        #: Dispatcher-thread-only counters (read for telemetry).
        self.coalesced = 0
        self.batches = 0
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-microbatch", daemon=True)
        self._thread.start()

    def submit(self, session_id: int, request: QueryRequest):
        pending = _Pending(session_id, request)
        with self._lock:
            if self._stop:
                raise ReproError("server is shutting down")
            self._queue.append(pending)
        self._wake.set()
        # The dispatcher serves every queued item or dies trying; the
        # bound only turns a dispatcher bug into a 500 instead of a hang.
        # The park span is the handler-side wait for the dispatcher — the
        # coalescing delay a traced request actually paid.
        with tracing.span("microbatch.park"):
            parked = pending.done.wait(timeout=300.0)
        if not parked:
            raise ReproError("micro-batch dispatch timed out")
        if pending.error is not None:
            raise pending.error
        return pending.response

    def close(self) -> None:
        """Stop accepting work, serve the residue, join the dispatcher."""
        with self._lock:
            self._stop = True
        self._wake.set()
        self._thread.join(timeout=30.0)

    def _loop(self) -> None:
        while True:
            self._wake.wait()
            with self._lock:
                self._wake.clear()
                if self._stop and not self._queue:
                    return
                if not self._queue:
                    continue
            # Let the window fill: the wait is what converts a convoy of
            # concurrent singles into one planner batch.
            time.sleep(self._max_wait)
            with self._lock:
                window, self._queue = self._queue, []
            groups: dict[int, list[_Pending]] = {}
            for pending in window:
                groups.setdefault(pending.session_id, []).append(pending)
            for session_id, items in groups.items():
                for start in range(0, len(items), self._max_batch):
                    self._dispatch(session_id,
                                   items[start:start + self._max_batch])

    def _dispatch(self, session_id: int, items: list[_Pending]) -> None:
        try:
            if len(items) == 1:
                request = items[0].request
                items[0].response = self._service.submit(
                    session_id, request.sql, accuracy=request.accuracy,
                    epsilon=request.epsilon)
            else:
                responses = self._service.submit_batch(
                    session_id, [pending.request for pending in items])
                for pending, response in zip(items, responses):
                    pending.response = response
                self.coalesced += len(items)
                self.batches += 1
        except BaseException as exc:
            for pending in items:
                pending.error = exc
        finally:
            for pending in items:
                pending.done.set()


def _json_finite(forecast: dict) -> dict:
    """Strict-JSON coercion for forecasts: ``inf`` (idle) -> ``None``."""
    return {key: finite_or_none(value) for key, value in forecast.items()}


_FIXED_ROUTES = frozenset(("/v1/health", "/v1/snapshot", "/v1/metrics",
                           "/v1/trace", "/v1/audit", "/v1/sessions"))


def _route_label(method: str, path: str, match: re.Match | None) -> str:
    """Bounded-cardinality route label for the request metrics; ``path``
    carries no query string and ``match`` is its ``_SESSION_PATH`` match."""
    if match is not None:
        action = match.group(2)
        suffix = f"/{action}" if action else ""
        return f"{method} /v1/sessions/{{id}}{suffix}"
    if path in _FIXED_ROUTES:
        return f"{method} {path}"
    return "other"


class ReproServer:
    """Serve one :class:`QueryService` over HTTP.

    ``tokens`` maps auth tokens onto registered analyst names; when
    omitted, each analyst's token is its own name (demo-grade — supply a
    real table in anything resembling production).  ``port=0`` binds an
    ephemeral port, readable from :attr:`port` after construction.

    ``rate_limit`` (queries/sec per analyst, ``rate_burst`` burst)
    enables 429 admission control; ``micro_batch=True`` enables adaptive
    micro-batching once more than ``micro_batch_threshold`` requests are
    in flight.  ``request_timeout``/``max_body_bytes`` bound what one
    connection can cost (408 on stall, 413 on overflow).
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0,
                 tokens: Mapping[str, str] | None = None,
                 checkpoint_every: float | None = None,
                 rate_limit: float | None = None,
                 rate_burst: float | None = None,
                 micro_batch: bool = False,
                 micro_batch_threshold: int = DEFAULT_MICRO_BATCH_THRESHOLD,
                 micro_batch_wait: float = DEFAULT_MICRO_BATCH_WAIT,
                 micro_batch_max: int = DEFAULT_MICRO_BATCH_MAX,
                 request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 tls_cert: str | Path | None = None,
                 tls_key: str | Path | None = None,
                 telemetry: TelemetryRegistry | None = None,
                 log_json: bool = False) -> None:
        if tokens is None:
            tokens = {name: name for name in service.engine.analysts}
        unknown = sorted(set(tokens.values())
                         - set(service.engine.analysts))
        if unknown:
            raise ReproError(f"auth table names unregistered analysts: "
                             f"{', '.join(unknown)}")
        if checkpoint_every is not None:
            if service.durability is None:
                raise ReproError(
                    "checkpoint_every requires a durable service (build "
                    "it with durability=, i.e. `repro serve --data-dir`)")
            if checkpoint_every <= 0:
                raise ReproError(f"checkpoint_every must be positive, "
                                 f"got {checkpoint_every}")
        if rate_limit is not None and rate_limit <= 0:
            raise ReproError(f"rate_limit must be positive queries/sec, "
                             f"got {rate_limit}")
        if rate_burst is not None:
            if rate_limit is None:
                raise ReproError("rate_burst requires rate_limit")
            if rate_burst < 1:
                raise ReproError(f"rate_burst must be >= 1, "
                                 f"got {rate_burst}")
        if request_timeout is not None and request_timeout <= 0:
            raise ReproError(f"request_timeout must be positive seconds, "
                             f"got {request_timeout}")
        if max_body_bytes < 1:
            raise ReproError(f"max_body_bytes must be >= 1, "
                             f"got {max_body_bytes}")
        if micro_batch_threshold < 0:
            raise ReproError(f"micro_batch_threshold must be >= 0, "
                             f"got {micro_batch_threshold}")
        if (tls_cert is None) != (tls_key is None):
            raise ReproError("TLS needs both --tls-cert and --tls-key "
                             "(or neither)")
        tls_context = None
        if tls_cert is not None:
            tls_context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            tls_context.minimum_version = ssl.TLSVersion.TLSv1_2
            try:
                tls_context.load_cert_chain(certfile=str(tls_cert),
                                            keyfile=str(tls_key))
            except (OSError, ssl.SSLError) as exc:
                raise ReproError(
                    f"cannot load TLS certificate/key "
                    f"({tls_cert}, {tls_key}): {exc}") from None
        self.service = service
        self.tokens = dict(tokens)
        #: Background checkpoint cadence in seconds (``None`` = only at
        #: drain).  Without it a long-lived daemon replays an ever-
        #: growing ledger tail on its next boot; with it the write-ahead
        #: ledger is folded into the checkpoint every interval
        #: (``QueryService.checkpoint`` is safe while serving and never
        #: under-counts).
        self.checkpoint_every = checkpoint_every
        self.checkpoints_written = 0
        self.checkpoint_failures = 0
        #: Set when shutdown had to abandon a checkpoint fold that was
        #: still blocked on I/O after the drain: the fold's lock is
        #: still held, so callers (the CLI's drain-time checkpoint)
        #: must NOT attempt another fold — the ledger holds every
        #: charge and the next boot replays it.
        self.checkpoint_abandoned = False
        self._checkpoint_stop = threading.Event()
        self._checkpoint_thread: threading.Thread | None = None
        self._gate = _Gate()
        self._started = time.monotonic()
        #: Handler threads stash per-request facts here (the body-read
        #: perf_counter window) for the trace that is minted later in
        #: the same thread, once the payload (and its propagated trace
        #: id) has been parsed.
        self._handler_local = threading.local()
        #: ``serve --log-json``: one structured access-log line per
        #: request to stderr (route, status, latency, analyst, trace id)
        #: — machine-grep-able and correlated with ``/v1/trace`` by the
        #: trace id.  Off by default: the human format (silence) is
        #: unchanged, and the hot path pays nothing when disabled.
        self.log_json = bool(log_json)
        self.request_timeout = request_timeout
        self.max_body_bytes = int(max_body_bytes)
        self.micro_batch_threshold = int(micro_batch_threshold)
        self._limiter = (_RateLimiter(rate_limit,
                                      rate_burst if rate_burst is not None
                                      else max(1.0, rate_limit))
                         if rate_limit is not None else None)
        self._batcher = (_MicroBatcher(service, micro_batch_wait,
                                       micro_batch_max)
                         if micro_batch else None)
        self.telemetry = telemetry if telemetry is not None \
            else TelemetryRegistry()
        self._bind_telemetry()
        handler = _build_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._tls = tls_context is not None
        if tls_context is not None:
            # Terminate TLS on the listener: every accepted connection
            # is handshaken server-side before the handler reads a byte.
            self._httpd.socket = tls_context.wrap_socket(
                self._httpd.socket, server_side=True)
        self._thread: threading.Thread | None = None

    def _bind_telemetry(self) -> None:
        registry = self.telemetry
        self._m_requests = registry.counter(
            "repro_requests_total", "HTTP requests received, per route")
        self._m_responses = registry.counter(
            "repro_responses_total", "HTTP responses sent, per status")
        self._m_rate_limited = registry.counter(
            "repro_rate_limited_total",
            "Submissions refused by admission control (429), per analyst")
        self._m_latency = registry.histogram(
            "repro_request_seconds", "Request handling latency per route")
        registry.gauge("repro_in_flight_requests",
                       "Requests currently inside the drain gate",
                       lambda: self._gate.in_flight)
        registry.gauge("repro_uptime_seconds",
                       "Seconds since the server object was constructed",
                       lambda: time.monotonic() - self._started)
        registry.gauge("repro_draining",
                       "1 once graceful shutdown has begun",
                       lambda: 1.0 if self._gate.draining else 0.0)
        if self._batcher is not None:
            batcher = self._batcher
            registry.gauge("repro_micro_batched_queries_total",
                           "Single queries answered through a coalesced "
                           "planner micro-batch",
                           lambda: batcher.coalesced)
            registry.gauge("repro_micro_batches_total",
                           "Planner batches formed by the micro-batcher",
                           lambda: batcher.batches)
        self.service.bind_telemetry(registry)

    # -- lifecycle -------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def tls(self) -> bool:
        """Whether the listener terminates TLS."""
        return self._tls

    @property
    def url(self) -> str:
        scheme = "https" if self._tls else "http"
        return f"{scheme}://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._gate.draining

    def start(self) -> "ReproServer":
        """Serve on a background thread; returns ``self`` for chaining."""
        if self._thread is not None:
            raise ReproError("server already started")
        # Pre-fork the mp worker pool (no-op when threaded) before the
        # listener accepts traffic: the workers inherit the recovered
        # parent state, and the first query pays no fork latency.
        self.service.start_backend()
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-server", daemon=True)
        self._thread.start()
        if self.checkpoint_every is not None:
            self._checkpoint_thread = threading.Thread(
                target=self._checkpoint_loop, name="repro-checkpoint",
                daemon=True)
            self._checkpoint_thread.start()
        return self

    def _checkpoint_loop(self) -> None:
        """Fold the ledger into a checkpoint every ``checkpoint_every``
        seconds until shutdown.  A failed fold (disk full, transient I/O)
        is reported and retried next interval — serving never stops for
        it, and the ledger it failed to compact still holds every
        charge."""
        while not self._checkpoint_stop.wait(self.checkpoint_every):
            try:
                self.service.checkpoint()
                self.checkpoints_written += 1
            except Exception as exc:
                self.checkpoint_failures += 1
                print(f"repro serve: background checkpoint failed: {exc}",
                      file=sys.stderr, flush=True)

    def shutdown(self, drain_timeout: float = DEFAULT_DRAIN_TIMEOUT) -> None:
        """Graceful stop: refuse new work, drain in-flight requests, stop
        the listener, close the service.  Idempotent; raises
        :class:`DrainTimeout` (after stopping anyway) if in-flight work
        outlived ``drain_timeout``."""
        # Signal the checkpoint timer first, but join it only *after*
        # the drain: a fold in flight is safe alongside serving, the
        # drain window doubles as its grace period, and shutdown stays
        # bounded by one drain_timeout, not two.
        self._checkpoint_stop.set()
        drained = self._gate.drain(drain_timeout)
        if self._batcher is not None:
            # After the drain every enqueued item has been served (its
            # handler thread was inside the gate); this only stops the
            # dispatcher and refuses stragglers.
            self._batcher.close()
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        if self._checkpoint_thread is not None:
            # Bounded join before the service closes (the fold must not
            # race the ledger writer's close).  A fold still blocked on
            # dead storage is abandoned: the thread is a daemon so it
            # cannot hold the process open, the ledger it failed to
            # compact holds every charge, and `checkpoint_abandoned`
            # tells the CLI to skip its drain-time fold — the fold's
            # lock is still held, so another attempt would hang forever.
            self._checkpoint_thread.join(timeout=CHECKPOINT_ABANDON_TIMEOUT)
            if self._checkpoint_thread.is_alive():
                self.checkpoint_abandoned = True
                print("repro serve: background checkpoint still blocked "
                      "on I/O after the drain; abandoning it (the ledger "
                      "is intact, the next boot replays it)",
                      file=sys.stderr, flush=True)
                # The wedged fold holds the ledger writer's lock, so
                # DurabilityManager.close() would block on it forever —
                # detach it instead of closing it.  Safe: the drain is
                # complete (no more charges to journal), the on-disk
                # ledger is valid up to its last completed write
                # (recovery handles a torn tail), and the data-dir lock
                # releases with the process.
                self.service.durability = None
            self._checkpoint_thread = None
        self.service.close()
        if not drained:
            raise DrainTimeout(
                f"{self._gate.in_flight} request(s) still in flight after "
                f"{drain_timeout:.1f}s drain")

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- request handling (called from handler threads) ------------------------
    def handle(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        """Route one request; returns ``(status, json_body)``."""
        path, _, query = path.partition("?")
        return self._handle(method, path, query, _SESSION_PATH.match(path),
                            body)

    def _handle(self, method: str, path: str, query: str,
                match: re.Match | None, body: bytes) -> tuple[int, dict]:
        """:meth:`handle` on an already split path and its one
        ``_SESSION_PATH`` match (the handler shares both with its route
        label)."""
        try:
            return self._route(method, path, query, match, body)
        except WireFormatError as exc:
            return 400, encode_error(str(exc), "bad_request")
        except UnknownAnalyst as exc:
            return 401, encode_error(str(exc), "unauthorized")
        except ClosedError as exc:
            # ServiceClosed / SessionClosed: the tagged 409 conditions.
            return 409, encode_error(str(exc), exc.tag)
        except ReproError as exc:
            if "no open session" in str(exc):
                return 404, encode_error(str(exc), "not_found")
            return 500, encode_error(str(exc), "internal")
        except Exception as exc:  # never leak a traceback onto the wire
            return 500, encode_error(f"{type(exc).__name__}: {exc}",
                                     "internal")

    def render_metrics(self) -> str:
        """The ``/v1/metrics`` body (Prometheus text exposition)."""
        return self.telemetry.render()

    def _route(self, method: str, path: str, query: str,
               match: re.Match | None, body: bytes) -> tuple[int, dict]:
        if method == "GET" and path == "/v1/health":
            return 200, self._health()
        if method == "GET" and path == "/v1/snapshot":
            return 200, json_ready(self.service.snapshot())
        if method == "GET" and path == "/v1/trace":
            limit = None
            match = re.search(r"(?:^|&)limit=(\d+)", query)
            if match is not None:
                limit = int(match.group(1))
            tracer = self.service.tracer
            return 200, {"protocol": PROTOCOL_VERSION,
                         "tracing": tracer.counters(),
                         "traces": json_ready(tracer.recent(limit))}
        if method == "GET" and path == "/v1/audit":
            return 200, self._audit(query)
        if method == "POST" and path == "/v1/sessions":
            return self._open_session(self._json(body))
        if match is not None:
            session_id, action = int(match.group(1)), match.group(2)
            if method == "DELETE" and action is None:
                closed = self.service.close_session(session_id)
                self._note_analyst(closed.analyst)
                return 200, {"protocol": PROTOCOL_VERSION,
                             "session_id": closed.session_id,
                             "closed": True}
            if method == "POST" and action == "query":
                return self._submit(session_id, self._json(body))
            if method == "POST" and action == "batch":
                return self._submit_batch(session_id, self._json(body))
        raise WireFormatError(f"no route for {method} {path}")

    @staticmethod
    def _json(body: bytes) -> dict:
        try:
            payload = json.loads(body or b"{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireFormatError(f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise WireFormatError("body must be a JSON object")
        return payload

    def _health(self) -> dict:
        snapshot = self.service.snapshot()
        payload = {
            "protocol": PROTOCOL_VERSION,
            "status": "draining" if self._gate.draining else "ok",
            "uptime_seconds": time.monotonic() - self._started,
            "open_sessions": snapshot["open_sessions"],
            "in_flight": self._gate.in_flight,
            "shards": snapshot["shards"],
            "backend": snapshot["backend"]["mode"],
            "submitted": snapshot["service"]["submitted"],
            "answered": snapshot["service"]["answered"],
            "rate_limited": int(self._m_rate_limited.total()),
        }
        if self.checkpoint_every is not None:
            payload["checkpoints_written"] = self.checkpoints_written
            payload["checkpoint_failures"] = self.checkpoint_failures
        return payload

    def _audit(self, query: str) -> dict:
        """``GET /v1/audit``: the live trail's event pages + forecasts.

        Served from RAM (the daemon holds the data-dir flock, so an
        offline fold against its directory uses the lockless fallback).
        ``?analyst=`` filters, ``?since_seq=`` pages on the trail-local
        ``audit_seq`` cursor, ``?limit=`` caps the page; the response's
        ``next_since_seq`` continues the walk.  Non-finite forecasts
        (idle analysts) ship as ``null`` — strict JSON has no ``inf``.
        """
        trail = self.service.audit
        if trail is None:
            return {"protocol": PROTOCOL_VERSION,
                    "audit": {"enabled": False}, "events": []}
        analyst = None
        match = re.search(r"(?:^|&)analyst=([^&]*)", query)
        if match is not None:
            analyst = unquote(match.group(1))
        match = re.search(r"(?:^|&)since_seq=(\d+)", query)
        since_seq = int(match.group(1)) if match is not None else 0
        match = re.search(r"(?:^|&)limit=(\d+)", query)
        limit = int(match.group(1)) if match is not None else 256
        events = trail.events(analyst=analyst, since_seq=since_seq,
                              limit=limit)
        payload = {
            "protocol": PROTOCOL_VERSION,
            "audit": trail.describe(),
            "events": json_ready(events),
            "next_since_seq": (events[-1]["audit_seq"] if events
                               else since_seq),
            "burn_rates": {f"{window:g}": trail.burn_rates(window)
                           for window in trail.windows},
            "exhaustion": _json_finite(trail.exhaustion()),
            "table_exhaustion": finite_or_none(trail.table_exhaustion()),
            "group_exhaustion": _json_finite(trail.group_exhaustion()),
        }
        if analyst is not None:
            payload["analyst"] = analyst
        return payload

    def _note_analyst(self, analyst: str | None) -> None:
        """Stash the acting analyst for this thread's access-log line."""
        if self.log_json:
            self._handler_local.log_analyst = analyst

    def _note_session_analyst(self, session_id: int) -> None:
        if not self.log_json:
            return
        try:
            self._handler_local.log_analyst = \
                self.service._resolve_session(session_id).analyst
        except ReproError:
            pass  # unknown/closed session: the route reports it precisely

    def _emit_access_log(self, method: str, path: str, route: str,
                         status: int, elapsed: float) -> None:
        """One JSON access-log line to stderr (``serve --log-json``)."""
        local = self._handler_local
        record = {
            "ts": round(time.time(), 6),
            "method": method,
            "path": path.partition("?")[0],
            "route": route,
            "status": int(status),
            "latency_ms": round(elapsed * 1000.0, 3),
            "analyst": getattr(local, "log_analyst", None),
            "trace": getattr(local, "log_trace", None),
        }
        print(json.dumps(record), file=sys.stderr, flush=True)

    def _analyst_for(self, payload: dict) -> str:
        token = payload.get("token")
        if not isinstance(token, str):
            raise WireFormatError("'token' must be a string")
        try:
            return self.tokens[token]
        except KeyError:
            raise UnknownAnalyst("unknown auth token") from None

    def _admit(self, session_id: int,
               cost: float) -> tuple[int, dict] | None:
        """Admission control for one submission; ``None`` admits.

        Runs *before* the drain gate and before any engine work.  An
        unknown or closed session skips straight through — the normal
        path reports those precisely, and they are not load.
        """
        if self._limiter is None:
            return None
        try:
            analyst = self.service._resolve_session(session_id).analyst
        except ReproError:
            return None
        retry_after = self._limiter.try_admit(analyst, cost)
        if retry_after <= 0.0:
            return None
        self._m_rate_limited.inc(analyst=analyst)
        payload = encode_error(
            f"analyst {analyst!r} is over its admission rate; retry in "
            f"{retry_after:.3f}s", "rate_limited")
        payload["retry_after"] = round(retry_after, 3)
        return 429, payload

    def _open_session(self, payload: dict) -> tuple[int, dict]:
        analyst = self._analyst_for(payload)
        self._note_analyst(analyst)
        if not self._gate.try_enter():
            return 503, encode_error("server is draining", "draining")
        try:
            session = self.service.open_session(analyst)
            return 200, {"protocol": PROTOCOL_VERSION,
                         "session_id": session.session_id,
                         "analyst": session.analyst}
        finally:
            self._gate.leave()

    @contextmanager
    def _traced(self, payload: dict, route: str):
        """Mint the server-side trace for one submission.

        The client's propagated id rides as an optional top-level
        ``"trace"`` key in the POST payload (``decode_request`` reads
        only its own fields, so old clients and old servers are both
        untouched).  The handler thread's body-read window — measured
        before any trace could exist — is adopted retroactively, and the
        finished trace lands in the shared ``service.tracer`` ring.
        With the trace active, ``QueryService.submit`` sees a current
        trace and reports into it instead of minting its own.
        """
        tracer = self.service.tracer
        body_read = getattr(self._handler_local, "body_read", None)
        self._handler_local.body_read = None
        trace_id = payload.get("trace")
        trace = tracer.start(trace_id if isinstance(trace_id, str)
                             and trace_id else None)
        if trace is None:  # tracing disabled, or this request sampled out
            yield None
            return
        if self.log_json:
            self._handler_local.log_trace = trace.trace_id
        if body_read is not None:
            trace.add_span("read_body", body_read[0], body_read[1],
                           bytes=body_read[2])
        try:
            with tracing.activate(trace), \
                    tracing.span("server.request", route=route):
                yield trace
        finally:
            tracer.finish(trace)

    def _submit(self, session_id: int, payload: dict) -> tuple[int, dict]:
        request = decode_request(payload)
        self._note_session_analyst(session_id)
        with self._traced(payload, "query"):
            with tracing.span("admission"):
                refusal = self._admit(session_id, 1.0)
            if refusal is not None:
                tracing.event("rate_limited")
                return refusal
            if not self._gate.try_enter():
                return 503, encode_error("server is draining", "draining")
            try:
                if self._batcher is not None and \
                        self._gate.in_flight > self.micro_batch_threshold:
                    response = self._batcher.submit(session_id, request)
                else:
                    response = self.service.submit(
                        session_id, request.sql, accuracy=request.accuracy,
                        epsilon=request.epsilon)
            finally:
                self._gate.leave()
            return 200, encode_response(response)

    def _submit_batch(self, session_id: int,
                      payload: dict) -> tuple[int, dict]:
        raw = payload.get("requests")
        if not isinstance(raw, list):
            raise WireFormatError("batch body needs a 'requests' list")
        requests = [decode_request(entry) for entry in raw]
        self._note_session_analyst(session_id)
        with self._traced(payload, "batch"):
            with tracing.span("admission"):
                refusal = self._admit(session_id,
                                      float(max(1, len(requests))))
            if refusal is not None:
                tracing.event("rate_limited")
                return refusal
            if not self._gate.try_enter():
                return 503, encode_error("server is draining", "draining")
            try:
                responses = self.service.submit_batch(session_id, requests)
            finally:
                self._gate.leave()
            return 200, {"protocol": PROTOCOL_VERSION,
                         "responses": [encode_response(r)
                                       for r in responses]}


def _build_handler(server: ReproServer) -> type:
    """A request-handler class closed over one :class:`ReproServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = f"repro-serve/{PROTOCOL_VERSION}"
        # Small JSON request/response pairs ping-pong on keep-alive
        # connections; Nagle + delayed ACK adds ~40ms per round trip.
        disable_nagle_algorithm = True
        # StreamRequestHandler applies this as the connection's socket
        # timeout: it bounds the head read, the body read below, and
        # keep-alive idle time.  A timeout mid-head is handled by
        # BaseHTTPRequestHandler (connection closed); a timeout
        # mid-body is answered with 408 below.
        timeout = server.request_timeout

        def parse_request(self) -> bool:
            """Read the head after the request line with the shared
            framing reader; a head it refuses is answered and closed."""
            self.close_connection = True
            try:
                self.command, self.path, self.request_version, headers = \
                    framing.read_request_head(self.rfile,
                                              self.raw_requestline)
            except framing.FramingError as exc:
                self._refuse(exc.status, "bad_request", str(exc))
                return False
            self.headers = headers
            connection = headers.get("connection", "").lower()
            self.close_connection = "close" in connection or (
                self.request_version == "HTTP/1.0"
                and "keep-alive" not in connection)
            return True

        def send_error(self, code, message=None, explain=None) -> None:
            # The base class's own refusals (414 on an over-long request
            # line, 501 on an unknown method) take the same one-write,
            # tagged-JSON exit as ours.
            self._refuse(int(code), "bad_request",
                         message or self.responses[code][0])

        def _send(self, status: int, content_type: str, data: bytes,
                  extra: tuple = ()) -> None:
            """The whole response -- head and body -- in one write."""
            headers = [("Server", self.version_string()),
                       ("Date", framing.http_date()),
                       ("Content-Type", content_type), *extra,
                       ("Content-Length", len(data))]
            if self.close_connection:
                headers.append(("Connection", "close"))
            phrase = self.responses.get(status, ("",))[0]
            self.wfile.write(framing.format_head(
                f"HTTP/1.1 {status} {phrase}", headers) + data)

        def _read_body(self) -> bytes | None:
            """Read the request body under the cap and the socket
            timeout; sends the refusal itself and returns ``None`` when
            the request cannot proceed."""
            declared = self.headers.get("content-length", "0")
            if not (declared.isascii() and declared.isdigit()):
                self._refuse(400, "bad_request",
                             "Content-Length is not an integer")
                return None
            length = int(declared)
            if length > server.max_body_bytes:
                self._refuse(413, "bad_request",
                             f"request body of {length} bytes exceeds the "
                             f"{server.max_body_bytes}-byte limit")
                return None
            if length == 0:
                return b""
            read_started = time.perf_counter()
            try:
                if self.headers.get("expect", "").lower() == "100-continue":
                    self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                body = self.rfile.read(length)
            except (TimeoutError, OSError):
                body = None
            if body is None or len(body) < length:
                self._refuse(408, "bad_request",
                             "request body stalled before Content-Length "
                             "bytes arrived")
                return None
            # Stash the read window for the trace minted later in this
            # same thread (the trace id lives inside the body just read).
            server._handler_local.body_read = (
                read_started, time.perf_counter(), length)
            return body

        def _refuse(self, status: int, kind: str, message: str) -> None:
            """One-shot error reply on a connection we no longer trust."""
            self.close_connection = True
            try:
                self._send(status, "application/json", json.dumps(
                    encode_error(message, kind)).encode("utf-8"))
            except (TimeoutError, OSError):
                pass  # the peer is gone or stalled; nothing to salvage
            self._status = status

        def _dispatch(self, method: str) -> None:
            started = time.perf_counter()
            server._handler_local.body_read = None
            if server.log_json:
                server._handler_local.log_analyst = None
                server._handler_local.log_trace = None
            path, _, query = self.path.partition("?")
            match = _SESSION_PATH.match(path)
            route = _route_label(method, path, match)
            server._m_requests.inc(route=route)
            self._status = 500
            try:
                body = self._read_body()
                if body is None:
                    return
                extra = ()
                if method == "GET" and self.path == "/v1/metrics":
                    data = server.render_metrics().encode("utf-8")
                    content_type = "text/plain; version=0.0.4; " \
                                   "charset=utf-8"
                    status = 200
                else:
                    status, payload = server._handle(method, path, query,
                                                     match, body)
                    data = json.dumps(payload).encode("utf-8")
                    content_type = "application/json"
                    if status == 429 and isinstance(
                            payload.get("retry_after"), (int, float)):
                        extra = (("Retry-After",
                                  f"{payload['retry_after']:.3f}"),)
                self._status = status
                if len(data) >= GZIP_MIN_BYTES and "gzip" in \
                        self.headers.get("accept-encoding", "").lower():
                    # mtime=0 keeps the body deterministic (same answer,
                    # same bytes) — useful for replay comparison and
                    # cache-friendly anyway.
                    data = gzip.compress(data, compresslevel=6, mtime=0)
                    extra += (("Content-Encoding", "gzip"),)
                self._send(status, content_type, data, extra)
            finally:
                server._m_responses.inc(status=str(self._status))
                elapsed = time.perf_counter() - started
                server._m_latency.observe(elapsed, route=route)
                if server.log_json:
                    server._emit_access_log(method, self.path, route,
                                            self._status, elapsed)

        def do_GET(self) -> None:
            self._dispatch("GET")

        def do_POST(self) -> None:
            self._dispatch("POST")

        def do_DELETE(self) -> None:
            self._dispatch("DELETE")

        def log_message(self, format: str, *args) -> None:
            pass  # keep the serving path quiet; stats live in /v1/health

    return Handler


__all__ = ["DEFAULT_DRAIN_TIMEOUT", "DEFAULT_MAX_BODY_BYTES",
           "DEFAULT_REQUEST_TIMEOUT", "DrainTimeout", "ReproServer",
           "load_token_table"]
