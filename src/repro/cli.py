"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro fig3  --dataset adult --rows 12000
    python -m repro fig4  --dataset tpch
    python -m repro table1
    python -m repro fig6 --queries 200
    python -m repro serve --port 8321 --analysts 8 --epsilon 12
    python -m repro list

Each figure subcommand is one entry of :data:`repro.experiments.FIGURES`
(rq1, fig3-fig9, table1, table3; the ablations and the scalability run
have no subcommand).  It offers only the options its entry reads, which
control the reduced scale, and prints the same text tables that
``tests/test_paper_figures.py`` prints and checks at bench scale.  The
serving stack's benchmark is ``perf/run.py`` (see ``perf/README.md``),
not a subcommand.

``serve`` runs the network daemon (:mod:`repro.server`): it builds a
dataset + analyst roster, wraps them in a ``QueryService``, and
serves the protocol-v3 HTTP API until SIGTERM/SIGINT, then drains
in-flight work before exiting.  Connect with
:class:`repro.client.RemoteAnalyst`.  With ``--data-dir`` the service
journals every finalised charge to a write-ahead budget ledger
(``--fsync`` policy), recovers checkpoint ⊕ ledger on boot
(``--recover strict|permissive``), and checkpoints on drain;
``--tokens`` loads the auth table from a (non-world-readable) JSON
file.  ``recover`` and ``checkpoint`` are the matching offline tools
for a stopped daemon's data directory; ``audit`` replays the same
ledger chain into per-analyst spend timelines (and ``--verify``
cross-checks a live daemon's ``/v1/metrics`` under exact equality),
while ``monitor`` watches a running daemon and can alert on projected
budget exhaustion (``--exhaustion-horizon``).
"""

from __future__ import annotations

import argparse
import inspect
import signal
import sys
import threading

from repro.exceptions import ReproError
from repro.experiments import FIGURES

#: The figure subcommands: every table entry that has CLI options.
COMMANDS = {name: figure for name, figure in FIGURES.items()
            if figure.cli is not None}

#: Every option a figure subcommand may offer (an entry's ``cli``
#: parameters name the ones it reads); the daemon commands share three.
_FIGURE_OPTIONS = {
    "dataset": dict(choices=("adult", "tpch"), default="adult"),
    "rows": dict(type=int, default=12000,
                 help="dataset rows (0 = paper scale)"),
    "queries": dict(type=int, default=150, help="queries per analyst"),
    "repeats": dict(type=int, default=2),
    "seed": dict(type=int, default=0),
}


def _options(figure) -> list[str]:
    return list(inspect.signature(figure.cli).parameters)


def _build_daemon_service(args, durable: bool = True):
    """The service a daemon-side command runs over (shared by ``serve``,
    ``recover``, and ``checkpoint`` so recovery always rebuilds against
    the same roster/dataset the crashed daemon served).

    ``durable=False`` builds the bare service with no durability manager
    even when ``--data-dir`` is set — the read-only ``recover`` command
    must never bind a ledger writer (binding repairs a torn tail and
    would mutate the very file the operator is inspecting).
    """
    from repro.datasets import load_adult, load_tpch
    from repro.service.service import QueryService
    from repro.workloads.service import make_service_analysts

    loader = load_adult if args.dataset == "adult" else load_tpch
    kwargs = {} if args.rows is None else (
        {"num_rows": args.rows} if args.dataset == "adult"
        else {"lineitem_rows": args.rows})
    bundle = loader(seed=args.seed, **kwargs)
    analysts = make_service_analysts(args.analysts)
    durability = None
    if durable and getattr(args, "data_dir", None):
        from repro.persistence import DurabilityManager

        durability = DurabilityManager(args.data_dir,
                                       fsync=getattr(args, "fsync",
                                                     "always"),
                                       recover=getattr(args, "recover",
                                                       "strict"),
                                       segment_bytes=getattr(
                                           args, "ledger_segment_bytes",
                                           None))
    return QueryService.build(bundle, analysts, args.epsilon,
                              seed=args.seed, durability=durability)


def _serve(args) -> str:
    from repro.persistence.recovery import format_recovery_report
    from repro.server.daemon import ReproServer, load_token_table

    tokens = load_token_table(args.tokens) if args.tokens else None
    service = _build_daemon_service(args)
    try:
        server = ReproServer(service, host=args.host, port=args.port,
                             tokens=tokens,
                             checkpoint_every=args.checkpoint_every,
                             rate_limit=args.rate_limit,
                             rate_burst=args.rate_burst,
                             request_timeout=args.request_timeout,
                             max_body_bytes=args.max_body,
                             tls_cert=args.tls_cert,
                             tls_key=args.tls_key,
                             log_json=args.log_json)
    except ReproError:
        service.close()
        raise

    print(f"repro serve: listening on {server.url}", flush=True)
    print(f"  dataset={args.dataset} rows={args.rows or 'full'} "
          f"epsilon={args.epsilon}", flush=True)
    if server.tls:
        print(f"  tls: cert={args.tls_cert} (TLS >= 1.2)", flush=True)
    if args.rate_limit is not None:
        print(f"  admission control: {args.rate_limit:g} q/s per analyst "
              f"(burst {args.rate_burst if args.rate_burst is not None else max(1.0, args.rate_limit):g}); "
              f"over-limit requests get 429 + Retry-After", flush=True)
    print(f"  metrics: GET {server.url}/v1/metrics (Prometheus text)",
          flush=True)
    print(f"  audit: GET {server.url}/v1/audit (spend timeline, burn "
          f"rates, exhaustion forecasts)", flush=True)
    if args.log_json:
        print("  access log: one JSON line per request on stderr",
              flush=True)
    if service.durability is not None:
        print(f"  durability: data_dir={args.data_dir} fsync={args.fsync} "
              f"recover={args.recover}", flush=True)
        if args.checkpoint_every is not None:
            print(f"  background checkpoint: every "
                  f"{args.checkpoint_every:g}s (ledger folded while "
                  f"serving; bounds replay on the next boot)", flush=True)
        report = service.durability.last_recovery
        if report.checkpoint_found or report.records_seen:
            print("  " + format_recovery_report(report)
                  .replace("\n", "\n  "), flush=True)
    if args.tokens:
        # Tokens from a file are credentials — never echo them.
        print(f"  auth tokens: {len(server.tokens)} loaded from "
              f"{args.tokens} (values not shown)", flush=True)
    else:
        print("  auth tokens (token -> analyst):", flush=True)
        for token, analyst in server.tokens.items():
            print(f"    {token} -> {analyst}", flush=True)
    print("  SIGTERM/SIGINT drains in-flight work and exits.", flush=True)

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    server.start()
    stop.wait()
    print("repro serve: draining...", flush=True)
    # A DrainTimeout (in-flight work abandoned) propagates as a ReproError
    # so supervisors see exit code 2, not a clean stop.
    server.shutdown()
    if service.durability is not None:
        if server.checkpoint_abandoned:
            # A background fold is still blocked on I/O and holds the
            # checkpoint lock — another fold would hang here forever.
            # Nothing is lost: the ledger has every charge and the next
            # boot replays it.
            print("repro serve: skipping drain-time checkpoint (a "
                  "background fold is still blocked on I/O); the next "
                  "boot replays the ledger", flush=True)
        else:
            # The drain finished, so this fold is exact: the ledger
            # collapses into the checkpoint and the next boot replays
            # nothing.
            service.checkpoint()
            print(f"repro serve: checkpoint written to {args.data_dir}",
                  flush=True)
    return "stopped cleanly (drained)"


def _monitor(args) -> str:
    """Heartbeat watcher over a running daemon's ``/v1/metrics``."""
    from repro.metrics.monitor import run_monitor

    fired = run_monitor(
        args.url, interval=args.interval,
        samples=1 if args.once else args.samples,
        timeout=args.timeout, max_ledger_lag=args.max_ledger_lag,
        max_ledger_lag_growth=args.max_ledger_lag_growth,
        max_rate_limited_rate=args.max_429_rate,
        exhaustion_horizon=args.exhaustion_horizon,
        webhook_path=args.webhook_file)
    if fired:
        raise ReproError(f"{fired} alert(s) fired")
    return "healthy (no alerts)"


def _recover(args) -> str:
    """Offline recovery inspection: rebuild state, report, change nothing.

    Run it while the daemon is down.  Strictly read-only: the recovery
    runs directly (no durability manager is bound), so no ledger writer
    opens, no files are created, and a torn tail is *not* repaired —
    the evidence stays on disk exactly as the crash left it.
    """
    from repro.persistence.manager import (
        acquire_data_dir_lock,
        release_data_dir_lock,
    )
    from repro.persistence.recovery import (
        format_recovery_report,
        recover_service,
    )

    _require_data_dir(args)
    # Hold the directory lock for the read: a live daemon compacting
    # between the checkpoint read and the ledger read would make this
    # audit report under-counted totals.
    lock = acquire_data_dir_lock(args.data_dir)
    service = _build_daemon_service(args, durable=False)
    try:
        report = recover_service(service, args.data_dir,
                                 mode=args.recover)
        return format_recovery_report(report)
    finally:
        service.close()
        release_data_dir_lock(lock)


def _require_data_dir(args) -> None:
    """Offline tools inspect an *existing* data directory — a mistyped
    path must fail loudly, not be silently created and reported as an
    empty (budget-free) ledger."""
    import os

    if not os.path.isdir(args.data_dir):
        raise ReproError(f"data directory {args.data_dir} does not exist "
                         f"(it is created by `repro serve --data-dir`)")
    args.fsync = "off"
    args.recover = "permissive" if args.permissive else "strict"


def _checkpoint(args) -> str:
    """Offline compaction: recover, fold the ledger into a checkpoint.

    Run it while the daemon is down (e.g. after a crash, or from cron
    between restarts) to bound replay time on the next boot.
    """
    from repro.persistence.recovery import format_recovery_report

    _require_data_dir(args)
    service = _build_daemon_service(args)
    try:
        report = service.durability.last_recovery
        service.checkpoint()
        return (format_recovery_report(report)
                + f"\ncheckpoint written to {args.data_dir}; "
                  f"ledger compacted")
    finally:
        service.close()


def _audit(args) -> str:
    """Offline budget audit: fold a data dir's checkpoint + ledger chain
    into per-(analyst, view) spend timelines.

    Unlike ``recover``/``checkpoint`` this never rebuilds the dataset or
    service — the ledger chain alone carries the accounting, so the fold
    is cheap enough for cron.  Strictly read-only: no ledger writer
    opens, a torn tail is not repaired.  With ``--verify`` the replayed
    totals are cross-checked against a live daemon's ``/v1/metrics``
    exposition under **exact** float equality (both sides execute the
    identical op sequence; any mismatch is an accounting bug, not
    rounding).
    """
    import json as json_module
    import os

    from repro.metrics.audit import (
        fold_data_dir,
        format_audit_report,
        verify_report,
    )

    if not os.path.isdir(args.data_dir):
        raise ReproError(f"data directory {args.data_dir} does not exist "
                         f"(it is created by `repro serve --data-dir`)")
    mode = "permissive" if args.permissive else "strict"
    report = fold_data_dir(args.data_dir, mode=mode)
    problems: list[str] = []
    verified = False
    if args.verify:
        from repro.metrics.monitor import scrape

        # The daemon keeps serving while we fold, so a charge can land
        # between the fold and the scrape and make the totals diverge
        # legitimately.  Re-fold against the moved ledger and re-scrape
        # until a quiescent pair agrees (first try on an idle daemon).
        for attempt in range(5):
            families = scrape(args.verify, timeout=args.timeout)
            problems = verify_report(report, families)
            if not problems:
                verified = True
                break
            report = fold_data_dir(args.data_dir, mode=mode)
    if args.json:
        payload = report.as_dict()
        if args.verify:
            payload["verify"] = {"url": args.verify,
                                 "verified": verified,
                                 "problems": problems}
        out = json_module.dumps(payload, indent=2, sort_keys=True)
    else:
        out = format_audit_report(report, analyst=args.analyst,
                                  limit=args.limit)
        if verified:
            out += (f"\n  verify: totals match {args.verify} "
                    f"/v1/metrics exactly")
    if problems:
        raise ReproError(
            "audit verification failed — replayed totals diverge from "
            "the live daemon:\n  " + "\n  ".join(problems))
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the DProvDB paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    for name, figure in COMMANDS.items():
        cmd = sub.add_parser(name, help=figure.help)
        for option in _options(figure):
            cmd.add_argument(f"--{option}", **_FIGURE_OPTIONS[option])

    def add_daemon_args(cmd, data_dir_required: bool) -> None:
        """Dataset/roster options shared by serve/recover/checkpoint —
        recovery must rebuild against the same service shape."""
        for option in ("dataset", "rows"):
            cmd.add_argument(f"--{option}", **_FIGURE_OPTIONS[option])
        cmd.add_argument("--analysts", type=int, default=8,
                         help="number of registered analysts")
        cmd.add_argument("--epsilon", type=float, default=12.0,
                         help="table-level privacy budget")
        cmd.add_argument("--seed", **_FIGURE_OPTIONS["seed"])
        cmd.add_argument("--data-dir", required=data_dir_required,
                         default=None, metavar="PATH",
                         help="durability directory (write-ahead budget "
                              "ledger + checkpoint)")

    serve = sub.add_parser(
        "serve", help="run the HTTP daemon over a QueryService")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (0 = ephemeral, printed at start)")
    add_daemon_args(serve, data_dir_required=False)
    serve.add_argument("--fsync", choices=("always", "batch", "off"),
                       default="always",
                       help="ledger fsync policy with --data-dir "
                            "(default: always — a charge is on disk "
                            "before its answer is acknowledged)")
    serve.add_argument("--recover", choices=("strict", "permissive"),
                       default="strict",
                       help="boot-time recovery mode: strict refuses a "
                            "torn ledger tail; permissive replays past "
                            "it, only ever over-counting spent budget")
    serve.add_argument("--checkpoint-every", type=float, default=None,
                       metavar="SECONDS",
                       help="with --data-dir: fold the write-ahead ledger "
                            "into the checkpoint every SECONDS while "
                            "serving (default: only at drain), so a "
                            "long-lived daemon's next boot replays a "
                            "bounded ledger tail")
    serve.add_argument("--tokens", default=None, metavar="PATH",
                       help="JSON token file mapping auth token -> "
                            "analyst (must not be world-readable); "
                            "replaces the identity default")
    serve.add_argument("--rate-limit", type=float, default=None,
                       metavar="QPS",
                       help="per-analyst admission control: sustained "
                            "queries/sec each analyst may submit; over "
                            "the limit the server answers 429 with a "
                            "Retry-After hint (default: unlimited)")
    serve.add_argument("--rate-burst", type=float, default=None,
                       metavar="N",
                       help="token-bucket burst with --rate-limit "
                            "(default: max(1, rate))")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-connection socket timeout: a client "
                            "that stalls mid-body gets 408 and cannot "
                            "hold a handler thread (default: 30)")
    serve.add_argument("--max-body", type=int, default=8 * 1024 * 1024,
                       metavar="BYTES",
                       help="largest request body accepted before the "
                            "server answers 413 (default: 8 MiB)")
    serve.add_argument("--tls-cert", default=None, metavar="PEM",
                       help="TLS certificate chain; with --tls-key, "
                            "serves https (TLS >= 1.2)")
    serve.add_argument("--tls-key", default=None, metavar="PEM",
                       help="TLS private key (pair of --tls-cert)")
    serve.add_argument("--log-json", action="store_true",
                       help="emit one structured JSON access-log line "
                            "per request to stderr (route, status, "
                            "latency, analyst, trace id); the default "
                            "human format is unchanged without it")
    serve.add_argument("--ledger-segment-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="with --data-dir: seal the active ledger "
                            "into numbered segments at this size so "
                            "checkpoint compaction never rewrites "
                            "unbounded history (default: single file)")

    recover = sub.add_parser(
        "recover", help="inspect crash recovery for a --data-dir "
                        "(rebuild + report, change nothing)")
    add_daemon_args(recover, data_dir_required=True)
    recover.add_argument("--permissive", action="store_true",
                         help="replay past a torn ledger tail "
                              "(over-counts at most the unacknowledged "
                              "tail; never re-grants)")

    checkpoint = sub.add_parser(
        "checkpoint", help="offline compaction: fold a --data-dir's "
                           "ledger into a fresh checkpoint")
    add_daemon_args(checkpoint, data_dir_required=True)
    checkpoint.add_argument("--permissive", action="store_true",
                            help="recover past a torn ledger tail before "
                                 "folding")

    audit = sub.add_parser(
        "audit", help="offline budget audit: replay a --data-dir's "
                      "checkpoint + ledger chain into per-analyst/view "
                      "spend timelines; --verify cross-checks a live "
                      "daemon's /v1/metrics under exact equality")
    audit.add_argument("--data-dir", required=True, metavar="PATH",
                       help="durability directory to audit (write-ahead "
                            "budget ledger + checkpoint)")
    audit.add_argument("--permissive", action="store_true",
                       help="audit past a torn ledger tail (matching "
                            "permissive recovery: over-counts at most "
                            "the unacknowledged tail)")
    audit.add_argument("--analyst", default=None, metavar="NAME",
                       help="restrict the report to one analyst")
    audit.add_argument("--limit", type=int, default=20, metavar="N",
                       help="newest timeline events to print "
                            "(default: 20)")
    audit.add_argument("--json", action="store_true",
                       help="emit the full machine-readable report "
                            "(cells, row totals, ordered events) "
                            "instead of the human table")
    audit.add_argument("--verify", default=None, metavar="URL",
                       help="scrape URL's /v1/metrics and require the "
                            "replayed totals to match exactly (nonzero "
                            "exit on any divergence); works against a "
                            "live daemon via the lockless fold")
    audit.add_argument("--timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="per-scrape HTTP timeout for --verify "
                            "(default: 5)")

    monitor = sub.add_parser(
        "monitor", help="heartbeat watcher: scrape a daemon's "
                        "/v1/metrics on an interval and alert on stale "
                        "scrapes, ledger-lag growth and 429 spikes "
                        "(nonzero exit on any alert)")
    monitor.add_argument("--url", default="http://127.0.0.1:8321",
                         help="daemon base url (default: "
                              "http://127.0.0.1:8321)")
    monitor.add_argument("--interval", type=float, default=10.0,
                         metavar="SECONDS",
                         help="seconds between scrapes (default: 10)")
    monitor.add_argument("--once", action="store_true",
                         help="one scrape, absolute checks only, exit "
                              "(a cron/CI probe)")
    monitor.add_argument("--samples", type=int, default=None, metavar="N",
                         help="stop after N scrapes (default: forever)")
    monitor.add_argument("--timeout", type=float, default=5.0,
                         metavar="SECONDS",
                         help="per-scrape HTTP timeout (default: 5)")
    monitor.add_argument("--max-ledger-lag", type=float, default=10_000,
                         metavar="RECORDS",
                         help="alert when unfolded ledger records exceed "
                              "this bound (default: 10000)")
    monitor.add_argument("--max-ledger-lag-growth", type=float,
                         default=1_000, metavar="RECORDS",
                         help="alert when ledger lag grows by more than "
                              "this many records in one interval "
                              "(default: 1000)")
    monitor.add_argument("--max-429-rate", type=float, default=5.0,
                         metavar="QPS",
                         help="alert when admission-control refusals "
                              "exceed this rate between scrapes "
                              "(default: 5/s)")
    monitor.add_argument("--exhaustion-horizon", type=float, default=0.0,
                         metavar="SECONDS",
                         help="alert when any analyst's projected "
                              "seconds-to-budget-exhaustion (the audit "
                              "trail's repro_exhaustion_seconds gauge) "
                              "falls below this horizon (default: 0 = "
                              "disabled)")
    monitor.add_argument("--webhook-file", default=None, metavar="PATH",
                         help="append each alert as a JSON line to this "
                              "file (a forwarder can tail it into a "
                              "pager)")
    return parser


_DAEMON_COMMANDS = {
    "serve": _serve,
    "recover": _recover,
    "checkpoint": _checkpoint,
    "monitor": _monitor,
    "audit": _audit,
}


def _run_figure(figure, args) -> str:
    kwargs = figure.cli(**{option: getattr(args, option)
                           for option in _options(figure)})
    return figure.format(figure.run(**kwargs), kwargs)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, figure in COMMANDS.items():
            print(f"{name:8s} {figure.help}")
        print("serve    HTTP daemon over a QueryService "
              "(repro.server; --data-dir adds the write-ahead ledger)")
        print("recover  inspect crash recovery for a durability data-dir")
        print("checkpoint  fold a durability data-dir's ledger into a "
              "checkpoint")
        print("monitor  heartbeat watcher over a running daemon's "
              "/v1/metrics (alerts + nonzero exit)")
        print("audit    offline budget audit of a durability data-dir "
              "(spend timelines; --verify cross-checks a live daemon)")
        return 0
    rows = getattr(args, "rows", None)
    if rows is not None and rows < 0:
        print(f"error: --rows must be >= 0 (0 = paper scale), got {rows}",
              file=sys.stderr)
        return 2
    if rows == 0:
        args.rows = None
    for flag in ("queries", "repeats"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            print(f"error: --{flag} must be >= 1, got {value}",
                  file=sys.stderr)
            return 2
    try:
        if args.command in COMMANDS:
            print(_run_figure(COMMANDS[args.command], args))
        else:
            print(_DAEMON_COMMANDS[args.command](args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
