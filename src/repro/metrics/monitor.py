"""``repro monitor``: a dependency-free heartbeat watcher for a daemon.

One monitor scrapes a running ``repro serve``'s ``/v1/metrics`` endpoint
on an interval, compares consecutive samples, and alerts on the
conditions an operator actually pages on:

* **failed/stale scrape** — the endpoint unreachable, non-200, or the
  server's ``repro_uptime_seconds`` not advancing between samples
  (a frozen or restarted daemon).
* **ledger lag** — ``repro_ledger_lag_records`` above an absolute bound,
  or growing faster per interval than the growth bound (the write-ahead
  ledger outrunning checkpoint compaction).
* **429 spike** — ``repro_rate_limited_total`` climbing faster than the
  allowed rate (admission control refusing a meaningful share of load).
* **budget exhaustion** — any ``repro_exhaustion_seconds`` forecast
  (the audit trail's linear seconds-to-cap projection, per analyst)
  dropping below ``--exhaustion-horizon`` (0 disables the check; idle
  analysts project ``+Inf`` and never alert).

Alerts go to stderr and (optionally) a webhook file — one JSON object
per line, the shape a thin forwarder can tail into a real pager.  The
CLI exits nonzero when any alert fired, so ``repro monitor --once`` is a
usable cron/CI probe as-is.

The evaluation logic (:func:`evaluate`) is pure — two parsed metric
samples in, alert strings out — so the tests exercise every alert
condition without a server or a clock.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request

from repro.metrics.telemetry import parse_exposition

#: Seconds between scrapes.
DEFAULT_INTERVAL = 10.0

#: Per-scrape HTTP timeout (seconds).
DEFAULT_TIMEOUT = 5.0

#: Absolute ledger-lag bound (records not yet folded into a checkpoint).
DEFAULT_MAX_LEDGER_LAG = 10_000

#: Largest tolerated ledger-lag *increase* between consecutive scrapes.
DEFAULT_MAX_LEDGER_LAG_GROWTH = 1_000

#: Largest tolerated 429 rate (refusals/second) between scrapes.
DEFAULT_MAX_RATE_LIMITED_RATE = 5.0

#: Exhaustion-forecast alert horizon in seconds (0 = disabled): warn
#: when any analyst's projected seconds-to-cap falls below it.
DEFAULT_EXHAUSTION_HORIZON = 0.0

#: Parsed exposition: ``{metric_name: {label_key: value}}``.
Sample = dict


def scrape(url: str, timeout: float = DEFAULT_TIMEOUT) -> Sample:
    """Fetch and parse one ``/v1/metrics`` exposition from ``url`` (the
    daemon's base url, with or without the path)."""
    target = url.rstrip("/")
    if not target.endswith("/v1/metrics"):
        target += "/v1/metrics"
    with urllib.request.urlopen(target, timeout=timeout) as reply:
        text = reply.read().decode("utf-8")
    return parse_exposition(text)


def family_total(sample: Sample, name: str) -> float:
    """Sum a metric family over every label set (0.0 when absent)."""
    values = sample.get(name)
    return float(sum(values.values())) if values else 0.0


def evaluate(prev: Sample | None, cur: Sample, *,
             interval: float = DEFAULT_INTERVAL,
             max_ledger_lag: float = DEFAULT_MAX_LEDGER_LAG,
             max_ledger_lag_growth: float = DEFAULT_MAX_LEDGER_LAG_GROWTH,
             max_rate_limited_rate: float = DEFAULT_MAX_RATE_LIMITED_RATE,
             exhaustion_horizon: float = DEFAULT_EXHAUSTION_HORIZON,
             ) -> list[str]:
    """Alert strings for the sample ``cur`` given the previous one.

    ``prev is None`` (the first sample, or ``--once``) limits the checks
    to absolute conditions; the delta checks (429 rate, lag growth,
    stale uptime) need two samples by nature.
    """
    alerts: list[str] = []

    lag = family_total(cur, "repro_ledger_lag_records")
    if lag > max_ledger_lag:
        alerts.append(f"ledger lag at {lag:.0f} records exceeds the "
                      f"{max_ledger_lag:.0f}-record bound (checkpoint "
                      f"compaction is not keeping up)")

    if exhaustion_horizon > 0.0:
        for labels, seconds in sorted(
                cur.get("repro_exhaustion_seconds", {}).items()):
            if seconds < exhaustion_horizon:
                analyst = dict(labels).get("analyst", "?")
                alerts.append(
                    f"analyst {analyst!r} is projected to exhaust its "
                    f"budget in {seconds:.0f}s (< {exhaustion_horizon:.0f}s "
                    f"horizon) at the current burn rate")

    if prev is not None:
        uptime_prev = family_total(prev, "repro_uptime_seconds")
        uptime_cur = family_total(cur, "repro_uptime_seconds")
        # uptime_prev == 0.0 means the prior sample carried no uptime
        # evidence at all (family_total reads an absent family as 0.0 —
        # e.g. a monitor primed with an empty first sample): with
        # nothing to compare against, "did not advance" would be a
        # false staleness page on the very first real scrape.
        if uptime_prev > 0.0 and uptime_cur <= uptime_prev:
            alerts.append(
                f"server uptime did not advance between scrapes "
                f"({uptime_prev:.1f}s -> {uptime_cur:.1f}s): stale "
                f"metrics or a daemon restart")

        lag_growth = lag - family_total(prev, "repro_ledger_lag_records")
        if lag_growth > max_ledger_lag_growth:
            alerts.append(
                f"ledger lag grew by {lag_growth:.0f} records in one "
                f"interval (bound {max_ledger_lag_growth:.0f})")

        refused = family_total(cur, "repro_rate_limited_total") \
            - family_total(prev, "repro_rate_limited_total")
        rate = refused / interval if interval > 0 else refused
        if rate > max_rate_limited_rate:
            alerts.append(
                f"admission control refused {refused:.0f} submissions "
                f"({rate:.1f}/s) since the last scrape (bound "
                f"{max_rate_limited_rate:g}/s)")

    return alerts


def _write_webhook(path: str, url: str, alert: str) -> None:
    """Append one JSON-lines alert record (best-effort: a full disk must
    not kill the monitor that is reporting the outage)."""
    record = {"ts": time.time(), "target": url, "alert": alert}
    try:
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(json.dumps(record) + "\n")
    except OSError as exc:
        print(f"repro monitor: webhook file {path} unwritable: {exc}",
              file=sys.stderr, flush=True)


def run_monitor(url: str, *,
                interval: float = DEFAULT_INTERVAL,
                samples: int | None = None,
                timeout: float = DEFAULT_TIMEOUT,
                max_ledger_lag: float = DEFAULT_MAX_LEDGER_LAG,
                max_ledger_lag_growth: float =
                DEFAULT_MAX_LEDGER_LAG_GROWTH,
                max_rate_limited_rate: float =
                DEFAULT_MAX_RATE_LIMITED_RATE,
                exhaustion_horizon: float = DEFAULT_EXHAUSTION_HORIZON,
                webhook_path: str | None = None,
                sleep=time.sleep) -> int:
    """Scrape-evaluate-report until ``samples`` scrapes have run
    (``None`` = forever, i.e. until SIGINT).  Returns the number of
    alerts fired — the CLI maps any nonzero count onto a nonzero exit.
    """
    prev: Sample | None = None
    fired = 0
    taken = 0
    while samples is None or taken < samples:
        if taken:
            sleep(interval)
        try:
            cur = scrape(url, timeout=timeout)
        except (OSError, urllib.error.URLError, ValueError) as exc:
            alerts = [f"scrape of {url} failed: {exc}"]
            cur = None
        else:
            alerts = evaluate(
                prev, cur, interval=interval,
                max_ledger_lag=max_ledger_lag,
                max_ledger_lag_growth=max_ledger_lag_growth,
                max_rate_limited_rate=max_rate_limited_rate,
                exhaustion_horizon=exhaustion_horizon)
        taken += 1
        if cur is not None:
            prev = cur
        for alert in alerts:
            fired += 1
            print(f"repro monitor: ALERT {alert}", file=sys.stderr,
                  flush=True)
            if webhook_path:
                _write_webhook(webhook_path, url, alert)
        if not alerts and cur is not None:
            print(f"repro monitor: ok — "
                  f"submitted={family_total(cur, 'repro_service_submitted_total'):.0f} "
                  f"answered={family_total(cur, 'repro_service_answered_total'):.0f} "
                  f"ledger_lag={family_total(cur, 'repro_ledger_lag_records'):.0f} "
                  f"rate_limited={family_total(cur, 'repro_rate_limited_total'):.0f}",
                  flush=True)
    return fired


__all__ = [
    "DEFAULT_EXHAUSTION_HORIZON",
    "DEFAULT_INTERVAL",
    "DEFAULT_MAX_LEDGER_LAG",
    "DEFAULT_MAX_LEDGER_LAG_GROWTH",
    "DEFAULT_MAX_RATE_LIMITED_RATE",
    "DEFAULT_TIMEOUT",
    "evaluate",
    "family_total",
    "run_monitor",
    "scrape",
]
