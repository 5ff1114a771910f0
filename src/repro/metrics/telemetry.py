"""Serving-side telemetry: a tiny Prometheus-text metric registry.

The daemon's ``/v1/metrics`` endpoint is backed by one
:class:`TelemetryRegistry` holding three metric shapes:

``Counter``
    Monotone totals with optional labels (requests per route, responses
    per status, 429s per analyst).  Incremented on the serving path, so
    the implementation is a dict update under one small lock — no
    allocation, no string formatting until scrape time.

``gauge`` (callback)
    Point-in-time readings pulled at scrape time from live objects — the
    service's :class:`~repro.service.service.ServiceStats`, the synopsis
    cache, the fast lane, and the durability
    manager's ledger lag.  Registering a callback instead of pushing
    values keeps the serving path free of double bookkeeping: the scrape
    reads the same counters ``/v1/snapshot`` serializes, so the two
    endpoints can never disagree.

``Summary``
    Latency percentiles per label set (p50/p95 per route) over a bounded
    reservoir of recent observations, plus exact ``_count``/``_sum``
    series so rates survive the reservoir bound.

:meth:`TelemetryRegistry.render` emits the Prometheus text exposition
format (``# HELP``/``# TYPE`` + ``name{label="v"} value`` lines), which
any Prometheus-compatible scraper ingests directly.  Everything here is
stdlib-only and thread-safe.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections import deque
from typing import Callable, Iterable, Sequence

#: How many recent observations a :class:`Summary` keeps per label set
#: for its percentile estimates (``_count``/``_sum`` stay exact).
DEFAULT_RESERVOIR = 2048

#: The quantiles every :class:`Summary` renders.
SUMMARY_QUANTILES = (0.5, 0.95)

#: Default :class:`Histogram` bucket bounds (seconds): sub-millisecond
#: fast-lane hits through multi-second batch submissions.
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(value)}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotone labelled counter (one value per label set)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, value: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set (handy for tests and gauges)."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> Iterable[tuple[dict[str, str], float]]:
        with self._lock:
            items = list(self._values.items())
        for key, value in items:
            yield dict(key), value


class Summary:
    """Per-label-set latency summary: exact count/sum + recent quantiles."""

    kind = "summary"

    def __init__(self, name: str, help_text: str,
                 reservoir: int = DEFAULT_RESERVOIR) -> None:
        self.name = name
        self.help = help_text
        self._reservoir = max(1, int(reservoir))
        self._lock = threading.Lock()
        self._series: dict[tuple[tuple[str, str], ...],
                           tuple[list, deque]] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            entry = self._series.get(key)
            if entry is None:
                entry = self._series[key] = (
                    [0, 0.0], deque(maxlen=self._reservoir))
            entry[0][0] += 1
            entry[0][1] += value
            entry[1].append(value)

    def count(self, **labels: str) -> int:
        with self._lock:
            entry = self._series.get(_label_key(labels))
            return int(entry[0][0]) if entry else 0

    def quantile(self, fraction: float, **labels: str) -> float:
        """Nearest-rank quantile over the retained reservoir (0.0 empty)."""
        with self._lock:
            entry = self._series.get(_label_key(labels))
            window = sorted(entry[1]) if entry else []
        if not window:
            return 0.0
        rank = min(len(window) - 1, max(0, int(fraction * len(window))))
        return window[rank]

    def samples(self) -> Iterable[tuple[str, dict[str, str], float]]:
        """Yield ``(suffix, labels, value)`` rows for rendering."""
        with self._lock:
            snapshot = [(dict(key), int(counts[0]), float(counts[1]),
                         sorted(window))
                        for key, (counts, window) in self._series.items()]
        for labels, count, total, window in snapshot:
            for fraction in SUMMARY_QUANTILES:
                if window:
                    rank = min(len(window) - 1,
                               max(0, int(fraction * len(window))))
                    value = window[rank]
                else:
                    value = 0.0
                yield "", {**labels, "quantile": str(fraction)}, value
            yield "_count", labels, float(count)
            yield "_sum", labels, total


class Histogram:
    """Per-label-set histogram with Prometheus cumulative semantics.

    Observations land in fixed buckets (upper bounds, plus the implicit
    ``+Inf`` overflow); :meth:`samples` renders the *cumulative*
    ``_bucket{le=...}`` series Prometheus expects — every bucket counts
    all observations at or below its bound, and ``le="+Inf"`` always
    equals ``_count``.  Unlike :class:`Summary`'s bounded reservoir,
    every series here is exact over the full lifetime, so scrapers can
    derive any quantile by interpolation *and* rates stay correct no
    matter how long the window.  ``observe`` is one ``bisect`` plus two
    adds under a small lock — cheap enough for the request hot path.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one "
                             f"bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} bucket bounds must be "
                             f"strictly increasing, got {bounds}")
        self.name = name
        self.help = help_text
        self.buckets = bounds
        self._lock = threading.Lock()
        #: label key -> ([per-slot counts, +Inf slot last], [count, sum])
        self._series: dict[tuple[tuple[str, str], ...],
                           tuple[list, list]] = {}

    def observe(self, value: float, **labels: str) -> None:
        value = float(value)
        slot = bisect.bisect_left(self.buckets, value)
        key = _label_key(labels)
        with self._lock:
            entry = self._series.get(key)
            if entry is None:
                entry = self._series[key] = (
                    [0] * (len(self.buckets) + 1), [0, 0.0])
            entry[0][slot] += 1
            entry[1][0] += 1
            entry[1][1] += value

    def count(self, **labels: str) -> int:
        with self._lock:
            entry = self._series.get(_label_key(labels))
            return int(entry[1][0]) if entry else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            entry = self._series.get(_label_key(labels))
            return float(entry[1][1]) if entry else 0.0

    def bucket_counts(self, **labels: str) -> dict[str, int]:
        """Cumulative ``{le: count}`` for one label set (test helper)."""
        with self._lock:
            entry = self._series.get(_label_key(labels))
            slots = list(entry[0]) if entry else \
                [0] * (len(self.buckets) + 1)
        out: dict[str, int] = {}
        running = 0
        for bound, slot in zip(self.buckets, slots):
            running += slot
            out[_format_value(bound)] = running
        out["+Inf"] = running + slots[-1]
        return out

    def samples(self) -> Iterable[tuple[str, dict[str, str], float]]:
        """Yield ``(suffix, labels, value)`` rows for rendering."""
        with self._lock:
            snapshot = [(dict(key), list(slots), int(totals[0]),
                         float(totals[1]))
                        for key, (slots, totals) in self._series.items()]
        for labels, slots, count, total in snapshot:
            running = 0
            for bound, slot in zip(self.buckets, slots):
                running += slot
                yield ("_bucket", {**labels, "le": _format_value(bound)},
                       float(running))
            yield "_bucket", {**labels, "le": "+Inf"}, float(count)
            yield "_count", labels, float(count)
            yield "_sum", labels, total


class _CallbackCounterFamily:
    """Counter family whose values are pulled at scrape time.

    For monotone totals whose authoritative accumulators already live in
    another subsystem (the provenance table behind the budget-audit
    counter family): double-booking them on the hot path could drift by
    a float ulp under concurrency, and the whole point of the exposition
    is that it can *never* disagree with the accounting it reports.  The
    callback returns ``(labels_dict, value)`` rows; the rendered TYPE is
    ``counter`` because the underlying quantities only ever grow.
    """

    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._sources: list[Callable] = []

    def add(self, fn: Callable) -> None:
        self._sources.append(fn)

    def samples(self) -> Iterable[tuple[dict[str, str], float]]:
        for fn in list(self._sources):
            try:
                rows = fn()
            except Exception:
                continue  # a scrape must never fail with the service
            for labels, value in rows:
                yield dict(labels), float(value)


class _GaugeGroup:
    """Callback-backed gauge: values are pulled at scrape time."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        #: ``(fixed_labels, expand_label, callback)`` registrations.  A
        #: plain callback yields one sample; with ``expand_label`` the
        #: callback returns ``{label_value: number}`` and yields one
        #: sample per key (per-analyst series).
        self._sources: list[tuple[dict[str, str], str | None,
                                  Callable]] = []

    def add(self, fn: Callable, expand_label: str | None,
            labels: dict[str, str]) -> None:
        self._sources.append((dict(labels), expand_label, fn))

    def samples(self) -> Iterable[tuple[dict[str, str], float]]:
        for labels, expand, fn in list(self._sources):
            try:
                value = fn()
            except Exception:
                continue  # a scrape must never fail with the service
            if expand is None:
                yield labels, float(value)
            else:
                for key, item in dict(value).items():
                    yield {**labels, expand: str(key)}, float(item)


class TelemetryRegistry:
    """Create-or-get metric factory plus the Prometheus text renderer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, factory: Callable, kind: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {kind}")
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help_text), "counter")

    def summary(self, name: str, help_text: str = "",
                reservoir: int = DEFAULT_RESERVOIR) -> Summary:
        return self._get_or_create(
            name, lambda: Summary(name, help_text, reservoir), "summary")

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help_text, buckets), "histogram")

    def counter_family(self, name: str, help_text: str,
                       fn: Callable) -> None:
        """Register a scrape-time callback rendered as a counter family.

        ``fn`` returns an iterable of ``(labels_dict, value)`` rows —
        arbitrary label sets, unlike :meth:`gauge`'s single
        ``expand_label``.  Use only for quantities that are genuinely
        monotone at their source.
        """
        group = self._get_or_create(
            name, lambda: _CallbackCounterFamily(name, help_text),
            "counter")
        if not isinstance(group, _CallbackCounterFamily):
            raise ValueError(f"metric {name!r} already registered as a "
                             f"push-style Counter")
        group.add(fn)

    def gauge(self, name: str, help_text: str, fn: Callable, *,
              expand_label: str | None = None, **labels: str) -> None:
        """Register a scrape-time callback for ``name``.

        ``fn`` returns a number; with ``expand_label`` it returns a
        ``{label_value: number}`` dict rendered as one series per key.
        Multiple registrations under one name (with distinct fixed
        labels) merge into one metric family.
        """
        group = self._get_or_create(
            name, lambda: _GaugeGroup(name, help_text), "gauge")
        group.add(fn, expand_label, labels)

    def render(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        lines: list[str] = []
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, (Summary, Histogram)):
                for suffix, labels, value in metric.samples():
                    lines.append(f"{name}{suffix}{_format_labels(labels)} "
                                 f"{_format_value(value)}")
            else:
                for labels, value in metric.samples():
                    lines.append(f"{name}{_format_labels(labels)} "
                                 f"{_format_value(value)}")
        return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[str, dict[tuple[tuple[str, str], ...],
                                                  float]]:
    """Parse Prometheus text back into ``{name: {label_key: value}}``.

    A deliberately strict reader used by the tests and the smoke script
    to assert the endpoint's output round-trips; unknown syntax raises
    ``ValueError`` rather than being skipped.
    """
    series: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        body, _, raw_value = line.rpartition(" ")
        if not body:
            raise ValueError(f"unparseable sample line: {line!r}")
        labels: dict[str, str] = {}
        name = body
        if body.endswith("}"):
            name, _, label_text = body.partition("{")
            label_text = label_text[:-1]
            for part in _split_labels(label_text):
                key, _, value = part.partition("=")
                if not (value.startswith('"') and value.endswith('"')):
                    raise ValueError(f"bad label in line: {line!r}")
                labels[key] = (value[1:-1].replace('\\"', '"')
                               .replace("\\n", "\n").replace("\\\\", "\\"))
        series.setdefault(name, {})[_label_key(labels)] = float(raw_value)
    return series


def _split_labels(text: str) -> list[str]:
    parts: list[str] = []
    current: list[str] = []
    in_quotes = False
    i = 0
    while i < len(text):
        char = text[i]
        if char == "\\" and in_quotes:
            current.append(text[i:i + 2])
            i += 2
            continue
        if char == '"':
            in_quotes = not in_quotes
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
        i += 1
    if current:
        parts.append("".join(current))
    return [part for part in parts if part]


__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_RESERVOIR",
    "SUMMARY_QUANTILES",
    "Counter",
    "Histogram",
    "Summary",
    "TelemetryRegistry",
    "parse_exposition",
]
