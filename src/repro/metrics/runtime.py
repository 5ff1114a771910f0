"""Runtime instrumentation: wall-clock helpers and cache counters.

:class:`Stopwatch` backs the paper's runtime tables; :class:`CacheStats`
backs the service layer's synopsis-cache reporting (hit/miss/eviction
counters exported by ``repro.service``).
"""

from __future__ import annotations

import threading
import time


class Stopwatch:
    """Context manager accumulating wall-clock seconds across uses.

    >>> watch = Stopwatch()
    >>> with watch:
    ...     pass
    >>> watch.seconds >= 0.0
    True
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started: float | None = None

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._started is not None
        self.seconds += time.perf_counter() - self._started
        self._started = None

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1000.0


class CompensatedSum:
    """Neumaier-compensated running sum of floats.

    A plain ``total += x`` accumulator loses low-order bits on every
    addition; over a long run of small epsilon charges the service's
    per-analyst totals drift away from the provenance table's ledger.
    Kahan–Babuska (Neumaier) compensation keeps the running error at one
    rounding of the final sum regardless of length.  Not thread-safe on
    its own — callers mutate it under their own lock (the service's
    stats lock).

    >>> s = CompensatedSum()
    >>> for _ in range(10):
    ...     s.add(0.1)
    >>> s.value == 1.0
    True
    """

    __slots__ = ("_total", "_compensation")

    def __init__(self, value: float = 0.0) -> None:
        self._total = float(value)
        self._compensation = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        total = self._total + value
        if abs(self._total) >= abs(value):
            self._compensation += (self._total - total) + value
        else:
            self._compensation += (value - total) + self._total
        self._total = total

    @property
    def value(self) -> float:
        return self._total + self._compensation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompensatedSum({self.value!r})"


class CacheStats:
    """Thread-safe hit/miss/eviction counters for a bounded cache.

    >>> stats = CacheStats()
    >>> stats.record_hits(1); stats.record_miss()
    >>> stats.hit_rate
    0.5
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def record_hits(self, count: int) -> None:
        """Count ``count`` hits under one lock acquisition."""
        with self._lock:
            self.hits += count

    def record_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def record_eviction(self) -> None:
        with self._lock:
            self.evictions += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never probed)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """One consistent reading: every counter is read once, under the
        lock, so ``hit_rate`` is exactly ``hits / (hits + misses)`` of the
        same dict even while other threads keep recording."""
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
        total = hits + misses
        return {"hits": hits, "misses": misses, "evictions": evictions,
                "hit_rate": hits / total if total else 0.0}

    def reset(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"evictions={self.evictions})")


__all__ = ["CacheStats", "CompensatedSum", "Stopwatch"]
