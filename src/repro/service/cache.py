"""LRU-bounded synopsis storage for the serving layer.

Evicting a local synopsis never corrupts accounting — the provenance table
is the ledger and constraints keep holding — but it is not free either: a
later equivalent request must *re-derive* the synopsis, which is a fresh
release (one delta-ledger slot, and under the vanilla mechanism a full
re-charge of the query's epsilon; under the additive mechanism a re-charge
of at most the gap between the analyst's provenance entry and the view's
global budget — zero only while the entry is already at that cap).  Size
the bound to the working set — roughly analysts x hot views — or pass
``max_local=None`` for an unbounded store that still tracks statistics.
Global synopses are *never* evicted: they carry the curator's realised
budget per view, which the additive mechanism's constraint checks and
combination steps depend on, and there is exactly one per registered view
so their footprint is bounded by the schema.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.synopsis import Synopsis, SynopsisStore
from repro.exceptions import ReproError
from repro.metrics.runtime import CacheStats


class LruSynopsisStore(SynopsisStore):
    """A :class:`SynopsisStore` whose local synopses form an LRU cache.

    Parameters
    ----------
    max_local:
        Maximum number of (analyst, view) local synopses kept; the least
        recently *used* (looked up or stored) entry is evicted first.
        ``None`` disables eviction (statistics only).
    stats:
        Optional shared :class:`CacheStats`; one is created if omitted.
        Answer-path lookup decisions (via :meth:`note_lookup` and
        :meth:`note_hits`) and
        evictions are recorded there; raw ``local_synopsis`` probes are
        not, so ``hit_rate`` measures serving effectiveness.

    The recency list and eviction loop take an internal lock: probes and
    stores arrive concurrently from the daemon's handler threads (an
    ``OrderedDict`` re-link is not atomic), and the
    eviction decision must see a consistent size.  ``CacheStats`` is
    already thread-safe on its own.
    """

    def __init__(self, max_local: int | None,
                 stats: CacheStats | None = None) -> None:
        if max_local is not None and max_local < 1:
            raise ReproError(f"max_local must be >= 1 or None, got {max_local}")
        super().__init__()
        self._cache_lock = threading.RLock()
        self._local: OrderedDict[tuple[str, str], Synopsis] = OrderedDict()
        self.max_local = max_local
        self.stats = stats if stats is not None else CacheStats()

    def local_synopsis(self, analyst: str, view: str) -> Synopsis | None:
        with self._cache_lock:
            synopsis = self._local.get((analyst, view))
            if synopsis is not None:
                self._local.move_to_end((analyst, view))
            return synopsis

    def note_lookup(self, hit: bool) -> None:
        if hit:
            self.stats.record_hits(1)
        else:
            self.stats.record_miss()

    def note_hits(self, count: int) -> None:
        self.stats.record_hits(count)

    def put_local(self, synopsis: Synopsis) -> None:
        with self._cache_lock:
            super().put_local(synopsis)
            self._local.move_to_end((synopsis.analyst, synopsis.view_name))
            while self.max_local is not None \
                    and len(self._local) > self.max_local:
                evicted_key, _ = self._local.popitem(last=False)
                # Evictions version the entry too: the fast lane's
                # generation check must notice an entry vanishing
                # mid-read, not only one being replaced.
                self._bump_local_generation(*evicted_key)
                self.stats.record_eviction()


__all__ = ["LruSynopsisStore"]
