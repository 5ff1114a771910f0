"""DP synopses: noisy materialised views.

A *global* synopsis ``V^eps`` is the curator's most accurate noisy copy of a
view; it is never released.  A *local* synopsis ``V^eps'_{A_i}`` is what an
analyst actually sees — derived from the global one by adding more Gaussian
noise (the additive approach) or drawn independently from the exact view (the
vanilla approach).  Each synopsis tracks both the budget it embodies and the
*actual* per-bin noise variance, which can exceed the analytic-GM variance of
its budget when combination friction has accumulated (Sec. 5.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Synopsis:
    """A noisy view materialisation.

    Attributes
    ----------
    view_name:
        The view this synopsis answers.
    values:
        Flattened noisy bin counts.
    epsilon, delta:
        The privacy budget this synopsis embodies (for a local synopsis, the
        loss to its analyst; for a global one, the worst-case collusion loss).
    variance:
        Actual per-bin noise variance of ``values``.
    analyst:
        Owner for local synopses; ``None`` marks the hidden global synopsis.
    """

    view_name: str
    values: np.ndarray
    epsilon: float
    delta: float
    variance: float
    analyst: str | None = None

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.variance < 0:
            raise ValueError(f"variance must be non-negative, got {self.variance}")
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float64)
        )

    @property
    def is_global(self) -> bool:
        return self.analyst is None


class SynopsisStore:
    """Holds the global synopsis per view and local synopses per (analyst, view).

    Every mutation of a local entry — a fresh release storing a better
    synopsis, an eviction in a bounded subclass, a wholesale
    :meth:`clear` — bumps that ``(analyst, view)`` pair's *generation
    counter*.  The serving layer's memoized-answer fast lane reads the
    counter before and after a lock-free cached lookup: an unchanged
    generation proves the entry was not replaced or evicted mid-read, so
    the answer is linearizable with the locked slow path; on any
    mismatch the fast lane falls back (see
    :meth:`repro.core.mechanism.MechanismBase.cached_answers_fast`).
    Generations only ever grow — they are never reset, so a stale read
    can never alias a fresh one.
    """

    def __init__(self) -> None:
        self._global: dict[str, Synopsis] = {}
        self._local: dict[tuple[str, str], Synopsis] = {}
        self._local_generation: dict[tuple[str, str], int] = {}

    # -- global ----------------------------------------------------------------
    def global_synopsis(self, view: str) -> Synopsis | None:
        return self._global.get(view)

    def put_global(self, synopsis: Synopsis) -> None:
        if not synopsis.is_global:
            raise ValueError("global synopsis cannot have an analyst owner")
        self._global[synopsis.view_name] = synopsis

    # -- local -----------------------------------------------------------------
    def local_synopsis(self, analyst: str, view: str) -> Synopsis | None:
        return self._local.get((analyst, view))

    def note_lookup(self, hit: bool) -> None:
        """Record one answer-path cache decision (was the cached synopsis
        accurate enough to serve?).  Plain stores ignore this; bounded
        stores (:class:`repro.service.cache.LruSynopsisStore`) count it.
        Only the mechanism's answer paths call this (and :meth:`note_hits`)
        — raw ``local_synopsis`` probes by mechanism internals stay
        uncounted so the hit rate reflects serving effectiveness, not
        store traffic."""

    def note_hits(self, count: int) -> None:
        """Record ``count`` answers served from one cached synopsis read
        — the same tally as ``count`` calls of ``note_lookup(True)``."""

    def put_local(self, synopsis: Synopsis) -> None:
        if synopsis.analyst is None:
            raise ValueError("local synopsis needs an analyst owner")
        key = (synopsis.analyst, synopsis.view_name)
        self._local[key] = synopsis
        self._bump_local_generation(*key)

    # -- generations (fast-lane versioning) --------------------------------------
    def local_generation(self, analyst: str, view: str) -> int:
        """Monotonic version of the (analyst, view) local entry.

        Lock-free read (a dict lookup is atomic in CPython); bumped by
        every store/evict/clear of the entry.
        """
        return self._local_generation.get((analyst, view), 0)

    def _bump_local_generation(self, analyst: str, view: str) -> None:
        key = (analyst, view)
        self._local_generation[key] = self._local_generation.get(key, 0) + 1

    # -- introspection -----------------------------------------------------------
    @property
    def global_views(self) -> tuple[str, ...]:
        return tuple(self._global)

    @property
    def local_keys(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._local)

    def clear(self) -> None:
        for analyst, view in tuple(self._local):
            self._bump_local_generation(analyst, view)
        self._global.clear()
        self._local.clear()


__all__ = ["Synopsis", "SynopsisStore"]
