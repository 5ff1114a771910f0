"""Privilege delegation (paper Sec. 9, "other problems with access control").

The paper sketches a "grant" operator: an analyst temporarily delegates
their privilege to another, and budget consumed by the grantee during the
delegation is *accounted to the grantor*.  The provenance table makes this a
small extension: a grant is a capability token; a query submitted under it
runs against the grantor's row constraints and synopses, while the grant
records how much of the grantor's budget the grantee spent (so grantors can
audit and cap their exposure).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import QueryRejected, ReproError


@dataclass
class Grant:
    """One active delegation capability."""

    grant_id: int
    grantor: str
    grantee: str
    epsilon_cap: float | None = None
    consumed: float = 0.0
    revoked: bool = False
    queries: int = 0

    @property
    def remaining(self) -> float:
        if self.epsilon_cap is None:
            return float("inf")
        return max(0.0, self.epsilon_cap - self.consumed)


@dataclass
class DelegationManager:
    """Issues, validates and accounts delegation grants.

    Accounting is thread-safe: cap checks and charges run under one
    internal lock, and the engine charges a grant through the atomic
    :meth:`reserve`/:meth:`settle`/:meth:`release` cycle so two delegated
    queries on *different* views (which concurrent submissions execute in
    parallel) can never jointly over-spend ``epsilon_cap``.
    """

    _grants: dict[int, Grant] = field(default_factory=dict)
    _counter: itertools.count = field(default_factory=itertools.count)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)
    #: Durability hook: ``on_event(event, payload)`` fires for every
    #: *finalised* grant mutation — ``create`` (identity + cap),
    #: ``consume`` (the realised epsilon of one delegated query),
    #: ``revoke`` — strictly **outside** ``_lock``, mirroring the
    #: provenance table's ``on_commit`` contract (journal I/O never runs
    #: under an accounting lock).  Reservations are not journaled: only
    #: their settlement is durable state, and a crash mid-query simply
    #: drops the provisional hold (the provenance charge it guarded was
    #: not committed either).  Attached by
    #: :meth:`repro.persistence.DurabilityManager.bind`.
    on_event: Callable[[str, dict], None] | None = field(
        default=None, repr=False, compare=False)

    def _emit(self, event: str, payload: dict) -> None:
        hook = self.on_event
        if hook is not None:
            hook(event, payload)

    def grant(self, grantor: str, grantee: str,
              epsilon_cap: float | None = None) -> int:
        """Create a delegation from ``grantor`` to ``grantee``.

        ``epsilon_cap`` bounds how much of the grantor's budget the grantee
        may spend through this grant (``None`` = the grantor's own limits).
        """
        if grantor == grantee:
            raise ReproError("cannot delegate to oneself")
        if epsilon_cap is not None and epsilon_cap <= 0:
            raise ReproError(f"epsilon_cap must be positive, got {epsilon_cap}")
        grant_id = next(self._counter)
        self._grants[grant_id] = Grant(grant_id, grantor, grantee,
                                       epsilon_cap)
        self._emit("create", {"grant_id": grant_id, "grantor": grantor,
                              "grantee": grantee,
                              "epsilon_cap": epsilon_cap})
        return grant_id

    def revoke(self, grant_id: int) -> None:
        self._lookup(grant_id).revoked = True
        self._emit("revoke", {"grant_id": grant_id})

    def _lookup(self, grant_id: int) -> Grant:
        try:
            return self._grants[grant_id]
        except KeyError:
            raise ReproError(f"unknown grant {grant_id}") from None

    def validate(self, grant_id: int, grantee: str) -> Grant:
        """Check the grant is usable by ``grantee``; returns it."""
        grant = self._lookup(grant_id)
        if grant.revoked:
            raise ReproError(f"grant {grant_id} has been revoked")
        if grant.grantee != grantee:
            raise ReproError(
                f"grant {grant_id} belongs to {grant.grantee!r}, "
                f"not {grantee!r}"
            )
        return grant

    def reserve(self, grant: Grant, epsilon: float) -> None:
        """Atomically check the cap and provisionally charge ``epsilon``.

        Raises :class:`QueryRejected` beyond the grant's cap, so workload
        loops treat an exhausted grant like any other budget refusal.
        """
        with self._lock:
            if epsilon > grant.remaining + 1e-12:
                raise QueryRejected(
                    f"grant {grant.grant_id} cap exhausted "
                    f"(remaining {grant.remaining:.4f}, needs {epsilon:.4f})",
                    constraint="row",
                )
            grant.consumed += epsilon

    def settle(self, grant: Grant, reserved: float, actual: float) -> None:
        """Replace a provisional charge with the realised one; counts the
        query."""
        with self._lock:
            grant.consumed += actual - reserved
            grant.queries += 1
        # Net effect of reserve+settle is exactly `actual`: journal that.
        self._emit("consume", {"grant_id": grant.grant_id,
                               "eps": float(actual)})

    def release(self, grant: Grant, reserved: float) -> None:
        """Return a provisional charge whose query failed."""
        with self._lock:
            grant.consumed = max(0.0, grant.consumed - reserved)

    def record(self, grant: Grant, epsilon: float) -> None:
        with self._lock:
            grant.consumed += epsilon
            grant.queries += 1
        self._emit("consume", {"grant_id": grant.grant_id,
                               "eps": float(epsilon)})

    def audit(self, grantor: str) -> list[Grant]:
        """All grants issued by ``grantor`` (for budget exposure review)."""
        return [g for g in self._grants.values() if g.grantor == grantor]


__all__ = ["DelegationManager", "Grant"]
