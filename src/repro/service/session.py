"""Analyst sessions and the request/response envelope of the service."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.engine import Answer
from repro.db.sql.ast import SelectStatement


@dataclass(frozen=True)
class QueryRequest:
    """One query as submitted to the service.

    Exactly one of ``accuracy`` (expected-squared-error bound) or
    ``epsilon`` (explicit budget) must be set, mirroring the engine's dual
    submission modes.
    """

    sql: str | SelectStatement
    accuracy: float | None = None
    epsilon: float | None = None


class Lineage(NamedTuple):
    """How an answer came to be — derived strictly from what already
    happened, never steering execution.  A ``NamedTuple`` rather than a
    frozen dataclass: one is built per answer on the hot path, and
    C-level tuple construction keeps that measurably cheaper than ten
    ``object.__setattr__`` calls.

    ``source`` is one of ``fresh`` (new noisy release), ``cached``
    (slow-path cache hit), ``fast_lane`` (lock-free memoized-answer
    lane), ``rejected`` (constraint refusal), or ``error``.  A
    fast-lane-disabled replay reports ``cached`` where the enabled run
    reports ``fast_lane`` — both are non-fresh, and the bit-equality
    invariant compares the fresh/non-fresh boolean, not the label.

    ``ledger_seq`` is the durable ledger's high-water mark at accounting
    time (recovery to at least this sequence includes this answer's
    charge); ``None`` without durability.

    Field order puts the seven per-answer fields first so the executor's
    hot-path construction is fully positional (no kwargs dict); the
    trailing ``ledger_seq`` is stamped later by ``_replace``.
    """

    view: str | None = None
    source: str = "fresh"
    epsilon: float = 0.0
    mechanism: str | None = None
    composition: str | None = None
    synopsis_generation: int = 0
    trace_id: str | None = None
    ledger_seq: int | None = None


@dataclass(frozen=True)
class QueryResponse:
    """Outcome of one request, in the batch's original position.

    Scalar queries carry ``answer``; GROUP BY queries carry ``groups`` (the
    ``[(key, Answer), ...]`` list of the engine's full-domain semantics).
    Refused or failed queries carry ``error`` with ``rejected`` marking a
    constraint refusal as opposed to a malformed request.  ``lineage``
    explains the outcome; it defaults to ``None`` so pre-lineage
    constructors and old wire clients are untouched.
    """

    index: int
    answer: Answer | None = None
    groups: tuple[tuple[tuple, Answer], ...] | None = None
    error: str | None = None
    rejected: bool = False
    lineage: Lineage | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def answers(self) -> tuple[Answer, ...]:
        """Every released :class:`Answer` in this response (empty on
        failure; one per group for GROUP BY)."""
        if self.answer is not None:
            return (self.answer,)
        return tuple(answer for _, answer in self.groups or ())

    def value(self) -> float:
        """Scalar answer value; raises if the query failed or was grouped."""
        if self.answer is None:
            raise ValueError(f"response {self.index} has no scalar answer "
                             f"(error={self.error!r})")
        return self.answer.value


@dataclass
class Session:
    """One analyst's open connection to the service.

    Sessions are cheap bookkeeping handles: several sessions may share one
    analyst identity (e.g. one per worker thread), and all of them draw from
    that analyst's single provenance row.  Counters are updated by the
    service under its lock.
    """

    session_id: int
    analyst: str
    submitted: int = 0
    answered: int = 0
    rejected: int = 0
    failed: int = 0
    cache_hits: int = 0
    epsilon_spent: float = 0.0
    batches: int = 0
    closed: bool = False


__all__ = ["Lineage", "QueryRequest", "QueryResponse", "Session"]
