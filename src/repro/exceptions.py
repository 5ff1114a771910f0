"""Exception hierarchy for the DProvDB reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can install a single ``except ReproError`` guard around calls
into the system.  The distinction that matters operationally is between
*rejections* (a query was refused because answering it would violate a privacy
constraint — the system is still healthy) and *errors* (misuse of the API or
an internal invariant violation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class QueryRejected(ReproError):
    """A query was refused because it would violate a privacy constraint.

    Attributes
    ----------
    reason:
        Human-readable explanation (which constraint failed).
    constraint:
        Short machine tag: ``"row"``, ``"column"``, ``"table"`` or
        ``"translation"``.
    """

    def __init__(self, reason: str, constraint: str = "table") -> None:
        super().__init__(reason)
        self.reason = reason
        self.constraint = constraint


class TranslationError(ReproError):
    """Accuracy-to-privacy translation could not find a feasible budget."""


class UnanswerableQuery(ReproError):
    """No registered view can answer the submitted query (Def. 6)."""


class SchemaError(ReproError):
    """Invalid schema construction or a reference to an unknown attribute."""


class SQLError(ReproError):
    """SQL text could not be tokenised, parsed, or executed."""


class UnknownAnalyst(ReproError):
    """A query arrived from an analyst not registered in the provenance table."""


class DurabilityError(ReproError):
    """The write-ahead budget ledger or checkpoint machinery failed.

    Raised for misconfiguration (unknown fsync policy, unwritable data
    directory) and for refusing unsafe operations (compacting a corrupt
    ledger).  Budget already charged in memory is never released by a
    durability failure — the failure direction is always over-counting.
    """


class RecoveryError(DurabilityError):
    """Crash recovery refused to rebuild state from the data directory.

    Strict recovery raises this on a torn or corrupt ledger tail; both
    modes raise it on interior corruption or when the on-disk state does
    not match the engine being recovered into (different dataset,
    mechanism, or analyst roster).
    """


class ClosedError(ReproError):
    """An operation reached a service or session that is already closed.

    Carries a machine ``tag`` so transport layers can map the condition to
    a stable status code (the HTTP server returns 409 Conflict for both
    variants) without parsing the message text.
    """

    tag = "closed"


class ServiceClosed(ClosedError):
    """The :class:`repro.service.service.QueryService` has been shut down."""

    tag = "service_closed"


class SessionClosed(ClosedError):
    """The targeted session was explicitly closed and cannot submit again."""

    tag = "session_closed"
