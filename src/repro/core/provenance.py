"""The privacy provenance table (paper Definition 8).

State is the triplet ``(A, V, P)``: analysts, views, and the provenance
table ``P`` — a matrix of cumulative per-(analyst, view) privacy losses
``S^{A_i}_{V_j}`` plus the constraint set ``Psi``:

* row constraints ``psi_{A_i}`` — maximum loss allowed to each analyst;
* column constraints ``psi_{V_j}`` — maximum loss allowed on each view;
* the table constraint ``psi_P`` — the overall budget of the database.

Composition inside the table uses basic sequential composition (sums), as
the paper recommends for constraint checking; the engine separately feeds
every Gaussian release into an optional RDP/zCDP accountant for tighter
*reporting* of realised loss.

Concurrency model
-----------------
The table is safe to mutate from many threads without any caller-held
lock.  Internally it keeps the matrix twice — row-major (guarded by one
lock per analyst) and column-major (one lock per view) — plus O(1)
incremental tallies (per-analyst row sums, per-view column sums and
maxima, the table totals) guarded by a single short *totals* lock.  Every
mutation takes ``row lock -> column lock -> totals lock`` in that fixed
class order (at most one lock of each class), so the table is
deadlock-free by construction.

Check-then-charge is exposed as one atomic step: :meth:`reserve` verifies
the row, column, table, and coalition constraints against the tallies and
applies the charge under the totals lock, returning a
:class:`Reservation` the caller later :meth:`~Reservation.commit`\\ s (after
the release succeeded) or :meth:`~Reservation.rollback`\\ s (restoring
every tally — bit-identical when no concurrent charge interleaved).
Callers therefore no longer need an outer critical section for budget
safety; :class:`repro.core.engine.DProvDB` adds per-*view* critical
sections only to keep the synopsis machinery (a read-then-refresh on
shared noisy state) consistent.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.core.analyst import Analyst
from repro.exceptions import QueryRejected, ReproError, UnknownAnalyst

#: Tolerance applied to every constraint comparison (mirrors the
#: mechanisms' historical slack for float accumulation).
_SLACK = 1e-12


@dataclass(frozen=True)
class Constraints:
    """The constraint set ``Psi`` of the provenance table.

    Epsilon-valued, matching the paper's simplification of tracking epsilon
    and fixing a single small per-query delta system-wide; ``delta`` here is
    that per-query value and ``delta_cap`` the table-level cap (at most the
    inverse dataset size).

    ``groups``/``group_limit`` implement the (t, n)-compromised relaxation
    of Sec. 7.1: analysts are partitioned into possible coalitions, each
    coalition's *summed* loss is capped at ``group_limit`` (one ``psi_P``
    per coalition, Thm. 7.2), and ``table`` is then typically
    ``k * group_limit``.
    """

    analyst: Mapping[str, float]
    view: Mapping[str, float]
    table: float
    delta: float = 1e-9
    delta_cap: float = 1.0
    groups: tuple[frozenset, ...] = ()
    group_limit: float | None = None

    def __post_init__(self) -> None:
        # NaN passes every ``<=``/``<`` check, so finiteness comes first.
        if not math.isfinite(self.table) or self.table <= 0:
            raise ReproError(f"table constraint must be finite and "
                             f"positive, got {self.table}")
        if not 0 < self.delta <= self.delta_cap <= 1:
            raise ReproError(
                f"need 0 < delta <= delta_cap <= 1, got "
                f"delta={self.delta}, cap={self.delta_cap}"
            )
        for kind, limits in (("analyst", self.analyst), ("view", self.view)):
            for name, value in limits.items():
                if not math.isfinite(value) or value < 0:
                    raise ReproError(f"{kind} constraint {name!r} must be "
                                     f"finite and non-negative, got {value}")
        if self.groups:
            if self.group_limit is None or \
                    not math.isfinite(self.group_limit) or \
                    self.group_limit <= 0:
                raise ReproError(f"groups require a finite positive "
                                 f"group_limit, got {self.group_limit}")
            seen: set = set()
            for group in self.groups:
                if seen & group:
                    raise ReproError("coalition groups must be disjoint")
                seen |= group

    def analyst_limit(self, analyst: str) -> float:
        try:
            return self.analyst[analyst]
        except KeyError:
            raise UnknownAnalyst(f"no constraint for analyst {analyst!r}") from None

    def view_limit(self, view: str) -> float:
        try:
            return self.view[view]
        except KeyError:
            raise ReproError(f"no constraint for view {view!r}") from None

    def group_of(self, analyst: str) -> frozenset | None:
        """The coalition containing ``analyst`` (``None`` without groups)."""
        for group in self.groups:
            if analyst in group:
                return group
        return None


class Reservation:
    """One provisional check-and-charge issued by :meth:`ProvenanceTable.reserve`.

    The charge is already applied when the reservation is handed out (so a
    concurrent reservation can never double-spend the budget it consumed);
    :meth:`commit` finalises it and :meth:`rollback` undoes it.  Used as a
    context manager, a reservation still pending at ``__exit__`` is rolled
    back automatically — the natural shape for "charge, release noise,
    commit" sequences that may fail in the middle::

        with table.reserve(analyst, view, eps, constraints) as r:
            ...  # sample noise, build the synopsis
            r.commit()

    Rollback restores every tally bit-identically when no concurrent
    charge touched the same row/column/totals slot in between; under
    interleaving it falls back to exact-entry restoration plus arithmetic
    tally correction (within float dust, below the constraint slack).

    ``meta`` carries caller-supplied annotations (e.g. the mechanisms'
    delta-ledger slot count) handed to the table's :attr:`ProvenanceTable
    .on_commit` hook when the reservation commits — the write-ahead
    ledger's source of per-charge context.
    """

    __slots__ = ("_table", "analyst", "view", "epsilon", "_state",
                 "_snapshot", "column_mode", "meta")

    def __init__(self, table: "ProvenanceTable", analyst: str, view: str,
                 epsilon: float, snapshot: dict[str, float],
                 column_mode: str = "sum",
                 meta: Mapping | None = None) -> None:
        self._table = table
        self.analyst = analyst
        self.view = view
        self.epsilon = epsilon
        self._state = "pending"
        self._snapshot = snapshot
        self.column_mode = column_mode
        self.meta = meta

    @property
    def state(self) -> str:
        """``"pending"``, ``"committed"``, or ``"rolled_back"``."""
        return self._state

    def commit(self) -> None:
        """Finalise the charge (idempotent; refuses after rollback).

        Fires the owning table's :attr:`ProvenanceTable.on_commit` hook
        exactly once, *after* every table lock has been released (the
        reservation holds none) — so a durability hook can fsync a ledger
        record without ever sitting inside the row -> column -> totals
        lock order.  A hook failure propagates: the in-memory charge
        stands (the reservation is already committed), the caller's
        request fails — budget is over-counted, never re-granted.
        """
        if self._state == "rolled_back":
            raise ReproError("cannot commit a rolled-back reservation")
        if self._state == "committed":
            return
        self._state = "committed"
        hook = self._table.on_commit
        if hook is not None:
            hook(self.analyst, self.view, self.epsilon, self.column_mode,
                 self.meta)

    def rollback(self) -> None:
        """Undo the charge (idempotent; refuses after commit)."""
        if self._state == "committed":
            raise ReproError("cannot roll back a committed reservation")
        if self._state == "rolled_back":
            return
        self._table._rollback(self)
        self._state = "rolled_back"

    def __enter__(self) -> "Reservation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._state == "pending":
            self.rollback()


@dataclass
class ProvenanceTable:
    """Cumulative privacy-loss matrix ``P[analyst, view]``.

    Entries are epsilons; missing entries are zero.  The matrix is stored
    dense-by-dict twice (row-major and column-major mirrors) so row scans
    and column scans each need only their own lock — the paper notes real
    deployments may store the table sparsely by row or column, and this
    layout is exactly that, held simultaneously.

    All operations are individually atomic, and :meth:`reserve` makes the
    *composite* check-then-charge atomic too, so no caller-held lock is
    needed for budget safety (see the module docstring for the locking
    discipline).  :class:`repro.service.QueryService` consequently runs
    without a global critical section; only per-view sections remain, for
    the synopsis machinery.
    """

    analysts: tuple[str, ...]
    views: tuple[str, ...]
    _entries: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.analysts)) != len(self.analysts):
            raise ReproError("duplicate analyst names")
        if len(set(self.views)) != len(self.views):
            raise ReproError("duplicate view names")
        # Column-major mirror of ``_entries`` plus incremental tallies.
        self._col_entries: dict[str, dict[str, float]] = {}
        self._row_sum: dict[str, float] = {}
        self._col_sum: dict[str, float] = {}
        self._col_max: dict[str, float] = {}
        self._table_sum = 0.0
        self._table_max_sum = 0.0
        # Locking: one lock per row, one per column, one for the tallies,
        # one for membership changes.  Acquisition order is always
        # row -> column -> totals (never two locks of one class at once).
        self._row_locks: dict[str, threading.RLock] = {}
        self._col_locks: dict[str, threading.RLock] = {}
        self._totals_lock = threading.RLock()
        self._structure_lock = threading.RLock()
        #: Durability hook: ``f(analyst, view, epsilon, mode, meta)``
        #: fired once per *finalised* charge — on :meth:`Reservation
        #: .commit` and on :meth:`add` — strictly after the row ->
        #: column -> totals locks have been released, so the hook may
        #: block on I/O (the write-ahead budget ledger does).  ``set``
        #: never fires it: restores replay history, they don't make it.
        self.on_commit = None
        for analyst in self.analysts:
            self._admit_analyst(analyst)
        for view in self.views:
            self._admit_view(view)
        # ``_entries`` may carry pre-seeded rows (dataclass field); fold
        # them into the mirrors and tallies.
        for analyst, row in self._entries.items():
            if analyst not in self._row_locks:
                self._admit_analyst(analyst)
            for view, epsilon in row.items():
                if view not in self._col_locks:
                    raise ReproError(f"unknown view {view!r} in seed entries")
                self._col_entries[view][analyst] = epsilon
                self._row_sum[analyst] += epsilon
                self._col_sum[view] += epsilon
                if epsilon > self._col_max[view]:
                    self._table_max_sum += epsilon - self._col_max[view]
                    self._col_max[view] = epsilon
                self._table_sum += epsilon

    def _admit_analyst(self, name: str) -> None:
        self._entries.setdefault(name, {})
        self._row_locks.setdefault(name, threading.RLock())
        self._row_sum.setdefault(name, 0.0)

    def _admit_view(self, name: str) -> None:
        self._col_entries.setdefault(name, {})
        self._col_locks.setdefault(name, threading.RLock())
        self._col_sum.setdefault(name, 0.0)
        self._col_max.setdefault(name, 0.0)

    @classmethod
    def for_analysts(cls, analysts: Iterable[Analyst],
                     views: Iterable[str]) -> "ProvenanceTable":
        return cls(tuple(a.name for a in analysts), tuple(views))

    # -- membership ----------------------------------------------------------
    def register_analyst(self, name: str) -> None:
        """Admit a new analyst later in the system's life (Def. 11 allows it)."""
        with self._structure_lock:
            if name in self._row_locks:
                raise ReproError(f"analyst {name!r} already registered")
            self._admit_analyst(name)
            self.analysts = self.analysts + (name,)

    def register_view(self, name: str) -> None:
        """Admit a new view over time (water-filling allows it)."""
        with self._structure_lock:
            if name in self._col_locks:
                raise ReproError(f"view {name!r} already registered")
            self._admit_view(name)
            self.views = self.views + (name,)

    def _row_lock(self, analyst: str) -> threading.RLock:
        try:
            return self._row_locks[analyst]
        except KeyError:
            raise UnknownAnalyst(f"unknown analyst {analyst!r}") from None

    def _col_lock(self, view: str) -> threading.RLock:
        try:
            return self._col_locks[view]
        except KeyError:
            raise ReproError(f"unknown view {view!r}") from None

    # -- entries ---------------------------------------------------------------
    def get(self, analyst: str, view: str) -> float:
        with self._row_lock(analyst):
            self._col_lock(view)  # membership check
            return self._entries[analyst].get(view, 0.0)

    def set(self, analyst: str, view: str, epsilon: float) -> None:
        if epsilon < 0:
            raise ReproError(f"cumulative loss cannot be negative: {epsilon}")
        with self._row_lock(analyst):
            self._col_lock(view)  # membership check
            current = self._entries[analyst].get(view, 0.0)
            if epsilon < current - _SLACK:
                raise ReproError("cumulative privacy loss cannot decrease")
            self._charge_locked_row(analyst, view, epsilon - current)

    def add(self, analyst: str, view: str, epsilon: float, *,
            meta: Mapping | None = None) -> float:
        """``P[A, V] += eps`` (vanilla update); returns the new entry.

        Fires :attr:`on_commit` (mode ``"add"``) after the locks release —
        direct adds are already final, there is no reservation to commit.
        """
        if epsilon < 0:
            raise ReproError(f"cumulative loss cannot be negative: {epsilon}")
        with self._row_lock(analyst):
            self._col_lock(view)  # membership check
            new_entry = self._charge_locked_row(analyst, view, epsilon)
        hook = self.on_commit
        if hook is not None:
            hook(analyst, view, epsilon, "add", meta)
        return new_entry

    def _charge_locked_row(self, analyst: str, view: str,
                           delta: float) -> float:
        """Apply ``P[A, V] += delta`` (caller holds the row lock)."""
        new_entry = self._entries[analyst].get(view, 0.0) + delta
        with self._col_locks[view]:
            self._entries[analyst][view] = new_entry
            self._col_entries[view][analyst] = new_entry
            with self._totals_lock:
                self._row_sum[analyst] += delta
                self._col_sum[view] += delta
                self._table_sum += delta
                if new_entry > self._col_max[view]:
                    self._table_max_sum += new_entry - self._col_max[view]
                    self._col_max[view] = new_entry
        return new_entry

    # -- atomic check-and-charge -----------------------------------------------
    def reserve(self, analyst: str, view: str, epsilon: float,
                constraints: Constraints, *,
                column_mode: str = "sum",
                meta: Mapping | None = None) -> Reservation:
        """Atomically check every constraint and charge ``epsilon``.

        ``column_mode`` selects how the column/table composites are formed:
        ``"sum"`` is basic sequential composition (the vanilla mechanism,
        Algorithm 2) and ``"max"`` is the additive approach's tight
        accounting (Sec. 5.2.4: per-view loss is the column *max*, the
        table composite sums those maxima).  Raises
        :class:`~repro.exceptions.QueryRejected` — tagged ``"row"``,
        ``"column"``, or ``"table"`` — without charging anything when a
        constraint would be violated; otherwise the charge is applied and
        a :class:`Reservation` returned for the caller to commit or roll
        back.  The check and the charge happen under one critical section,
        so concurrent reservations can never jointly over-spend a budget.
        """
        if column_mode not in ("sum", "max"):
            raise ReproError(f"unknown column_mode {column_mode!r}")
        if epsilon < 0:
            raise ReproError(f"cannot reserve a negative epsilon: {epsilon}")
        with self._row_lock(analyst), self._col_lock(view), self._totals_lock:
            entry = self._entries[analyst].get(view, 0.0)
            self._check_locked(analyst, view, epsilon, entry, constraints,
                               column_mode)
            snapshot = {
                "entry": entry,
                "row_sum": self._row_sum[analyst],
                "col_sum": self._col_sum[view],
                "col_max": self._col_max[view],
                "table_sum": self._table_sum,
                "table_max_sum": self._table_max_sum,
            }
            self._charge_locked_row(analyst, view, epsilon)
            snapshot["entry_after"] = self._entries[analyst][view]
            snapshot["row_sum_after"] = self._row_sum[analyst]
            snapshot["col_sum_after"] = self._col_sum[view]
            snapshot["col_max_after"] = self._col_max[view]
            snapshot["table_sum_after"] = self._table_sum
            snapshot["table_max_sum_after"] = self._table_max_sum
            return Reservation(self, analyst, view, epsilon, snapshot,
                               column_mode=column_mode, meta=meta)

    def check(self, analyst: str, view: str, epsilon: float,
              constraints: Constraints, *, column_mode: str = "sum") -> None:
        """The check half of :meth:`reserve`, with no charge (for quotes)."""
        if column_mode not in ("sum", "max"):
            raise ReproError(f"unknown column_mode {column_mode!r}")
        with self._row_lock(analyst), self._col_lock(view), self._totals_lock:
            entry = self._entries[analyst].get(view, 0.0)
            self._check_locked(analyst, view, epsilon, entry, constraints,
                               column_mode)

    def _check_locked(self, analyst: str, view: str, epsilon: float,
                      entry: float, constraints: Constraints,
                      column_mode: str) -> None:
        """Constraint checks against the tallies (caller holds the locks).

        Check order mirrors each mechanism's historical precedence:
        ``"max"`` checks column, table, row (Algorithm 4) and ``"sum"``
        checks table, coalition, row, column (Algorithm 2), so rejection
        tags are unchanged from the pre-reserve code paths.
        """
        row_limit = constraints.analyst_limit(analyst)
        if column_mode == "max":
            # Column composite is the max entry (Sec. 5.2.4, point 1).
            view_limit = constraints.view_limit(view)
            column_after = max(self._col_max[view], entry + epsilon)
            if column_after > view_limit + _SLACK:
                raise QueryRejected(
                    f"view constraint {view_limit} for {view!r} "
                    f"would be exceeded",
                    constraint="column",
                )
            # Table composite sums per-view column maxima (point 2).
            table_after = (self._table_max_sum - self._col_max[view]
                           + column_after)
            if table_after > constraints.table + _SLACK:
                raise QueryRejected(
                    f"table constraint {constraints.table} would be exceeded",
                    constraint="table",
                )
            if self._row_sum[analyst] + epsilon > row_limit + _SLACK:
                raise QueryRejected(
                    f"analyst constraint {row_limit} for {analyst!r} "
                    f"would be exceeded",
                    constraint="row",
                )
        else:
            # Basic sequential composition everywhere (Algorithm 2).
            if self._table_sum + epsilon > constraints.table + _SLACK:
                raise QueryRejected(
                    f"table constraint {constraints.table} would be exceeded",
                    constraint="table",
                )
            group = constraints.group_of(analyst)
            if group is not None:
                group_total = sum(self._row_sum.get(member, 0.0)
                                  for member in group)
                if group_total + epsilon > constraints.group_limit + _SLACK:
                    raise QueryRejected(
                        f"coalition budget {constraints.group_limit} "
                        f"would be exceeded",
                        constraint="table",
                    )
            if self._row_sum[analyst] + epsilon > row_limit + _SLACK:
                raise QueryRejected(
                    f"analyst constraint {row_limit} for {analyst!r} "
                    f"would be exceeded",
                    constraint="row",
                )
            column_limit = constraints.view_limit(view)
            if self._col_sum[view] + epsilon > column_limit + _SLACK:
                raise QueryRejected(
                    f"view constraint {column_limit} for {view!r} "
                    f"would be exceeded",
                    constraint="column",
                )

    def _rollback(self, reservation: Reservation) -> None:
        """Undo a reservation's charge (called via :meth:`Reservation.rollback`).

        Each affected slot is restored to its pre-reserve snapshot when it
        still bitwise-matches the post-charge value (no interleaving
        charge touched it) — making an uncontended reserve+rollback leave
        the table bit-identical.  A slot another thread advanced in the
        meantime is corrected arithmetically instead (column maxima by
        re-scanning the column mirror).
        """
        analyst, view = reservation.analyst, reservation.view
        epsilon, snap = reservation.epsilon, reservation._snapshot
        with self._row_lock(analyst), self._col_lock(view), self._totals_lock:
            entry = self._entries[analyst].get(view, 0.0)
            restored_entry = (snap["entry"] if entry == snap["entry_after"]
                              else max(0.0, entry - epsilon))
            self._entries[analyst][view] = restored_entry
            self._col_entries[view][analyst] = restored_entry

            def restore(current: float, key: str) -> float:
                if current == snap[f"{key}_after"]:
                    return snap[key]
                return max(0.0, current - epsilon)

            self._row_sum[analyst] = restore(self._row_sum[analyst], "row_sum")
            self._col_sum[view] = restore(self._col_sum[view], "col_sum")
            self._table_sum = restore(self._table_sum, "table_sum")
            if self._col_max[view] == snap["col_max_after"] and \
                    self._table_max_sum == snap["table_max_sum_after"]:
                self._col_max[view] = snap["col_max"]
                self._table_max_sum = snap["table_max_sum"]
            else:
                new_max = max(self._col_entries[view].values(), default=0.0)
                self._table_max_sum += new_max - self._col_max[view]
                self._col_max[view] = new_max

    # -- composites (basic sequential composition) ----------------------------
    def row_total(self, analyst: str) -> float:
        """``P.composite(axis=Row)``: analyst's loss across all views."""
        self._row_lock(analyst)  # membership check
        with self._totals_lock:
            return self._row_sum[analyst]

    def row_totals(self) -> dict[str, float]:
        """Every analyst's row composite in one consistent read.

        One acquisition of the totals lock instead of one per analyst —
        the snapshot/checkpoint schema builds its ``epsilon_by_analyst``
        block from this, so concurrent charges can never interleave
        between two rows of the same report.
        """
        with self._totals_lock:
            return dict(self._row_sum)

    def column_total(self, view: str) -> float:
        """``P.composite(axis=Column)``: total loss on a view (vanilla)."""
        self._col_lock(view)  # membership check
        with self._totals_lock:
            return self._col_sum[view]

    def column_max(self, view: str) -> float:
        """Tight per-view loss under the additive approach: max over column."""
        self._col_lock(view)  # membership check
        with self._totals_lock:
            return self._col_max[view]

    def table_total(self) -> float:
        """``P.composite()``: grand total (vanilla table composition)."""
        with self._totals_lock:
            return self._table_sum

    def table_max_composite(self) -> float:
        """Additive-approach table composition: sum over views of column max."""
        with self._totals_lock:
            return self._table_max_sum

    def as_matrix(self) -> np.ndarray:
        """Dense snapshot, rows = analysts (declared order), cols = views.

        Each row is copied under its own lock, so rows are internally
        consistent; a cross-row snapshot taken during concurrent charges
        may interleave (take it at quiescence for exact audits).
        """
        analysts, views = self.analysts, self.views
        matrix = np.zeros((len(analysts), len(views)))
        for i, analyst in enumerate(analysts):
            with self._row_locks[analyst]:
                row = dict(self._entries[analyst])
            for j, view in enumerate(views):
                matrix[i, j] = row.get(view, 0.0)
        return matrix


__all__ = ["Constraints", "ProvenanceTable", "Reservation"]
