"""The compiled-statement cache: SQL text -> compile products, once.

Re-deriving what a query *is* — tokenising + parsing the SQL, routing it
to the cheapest covering view, building the transformed linear query —
is a pure function of the SQL text and the registered view set, and with
answers served from cached synopses it is the dominant per-query cost.
:class:`StatementCache` memoises it at two granularities:

* **by text** — a cost-bounded LRU keyed by the SQL string, holding the
  fully classified :class:`CompiledStatement` (routing kind, chosen view,
  transformed query/parts, and the strictness anchor the batch planner
  sorts by).  A hit skips compilation outright.
* **by shape** — a small table keyed by the statement's token stream with
  its literals blanked (:func:`repro.db.sql.parser.split_literals`),
  holding a :class:`StatementTemplate`: the parsed skeleton, its routing
  kind and the views covering its columns.  An ad-hoc stream re-asks the
  same few shapes with fresh literals, so a text miss that hits here
  binds the new literals into the skeleton and goes straight to the
  per-candidate transform — no recursive-descent parse, no routing.
  ``hits`` / ``misses`` / ``hit_rate`` stay text-keyed; the shape table
  reports its size and hits separately.

Accuracy/epsilon knobs deliberately stay *out* of both keys: workloads
jitter the accuracy per request (see
:func:`repro.service.loadgen.build_mixed_workload`), and the
accuracy-dependent half of compilation — collapsing the dual submission
modes to a variance target — is a couple of float operations computed per
request from the cached query.  Keying on the knobs would reduce the hit
rate to ~0 for no saved work.

Both tables are invalidated wholesale when a view is registered (the
candidate set and the cheapest-view minimisation may now differ); view
registration is an administrative operation, so this is never on the hot
path.  The shape table is additionally dropped wholesale when it reaches
:data:`SHAPE_TABLE_LIMIT` — a bound on a hostile stream of never-repeated
shapes, not a setting: real workloads hold a handful.

Eviction is amortised, not rare: any stream of distinct texts crosses
the cost bound on every insert once the cache is full.  :meth:`put`
therefore never scans per insert — when the bound is crossed it sorts
the slots by access tick **once** and drops the coldest down to 7/8 of
the bound (never the entry just inserted), so the next ``bound / 8``
inserts evict nothing.  Bounds under 8 have no slack to free and evict
exactly one-for-one, i.e. strict LRU.

Concurrency model
-----------------
The hit path takes no lock.  :meth:`StatementCache.get` snapshots the
entries dict, probes it, and then re-checks that ``self._entries`` is
still the *same object* — :meth:`clear` replaces the dict wholesale (it
never mutates the old one destructively), so an unchanged identity
proves the probed entry belongs to the live view set.  This is the same
versioned-read discipline as the engine's memoized-answer fast lane.
Recency is a per-entry access tick written without a lock (a benign
race: a lost tick can only make an entry *look* slightly colder);
:meth:`put` and :meth:`put_template` run under a mutex and carry the
invalidation epoch their product was compiled against.  Hit/miss
counters are plain-int increments, exact under sequential use and
at-worst slightly undercounted under races.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

from repro.db.sql.ast import SelectStatement
from repro.exceptions import ReproError
from repro.views.linear import LinearQuery

#: Default bound on the cache's total *cost* — the number of retained
#: transformed weight vectors, not the number of SQL texts: a scalar
#: entry holds one vector, an AVG entry two, and a GROUP BY entry one
#: per group, so counting texts would let a stream of distinct GROUP BY
#: SQL pin ``entries x groups x bins`` floats while the counters report
#: a modest "entry" count.  The default accommodates the bench
#: workloads' full distinct-SQL set with room to spare while bounding a
#: hostile stream of unique queries by memory, not by name.
DEFAULT_STATEMENT_CACHE = 1024

#: Bound on the shape table; reaching it drops the table wholesale.
SHAPE_TABLE_LIMIT = 4096

#: Routing kinds a statement compiles to (mirrors ``DProvDB.submit``'s
#: dispatch: plain scalars ride ``submit_compiled``, AVG splits into
#: SUM/COUNT post-processing, GROUP BY expands per group).
KINDS = ("scalar", "group_by", "avg")


@dataclass(frozen=True)
class CompiledStatement:
    """Everything compilation derives from one statement, ready to serve.

    ``strictest`` is the transformed part with the largest
    ``weight_norm_sq`` — the part whose per-bin variance requirement is
    tightest at a fixed answer-accuracy target — which is exactly the
    strictness anchor :func:`repro.service.planner.plan_batch` orders by
    (``None`` only for a GROUP BY whose every group is predicate-excluded).
    """

    statement: SelectStatement
    kind: str
    view: object
    query: LinearQuery | None = None
    group_parts: tuple[tuple[tuple, LinearQuery], ...] | None = None
    avg_parts: tuple[LinearQuery, LinearQuery] | None = None
    strictest: LinearQuery | None = None

    @property
    def cost(self) -> int:
        """Weight vectors this entry retains (the cache's size unit)."""
        if self.group_parts is not None:
            return max(1, len(self.group_parts))
        if self.avg_parts is not None:
            return 2
        return 1


class StatementTemplate(NamedTuple):
    """What every statement of one shape shares: the parsed skeleton (its
    literals are those of the first text seen and are never served), the
    routing kind, and the registered views covering its columns in
    registration order."""

    statement: SelectStatement
    kind: str
    candidates: tuple


class _Slot:
    """One cache slot: the (frozen) entry plus its mutable access tick."""

    __slots__ = ("entry", "tick")

    def __init__(self, entry: CompiledStatement, tick: int) -> None:
        self.entry = entry
        self.tick = tick


class StatementCache:
    """LRU of :class:`CompiledStatement` keyed by SQL text, with a
    lock-free hit path.

    The bound is on total **cost** (retained weight vectors, see
    :attr:`CompiledStatement.cost`), so a wide GROUP BY entry counts as
    its group count, not as one slot.  An entry whose own cost exceeds
    the whole bound is still admitted alone — refusing it would make
    such statements uncacheable and defeat the cache exactly where
    compilation is most expensive.  ``max_entries=None`` disables
    eviction (statistics still tracked); ``max_entries=0`` disables the
    cache entirely — every probe misses and nothing is retained, which
    is how the perf gate's same-window baseline re-measures the
    cacheless pre-overhaul configuration.  Counters are exposed via
    :meth:`counters` — the service's ``snapshot()`` ships them for
    monitoring.
    """

    def __init__(self, max_entries: int | None = DEFAULT_STATEMENT_CACHE
                 ) -> None:
        if max_entries is not None and max_entries < 0:
            raise ReproError(
                f"max_entries must be >= 0 or None, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: dict[str, _Slot] = {}
        self._templates: dict[tuple, StatementTemplate] = {}
        self._total_cost = 0
        self._epoch = 0
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Times :meth:`put` sorted the slots to evict (each pass frees
        #: an eighth of the bound, so passes << inserts).
        self.eviction_passes = 0
        #: Text misses served by binding into a cached template.
        self.template_hits = 0

    @property
    def epoch(self) -> int:
        """Invalidation epoch; bumped by every :meth:`clear`.

        Callers snapshot it *before* compiling and hand it back to
        :meth:`put`: an entry compiled against a view set that a
        concurrent ``clear()`` has since invalidated is dropped instead
        of inserted, so a compile in flight across a view registration
        can never resurrect a stale cheapest-view choice.
        """
        return self._epoch

    def get(self, sql_text: str) -> CompiledStatement | None:
        """Lock-free probe (see the module docstring's versioned-read
        discipline): snapshot the dict, probe, re-check identity."""
        entries = self._entries
        slot = entries.get(sql_text)
        if slot is None or self._entries is not entries:
            # Absent, or the snapshot was invalidated mid-probe by a
            # concurrent clear(): treat as a miss, never serve stale.
            self.misses += 1
            return None
        slot.tick = self._tick = self._tick + 1
        self.hits += 1
        return slot.entry

    def put(self, sql_text: str, entry: CompiledStatement,
            epoch: int | None = None) -> None:
        if self.max_entries == 0:
            return  # cache disabled: never retain anything
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                return  # compiled against an invalidated view set
            entries = self._entries
            previous = entries.get(sql_text)
            if previous is not None:
                self._total_cost -= previous.entry.cost
            self._tick += 1
            entries[sql_text] = _Slot(entry, self._tick)
            self._total_cost += entry.cost
            bound = self.max_entries
            if bound is not None and self._total_cost > bound:
                self._evict(sql_text, bound - bound // 8)

    def _evict(self, keep: str, target: int) -> None:
        """Drop the coldest slots until the cost is within ``target``,
        sparing ``keep`` (an entry costlier than the whole bound is
        admitted alone).  Caller holds the lock."""
        entries = self._entries
        self.eviction_passes += 1
        for key, slot in sorted(entries.items(),
                                key=lambda item: item[1].tick):
            if self._total_cost <= target:
                break
            if key != keep:
                del entries[key]
                self._total_cost -= slot.entry.cost
                self.evictions += 1

    def template(self, shape: tuple) -> StatementTemplate | None:
        """Lock-free probe of the shape table."""
        found = self._templates.get(shape)
        if found is not None:
            self.template_hits += 1
        return found

    def put_template(self, shape: tuple, template: StatementTemplate,
                     epoch: int) -> None:
        if self.max_entries == 0:
            return  # cache disabled: never retain anything
        with self._lock:
            if epoch != self._epoch:
                return  # candidates probed against an invalidated view set
            if len(self._templates) >= SHAPE_TABLE_LIMIT:
                self._templates = {}
            self._templates[shape] = template

    def clear(self) -> None:
        """Drop every entry and template (view-registration
        invalidation); counters survive so monitoring sees the full
        history.

        Replaces the entries dict instead of clearing it in place — the
        old object stays intact for any in-flight lock-free probe, whose
        identity re-check then reports the miss.
        """
        with self._lock:
            self._epoch += 1
            self._entries = {}
            self._templates = {}
            self._total_cost = 0

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self) -> dict:
        """Strictly JSON-native counter block for ``snapshot()``."""
        hits, misses = self.hits, self.misses
        lookups = hits + misses
        return {
            "entries": len(self._entries),
            "cost": self._total_cost,
            "max_entries": self.max_entries,
            "hits": hits,
            "misses": misses,
            "evictions": self.evictions,
            "hit_rate": (hits / lookups) if lookups else 0.0,
            "templates": len(self._templates),
            "template_hits": self.template_hits,
        }


__all__ = ["DEFAULT_STATEMENT_CACHE", "KINDS", "SHAPE_TABLE_LIMIT",
           "CompiledStatement", "StatementCache", "StatementTemplate"]
