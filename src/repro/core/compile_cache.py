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
* **by shape** — a small table keyed by the text with its literals cut
  out (:func:`repro.db.sql.lexer.scan_slots`: one regex pass, no
  tokens), holding the :class:`StatementPlan` of the first statement of
  that shape to parse.  An ad-hoc stream re-asks a few shapes with fresh
  literals, so a text miss that hits here goes from its literal slots
  straight to the weight builders — no token, no parse, no AST, no
  routing probe.  A slot the plan cannot read (``1.5.2``) or literals
  no view answers take the parsed path, which alone words the error.
  ``hits`` / ``misses`` / ``hit_rate`` stay text-keyed; the shape table
  reports its size and hits separately.

Accuracy/epsilon knobs deliberately stay *out* of both keys: workloads
jitter the accuracy per request (see
:func:`repro.workloads.service.build_disjoint_workload`), and the
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
:meth:`put` and :meth:`put_plan` run under a mutex and carry the
invalidation epoch their product was compiled against.  Hit/miss
counters are plain-int increments, exact under sequential use and
at-worst slightly undercounted under races.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.db.sql.ast import Between, InList, SelectStatement
from repro.db.sql.parser import parse, slot_value
from repro.exceptions import ReproError, UnanswerableQuery
from repro.views.linear import LinearQuery
from repro.views.registry import answering, cheapest
from repro.views.transform import avg_parts, group_parts

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

    ``source`` is the parsed statement, or the SQL text a plan compiled
    without parsing, which :attr:`statement` parses on first read.
    ``strictest`` is the transformed part with the largest
    ``weight_norm_sq`` — the part whose per-bin variance requirement is
    tightest at a fixed answer-accuracy target — which is exactly the
    strictness anchor :func:`repro.service.planner.plan_batch` orders by
    (``None`` only for a GROUP BY whose every group is predicate-excluded).
    """

    source: SelectStatement | str | None
    kind: str
    view: object
    query: LinearQuery | None = None
    group_parts: tuple[tuple[tuple, LinearQuery], ...] | None = None
    avg_parts: tuple[LinearQuery, LinearQuery] | None = None
    strictest: LinearQuery | None = None

    @property
    def statement(self) -> SelectStatement | None:
        if isinstance(self.source, str):
            object.__setattr__(self, "source", parse(self.source))
        return self.source

    @property
    def cost(self) -> int:
        """Weight vectors this entry retains (the cache's size unit)."""
        if self.group_parts is not None:
            return max(1, len(self.group_parts))
        if self.avg_parts is not None:
            return 2
        return 1


def finish(source, kind: str, view, product) -> CompiledStatement:
    """The entry for ``kind``'s ``product`` over ``view``: the scalar
    query, the (SUM, COUNT) pair, or the GROUP BY parts."""
    if kind == "group_by":
        parts = tuple(product)
        strictest = max((q for _, q in parts if q.weight_norm_sq > 0),
                        key=lambda q: q.weight_norm_sq, default=None)
        return CompiledStatement(source, kind, view, group_parts=parts,
                                 strictest=strictest)
    if kind == "avg":
        return CompiledStatement(source, kind, view, avg_parts=product,
                                 strictest=product[0])
    return CompiledStatement(source, kind, view, query=product,
                             strictest=product)


class StatementPlan:
    """What every statement of one shape shares, read off the first to
    parse: its routing ``kind``, the ``candidates`` covering its columns,
    the views whose structure admits it (smallest first for AVG and GROUP
    BY, which take the smallest that answers), and each condition as a
    ``(column, op, slot, slot)`` term naming the literal slots feeding
    it.  :meth:`compile` runs new slots through the parsed path's weight
    builders and cheapest-view choice, so the view follows the literals.
    """

    def __init__(self, statement: SelectStatement, kind: str,
                 candidates: tuple) -> None:
        self.kind, self.candidates = kind, candidates
        self.aggregate = statement.aggregates[0]
        self.group_by = statement.group_by
        views = answering(statement, candidates)
        if kind != "scalar":
            views = sorted(views, key=lambda view: view.size)
        # A GROUP BY is compiled on the smallest structural fit or not
        # at all (registry.select reads no literal for it).
        self.views = tuple(views[:1] if kind == "group_by" else views)
        terms, slot = [], 0
        for cond in statement.predicate.conditions:
            op = "BETWEEN" if isinstance(cond, Between) else \
                "IN" if isinstance(cond, InList) else cond.op
            last = slot + (op == "BETWEEN")
            terms.append((cond.column, op, slot, last))
            slot = last + 1
        self.terms = tuple(terms)

    def compile(self, sql: str, slots: list[str]
                ) -> CompiledStatement | None:
        """The entry for ``sql``, of this plan's shape, from its literal
        ``slots``; ``None`` where only the parse can word the outcome."""
        try:
            values = [slot_value(slot) for slot in slots]
        except ValueError:
            return None
        terms: dict[str, list[tuple]] = {}
        for column, op, i, j in self.terms:
            terms.setdefault(column, []).append((op, values[i], values[j]))
        kind = self.kind
        if kind == "scalar":
            found = cheapest(self.views, self.aggregate, terms)
            return None if found is None else finish(sql, kind, *found)
        for view in self.views:
            try:
                product = (avg_parts(view, self.aggregate.column, terms)
                           if kind == "avg" else
                           group_parts(view, self.aggregate, self.group_by,
                                       terms))
            except UnanswerableQuery:
                continue
            return finish(sql, kind, view, product)
        return None


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
    makes it the full-parser reference the bit-identity tests compare
    against.  Counters are exposed via
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
        self._plans: dict[tuple, StatementPlan] = {}
        self._total_cost = 0
        self._epoch = 0
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Times :meth:`put` sorted the slots to evict (each pass frees
        #: an eighth of the bound, so passes << inserts).
        self.eviction_passes = 0
        #: Text misses whose shape had a plan.
        self.plan_hits = 0

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

    def plan(self, shape: tuple) -> StatementPlan | None:
        """Lock-free probe of the shape table."""
        found = self._plans.get(shape)
        if found is not None:
            self.plan_hits += 1
        return found

    def put_plan(self, shape: tuple, plan: StatementPlan,
                 epoch: int) -> None:
        if self.max_entries == 0:
            return  # cache disabled: never retain anything
        with self._lock:
            if epoch != self._epoch:
                return  # candidates probed against an invalidated view set
            if len(self._plans) >= SHAPE_TABLE_LIMIT:
                self._plans = {}
            self._plans[shape] = plan

    def clear(self) -> None:
        """Drop every entry and plan (view-registration
        invalidation); counters survive so monitoring sees the full
        history.

        Replaces the entries dict instead of clearing it in place — the
        old object stays intact for any in-flight lock-free probe, whose
        identity re-check then reports the miss.
        """
        with self._lock:
            self._epoch += 1
            self._entries = {}
            self._plans = {}
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
            # The shape table's snapshot names predate its plans.
            "templates": len(self._plans),
            "template_hits": self.plan_hits,
        }


__all__ = ["DEFAULT_STATEMENT_CACHE", "KINDS", "SHAPE_TABLE_LIMIT",
           "CompiledStatement", "StatementCache", "StatementPlan", "finish"]
