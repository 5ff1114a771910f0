"""The DProvDB engine: the online loop of Algorithm 1 with dual modes.

``DProvDB`` wires the substrates together: a view registry over the database,
a provenance table with constraint policies, and one of the two mechanisms.
Analysts submit SQL in either submission mode:

* **accuracy-oriented** — ``submit(analyst, sql, accuracy=v)`` bounds the
  expected squared error of the answer;
* **privacy-oriented** — ``submit(analyst, sql, epsilon=e)`` spends an
  explicit budget, internally converted to the equivalent accuracy so both
  modes share one code path.

Queries that would violate a row/column/table constraint raise
:class:`QueryRejected`; :meth:`DProvDB.try_submit` converts rejections to
``None`` for workload loops.

Concurrency: submissions are thread-safe without any caller-held lock.
Budget check-then-charge is atomic inside
:meth:`repro.core.provenance.ProvenanceTable.reserve`; the engine itself
adds **per-view critical sections** (:meth:`DProvDB.view_section`) so two
threads refreshing the same view's synopsis never double-release, while
disjoint views proceed in parallel.  Multi-view sections acquire locks in
sorted view-name order — the repo-wide lock-ordering discipline.
Registration of analysts/views over time remains an administrative
operation: do not interleave it with in-flight submissions.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.accuracy import resolve_accuracy
from repro.core.analyst import Analyst
from repro.core.additive import AdditiveGaussianMechanism
from repro.core.compile_cache import (
    DEFAULT_STATEMENT_CACHE,
    CompiledStatement,
    StatementCache,
    StatementPlan,
    finish,
)
from repro.core.mechanism import GaussianAccountant, MechanismBase
from repro.core.policies import build_constraints
from repro.core.provenance import Constraints, ProvenanceTable
from repro.core.vanilla import VanillaMechanism
from repro.core.zcdp_vanilla import ZCdpVanillaMechanism
from repro.core.translation import DEFAULT_PRECISION
from repro.datasets.base import DatasetBundle
from repro.db.sql.ast import SelectStatement
from repro.db.sql.lexer import scan_slots, tokenize
from repro.db.sql.parser import parse, parse_tokens
from repro.dp.gaussian import analytic_gaussian_sigma
from repro.dp.rng import SeedLike, ensure_generator
from repro.exceptions import (
    QueryRejected,
    ReproError,
    UnanswerableQuery,
    UnknownAnalyst,
)
from repro.metrics import tracing
from repro.views.registry import ViewRegistry
from repro.views.transform import transform_avg_parts, transform_group_by

_MECHANISMS = {
    "additive": AdditiveGaussianMechanism,
    "vanilla": VanillaMechanism,
    "vanilla_zcdp": ZCdpVanillaMechanism,
}


class Answer(NamedTuple):
    """A released query answer plus its provenance metadata.

    A ``NamedTuple``, not a frozen dataclass: a GROUP BY returns one per
    group, and a tuple costs what the mechanism's ``Outcome`` does to
    build (a frozen dataclass is several times that).  Nothing reads an
    answer through ``dataclasses`` (``replace``/``asdict``/``fields``).
    """

    analyst: str
    value: float
    epsilon_charged: float
    view_name: str
    per_bin_variance: float
    answer_variance: float
    cache_hit: bool


#: ``Answer._make`` without the Python frame: the :class:`Answer` of one
#: row of field values.  ``map(answer_from_row, zip(*columns))`` builds a
#: GROUP BY's answers from its columns in one C-level pass.
answer_from_row = partial(tuple.__new__, Answer)


class DProvDB:
    """Multi-analyst DP query processing with privacy provenance."""

    def __init__(self, bundle: DatasetBundle, analysts: Sequence[Analyst],
                 epsilon: float, delta: float = 1e-9,
                 mechanism: str = "additive", tau: float = 1.0,
                 l_max: int | None = None,
                 constraints: Constraints | None = None,
                 accountant: GaussianAccountant | None = None,
                 precision: float = DEFAULT_PRECISION,
                 combine_local: bool = False,
                 synopsis_store=None,
                 statement_cache_size: int | None = DEFAULT_STATEMENT_CACHE,
                 fast_lane: bool = True,
                 seed: SeedLike = None) -> None:
        if not analysts:
            raise ReproError("need at least one analyst")
        names = [a.name for a in analysts]
        if len(set(names)) != len(names):
            raise ReproError("duplicate analyst names")
        if mechanism not in _MECHANISMS:
            raise ReproError(f"unknown mechanism {mechanism!r}; "
                             f"choose from {sorted(_MECHANISMS)}")

        #: Display name used in experiment reports (overridable).
        self.name = f"dprovdb-{mechanism}"
        self.bundle = bundle
        self.analysts = {a.name: a for a in analysts}
        self.registry = ViewRegistry(bundle.database)
        self.registry.add_attribute_views(bundle.fact_table,
                                          bundle.view_attributes)

        if constraints is None:
            # zCDP-checked vanilla shares the Def. 10 constraint pairing.
            style = "vanilla" if mechanism.startswith("vanilla") else "additive"
            constraints = build_constraints(
                list(analysts), self.registry.view_names, epsilon,
                mechanism=style, tau=tau, delta=delta,
                delta_cap=bundle.delta_cap(), l_max=l_max,
            )
        self.constraints = constraints
        self.provenance = ProvenanceTable.for_analysts(
            analysts, self.registry.view_names
        )
        from repro.core.delegation import DelegationManager

        self.delegations = DelegationManager()
        # Per-view critical sections: one reentrant lock per view keeps
        # the synopsis machinery (read-then-refresh of shared noisy state)
        # consistent while disjoint views proceed in parallel; budget
        # atomicity itself lives in ProvenanceTable.reserve.
        self._view_locks: dict[str, threading.RLock] = {
            name: threading.RLock() for name in self.registry.view_names
        }
        self._view_locks_guard = threading.Lock()
        #: Compiled-statement cache: SQL text -> parse + view-selection +
        #: transform products.  Invalidated wholesale whenever a view is
        #: registered (the cheapest-view choice may change).
        self.statement_cache = StatementCache(statement_cache_size)
        #: Times :meth:`compile_statement` resolved a statement (cache
        #: hit or fresh compile).  The serving layers promise exactly
        #: one resolution per query — the planner compiles, then hands
        #: the :class:`CompiledStatement` down so no submit path ever
        #: re-probes (a regression here is how the profile grew a
        #: ~1.55x/query probe multiplier).  Plain-int increment: exact
        #: sequentially, at worst undercounted under racing threads.
        self.compile_calls = 0
        #: Memoized-answer fast lane toggle.  When on, requests an
        #: analyst's cached local synopsis already satisfies are answered
        #: through a versioned lock-free lookup that skips the view
        #: section and every provenance lock; accounting is replay-
        #: identical to the slow path (the fast lane only ever serves
        #: answers the slow path would have served free from cache).
        self.fast_lane = fast_lane
        self._fast_lane_lock = threading.Lock()
        self._fast_lane_hits = 0
        self._fast_lane_misses = 0
        #: Which path served the calling thread's last answer
        #: (``fast_lane`` / ``cached`` / ``fresh``) — lineage raw
        #: material, thread-local so concurrent submissions never read
        #: each other's marks.  Purely descriptive: written after the
        #: outcome is decided, never consulted by execution.
        self._source_local = threading.local()
        mechanism_kwargs = {"rng": ensure_generator(seed),
                            "accountant": accountant,
                            "precision": precision,
                            "store": synopsis_store}
        if mechanism == "additive":
            mechanism_kwargs["combine_local"] = combine_local
        elif combine_local:
            raise ReproError("combine_local requires the additive mechanism")
        self.mechanism: MechanismBase = _MECHANISMS[mechanism](
            self.registry, self.provenance, constraints, **mechanism_kwargs,
        )

    @classmethod
    def with_corruption_graph(cls, bundle: DatasetBundle,
                              analysts: Sequence[Analyst], graph,
                              epsilon: float, policy: str = "max",
                              delta: float = 1e-9,
                              seed: SeedLike = None,
                              **kwargs) -> "DProvDB":
        """Build an engine under the (t, n)-compromised model (Sec. 7.1).

        Each coalition of the corruption ``graph`` receives its own table
        budget ``epsilon`` (Thm. 7.2), enforced as a per-coalition sum cap;
        the overall table constraint becomes ``k * epsilon``.  Only the
        vanilla mechanism is supported: the additive approach shares global
        synopses *across* coalitions, which collapses the per-component
        accounting back to a single ``psi_P``.
        """
        if kwargs.get("mechanism", "vanilla") != "vanilla":
            raise ReproError(
                "corruption-graph budgeting requires mechanism='vanilla'"
            )
        kwargs.pop("mechanism", None)
        view_names = tuple(f"{bundle.fact_table}.{attr}"
                           for attr in bundle.view_attributes)
        total = graph.total_budget(epsilon)
        constraints = Constraints(
            analyst=graph.component_constraints(epsilon, policy=policy),
            view={name: total for name in view_names},
            table=total, delta=delta, delta_cap=bundle.delta_cap(),
            groups=tuple(graph.components()), group_limit=epsilon,
        )
        return cls(bundle, analysts, epsilon=total, delta=delta,
                   mechanism="vanilla", constraints=constraints, seed=seed,
                   **kwargs)

    # -- per-view critical sections ---------------------------------------------
    def _view_lock(self, view_name: str) -> threading.RLock:
        lock = self._view_locks.get(view_name)
        if lock is None:
            with self._view_locks_guard:
                lock = self._view_locks.setdefault(view_name,
                                                   threading.RLock())
        return lock

    @contextmanager
    def view_section(self, *view_names: str) -> Iterator[None]:
        """Critical section over one or more views.

        Serialises synopsis refreshes per view so two threads can never
        double-release on the same view, while operations on disjoint
        views proceed in parallel.  Multi-view sections acquire the locks
        in **sorted view-name order** — the system-wide lock-ordering
        discipline that makes concurrent multi-view operations
        deadlock-free.  The locks are reentrant, so nesting a section
        for views already held is safe.
        """
        locks = [self._view_lock(name) for name in sorted(set(view_names))]
        for lock in locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(locks):
                lock.release()

    # -- lifecycle --------------------------------------------------------------
    def setup(self) -> float:
        """Materialise all exact views; returns setup seconds."""
        return self.registry.materialize_all()

    def register_analyst(self, analyst: Analyst,
                         constraint: float | None = None) -> None:
        """Admit a new analyst online (possible under Def. 11 policies).

        On an engine with Sec. 7.1 coalitions the newcomer is in no edge
        of the corruption graph, so it joins as its own singleton
        coalition: its row limit is at most ``group_limit`` (which is
        also its default) and the table limit is not raised.
        """
        if analyst.name in self.analysts:
            raise ReproError(f"analyst {analyst.name!r} already registered")
        changes = {}
        groups = self.constraints.groups
        if groups:
            limit = self.constraints.group_limit
            constraint = limit if constraint is None else min(constraint,
                                                              limit)
            changes["groups"] = groups + (frozenset({analyst.name}),)
        elif constraint is None:
            l_max = max((a.privilege for a in self.analysts.values()),
                        default=analyst.privilege)
            l_max = max(l_max, analyst.privilege)
            constraint = analyst.privilege / l_max * self.constraints.table
        self.analysts[analyst.name] = analyst
        self.provenance.register_analyst(analyst.name)
        updated = dict(self.constraints.analyst)
        updated[analyst.name] = constraint
        self._set_constraints(analyst=updated, **changes)

    def _set_constraints(self, **changes) -> None:
        """Swap in constraints with ``changes`` applied; every other
        field, the Sec. 7.1 coalition ``groups``/``group_limit``
        included, carries over."""
        self.constraints = replace(self.constraints, **changes)
        self.mechanism.constraints = self.constraints

    def register_view(self, attributes: tuple[str, ...],
                      constraint: float | None = None) -> str:
        """Add a (possibly multi-way) histogram view online (Def. 12 allows
        adding views over time under water-filling constraints).

        Returns the new view's name.  ``constraint`` defaults to the table
        constraint (water-filling).
        """
        from repro.views.histogram import HistogramView

        table = self.bundle.fact_table
        schema = self.bundle.database.table(table).schema
        name = f"{table}.{'_'.join(attributes)}"
        view = HistogramView(name, table, tuple(attributes), schema)
        self.registry.add(view)
        # A new view can change every cheapest-view compile decision.
        self.statement_cache.clear()
        self.provenance.register_view(name)
        updated_views = dict(self.constraints.view)
        updated_views[name] = (self.constraints.table if constraint is None
                               else constraint)
        self._set_constraints(view=updated_views)
        return name

    def register_hierarchical_view(self, attribute: str,
                                   constraint: float | None = None) -> str:
        """Add a dyadic-tree view for wide range queries (see
        :mod:`repro.views.hierarchical`); returns the view name."""
        name = self.registry.add_hierarchical_view(self.bundle.fact_table,
                                                   attribute)
        self.statement_cache.clear()
        self.provenance.register_view(name)
        updated_views = dict(self.constraints.view)
        updated_views[name] = (self.constraints.table if constraint is None
                               else constraint)
        self._set_constraints(view=updated_views)
        return name

    # -- submission --------------------------------------------------------------
    def _resolve(self, sql_or_statement) -> SelectStatement:
        if isinstance(sql_or_statement, SelectStatement):
            return sql_or_statement
        return parse(sql_or_statement)

    # -- compiled-statement cache ------------------------------------------------
    def compile_statement(self, sql) -> CompiledStatement:
        """Parse + classify + compile ``sql``, memoised by its text.

        A text hit skips the whole front half of query processing.  A
        text miss scans its *shape* and literal slots in one regex pass
        (:func:`repro.db.sql.lexer.scan_slots`); a known shape's
        :class:`~repro.core.compile_cache.StatementPlan` compiles the
        slots with no token, parse or AST.  A new shape, or slots the
        plan cannot compile, take the parsed path (lex, parse, route,
        transform), which words any error.  Only string SQL is cached;
        compile *failures* are not cached and re-raise each time.
        """
        self.compile_calls += 1
        if not isinstance(sql, str):
            return self._compile_routed(sql, self._plan_for(sql))
        cache = self.statement_cache
        entry = cache.get(sql)
        if entry is not None:
            return entry
        # Snapshot the invalidation epoch before compiling: if a view is
        # registered while this compile is in flight, the inserts below
        # are dropped rather than resurrecting a stale view choice.
        epoch = cache.epoch
        shape, slots = scan_slots(sql)
        plan = cache.plan(shape)
        if plan is not None:
            entry = plan.compile(sql, slots)
        if entry is None:
            statement = parse_tokens(tokenize(sql))
            if plan is None:
                plan = self._plan_for(statement)
                cache.put_plan(shape, plan, epoch)
            entry = self._compile_routed(statement, plan)
        cache.put(sql, entry, epoch=epoch)
        return entry

    def _plan_for(self, statement: SelectStatement) -> StatementPlan:
        """The literal-free half of compilation: the shape's plan."""
        if statement.group_by:
            kind = "group_by"
        elif statement.aggregates and statement.aggregates[0].func == "AVG":
            kind = "avg"
        else:
            kind = "scalar"
        return StatementPlan(statement, kind,
                             self.registry.candidates(statement))

    def _compile_routed(self, statement: SelectStatement,
                        plan: StatementPlan) -> CompiledStatement:
        """The literal-dependent half: transform the parsed ``statement``
        over the candidate views of its shape's ``plan``."""
        kind, candidates = plan.kind, plan.candidates
        if kind == "scalar":
            view, product = self.registry.compile(statement,
                                                  candidates=candidates)
        else:
            view = self.registry.select(statement, candidates)
            product = (transform_group_by(statement, view)
                       if kind == "group_by"
                       else transform_avg_parts(statement, view))
        return finish(statement, kind, view, product)

    # -- lineage raw material -----------------------------------------------------
    def _mark_source(self, source: str) -> None:
        self._source_local.value = source

    def last_answer_source(self) -> str:
        """How this thread's most recent answer was served (defaults to
        ``fresh`` before any submission)."""
        return getattr(self._source_local, "value", "fresh")

    # -- fast-lane bookkeeping ----------------------------------------------------
    def _note_fast_lane(self, hits: int = 0, misses: int = 0) -> None:
        with self._fast_lane_lock:
            self._fast_lane_hits += hits
            self._fast_lane_misses += misses

    def fast_lane_counters(self) -> dict:
        """Strictly JSON-native fast-lane counters (for ``snapshot()``).

        A *hit* is a submission (or batch-lane query) answered by the
        versioned lock-free path; a *miss* is one that probed the fast
        lane and fell back to the locked slow path (including generation
        races).  Submissions that bypass the lane entirely — fast lane
        disabled, delegated queries — count as neither.
        """
        with self._fast_lane_lock:
            probes = self._fast_lane_hits + self._fast_lane_misses
            return {
                "enabled": bool(self.fast_lane),
                "hits": self._fast_lane_hits,
                "misses": self._fast_lane_misses,
                "hit_rate": (self._fast_lane_hits / probes) if probes
                else 0.0,
            }

    def _accuracy_for(self, statement_query, accuracy, epsilon: float | None,
                      view) -> float:
        """Collapse the dual modes to a single variance requirement.

        ``accuracy`` may be a raw variance bound or any spec object with a
        ``to_variance()`` method (e.g. :class:`repro.core.accuracy
        .ConfidenceInterval`).
        """
        if (accuracy is None) == (epsilon is None):
            raise ReproError("provide exactly one of accuracy= or epsilon=")
        if accuracy is not None:
            return resolve_accuracy(accuracy)
        return self._release_variance(epsilon, view) \
            * statement_query.weight_norm_sq

    def _release_variance(self, epsilon: float, view) -> float:
        """σ² of one release at ``epsilon`` on ``view``: an ``epsilon=``
        target is this times the query's ‖w‖²."""
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ReproError(
                f"epsilon must be finite and positive, got {epsilon}")
        sigma = analytic_gaussian_sigma(epsilon, self.constraints.delta,
                                        view.sensitivity())
        return sigma ** 2

    def _check_analyst(self, analyst: str) -> None:
        if analyst not in self.analysts:
            raise UnknownAnalyst(f"analyst {analyst!r} not registered")

    def submit(self, analyst: str, sql, accuracy: float | None = None,
               epsilon: float | None = None,
               delegation: int | None = None,
               compiled: CompiledStatement | None = None) -> Answer:
        """Answer a scalar query; raises :class:`QueryRejected` on refusal.

        With ``delegation=<grant id>``, the query runs under the *grantor's*
        identity (their constraints, synopses, and provenance row are used
        and charged) while the answer is returned to the submitting grantee
        — the paper's "grant" operator (Sec. 9).

        ``compiled`` lets a caller that already resolved the statement
        (the planner, or the executor's classification step) hand the
        entry in, upholding the one-resolution-per-query contract.
        """
        self._check_analyst(analyst)
        if compiled is None:
            compiled = self.compile_statement(sql)
        if compiled.kind == "avg":
            if delegation is not None:
                raise ReproError("delegation supports plain scalar queries")
            return self._submit_avg(analyst, compiled, accuracy, epsilon)
        if compiled.kind == "group_by":
            raise UnanswerableQuery(
                f"no registered view answers: {compiled.statement}"
            )
        view, query = compiled.view, compiled.query
        target = self._accuracy_for(query, accuracy, epsilon, view)
        return self.submit_compiled(analyst, None, view, query, target,
                                    delegation=delegation)

    def submit_compiled(self, analyst: str, statement: SelectStatement | None,
                        view, query, target: float,
                        delegation: int | None = None,
                        sql_text: str | None = None) -> Answer:
        """Answer an already-compiled scalar query (no re-parse/re-compile).

        The fast path behind :meth:`submit`, exposed for callers that plan
        batches ahead of execution (see :mod:`repro.service.planner`):
        ``view``/``query`` must come from :meth:`compile_statement` and
        ``target`` is the answer-variance requirement.  ``statement`` and
        ``sql_text`` are accepted for existing callers and not read: the
        engine keeps no per-query trail (an answer's provenance is the
        :class:`Answer` itself, the provenance table and the ledger).
        """
        self._check_analyst(analyst)
        if delegation is None and self.fast_lane:
            outcomes = self.mechanism.cached_answers_fast(
                analyst, view, [(query, query.per_bin_variance_for(target))])
            if outcomes is not None:
                outcome = outcomes[0]
                self._note_fast_lane(hits=1)
                self._mark_source("fast_lane")
                return Answer(analyst, outcome.value, 0.0, outcome.view_name,
                              outcome.per_bin_variance,
                              outcome.answer_variance, True)
            self._note_fast_lane(misses=1)
        # Cache hits and fast-lane misses are far too hot for per-query
        # span machinery (the group-level "decisions" event aggregates
        # them); only the rare expensive outcomes — a fresh release or a
        # rejection — earn a retroactive span from this reading.
        started = time.perf_counter()
        with self.view_section(view.name):
            effective = analyst
            grant = None
            estimate = 0.0
            if delegation is not None:
                grant = self.delegations.validate(delegation, analyst)
                self._check_analyst(grant.grantor)
                effective = grant.grantor
                estimate = self.mechanism.quote(effective, view, query,
                                                target)
                # Atomic cap check + provisional charge: two delegated
                # queries on different views run concurrently and must
                # not both pass a check against the same remaining cap.
                self.delegations.reserve(grant, estimate)
            try:
                outcome = self.mechanism.answer(effective, view, query,
                                                target)
            except BaseException as exc:
                if grant is not None:
                    self.delegations.release(grant, estimate)
                if isinstance(exc, QueryRejected):
                    tracing.record_span("decision", started, view=view.name,
                                        outcome="rejected")
                raise
            if grant is not None:
                self.delegations.settle(grant, estimate,
                                        outcome.epsilon_charged)
            source = "cached" if outcome.cache_hit else "fresh"
            self._mark_source(source)
        if source == "fresh":
            tracing.record_span("decision", started, view=view.name,
                                outcome=source,
                                epsilon=outcome.epsilon_charged)
        return Answer(analyst, outcome.value, outcome.epsilon_charged,
                      outcome.view_name, outcome.per_bin_variance,
                      outcome.answer_variance, outcome.cache_hit)

    def quote(self, analyst: str, sql, accuracy: float | None = None,
              epsilon: float | None = None) -> float:
        """Budget a query would charge right now, without answering it."""
        self._check_analyst(analyst)
        statement = self._resolve(sql)
        view, query = self.registry.compile(statement)
        target = self._accuracy_for(query, accuracy, epsilon, view)
        with self.view_section(view.name):
            return self.mechanism.quote(analyst, view, query, target)

    def grant_delegation(self, grantor: str, grantee: str,
                         epsilon_cap: float | None = None) -> int:
        """Issue a delegation capability (budget accounted to ``grantor``)."""
        self._check_analyst(grantor)
        self._check_analyst(grantee)
        return self.delegations.grant(grantor, grantee, epsilon_cap)

    def revoke_delegation(self, grant_id: int) -> None:
        self.delegations.revoke(grant_id)

    def _submit_avg(self, analyst: str, compiled: CompiledStatement,
                    accuracy: float | None, epsilon: float | None) -> Answer:
        """AVG = noisy SUM / noisy COUNT (post-processing)."""
        view = compiled.view
        sum_query, count_query = compiled.avg_parts
        target = self._accuracy_for(sum_query, accuracy, epsilon, view)
        count_target = target * (count_query.weight_norm_sq
                                 / sum_query.weight_norm_sq)
        if self.fast_lane:
            # Both parts from the cached synopsis, or neither: the slow
            # path would otherwise refresh once and serve both fresh.
            outcomes = self.mechanism.cached_answers_fast(
                analyst, view,
                [(sum_query, sum_query.per_bin_variance_for(target)),
                 (count_query,
                  count_query.per_bin_variance_for(count_target))])
            if outcomes is not None:
                self._note_fast_lane(hits=1)
                self._mark_source("fast_lane")
                sum_outcome, count_outcome = outcomes
                return self._avg_answer(analyst, view, sum_outcome,
                                        count_outcome)
            self._note_fast_lane(misses=1)
        started = time.perf_counter()
        with self.view_section(view.name):
            # One atomic answer for both parts: at most one fresh release,
            # with the COUNT riding the SUM's synopsis — a rejected AVG
            # therefore charges nothing (two independent answer() calls
            # could charge the SUM, then reject the COUNT).
            sum_outcome, count_outcome = self.mechanism.answer_avg(
                analyst, view, sum_query, count_query, target, count_target)
        source = "cached" if (sum_outcome.cache_hit
                              and count_outcome.cache_hit) else "fresh"
        self._mark_source(source)
        if source == "fresh":
            tracing.record_span("decision", started, view=view.name,
                                outcome=source)
        return self._avg_answer(analyst, view, sum_outcome, count_outcome)

    @staticmethod
    def _avg_answer(analyst: str, view, sum_outcome, count_outcome) -> Answer:
        denominator = count_outcome.value
        value = float("nan") if denominator <= 0 \
            else sum_outcome.value / denominator
        charged = sum_outcome.epsilon_charged + count_outcome.epsilon_charged
        return Answer(analyst, value, charged, view.name,
                      sum_outcome.per_bin_variance,
                      sum_outcome.answer_variance,
                      sum_outcome.cache_hit and count_outcome.cache_hit)

    def submit_group_by(self, analyst: str, sql,
                        accuracy: float | None = None,
                        epsilon: float | None = None,
                        compiled: CompiledStatement | None = None
                        ) -> list[tuple[tuple, Answer]]:
        """Answer a GROUP BY query with full-domain semantics (Appendix D).

        ``accuracy`` applies per group.  All groups are answered from the
        same synopsis, so after the first group the rest are cache hits.
        ``compiled`` skips re-resolving when the caller already holds the
        compiled entry (one resolution per query, see :meth:`submit`).

        The groups are answered in columns: per-bin requirements and
        answer variances are array operations over the live groups'
        ‖w‖² (the same IEEE operations the scalar methods do per query,
        so bit-identical), and the only per-group work is one ``np.dot``
        and the ``(key, Answer)`` pair returned.
        """
        self._check_analyst(analyst)
        if compiled is None:
            compiled = self.compile_statement(sql)
        if compiled.kind != "group_by":
            raise UnanswerableQuery("statement has no GROUP BY keys")
        view = compiled.view
        live, norms = compiled.group_live, compiled.group_norms
        targets, per_bins = self._group_targets(view, norms, accuracy,
                                                epsilon)
        mechanism = self.mechanism
        if self.fast_lane:
            # Every non-empty group from the cached synopsis, or none: a
            # single inadequate group means the slow path refreshes once
            # for all of them.
            found = mechanism.cached_group_fast(analyst, view, live,
                                                per_bins) \
                if live else ([], 0.0)
            if found is not None:
                values, variance = found
                self._note_fast_lane(hits=1)
                self._mark_source("fast_lane")
                return self._group_results(
                    analyst, compiled, values, repeat(0.0),
                    repeat(variance), (norms * variance).tolist(),
                    repeat(True))
            self._note_fast_lane(misses=1)
        values, charged, per_bin, answer_variance, hits = [], [], [], [], []
        started = time.perf_counter()
        with self.view_section(view.name):
            # The groups the current synopsis covers are answered in one
            # probe; the first that needs a fresh release runs the full
            # ``answer`` template (which records the one miss), and the
            # probe resumes against whatever that release left behind —
            # the same sequence of lookups, hits and releases as one
            # ``answer`` call per group.
            done = 0
            while done < len(live):
                got, variance = mechanism.cached_group_fast(
                    analyst, view, live[done:], per_bins[done:],
                    prefix=True)
                if got:
                    end = done + len(got)
                    values += got
                    charged += repeat(0.0, len(got))
                    per_bin += repeat(variance, len(got))
                    answer_variance += (norms[done:end] * variance).tolist()
                    hits += repeat(True, len(got))
                    done = end
                if done < len(live):
                    outcome = mechanism.answer(analyst, view, live[done],
                                               float(targets[done]))
                    values.append(outcome.value)
                    charged.append(outcome.epsilon_charged)
                    per_bin.append(outcome.per_bin_variance)
                    answer_variance.append(outcome.answer_variance)
                    hits.append(outcome.cache_hit)
                    done += 1
        source = "cached" if all(hits) else "fresh"
        self._mark_source(source)
        results = self._group_results(analyst, compiled, values, charged,
                                      per_bin, answer_variance, hits)
        if source == "fresh":
            tracing.record_span("decision", started, view=view.name,
                                outcome=source, groups=len(results))
        return results

    def _group_targets(self, view, norms: np.ndarray,
                       accuracy: float | None, epsilon: float | None
                       ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(targets, per_bins)`` of the live groups, as arrays in group
        order: an ``accuracy=`` target is one number for every group, an
        ``epsilon=`` target is the release's σ² times the group's ‖w‖²,
        and a requirement is ``target / ‖w‖²`` — what
        :meth:`_accuracy_for` and ``per_bin_variance_for`` compute per
        query.  With no non-empty group nothing is resolved (an
        all-excluded GROUP BY is exact zeros at no cost)."""
        if not len(norms):
            return None, None
        if epsilon is None or accuracy is not None:
            # Accuracy mode, or the "exactly one of" refusal.
            targets = np.full(len(norms), self._accuracy_for(
                None, accuracy, epsilon, view))
        else:
            targets = self._release_variance(epsilon, view) * norms
        return targets, targets / norms

    @staticmethod
    def _group_results(analyst: str, compiled: CompiledStatement, values,
                       charged, per_bin, answer_variance, hits
                       ) -> list[tuple[tuple, Answer]]:
        """The ``(key, Answer)`` pairs in group order, built from the live
        groups' columns in one pass; a group the predicate excludes is
        an exact zero at no privacy cost."""
        view_name = compiled.view.name
        answers = list(map(answer_from_row, zip(
            repeat(analyst), values, charged, repeat(view_name), per_bin,
            answer_variance, hits)))
        slots = compiled.group_slots
        if slots is not None:
            # Slot -1 (every excluded group) reads the appended zero.
            answers.append(Answer(analyst, 0.0, 0.0, view_name, 0.0, 0.0,
                                  True))
            answers = list(map(answers.__getitem__, slots))
        return list(zip(compiled.group_keys, answers))

    def answer_batch_from_cache(self, analyst: str, view,
                                pairs: list[tuple]) -> list[Answer | None]:
        """Batch-lane cached answering for a planned per-view group.

        ``pairs`` is ``[(query, target), ...]`` in the planner's
        strictest-first order; the maximal adequate *prefix* is answered
        from the analyst's cached synopsis (see
        :meth:`MechanismBase.cached_answers_fast` for why only a prefix
        is safe) and the rest come back ``None`` for the caller to run
        through the slow path in order.  The synopsis-cache statistics
        record exactly the hits the slow path would have recorded.
        """
        self._check_analyst(analyst)
        answers: list[Answer | None] = [None] * len(pairs)
        if not self.fast_lane or not pairs:
            return answers
        probes = [(query, query.per_bin_variance_for(target))
                  for query, target in pairs]
        outcomes = self.mechanism.cached_answers_fast(analyst, view, probes,
                                                      prefix=True)
        hits = 0
        for i, outcome in enumerate(outcomes):
            if outcome is None:
                break
            hits += 1
            answers[i] = Answer(analyst, outcome.value, 0.0,
                                outcome.view_name, outcome.per_bin_variance,
                                outcome.answer_variance, True)
        self._note_fast_lane(hits=hits,
                             misses=1 if hits < len(pairs) else 0)
        return answers

    def try_submit(self, analyst: str, sql, accuracy: float | None = None,
                   epsilon: float | None = None) -> Answer | None:
        """Like :meth:`submit`, returning ``None`` instead of raising on
        rejection (workload loops)."""
        try:
            return self.submit(analyst, sql, accuracy=accuracy, epsilon=epsilon)
        except QueryRejected:
            return None

    # -- reporting --------------------------------------------------------------
    def analyst_consumed(self, analyst: str) -> float:
        self._check_analyst(analyst)
        return self.mechanism.analyst_consumed(analyst)

    def total_consumed(self) -> float:
        """Cumulative budget consumed by all analysts (sum of rows)."""
        return sum(self.mechanism.analyst_consumed(a) for a in self.analysts)

    def collusion_bound(self) -> float:
        return self.mechanism.collusion_bound()

    def provenance_matrix(self) -> np.ndarray:
        return self.provenance.as_matrix()


__all__ = ["Answer", "DProvDB"]
