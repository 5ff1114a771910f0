"""The timed pass: builds worlds through public constructors, drives call
streams through public entry points from one thread, and checks what
came back.

Nothing here wraps or patches the program: the timed pass depends on no
seam other than the constructors and the ``submit``/``submit_batch``
calls an analyst would make.  (The traced pass lives in ``trace.py``.)
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    Analyst,
    DurabilityManager,
    QueryRequest,
    QueryResponse,
    QueryService,
    RemoteAnalyst,
    ReproServer,
    load_adult,
)
from repro.db.sql.executor import execute
from repro.db.sql.parser import parse
from repro.metrics.tracing import Tracer

from workloads import (
    Catalog,
    Spec,
    Stream,
    pair_view_attributes,
    warmup_calls,
)

#: The dataset is the program's fixed input (Adult at paper scale,
#: 45,224 rows); only the traffic varies with ``--seed``.
DATA_SEED = 0

#: Slack of the program's own constraint comparisons is 1e-12; a check
#: from outside allows for float accumulation in the public totals.
CONSTRAINT_SLACK = 1e-9

#: Set-ups per run of a warmed (single-world) workload; the median is
#: reported.  Fresh-world workloads set up once per epoch anyway.
SETUP_REPEATS = 9

#: Answers checked against the exact executor per run, by scale (each
#: costs one exact scan of the 45,224-row table).
SAMPLE_TARGET = {"full": 1000, "smoke": 100}
SAMPLE_PER_EPOCH = 128

#: Peak RSS is read when a warmed workload has served this many epochs
#: (or at the end of the window if it never gets there): the program's
#: query log grows per query, so memory must be compared at a fixed
#: amount of work, not at whatever a faster build got through.
RSS_MARK_EPOCHS = {"cached_hot": 5, "adhoc_batch": 5}

#: One epoch in this many is replayed in-process and compared exactly.
REPLAY_EVERY = {"fresh_rounds": 16, "mix_remote": 4}


class CheckFailed(AssertionError):
    """An output check did not hold; the run is incorrect."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile of a sorted list and the number of samples
    strictly beyond it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- worlds ------------------------------------------------------------------------
@dataclass
class World:
    """One ready-to-serve instance of the program plus its client handles."""

    spec: Spec
    bundle: object
    service: QueryService
    names: list[str]
    sessions: list
    server: ReproServer | None = None
    clients: list = field(default_factory=list)
    remote_sessions: list = field(default_factory=list)
    data_dir: Path | None = None
    setup_s: float = 0.0

    @property
    def engine(self):
        return self.service.engine


def _analysts(spec: Spec) -> list[Analyst]:
    return [Analyst(f"analyst{i:02d}", privilege=p)
            for i, p in enumerate(spec.privileges())]


def build_world(spec: Spec, engine_seed: int, scratch: Path, *,
                remote: bool | None = None, observers: bool = True) -> World:
    """Everything needed before the first timed call, timed as set-up:
    dataset load, service (and daemon) build, view materialisation, view
    registration, sessions, connections and warm-up.

    ``remote=False`` builds the in-process twin of a remote workload (the
    sequential replay the wire is compared against).  ``observers=False``
    turns tracing and the audit trail off through the public constructor
    options.
    """
    started = time.perf_counter()
    remote = spec.remote if remote is None else remote
    bundle = load_adult(seed=DATA_SEED)
    catalog = Catalog.of(bundle)
    analysts = _analysts(spec)
    options = {} if observers else {"tracer": Tracer(enabled=False),
                                    "audit": False}
    data_dir = None
    if remote:
        data_dir = Path(tempfile.mkdtemp(prefix="data-", dir=scratch))
        options["durability"] = DurabilityManager(data_dir, fsync="batch")
    service = QueryService.build(bundle, analysts, spec.epsilon,
                                 seed=engine_seed, **options)
    service.engine.setup()
    for pair in pair_view_attributes(catalog, spec.pair_views):
        service.engine.register_view(pair)
    names = [a.name for a in analysts]
    world = World(spec, bundle, service, names,
                  [service.open_session(name) for name in names],
                  data_dir=data_dir)
    if remote:
        world.server = ReproServer(service, host="127.0.0.1", port=0).start()
        for name in names:
            client = RemoteAnalyst(world.server.url, token=name)
            world.clients.append(client)
            world.remote_sessions.append(client.open_session())
    if not spec.fresh_world:
        for who, sql, accuracy in warmup_calls(spec, catalog):
            response = service.submit(world.sessions[who], sql,
                                      accuracy=accuracy)
            require(response.ok, f"warm-up refused: {response.error}")
    world.setup_s = time.perf_counter() - started
    return world


def close_world(world: World) -> None:
    """Stop the daemon (if any), close the service, drop the data dir.
    The dead world is collected here and now, so that its garbage is not
    billed to whichever timed window or set-up comes next."""
    for client in world.clients:
        client.close()
    if world.server is not None:
        world.server.shutdown()      # drains, then closes the service
    else:
        world.service.close()
    if world.data_dir is not None:
        shutil.rmtree(world.data_dir, ignore_errors=True)
    world.service = world.server = None
    gc.collect()


def recover_twin(world: World) -> tuple[float, float]:
    """Drain ``world``'s daemon, checkpoint, and recover its data dir into
    a fresh service, whose totals must be bit-equal to the live ones.
    Returns (checkpoint seconds, recovery seconds)."""
    live = world.engine.provenance.row_totals()
    for client in world.clients:
        client.close()
    world.clients.clear()
    world.server.shutdown()
    world.server = None
    started = time.perf_counter()
    world.service.checkpoint()
    checkpoint_s = time.perf_counter() - started
    started = time.perf_counter()
    twin = QueryService.build(
        world.bundle, _analysts(world.spec), world.spec.epsilon, seed=0,
        durability=DurabilityManager(world.data_dir, fsync="batch"))
    recover_s = time.perf_counter() - started
    recovered = twin.engine.provenance.row_totals()
    twin.close()
    require(live == recovered, "totals recovered after the restart differ "
            "from the live totals")
    return checkpoint_s, recover_s


# -- entry points (outermost depths) ----------------------------------------------
def prepare(spec: Spec, calls: list[tuple]) -> list[tuple]:
    """Client-side request objects, built outside the timed window."""
    if not spec.batch:
        return calls
    return [(who, [QueryRequest(sql, accuracy=accuracy)
                   for sql, accuracy in items]) for who, items in calls]


def service_entry(world: World):
    """``QueryService.submit`` / ``submit_batch`` on the world's own
    in-process sessions."""
    sessions = world.sessions
    if world.spec.batch:
        submit_batch = world.service.submit_batch
        return lambda call: submit_batch(sessions[call[0]], call[1])
    submit = world.service.submit
    return lambda call: submit(sessions[call[0]], call[1], accuracy=call[2])


def user_entry(world: World):
    """The call an analyst of this workload makes: ``RemoteAnalyst.submit``
    over the wire when the world has a daemon, else the service call."""
    if not world.clients:
        return service_entry(world)
    clients, sessions = world.clients, world.remote_sessions
    return lambda call: clients[call[0]].submit(sessions[call[0]], call[1],
                                                accuracy=call[2])


def drive(entry, calls: list) -> tuple[float, list[float], list]:
    """Closed loop, one request in flight: returns (window seconds,
    per-call seconds, raw results).  One clock read per call; results are
    kept and examined only after the window closes."""
    count = len(calls)
    latencies = [0.0] * count
    results = [None] * count
    clock = time.perf_counter
    index = 0
    started = previous = clock()
    for call in calls:
        results[index] = entry(call)
        now = clock()
        latencies[index] = now - previous
        previous = now
        index += 1
    return previous - started, latencies, results


# -- what came back ---------------------------------------------------------------
@dataclass
class Tally:
    """Exact outcome counts of a sequence of responses.  ``epsilon`` adds
    charges per analyst in arrival order, so two passes over the same
    stream agree bit for bit or not at all."""

    attempted: int = 0
    answered: int = 0
    rejected: int = 0
    failed: int = 0
    fresh: int = 0
    cached: int = 0
    epsilon: dict = field(default_factory=dict)

    def add(self, who: int, response: QueryResponse) -> None:
        self.attempted += 1
        if not response.ok:
            if response.rejected:
                self.rejected += 1
            else:
                self.failed += 1
            return
        self.answered += 1
        for answer in response.answers():
            if answer.cache_hit:
                self.cached += 1
            else:
                self.fresh += 1
            self.epsilon[who] = self.epsilon.get(who, 0.0) \
                + answer.epsilon_charged

    def merge(self, other: "Tally") -> None:
        for name in ("attempted", "answered", "rejected", "failed",
                     "fresh", "cached"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for who, value in other.epsilon.items():
            self.epsilon[who] = self.epsilon.get(who, 0.0) + value

    @property
    def epsilon_total(self) -> float:
        return math.fsum(self.epsilon.values())

    def key(self) -> tuple:
        return (self.attempted, self.answered, self.rejected, self.failed,
                self.fresh, self.cached, sorted(self.epsilon.items()))


def flatten(calls: list[tuple], results: list) -> list[tuple]:
    """(who, sql, response) per *query*, whichever shape the calls had."""
    out = []
    for call, result in zip(calls, results):
        if isinstance(result, list):
            out += [(call[0], request.sql, response)
                    for request, response in zip(call[1], result)]
        else:
            out.append((call[0], call[1], result))
    return out


def tally_of(flat: list[tuple]) -> Tally:
    tally = Tally()
    for who, _, response in flat:
        tally.add(who, response)
    return tally


def sample_answers(flat: list[tuple], rng, count: int) -> list[tuple]:
    """Up to ``count`` released values as (sql, group key, value, variance)."""
    answered = [item for item in flat if item[2].ok]
    picks = rng.choice(len(answered), size=min(count, len(answered)),
                       replace=False) if answered else []
    out = []
    for index in picks:
        _, sql, response = answered[int(index)]
        if response.answer is not None:
            answer = response.answer
            out.append((sql, None, answer.value, answer.answer_variance))
        else:
            key, answer = response.groups[
                int(rng.integers(0, len(response.groups)))]
            out.append((sql, tuple(key), answer.value,
                        answer.answer_variance))
    return out


# -- checks -----------------------------------------------------------------------
def check_constraints(world: World) -> None:
    """No row, column or table total exceeds its constraint (additive
    accounting: column composite is the max, the table sums the maxima)."""
    engine = world.engine
    provenance, constraints = engine.provenance, engine.constraints
    for name, spent in provenance.row_totals().items():
        require(spent <= constraints.analyst_limit(name) + CONSTRAINT_SLACK,
                f"analyst {name} spent {spent} over its constraint")
    for view in engine.registry.view_names:
        require(provenance.column_max(view)
                <= constraints.view_limit(view) + CONSTRAINT_SLACK,
                f"view {view} over its constraint")
    require(provenance.table_max_composite()
            <= constraints.table + CONSTRAINT_SLACK,
            "table constraint exceeded")


def check_sample(bundle, sample: list[tuple], sigmas: float = 5.0,
                 allowed_misses: int = 1) -> int:
    """Each sampled value lies within ``sigmas`` standard deviations of
    the exact answer computed by ``repro.db.sql.executor``."""
    table = bundle.database.table(bundle.fact_table)
    exact: dict[str, object] = {}
    misses = 0
    for sql, key, value, variance in sample:
        if sql not in exact:
            result = execute(parse(sql), table)
            exact[sql] = result.scalar() if key is None \
                else result.as_dict()
        truth = exact[sql] if key is None \
            else exact[sql].get(key[0] if len(key) == 1 else key, 0.0)
        if abs(value - truth) > sigmas * math.sqrt(variance):
            misses += 1
    require(misses <= allowed_misses,
            f"{misses} of {len(sample)} sampled answers lie beyond "
            f"{sigmas} sigma of the exact answer")
    return misses


# -- the timed pass -----------------------------------------------------------------
def timed_pass(spec: Spec, seed: int, seconds: float, scale: str,
               scratch: Path) -> dict:
    """Nothing wrapped: whole epochs through the user's entry point until
    ``seconds`` of window time have elapsed, then the output checks."""
    bundle = load_adult(seed=DATA_SEED)
    stream = Stream(spec, Catalog.of(bundle), seed, scale)
    sampler = np.random.default_rng(seed)
    setups: list[float] = []
    rates: list[float] = []
    p50s: list[float] = []
    p99s: list[float] = []
    calls_done = beyond = 0
    sample: list[tuple] = []
    total = Tally()
    replayed = 0
    rss = None
    window = 0.0
    first_flat = None

    world = None
    if not spec.fresh_world:
        for _ in range(SETUP_REPEATS):
            if world is not None:
                close_world(world)
            world = build_world(spec, stream.engine_seed(0), scratch)
            setups.append(world.setup_s)
    epoch = 0
    while epoch == 0 or window < seconds:
        calls = prepare(spec, stream.epoch(epoch))
        if spec.fresh_world:
            world = build_world(spec, stream.engine_seed(epoch), scratch)
        elapsed, per_call, results = drive(user_entry(world), calls)
        window += elapsed
        rates.append(stream.queries_per_epoch / elapsed)
        per_call.sort()
        p50s.append(percentile(per_call, 0.50)[0])
        p99, over = percentile(per_call, 0.99)
        p99s.append(p99)
        calls_done += len(per_call)
        beyond += over
        flat = flatten(calls, results)
        tally = tally_of(flat)
        total.merge(tally)
        sample += sample_answers(flat, sampler, SAMPLE_PER_EPOCH)
        if epoch == 0:
            first_flat = flat
        if spec.fresh_world:
            check_constraints(world)
            restart = sum(recover_twin(world)) if spec.remote else 0.0
            setups.append(world.setup_s + restart)
            close_world(world)
            if epoch % REPLAY_EVERY[spec.name] == 0:
                replayed += 1
                _check_replay(spec, stream, epoch, tally, flat, scratch)
        epoch += 1
        if rss is None and epoch == RSS_MARK_EPOCHS.get(spec.name):
            rss = rss_mib()
    if rss is None:
        rss = rss_mib()

    if not spec.fresh_world:
        check_constraints(world)
        require(total.fresh == 0 and total.epsilon_total == 0.0,
                f"{spec.name} charged epsilon {total.epsilon_total} in "
                f"the timed window (must be served from cache)")
        close_world(world)
        replayed = 1
        _check_replay(spec, stream, 0, tally_of(first_flat), first_flat,
                      scratch)
    require(total.failed == 0, f"{total.failed} queries failed")
    if len(sample) > SAMPLE_TARGET[scale]:
        picks = sampler.choice(len(sample), size=SAMPLE_TARGET[scale],
                               replace=False)
        sample = [sample[int(i)] for i in picks]
    misses = check_sample(bundle, sample)

    return {
        "metrics": {
            "queries_per_s": statistics.median(rates),
            "latency_p50_ms": 1e3 * statistics.median(p50s),
            "latency_p99_ms": 1e3 * statistics.median(p99s),
            "answered_share": total.answered / total.attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        },
        "attempted": total.attempted,
        "failed": total.failed,
        "detail": {
            "epochs": epoch, "window_s": window,
            "calls": calls_done, "p99_samples_beyond": beyond,
            "epoch_rates": rates, "epoch_p99_ms": [1e3 * v for v in p99s],
            "rate_samples": len(rates), "setup_samples": len(setups),
            "answered": total.answered, "rejected": total.rejected,
            "fresh": total.fresh, "cached": total.cached,
            "epsilon_charged": total.epsilon_total,
            "epsilon_per_answer": total.epsilon_total / total.answered,
            "epochs_replayed": replayed,
            "answers_sampled": len(sample), "sample_misses": misses,
            "stream_sha256": stream.sha256(), "why": spec.why,
        },
    }


def _check_replay(spec: Spec, stream: Stream, epoch: int, tally: Tally,
                  flat: list[tuple], scratch: Path) -> None:
    """Exact outcome counts, per-analyst epsilon and released values equal
    a sequential in-process replay of the same epoch on a fresh world (for
    ``mix_remote`` this is the wire-equals-in-process check)."""
    twin = build_world(spec, stream.engine_seed(epoch), scratch,
                               remote=False)
    try:
        calls = prepare(spec, stream.epoch(epoch))
        _, _, results = drive(user_entry(twin), calls)
    finally:
        close_world(twin)
    again = flatten(calls, results)
    require(tally_of(again).key() == tally.key(),
                    f"epoch {epoch}: outcome counts or epsilon differ from "
                    f"the in-process sequential replay")
    values = [[a.value for a in r.answers()] for _, _, r in flat]
    require(values == [[a.value for a in r.answers()]
                               for _, _, r in again],
                    f"epoch {epoch}: released values differ from the "
                    f"in-process sequential replay")



__all__ = ["CheckFailed", "Tally", "World", "build_world", "check_constraints",
           "check_sample", "close_world", "drive", "flatten", "prepare",
           "recover_twin", "require", "sample_answers", "service_entry",
           "tally_of", "timed_pass", "user_entry"]
