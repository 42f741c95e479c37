"""The serving workloads: set-up, the measured loop, the checks.

Every workload builds its dataset and fits its parser inside the run;
the seed only decides which question each request asks and in what
order, so the set of questions, and with it ``ex_acc``, is the same for
every seed.  The program sees nothing but the generated requests.

``warm_15b_30ms``
    Spider-like, 3 dev databases, ``codes-15b``, one in-process
    ``Server``.  Engines are warmed (``Server.warm`` plus one untimed
    pass over the questions) before timing.  Closed loop, 8 requests
    outstanding, ``ServiceModel(full_s=0.03)`` emulating model latency.
    At 15b candidate_gen + rank dominate stage time and per-database
    prep is already paid, so hot-path work shows here and cold-start
    work should not.  The emulated latency keeps the benchmark process
    from saturating a core: fully CPU-bound, every number on a shared
    2-vCPU host swung with the host's speed (up to 1.8x between
    minutes), while the engine's ~25 ms of CPU is still about half of a
    request.
``sharded_2w_60ms``
    Spider-like, 8 dev databases, ``codes-1b``, a ``ShardRouter`` over
    2 forked ``ProcessWorkerHandle`` workers on a balanced ring, with
    ``ServiceModel(full_s=0.06)`` emulating model latency.  Open loop:
    a fixed Poisson arrival trace near 60% of capacity, each request
    timed from when it was due.  Engine CPU is a small share of a
    request, so queueing, dispatch, the pipe and the router's poll loop
    set latency.
"""

from __future__ import annotations

import gc
import multiprocessing
import random
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

from repro import CodeSParser, build_spider, pair_samples
from repro.datasets.spider import SpiderConfig
from repro.engine import STAGE_NAMES, StageLatencyInjector
from repro.eval.execution import execution_match
from repro.serving import (
    Completed,
    ProcessWorkerHandle,
    ServeRequest,
    Server,
    ServerConfig,
    ServiceModel,
    ShardingConfig,
    ShardMap,
    ShardRouter,
    default_worker_ids,
)
from repro.serving.sharding import Warm

import measure

#: Real-time poll cadence of the open-loop generator while work is in flight.
POLL_S = 0.002
#: Fresh Servers each closed-loop set-up builds to probe first requests.
COLD_PROBES = 4

#: Watermarks far above any reachable depth: every request runs the
#: full tier, so answers are comparable across workloads and with the
#: in-process reference.
SERVER_CONFIG = ServerConfig(
    queue_capacity=512,
    batch_size=8,
    skeleton_watermark=100_000,
    sentinel_watermark=200_000,
)

#: Shard workers run requests one at a time: a micro-batch returns its
#: outcomes together, so under open-loop arrivals batch composition
#: (which requests happen to share a database in the queue) would set
#: the latency tail and swing it from run to run.
WORKER_CONFIG = replace(SERVER_CONFIG, batch_size=1)

SHARDING_CONFIG = ShardingConfig(
    # A worker mid-batch answers its heartbeat late; give it headroom
    # before supervision calls that a crash.
    heartbeat_interval_s=2.0,
    heartbeat_timeout_s=10.0,
    control_timeout_s=60.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: Callable
    model: str
    #: "closed" (clients wait for replies) or "open" (arrivals on a schedule).
    loop: str
    clients: int = 8
    workers: int = 0
    service_s: float = 0.0
    rate_rps: float = 0.0

    def params(self) -> dict:
        params = {"model": self.model, "loop": self.loop}
        if self.loop == "closed":
            params["clients"] = self.clients
        else:
            params["rate_rps"] = self.rate_rps
            params["workers"] = self.workers
        params["service_s"] = self.service_s
        return params


WORKLOADS = {
    "warm_15b_30ms": Workload(
        name="warm_15b_30ms",
        dataset=lambda: build_spider(SpiderConfig(n_dev_databases=3)),
        model="codes-15b",
        loop="closed",
        service_s=0.03,
    ),
    "sharded_2w_60ms": Workload(
        name="sharded_2w_60ms",
        dataset=lambda: build_spider(
            SpiderConfig(n_dev_databases=8, dev_per_database=12)
        ),
        model="codes-1b",
        loop="open",
        workers=2,
        service_s=0.06,
        rate_rps=17.0,
    ),
}


# -- set-up ------------------------------------------------------------------


@dataclass
class Setup:
    workload: Workload
    dataset: object
    parser: CodeSParser
    front: object
    #: The dev examples the run asks.
    timed: list
    timings: dict[str, float]
    #: db_id -> latency of each first request to that database on a
    #: fresh engine, observed alone after the warm-up.
    cold_first: dict[str, list[float]] = field(default_factory=dict)
    router: ShardRouter | None = None

    @property
    def seconds(self) -> float:
        return sum(self.timings.values())

    def close(self) -> None:
        if self.router is not None:
            self.router.shutdown()
            self.router = None


def _first_per_db(examples) -> list:
    firsts: dict[str, object] = {}
    for example in examples:
        firsts.setdefault(example.db_id, example)
    return list(firsts.values())


def _slow_down(parser: CodeSParser, stage: str) -> StageLatencyInjector:
    """Make every engine ``parser`` builds sleep before ``stage``.

    The delay starts at 0; the caller sets it once the stage's mean is
    measured.
    """
    injector = StageLatencyInjector(stage, 0.0)
    build = parser.build_engine
    parser.build_engine = lambda middleware=(), cache=None: build(
        middleware=(*middleware, injector), cache=cache
    )
    return injector


def _stage_mean_s(parser, dataset, examples, stage: str) -> float:
    """Mean wall time of ``stage`` over ``examples`` on a throwaway Server."""
    server = Server(parser, dataset.databases, config=SERVER_CONFIG)
    for index, example in enumerate(examples):
        server.submit(_request(f"cal{index}", example))
    walls = [
        trace.wall_s
        for outcome in server.drain()
        for trace in outcome.trace.stages
        if trace.stage == stage
    ]
    return measure.mean(walls)


def _request(request_id: str, example) -> ServeRequest:
    return ServeRequest(
        request_id=request_id, question=example.question, db_id=example.db_id
    )


def _balanced_ring_seed(db_ids, workers: int) -> int:
    """The first ring seed that splits ``db_ids`` evenly over ``workers``."""
    best = None
    for seed in range(200):
        shard_map = ShardMap(default_worker_ids(workers), seed=seed)
        counts = [len(dbs) for dbs in shard_map.assignments(db_ids).values()]
        spread = max(counts) - min(counts)
        if best is None or spread < best[1]:
            best = (seed, spread)
        if spread == 0:
            break
    return best[0]


def build_setup(workload: Workload, slow_stage: str | None = None) -> Setup:
    """Build dataset, parser and front end, then warm up; timed per step."""
    timings: dict[str, float] = {}
    started = time.perf_counter()
    dataset = workload.dataset()
    timings["dataset_s"] = time.perf_counter() - started

    started = time.perf_counter()
    parser = CodeSParser(workload.model)
    parser.fit(pair_samples(dataset))
    timings["fit_s"] = time.perf_counter() - started

    timed = list(dataset.dev)
    if slow_stage is not None:
        # Untimed: the self-test doubles one stage by its own mean,
        # measured before any engine is forked.
        injector = _slow_down(parser, slow_stage)
        injector.delay_s = _stage_mean_s(parser, dataset, timed[:16], slow_stage)

    setup = Setup(workload, dataset, parser, None, timed, timings)
    if workload.loop == "open":
        _start_router(setup)
    else:
        started = time.perf_counter()
        setup.front = Server(parser, dataset.databases, config=SERVER_CONFIG)
        timings["fork_s"] = time.perf_counter() - started
        started = time.perf_counter()
        _warm_server(setup)
        # Emulated model latency only from here: the warm-up builds
        # caches, it does not model traffic.
        setup.front.service_model = ServiceModel(full_s=workload.service_s)
        timings["warm_s"] = time.perf_counter() - started
        setup.cold_first = _cold_probe(setup)
    return setup


def _warm_server(setup: Setup) -> None:
    """Build every dev engine, then one untimed pass over the questions.

    A question's first sight costs about 1.7x its repeats (value
    retrieval and linking scores are cached per question).  Left in the
    timed window, that first pass is a tenth of the requests and sets
    the p95, so the window measures the repeat regime only.
    """
    server = setup.front
    for db_id in sorted({example.db_id for example in setup.timed}):
        server.warm(db_id)
    for index, example in enumerate(setup.timed):
        server.submit(_request(f"warm{index}", example))
    _expect_completed(server.drain())


def _cold_probe(setup: Setup) -> dict[str, list[float]]:
    """First-request latency per dev database on fresh Servers (untimed).

    Each request is sent alone, so the number is the per-database build
    plus one answer, without queueing.  Every set-up of a run probes,
    so the samples come from moments seconds apart.
    """
    latencies: dict[str, list[float]] = {}
    firsts = _first_per_db(setup.timed)
    service = ServiceModel(full_s=setup.workload.service_s)
    for round_ in range(COLD_PROBES):
        server = Server(
            setup.parser, setup.dataset.databases, config=SERVER_CONFIG,
            service_model=service,
        )
        for index, example in enumerate(firsts):
            started = time.perf_counter()
            server.submit(_request(f"probe{round_}.{index}", example))
            outcomes = server.step()
            latencies.setdefault(example.db_id, []).append(
                time.perf_counter() - started
            )
            _expect_completed(outcomes)
    return latencies


def _expect_completed(outcomes) -> None:
    for outcome in outcomes:
        if not isinstance(outcome, Completed):
            raise RuntimeError(f"warm-up request did not complete: {outcome!r}")


def _start_router(setup: Setup) -> None:
    """Fork the workers, warm their engines, then one first request per db."""
    workload, dataset, parser = setup.workload, setup.dataset, setup.parser
    db_ids = sorted({example.db_id for example in dataset.dev})
    service = ServiceModel(full_s=workload.service_s)

    def server_factory():
        # Runs post-fork inside each worker: fresh connections and
        # engines over the fitted parser inherited by fork.
        return Server(
            parser, dataset.databases, config=WORKER_CONFIG,
            service_model=service,
        )

    started = time.perf_counter()
    shard_map = ShardMap(
        default_worker_ids(workload.workers),
        virtual_nodes=SHARDING_CONFIG.virtual_nodes,
        seed=_balanced_ring_seed(db_ids, workload.workers),
    )
    router = ShardRouter(
        shard_map,
        lambda worker_id: ProcessWorkerHandle(worker_id, server_factory),
        db_ids,
        config=SHARDING_CONFIG,
    )
    setup.front = setup.router = router
    for worker_id, shard in shard_map.assignments(db_ids).items():
        router.handles[worker_id].send(Warm(db_ids=shard))
    router.metrics()  # readiness barrier: commands are processed in order
    setup.timings["fork_s"] = time.perf_counter() - started

    started = time.perf_counter()
    for index, example in enumerate(_first_per_db(dataset.dev)):
        submitted = time.perf_counter()
        if router.submit(_request(f"warm{index}", example)) is not None:
            raise RuntimeError("warm-up request was shed")
        outcomes: list = []
        while not outcomes:
            router.tick()
            outcomes = router.poll()
            if not outcomes:
                time.sleep(POLL_S)
        setup.cold_first[example.db_id] = [time.perf_counter() - submitted]
        _expect_completed(outcomes)
    setup.timings["warm_s"] = time.perf_counter() - started


def repeat_setups(workload: Workload, count: int) -> list[tuple[float, dict]]:
    """Build and tear down ``count`` more set-ups: (seconds, cold_first) each."""
    done = []
    for _ in range(count):
        gc.collect()
        setup = build_setup(workload)
        setup.close()
        done.append((setup.seconds, setup.cold_first))
    return done


# -- the measured run --------------------------------------------------------


@dataclass
class Tally:
    """What one measured run observed, request by request and call by call."""

    sent: int = 0
    steps: int = 0
    failures: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    #: timed-example index -> every SQL returned for it
    answers: dict[int, set] = field(default_factory=dict)
    #: request_id -> timed-example index
    example_of: dict[str, int] = field(default_factory=dict)
    #: request_id -> request and returned SQL
    requests: dict[str, ServeRequest] = field(default_factory=dict)
    sql: dict[str, str] = field(default_factory=dict)
    started: float = 0.0
    ended: float = 0.0
    cpu_s: float = 0.0
    # -- traced half of a --trace 1 run only ---------------------------------
    submit_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    step_items: int = 0
    service_s: float = 0.0
    queue_waits: list[float] = field(default_factory=list)
    delivery: list[float] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    front_s: float = 0.0
    stage_s: dict[str, float] = field(default_factory=dict)
    cand_out: dict[str, int] = field(default_factory=dict)
    exec_used: int = 0
    exec_avoided: int = 0
    #: requests whose stage traces were summed into the fields above
    staged_requests: int = 0
    traced_requests: int = 0
    #: traced (True) vs untraced (False): completions and loop seconds
    #: (closed loop), latencies (open loop)
    mode_done: dict[bool, int] = field(default_factory=lambda: {True: 0, False: 0})
    mode_s: dict[bool, float] = field(default_factory=lambda: {True: 0.0, False: 0.0})
    mode_latencies: dict[bool, list] = field(
        default_factory=lambda: {True: [], False: []}
    )
    #: metric deltas of the Server or merged cluster over the window
    server_deltas: list[dict] = field(default_factory=list)
    #: extra per-layer numbers a workload adds (sharding)
    extra: dict[str, float] = field(default_factory=dict)

    def request(self, index: int, example) -> ServeRequest:
        request = _request(f"r{self.sent:06d}", example)
        self.example_of[request.request_id] = index
        self.requests[request.request_id] = request
        self.sent += 1
        return request

    def answer(self, request, outcome, latency_s: float) -> None:
        self.latencies.append(latency_s)
        self.sql[request.request_id] = outcome.sql
        index = self.example_of[request.request_id]
        self.answers.setdefault(index, set()).add(outcome.sql)

    def trace(self, outcome) -> None:
        self.traced_requests += 1
        self.queue_waits.append(outcome.queue_s)
        self.add_stages(outcome.trace)

    def add_stages(self, trace) -> None:
        self.staged_requests += 1
        for stage in trace.stages:
            self.stage_s[stage.stage] = self.stage_s.get(stage.stage, 0.0) + stage.wall_s
            self.cand_out[stage.stage] = (
                self.cand_out.get(stage.stage, 0) + stage.candidates_out
            )
            self.exec_used += stage.executions_used
            self.exec_avoided += stage.executions_avoided


def _metrics_delta(before, after) -> dict:
    """Counters one Server (or the merged cluster) accrued between snapshots."""
    return {
        "completed": after.completed - before.completed,
        "batches": after.batches - before.batches,
        "batched": after.mean_batch_occupancy * after.batches
        - before.mean_batch_occupancy * before.batches,
        "cache_hits": after.cache_hits - before.cache_hits,
        "cache_misses": after.cache_misses - before.cache_misses,
        "cache_evictions": after.cache_evictions - before.cache_evictions,
        "provider_requests": after.provider_requests - before.provider_requests,
        "provider_retries": after.provider_retries - before.provider_retries,
        "provider_failovers": after.provider_failovers - before.provider_failovers,
        "stage_wall_s": {
            stage: after.stage_wall_s.get(stage, 0.0)
            - before.stage_wall_s.get(stage, 0.0)
            for stage in STAGE_NAMES
        },
    }


def run_closed(setup: Setup, seconds: float, seed: int, traced: bool) -> Tally:
    """Closed loop: ``clients`` requests outstanding until ``seconds`` pass.

    With ``traced`` the benchmark's own per-call timers run on every
    other loop step; the per-layer numbers come from that half and
    ``trace.overhead_frac`` compares it with the untraced half.
    """
    rng = random.Random(seed)
    tally = Tally()
    server = setup.front
    before = server.metrics()
    cpu_started = time.process_time()
    tally.started = time.perf_counter()
    deadline = tally.started + seconds
    while time.perf_counter() < deadline:
        order = list(enumerate(setup.timed))
        rng.shuffle(order)
        _closed_pass(server, order, setup.workload.clients, deadline, tally, traced)
    tally.cpu_s = time.process_time() - cpu_started
    tally.server_deltas.append(_metrics_delta(before, server.metrics()))
    return tally


def _closed_pass(server, order, clients, deadline, tally, traced) -> None:
    """One shuffled pass over the timed questions, drained at the end."""
    queue = deque(order)
    #: request_id -> (request, submitted_at)
    outstanding: dict[str, tuple] = {}
    freed_at = time.perf_counter()
    while queue or outstanding:
        loop_started = time.perf_counter()
        tracing = traced and tally.steps % 2 == 1
        tally.steps += 1
        if loop_started >= deadline:
            queue.clear()  # time is up: stop refilling, drain what is out
        while queue and len(outstanding) < clients:
            index, example = queue.popleft()
            request = tally.request(index, example)
            submitted = time.perf_counter()
            shed = server.submit(request)
            if tracing:
                tally.submit_s.append(time.perf_counter() - submitted)
                tally.lags.append(submitted - freed_at)
            if shed is not None:
                tally.failures.append(f"{request.request_id}: {shed!r}")
                continue
            outstanding[request.request_id] = (request, submitted)
        if not outstanding:
            break
        stepped = time.perf_counter()
        outcomes = server.step()
        done = freed_at = time.perf_counter()
        for outcome in outcomes:
            request, submitted = outstanding.pop(outcome.request.request_id)
            if not isinstance(outcome, Completed):
                tally.failures.append(f"{request.request_id}: {outcome!r}")
                continue
            latency = done - submitted
            tally.answer(request, outcome, latency)
            if tracing:
                tally.trace(outcome)
                tally.delivery.append(latency - outcome.latency_s)
        if tracing:
            tally.step_s.append(done - stepped)
            tally.step_items += len(outcomes)
            tally.front_s += stepped - loop_started
        tally.mode_done[tracing] += len(outcomes)
        tally.mode_s[tracing] += done - loop_started
        tally.ended = done


def _arrivals(setup: Setup, seconds: float, seed: int, tally: Tally) -> list:
    """The open-loop schedule: a fixed Poisson trace, seeded questions.

    Arrival times (``rate * seconds`` of them, uniform on
    ``[0, seconds)``, i.e. Poisson conditioned on the count) and the
    shard each arrival targets come from one fixed trace, so every run
    offers the same load shape.  With a few hundred samples the p95 of
    an open-loop queue is set by which arrivals happen to collide on a
    worker, which swings it by a quarter from schedule to schedule;
    replaying one trace keeps the number comparable across runs and
    commits.  ``seed`` draws the questions: each shard cycles through
    fresh seeded shuffles of its own timed questions, so consecutive
    arrivals hit different databases.
    """
    workload = setup.workload
    trace = random.Random(f"arrival-trace:{workload.name}")
    count = max(1, round(workload.rate_rps * seconds))
    times = sorted(trace.uniform(0.0, seconds) for _ in range(count))
    workers = setup.router.shard_map.workers
    targets = [workers[trace.randrange(len(workers))] for _ in range(count)]
    rng = random.Random(seed)
    owner = setup.router.shard_map.owner
    cycles = {
        worker: [
            (index, example)
            for index, example in enumerate(setup.timed)
            if owner(example.db_id) == worker
        ]
        for worker in workers
    }
    queues: dict[str, list] = {worker: [] for worker in workers}
    arrivals = []
    for at, worker in zip(times, targets):
        if not queues[worker]:
            queues[worker] = list(cycles[worker])
            rng.shuffle(queues[worker])
        index, example = queues[worker].pop()
        arrivals.append((at, tally.request(index, example)))
    return arrivals


def _worker_pids() -> list[int]:
    return sorted(
        child.pid
        for child in multiprocessing.active_children()
        if child.name.startswith("shard-")
    )


def run_open(setup: Setup, seconds: float, seed: int, traced: bool) -> Tally:
    """Open loop through the router; latency counts from each due time.

    With ``traced`` every other request is traced (see :func:`run_closed`).
    """
    router = setup.router
    tally = Tally()
    arrivals = _arrivals(setup, seconds, seed, tally)
    before = router.metrics()
    pids = _worker_pids()
    worker_cpu = [measure.proc_cpu_s(pid) for pid in pids]
    cpu_started = time.process_time()
    #: request_id -> (request, due_at, submitted_at, traced)
    pending: dict[str, tuple] = {}
    completed_by_owner: dict[str, int] = {}
    submit_s = poll_s = 0.0
    started = tally.started = time.perf_counter()
    position = 0
    while position < len(arrivals) or router.has_work():
        now = time.perf_counter()
        while position < len(arrivals) and started + arrivals[position][0] <= now:
            at, request = arrivals[position]
            position += 1
            due = started + at
            submitted = time.perf_counter()
            shed = router.submit(request)
            after = time.perf_counter()
            tracing = traced and position % 2 == 0
            if tracing:
                tally.submit_s.append(after - submitted)
                tally.lags.append(submitted - due)
            submit_s += after - submitted
            if shed is not None:
                tally.failures.append(f"{request.request_id}: {shed!r}")
                continue
            pending[request.request_id] = (request, due, submitted, tracing)
        polled = time.perf_counter()
        router.tick()
        router.pump()
        outcomes = router.poll()
        done = time.perf_counter()
        poll_s += done - polled
        for outcome in outcomes:
            request, due, submitted, tracing = pending.pop(outcome.request.request_id)
            if not isinstance(outcome, Completed):
                tally.failures.append(f"{request.request_id}: {outcome!r}")
                continue
            latency = done - due
            tally.answer(request, outcome, latency)
            tally.ended = done
            owner = router.shard_map.owner(request.db_id)
            completed_by_owner[owner] = completed_by_owner.get(owner, 0) + 1
            tally.mode_latencies[tracing].append(latency)
            if tracing:
                tally.traced_requests += 1
                tally.queue_waits.append(outcome.queue_s)
                tally.delivery.append((done - submitted) - outcome.latency_s)
                tally.service_s += outcome.latency_s - outcome.queue_s
        # Poll on a short cadence while work is in flight; otherwise
        # sleep straight to the next arrival.
        wait = POLL_S if pending or position == len(arrivals) else float("inf")
        if position < len(arrivals):
            wait = min(wait, started + arrivals[position][0] - time.perf_counter())
        if wait > 0:
            time.sleep(wait)
    tally.cpu_s = time.process_time() - cpu_started + sum(
        measure.proc_cpu_s(pid) - cpu for pid, cpu in zip(pids, worker_cpu)
    )
    after = router.metrics()
    tally.server_deltas.append(_metrics_delta(before, after))
    tally.front_s = submit_s + poll_s
    tally.extra["incidents"] = len(router.failures)
    tally.extra["worker_rss_mb"] = sum(measure.proc_peak_rss_mb(pid) for pid in pids)
    counts = [completed_by_owner.get(worker, 0) for worker in router.shard_map.workers]
    tally.extra["shard_skew"] = max(counts) / max(1, min(counts))
    return tally


def sharded_drift(setup: Setup, tally: Tally) -> int:
    """Replay the run's requests on an in-process Server; count SQL drift.

    Byte-identical SQL is the sharding layer's correctness contract.
    Traces are dropped at the process pipe, so the reference's stage
    traces supply the per-request candidate and execution counts.
    """
    server = Server(setup.parser, setup.dataset.databases, config=SERVER_CONFIG)
    requests = list(tally.requests.values())
    drift = 0
    capacity = SERVER_CONFIG.queue_capacity
    for start in range(0, len(requests), capacity):
        for request in requests[start:start + capacity]:
            server.submit(request)
        for outcome in server.drain():
            if tally.sql.get(outcome.request.request_id) != outcome.sql:
                drift += 1
            tally.add_stages(outcome.trace)
    return drift


# -- correctness -------------------------------------------------------------


def check(setup: Setup, tally: Tally) -> tuple[float, list[str]]:
    """``ex_acc`` over the timed questions, and every failed check.

    A run is wrong when any request failed or was shed, when a timed
    question went unanswered (the run was too short to cover the set),
    when one question got two different answers, or — sharded — when
    any answer differs from the in-process reference or the router
    logged an incident.
    """
    problems = list(tally.failures)
    missing = len(setup.timed) - len(tally.answers)
    if missing:
        problems.append(f"{missing} timed questions never answered")
    unstable = sorted(index for index, sqls in tally.answers.items() if len(sqls) > 1)
    if unstable:
        problems.append(f"questions with more than one answer: {unstable[:5]}")
    hits = 0
    for index, sqls in tally.answers.items():
        example = setup.timed[index]
        database = setup.dataset.databases[example.db_id]
        hits += execution_match(database, min(sqls), example.sql)
    ex_acc = hits / len(tally.answers) if tally.answers else 0.0
    if setup.workload.loop == "open":
        drift = sharded_drift(setup, tally)
        if drift:
            problems.append(f"{drift} sharded answers differ from the in-process Server")
        if tally.extra["incidents"]:
            problems.append(f"{tally.extra['incidents']} router incidents")
    return ex_acc, problems
