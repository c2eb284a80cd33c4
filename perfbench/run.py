"""Front-door benchmark for the KOR serving stack.

Runs one named workload through the public front door -- ``KORApp``
over ``build_service(..., tier="async", backend="process",
workers=nproc)``, driven in-process over ASGI by a single-process
asyncio load generator -- checks every answer, and prints every metric
by name with its unit.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flickr-open --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans recorded around calls
into each layer's public functions (from this benchmark's own files;
the program is not instrumented), replays the workload's unique queries
on an in-process twin for the ``prep``/``index`` rows, runs the
ablation deployments, and reports the per-layer metrics and the
stage x workload table.

Workloads (why each exists is in ``BENCHMARK.json``; pools are pinned
and the seed draws the traffic, see ``inputs.py``):

* ``flickr-open`` -- flat deployment over flickr (610 nodes), open loop:
  ``30 * seconds`` Poisson arrivals of single ``POST /query`` requests,
  Zipf(s=1) over a pool of 80 unique queries (2-6 keywords, Delta = 6
  km) asked with BucketBound / OSScaling / Greedy in 8:1:1, served as
  five rounds of ``seconds / 5`` on the run's fresh deployments; the
  medians over rounds are reported.
* ``flickr-batch`` -- live-world (sharded) deployment over flickr, one
  closed-loop client: a fixed battery of unique queries (2-6 keywords,
  0.5 per keyword count and algorithm per 10 s of ``--seconds``), one
  ``POST /batch`` per algorithm (BucketBound, then OSScaling), served as
  one round on each of the run's fresh deployments; the medians over
  rounds are reported.  Nothing repeats within a deployment, so the
  cache does nothing.  Not one of ``BENCHMARK.json``'s workloads: its
  figures rest on a few searches of seconds each on one worker, and
  their ten-seed spread followed a shared host's drift to 0.22-0.30 of
  the median, past any bound the gate allows.  It stays runnable for the
  traced per-layer table and its ablations.
* ``road-live`` -- live-world deployment over the 2000-node road graph,
  ``min(2, nproc)`` closed-loop clients sharing a fixed sequence of 8
  operations per second of ``--seconds``: Zipf-repeated ``POST /query``
  reads (BucketBound / Greedy in 4:1, Delta = 20 km); every 20th
  operation is a ``POST /admin/update`` from a seeded, valid op mix.
"""

from __future__ import annotations

import argparse
import asyncio
import copy
import gc
import json
import multiprocessing
import os
import random
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

# Without the program's sources these imports fail, and the run exits
# non-zero before printing any result.
import inputs as gen
from checker import GraphLedger, check_answer
from repro.core.engine import KOREngine
from repro.prep.partition import partition_graph
from repro.server import KORApp, asgi_request
from repro.service import build_service
from repro.service.stats import percentile
from repro.world import MutableWorld, default_num_cells

#: CPUs this process may use; also the worker count and the client cap.
NPROC = len(os.sched_getaffinity(0))
#: Deployments built per run; ``setup_s`` is their median.  The flickr
#: workloads serve one round on each (see :func:`measure`).
SETUP_REPEATS = 5
#: flickr-open: offered rate and the per-request latency limit.
OPEN_RATE_QPS = 30.0
SLO_SECONDS = 0.100
#: road-live: one operation in this many is an update; closed-loop clients.
UPDATE_EVERY = 20
ROAD_CLIENTS = min(2, NPROC)
#: road-live: operations per second of ``--seconds`` (about what the
#: parent commit completes on 2 CPUs).  A fixed sequence rather than a
#: deadline: a deadline cut the read sequence at a length set by the
#: machine's speed, and p50, which sits on a steep part of the latency
#: distribution, moved with that length.
ROAD_OPS_PER_SECOND = 8
#: Updates the flickr workloads send on each deployment once it has
#: served its round, so ``update_p50_ms`` is measured on every workload.
PROBES_PER_DEPLOYMENT = 4
#: A request not answered within this many seconds counts as failed.
REQUEST_TIMEOUT = 60.0

#: Every workload this script runs; ``BENCHMARK.json`` gates all but flickr-batch.
WORKLOADS = ("flickr-open", "flickr-batch", "road-live")
#: Workloads that serve one round on each of their deployments and report
#: medians over the rounds (see :func:`measure`).
ROUND_WORKLOADS = ("flickr-open", "flickr-batch")


def tail(values: list[float]) -> tuple[float, float]:
    """``(q, value)``: the highest percentile, up to p95, with 10 samples beyond it.

    ``q = min(95, 100 * (1 - 10 / n))``, the median below 20 samples.
    Continuous in the sample count, so a closed loop whose count drifts
    does not jump between ladder steps; capped at p95 because above it a
    600-request open loop reports only its cold-start burst, whose ten
    worst samples spread by 45% between seeds (p95: 27%).
    """
    if len(values) < 20:
        return 50.0, percentile(values, 50.0)
    q = min(95.0, 100.0 * (1.0 - 10.0 / len(values)))
    return q, percentile(values, q)


def reset_peak_rss() -> None:
    """Lower this process's ``VmHWM`` to its current RSS (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` over *pids* (the serving process and its workers)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except FileNotFoundError:
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------


@dataclass
class Read:
    """One query as the client saw it (checked after the measured phase)."""

    query: object
    algorithm: str
    #: The scheduled instant (open loop) or the send instant (closed loops).
    due: float
    done: float = 0.0
    #: Newest update epoch acknowledged to any client when this was sent.
    acked_epoch: int = 0
    #: The response body; parsed into a dict by :func:`check`.
    doc: bytes | dict | None = None
    error: str | None = None
    violations: list[str] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations


@dataclass
class Update:
    ops: list[dict]
    sent: float = 0.0
    done: float = 0.0
    epoch: int | None = None
    error: str | None = None


@dataclass
class Phase:
    """Everything one measured phase produced."""

    reads: list[Read] = field(default_factory=list)
    updates: list[Update] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    lateness: list[float] = field(default_factory=list)
    #: Serving-side counters read after the phase (see :func:`measure`).
    counters: dict = field(default_factory=dict)
    #: The flickr workloads: the phase of each round; medians over them are reported.
    rounds: list["Phase"] = field(default_factory=list)

    def per_round(self) -> list["Phase"]:
        return self.rounds or [self]


def qps_of(phase: Phase) -> float:
    """Correct answers per second; the median over rounds if there are several."""
    return statistics.median(
        sum(read.ok for read in part.reads) / (part.end - part.start)
        for part in phase.per_round())


# ----------------------------------------------------------------------
# deployments
# ----------------------------------------------------------------------


@dataclass
class Deployment:
    app: object
    front: object
    setup_seconds: float

    @property
    def service(self):
        return self.front.service

    @property
    def backend(self):
        return self.front.service.backend

    def worker_pids(self) -> list[int]:
        return [
            stats["pid"]
            for stats in self.backend.worker_stats().values()
            if "pid" in stats
        ]

    async def close(self) -> None:
        await self.front.close()


async def deploy(graph, live: bool, warm: list, **overrides) -> Deployment:
    """Graph -> world/tables, service, warm workers; timed as ``setup_s``.

    Warm-up pings every worker lane and sends the *warm* queries as one
    BucketBound ``/batch``, which makes the workers assemble the engines
    those queries touch.  The warm queries are disjoint from every
    measured query, so no measured answer is cached here.  A
    ``num_cells`` override shards the bare graph through
    ``ServiceConfig.num_cells`` instead of building a default world.
    """
    begin = time.perf_counter()
    world = MutableWorld(graph) if live and "num_cells" not in overrides else graph
    front = build_service(world, tier="async", backend="process", workers=NPROC,
                          **overrides)
    app = KORApp(front)
    front.service.backend.warm_up()
    response = await asgi_request(app, "POST", "/batch", {
        "queries": [_query_body(query) for query in warm],
        "algorithm": "bucketbound",
    })
    if response.status != 200:
        raise RuntimeError(f"warm-up batch failed with HTTP {response.status}")
    return Deployment(app=app, front=front, setup_seconds=time.perf_counter() - begin)


def _query_body(query, algorithm: str | None = None, explain: bool = False) -> dict:
    body = {
        "source": query.source,
        "target": query.target,
        "keywords": list(query.keywords),
        "budget_limit": query.budget_limit,
    }
    if algorithm is not None:
        body["algorithm"] = algorithm
    if explain:
        body["explain"] = True
    return body


# ----------------------------------------------------------------------
# load generators
# ----------------------------------------------------------------------


async def _send(app, path: str, body: dict):
    return await asyncio.wait_for(asgi_request(app, "POST", path, body), REQUEST_TIMEOUT)


async def _read(app, read: Read, explain: bool) -> None:
    try:
        response = await _send(app, "/query", _query_body(read.query, read.algorithm, explain))
    except asyncio.TimeoutError:
        read.error = "timeout"
    else:
        if response.status == 200:
            read.doc = response.body
        else:
            read.error = f"http-{response.status}"
    read.done = time.perf_counter()


async def open_loop(app, entries: list, schedule: list[tuple[float, int]],
                    explain: bool) -> Phase:
    """Fire each ``(offset, entry)`` of *schedule* at its instant.

    Arrivals never wait for completions; latency is measured from the
    scheduled instant, and how late each send was is recorded.
    """
    phase = Phase(start=time.perf_counter())

    async def fire(offset, entry):
        due = phase.start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        query, algorithm = entries[entry]
        read = Read(query=query, algorithm=algorithm, due=due)
        phase.lateness.append(time.perf_counter() - due)
        phase.reads.append(read)
        await _read(app, read, explain)

    await asyncio.gather(*(fire(offset, entry) for offset, entry in schedule))
    phase.end = time.perf_counter()
    return phase


async def batch_loop(app, batches: list[tuple[str, list]], explain: bool) -> Phase:
    """One closed-loop client sending each ``(algorithm, queries)`` as one ``/batch``."""
    phase = Phase(start=time.perf_counter())
    for algorithm, queries in batches:
        sent = time.perf_counter()
        reads = [Read(query=q, algorithm=algorithm, due=sent) for q in queries]
        phase.reads.extend(reads)
        body = {"queries": [_query_body(q) for q in queries], "algorithm": algorithm}
        if explain:
            body["explain"] = True
        error, slots = None, None
        try:
            response = await _send(app, "/batch", body)
        except asyncio.TimeoutError:
            error = "timeout"
        else:
            if response.status != 200:
                error = f"http-{response.status}"
            else:
                slots = _batch_slots(response.body, len(reads))
                if slots is None:
                    error = "schema"
        done = time.perf_counter()
        for position, read in enumerate(reads):
            read.done = done
            if error is not None:
                read.error = error
            elif "error" in slots[position]:
                read.error = "slot-error"
            else:
                read.doc = slots[position]
    phase.end = time.perf_counter()
    return phase


def _batch_slots(body: bytes, expected: int) -> list[dict] | None:
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != "kor.route_batch.v1"
        or not isinstance(payload.get("results"), list)
        or len(payload["results"]) != expected
        or not all(isinstance(slot, dict) for slot in payload["results"])
    ):
        return None
    return payload["results"]


async def mixed_loop(app, entries: list, stream: list[int], mixer, clients: int,
                     explain: bool) -> Phase:
    """Closed loop: *clients* clients share one operation sequence until it ends.

    Operation ``i`` reads pool entry ``stream[i]``, except every
    :data:`UPDATE_EVERY`-th, which is the mixer's next update.  While an
    update is in flight no client starts a read (reads already in flight
    run on, across the epoch fence), so every epoch serves the same reads
    and the hit/miss pattern does not depend on how long a repair took:
    with reads free to pile in during the ~1 s repairs, p50 moved by 30%
    between runs of identical inputs.
    """
    phase = Phase(start=time.perf_counter())
    counter = iter(range(len(stream)))
    reads_open = asyncio.Event()
    reads_open.set()
    acked = [0]

    async def client():
        for index in counter:
            if index % UPDATE_EVERY == UPDATE_EVERY - 1:
                update = Update(ops=mixer.next_ops())
                phase.updates.append(update)
                reads_open.clear()
                try:
                    await _update(app, update)
                    if update.epoch is not None:
                        acked[0] = max(acked[0], update.epoch)
                finally:
                    reads_open.set()
                continue
            await reads_open.wait()
            query, algorithm = entries[stream[index]]
            read = Read(query=query, algorithm=algorithm, due=time.perf_counter(),
                        acked_epoch=acked[0])
            phase.reads.append(read)
            await _read(app, read, explain)

    await asyncio.gather(*(client() for _ in range(clients)))
    phase.end = time.perf_counter()
    return phase


async def _update(app, update: Update) -> None:
    update.sent = time.perf_counter()
    try:
        response = await _send(app, "/admin/update", {"ops": update.ops})
    except asyncio.TimeoutError:
        update.error = "timeout"
    else:
        if response.status == 200:
            update.epoch = response.json()["epoch"]
        else:
            update.error = f"http-{response.status}"
    update.done = time.perf_counter()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    """One workload's generated inputs and the benchmark's references."""

    graph: object
    live: bool
    warm: list = field(default_factory=list)
    #: Zipf pool entries ``(query, algorithm)`` (flickr-open, road-live).
    entries: list = field(default_factory=list)
    #: flickr-open: ``(offset seconds, entry)`` arrivals, one list per round.
    schedules: list = field(default_factory=list)
    #: flickr-batch: ``(algorithm, queries)`` per ``/batch`` of one round.
    batches: list = field(default_factory=list)
    #: road-live: entry per operation (updates take every 20th slot).
    stream: list = field(default_factory=list)
    #: Seed of the road-live op mix; never-closed nodes (pool endpoints).
    mixer_seed: int = 0
    protected: frozenset = frozenset()
    #: flickr workloads: the op lists of the update probes, in sending order.
    probes: list = field(default_factory=list)
    #: query key -> exact result on the base graph (epoch 0).
    exact: dict = field(default_factory=dict)


def prepare(workload: str, seed: int, seconds: float, sizes) -> Inputs:
    """Generate *workload*'s inputs (nothing here is timed).

    Runs in a child process: the flat reference engine and its exact
    searches (about 300 MB on road-live) then never count toward the
    serving process's peak RSS, nor toward the workers forked from it.
    """
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(_prepare, workload, seed, seconds, sizes).result()


def _prepare(workload: str, seed: int, seconds: float, sizes) -> Inputs:
    rng = random.Random(seed)
    if workload == "road-live":
        graph, delta = gen.road_graph(sizes.road_nodes), gen.ROAD_DELTA
    else:
        graph, delta = gen.flickr_graph(), gen.FLICKR_DELTA
    engine = KOREngine(graph)
    if workload == "flickr-batch":
        per_count = max(1, round(sizes.round_per_count * seconds / 10.0))
        bucket = gen.draw_queries(graph, engine, per_count, delta, gen.POOL_SEED)
        scaling = gen.draw_queries(graph, engine, per_count, delta, gen.POOL_SEED + 1,
                                   {gen.query_key(q) for q in bucket})
        # Pinned orders: each batch keeps the pool's keyword-count order,
        # which decides how the service groups members into lockstep waves
        # and with it the work (a seeded order moved qps by 17%), and
        # BucketBound always goes first (OSScaling first ran about 8% slower,
        # so a seeded batch order split the runs into two groups).
        batches = [("bucketbound", bucket), ("osscaling", scaling)]
        queries = bucket + scaling
        inputs = Inputs(graph=graph, live=True, batches=batches)
    else:
        pool = gen.draw_queries(graph, engine, sizes.pool_per_count, delta, gen.POOL_SEED)
        queries = pool
        if workload == "flickr-open":
            pattern = ("bucketbound",) * 3 + ("osscaling",) + ("bucketbound",) * 3 \
                + ("greedy",) + ("bucketbound",) * 2
            algorithms = gen.assign_algorithms(len(pool), pattern)
            inputs = Inputs(graph=graph, live=False, entries=list(zip(pool, algorithms)))
            for _round in range(SETUP_REPEATS):
                offsets = gen.uniform_arrivals(OPEN_RATE_QPS, seconds / SETUP_REPEATS, rng)
                picks = rng.choices(range(len(pool)),
                                    weights=gen.popularity_weights(len(pool)), k=len(offsets))
                inputs.schedules.append(list(zip(offsets, picks)))
        else:
            pattern = ("bucketbound", "bucketbound", "greedy", "bucketbound", "bucketbound")
            algorithms = gen.assign_algorithms(len(pool), pattern)
            # The read sequence is pinned too; the seed draws the update
            # targets.  About a third of the reads hit, so p50 sits low in
            # the miss mode, where any change in the reads moves it.  At
            # least two updates, however short the run.
            operations = max(2 * UPDATE_EVERY, round(ROAD_OPS_PER_SECOND * seconds))
            stream = random.Random(gen.POOL_SEED).choices(
                range(len(pool)), weights=gen.popularity_weights(len(pool)), k=operations)
            inputs = Inputs(graph=graph, live=True, entries=list(zip(pool, algorithms)),
                            stream=stream)
    keys = {gen.query_key(q) for q in queries}
    inputs.warm = gen.draw_queries(graph, engine, sizes.warm_queries, delta, gen.WARM_SEED,
                                   keys, counts=(2,))
    inputs.exact = {gen.query_key(q): engine.run(q, "exact") for q in queries}
    inputs.protected = frozenset(q.source for q in queries) | frozenset(q.target for q in queries)
    inputs.mixer_seed = seed + 7
    if workload != "road-live":
        # Probe edges are pinned and all lie inside one cell of the live
        # world's default partition: an in-cell edge costs about 25% more
        # to repair than a cross-cell one, so a mix of the two made the
        # median jump between the two costs from run to run.
        cell_of = partition_graph(graph, default_num_cells(graph.num_nodes)).cell_of
        probes = gen.OpMixer(graph, inputs.protected, random.Random(gen.POOL_SEED))
        while len(inputs.probes) < PROBES_PER_DEPLOYMENT * SETUP_REPEATS:
            ops = probes.edge_ops()
            if cell_of[ops[0]["u"]] == cell_of[ops[0]["v"]]:
                inputs.probes.append(ops)
        # The seed draws the probes' new costs (what a repair costs does
        # not depend on them); on flickr-batch that is all it draws.
        for ops in inputs.probes:
            for key in ("objective", "budget"):
                ops[0][key] *= rng.uniform(0.9, 1.1)
    return inputs


async def measure(workload: str, inputs: Inputs, explain: bool = False,
                  repeats: int = SETUP_REPEATS, probes: bool = True,
                  inspect: bool = False, **overrides) -> tuple[Phase, list[Update], float, float]:
    """Deploy *repeats* times, run the measured phase, probe updates, read
    counters and peak RSS.

    Returns ``(phase, probe updates, median set-up seconds, peak RSS MB)``.
    road-live serves its phase on the first deployment; the others only
    time their set-up.  The flickr workloads serve one round on every
    deployment (flickr-open: one of its open-loop schedules; flickr-batch:
    its battery), so each round starts from the same cold state, and then
    send :data:`PROBES_PER_DEPLOYMENT` pinned edge re-costs, so
    ``update_p50_ms`` is measured on every workload.  Their phase holds
    the rounds (:attr:`Phase.rounds`), whose medians are reported: on a
    shared 2-vCPU VM the CPU's speed swung by up to 1.8x over periods of
    several seconds, so a figure drawn from one stretch of the run follows
    whichever period that stretch fell in, while medians over rounds and
    probes spread across the whole run do not.

    Peak RSS is read on the first deployment only, after its reads and
    before its probes; the serving process's peak is reset right before
    it is built, so the figure counts only what deploying and serving
    took.  The probes are not part of the flickr workloads, and what they
    leave behind in the serving process (on the flat tier up to 40 MB per
    update, released at points set by garbage collection) would also be
    counted by every later deployment's workers, which are forked from it.
    """
    setups, rounds, updates = [], [], []
    rss = 0.0
    for index in range(repeats):
        gc.collect()
        if index == 0:
            reset_peak_rss()
        deployment = await deploy(inputs.graph, inputs.live, inputs.warm, **overrides)
        setups.append(deployment.setup_seconds)
        try:
            if index == 0 or workload in ROUND_WORKLOADS:
                phase = await _serve(workload, index, deployment.app, inputs, explain)
                phase.counters = _counters(deployment, phase, inspect)
                rounds.append(phase)
            if index == 0:
                rss = peak_rss_mb([os.getpid()] + deployment.worker_pids())
            if workload != "road-live" and probes:
                first = index * PROBES_PER_DEPLOYMENT
                for ops in inputs.probes[first:first + PROBES_PER_DEPLOYMENT]:
                    update = Update(ops=ops)
                    await _update(deployment.app, update)
                    updates.append(update)
        finally:
            await deployment.close()
    phase = rounds[0]
    if len(rounds) > 1:
        phase = Phase(reads=[read for part in rounds for read in part.reads],
                      start=rounds[0].start, end=rounds[-1].end,
                      lateness=[late for part in rounds for late in part.lateness],
                      counters=rounds[0].counters, rounds=rounds)
    return phase, updates, statistics.median(setups), rss


async def _serve(workload: str, index: int, app, inputs: Inputs, explain: bool) -> Phase:
    if workload == "flickr-open":
        return await open_loop(app, inputs.entries, inputs.schedules[index], explain)
    if workload == "flickr-batch":
        return await batch_loop(app, inputs.batches, explain)
    # A fresh mixer per deployment: its mirror must start from the base graph.
    mixer = gen.OpMixer(inputs.graph, inputs.protected, random.Random(inputs.mixer_seed))
    return await mixed_loop(app, inputs.entries, inputs.stream, mixer, ROAD_CLIENTS, explain)


def _counters(deployment: Deployment, phase: Phase, inspect: bool) -> dict:
    """Partition facts for every live run; the public counters when *inspect*."""
    service = deployment.service
    counters: dict = {}
    partition = getattr(service, "partition", None)
    if partition is not None:
        counters["partition"] = partition
        unique = {gen.query_key(read.query): read.query for read in phase.reads}
        counters["plans"] = [service.plan_of(query) for query in unique.values()]
    if inspect:
        counters["frontend"] = deployment.front.snapshot()
        counters["scheduling"] = deployment.front.scheduling_stats()
        counters["service"] = service.snapshot()
        counters["cache"] = copy.copy(service.cache.stats)  # the live object keeps counting
        counters["pins"] = deployment.backend.pin_stats()
        counters["workers"] = deployment.backend.worker_stats()
    return counters


def check(inputs: Inputs, phase: Phase, probes: list[Update]) -> dict:
    """Check every answer after the phase; return the tallies."""
    ledger = GraphLedger(inputs.graph)
    update_failures = sum(update.error is not None for update in probes)
    for update in sorted(phase.updates, key=lambda u: (u.epoch is None, u.epoch or 0)):
        if update.error is not None or update.epoch is None:
            update_failures += 1
            continue
        try:
            ledger.apply(update.ops, update.epoch)
        except Exception:  # noqa: BLE001 - any replay failure means a wrong ack
            update_failures += 1

    violations: dict[str, int] = {}
    for read in phase.reads:
        if read.error is None and isinstance(read.doc, bytes):
            try:
                read.doc = json.loads(read.doc)
            except ValueError:
                read.error = "schema"
        if read.error is not None:
            violations[read.error] = violations.get(read.error, 0) + 1
            continue
        epoch = read.doc.get("epoch", 0) if isinstance(read.doc, dict) else 0
        reference = inputs.exact.get(gen.query_key(read.query)) if epoch == 0 else None
        read.violations = check_answer(read.doc, read.query, read.algorithm, ledger,
                                       read.acked_epoch, reference)
        for name in read.violations:
            violations[name] = violations.get(name, 0) + 1
    return {"violations": violations, "update_failures": update_failures}


def end_to_end(inputs: Inputs, phase: Phase, probes: list[Update], setup: float,
               rss: float, tally: dict) -> tuple[dict, dict]:
    """The end-to-end metrics and the diagnostics printed beside them."""
    reads = phase.reads
    ok = [read for read in reads if read.ok]
    answered = [read for read in reads if read.done > 0 and read.error != "timeout"]
    latencies = [read.latency for read in answered]
    tail_q, tail_s = tail(latencies)
    updates = [u for u in phase.updates + probes if u.error is None]
    ratios = []
    for read in ok:
        reference = inputs.exact.get(gen.query_key(read.query))
        if (read.doc["feasible"] and read.doc.get("epoch", 0) == 0
                and reference is not None and reference.feasible):
            ratios.append(read.doc["score"]["objective"] / reference.route.objective_score)
    attempted = len(reads) + len(phase.updates) + len(probes)
    failed = (len(reads) - len(ok)) + tally["update_failures"]
    metrics = {
        "setup_s": (setup, "s"),
        "qps": (qps_of(phase), "1/s"),
        "latency_p50_ms": (statistics.median(
            percentile([read.latency for read in part.reads], 50.0)
            for part in phase.per_round()) * 1e3, "ms"),
        "update_p50_ms": (percentile([u.done - u.sent for u in updates], 50.0) * 1e3, "ms"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
        "os_ratio": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        "feasible_frac": (sum(r.doc["feasible"] for r in ok) / max(1, len(reads)), "fraction"),
        "peak_rss_mb": (rss, "MB"),
    }
    by_due = sorted(answered, key=lambda r: r.due)
    decile = max(1, len(by_due) // 10)
    head = percentile([r.latency for r in by_due[:decile]], 50.0)
    last = percentile([r.latency for r in by_due[-decile:]], 50.0)
    keys = [gen.query_key(r.query) + (r.algorithm,) for r in reads]
    mix = _histogram(read.algorithm for read in reads)
    counters = phase.counters
    traffic = {
        "reads": len(reads),
        "repeated_request_frac": 1.0 - len(set(keys)) / max(1, len(keys)),
        "algorithm_mix": {name: count / max(1, len(reads)) for name, count in mix.items()},
        "keyword_counts": _histogram(len(set(r.query.keywords)) for r in reads),
        "writes_per_read": len(phase.updates) / max(1, len(reads)),
    }
    if "partition" in counters:
        partition, plans = counters["partition"], counters["plans"]
        traffic["cells"] = len(partition.cells)
        traffic["border_frac"] = len(partition.border_nodes) / inputs.graph.num_nodes
        traffic["crosscell_frac"] = sum(p != "local" for p in plans) / max(1, len(plans))
    diagnostics = {
        "attempted": attempted,
        "failed": failed,
        "violations": tally["violations"],
        # Printed, not gated: on flickr-open its spread between seeds
        # (0.23-0.38 of the median) exceeds any bound the gate allows.
        "latency_tail_ms": {"value": tail_s * 1e3, "percentile": round(tail_q, 2),
                            "samples": len(latencies)},
        "failures": [
            {"algorithm": r.algorithm, "keywords": len(r.query.keywords),
             "problem": r.error or r.violations,
             "epoch": r.doc.get("epoch") if isinstance(r.doc, dict) else None,
             "acked_epoch": r.acked_epoch}
            for r in reads if not r.ok][:5],
        "os_ratio_samples": len(ratios),
        "slo_met_frac": sum(r.ok and r.latency <= SLO_SECONDS for r in reads) / max(1, len(reads)),
        "backlog": {"first_decile_p50_ms": head * 1e3, "last_decile_p50_ms": last * 1e3,
                    "growing": last > 2.0 * head + 0.010},
        "loadgen_late_ms_tail": tail(phase.lateness)[1] * 1e3 if phase.lateness else 0.0,
        "updates_acked": len(updates),
        "traffic": traffic,
    }
    return metrics, diagnostics


def _histogram(values) -> dict:
    counts: dict = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items()))


def verdict(tally: dict) -> bool:
    """Correct unless an answer was wrong (timeouts and HTTP errors only fail)."""
    return not any(name != "timeout" and not name.startswith("http-")
                   for name in tally["violations"])


async def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """One benchmark run; returns the result object printed last."""
    sizes = sizes if sizes is not None else gen.FULL
    if trace:
        import layers

        return await layers.traced_run(workload, seed, seconds, sizes)
    inputs = prepare(workload, seed, seconds, sizes)
    phase, probes, setup, rss = await measure(workload, inputs)
    tally = check(inputs, phase, probes)
    metrics, diagnostics = end_to_end(inputs, phase, probes, setup, rss, tally)
    print(f"workload {workload}  seed {seed}  nproc {NPROC}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:>12.4f} {unit}")
    for name, value in diagnostics.items():
        print(f"  {name}: {json.dumps(value, default=str)}")
    return {
        "correct": verdict(tally),
        "attempted": diagnostics["attempted"],
        "failed": diagnostics["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = asyncio.run(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
