"""The traced run: per-layer metrics measured around the program's layers.

Spans are recorded by wrapping the public functions of each layer from
here, for the duration of one traced phase, and unwrapped afterwards;
no file of the program changes.  A span records its name, start, end,
parent span (through a context variable that asyncio tasks inherit)
and the request it belongs to.  Self time is a span's duration minus
the part of it that its child spans cover.

Layers and where their numbers come from:

* ``server`` -- ``KORApp.__call__`` spans; the codec is the
  ``parse_route_query`` / ``encode_route_result`` /
  ``validate_route_result`` calls inside them.
* ``frontend`` -- ``AsyncQueryService.submit`` spans; the sync
  ``execute`` call that covered each request is matched by query key.
* ``cache`` -- the service's ``cache.stats``.
* ``sharding`` -- ``ShardedQueryService.execute`` spans, ``plan_of``
  over the unique queries, ``snapshot().merge_wins`` and the partition.
* ``backends`` -- ``ExecutionBackend.submit_task`` / ``submit_wave``
  until their futures are done, minus the longest member's
  ``SearchStats.runtime_seconds`` (queueing, pickling, IPC, bind, merge); ``snapshot()``, ``pin_stats()`` and
  ``worker_stats()`` counters.
* ``core`` -- ``SearchStats`` carried back with ``explain: true``.
* ``prep`` / ``index`` -- lookups through the public methods of
  ``CostTables`` / ``PartitionedCostTables``, ``QueryBinding.bind`` and
  ``InvertedIndex.candidate_sets``, counted and timed during an
  in-process replay of the workload's unique queries on a
  ``SerialBackend`` twin (the served searches run in worker processes).
* ``world`` -- ``MutableWorld.apply_ops`` spans and their
  ``WorldUpdate`` receipts, against the acks the client saw.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

import inputs as gen
import repro.server.app as app_module
import run as bench
from repro.core.query import QueryBinding
from repro.index.inverted import InvertedIndex
from repro.prep.partition import PartitionedCostTables
from repro.prep.tables import CostTables
from repro.server.app import KORApp
from repro.service import build_service
from repro.service.backends import ExecutionBackend
from repro.service.frontend import AsyncQueryService
from repro.service.service import QueryService
from repro.service.sharding import ShardedQueryService
from repro.service.stats import percentile
from repro.world import MutableWorld

#: Queries per algorithm the prep/index replay runs.
REPLAY_PER_ALGORITHM = 8
#: Where each traced run leaves its column of the stage x workload table.
TABLE_DIR = bench.ROOT / ".perfbench"

#: ``(layer, [metric names], {workload: predicted effect})`` in table order.
LAYERS = (
    ("server", ["server.self_ms.p50", "server.codec_ms.p50", "server.shed", "server.errors"],
     {"flickr-open": "latency_p50_ms, qps", "flickr-batch": "~0 (amortised)",
      "road-live": "latency_p50_ms"}),
    ("frontend", ["frontend.wait_ms.p50", "frontend.wait_ms.tail", "frontend.coalesced_frac",
                  "frontend.members_per_execute"],
     {"flickr-open": "latency_tail_ms", "flickr-batch": "none",
      "road-live": "reads in flight across an update"}),
    ("cache", ["cache.hit_frac", "cache.evictions", "cache.invalidations",
               "cache.stale_writes"],
     {"flickr-open": "latency_p50_ms", "flickr-batch": "0 by construction",
      "road-live": "latency_p50_ms"}),
    ("sharding", ["sharding.execute_ms.p50", "sharding.crosscell_frac",
                  "sharding.tasks_per_query", "sharding.merge_wins.cell",
                  "sharding.merge_wins.crosscell", "sharding.degraded", "partition.cells",
                  "partition.border_frac"],
     {"flickr-open": "absent (flat)", "flickr-batch": "qps", "road-live": "latency_*"}),
    ("backends", ["backends.task_ms.p50", "backends.overhead_ms.p50", "waves.formed",
                  "waves.mean_members", "waves.fill_rate", "waves.solo_fallbacks",
                  "backends.queue_depth_peak", "backends.pin_hit_frac",
                  "backends.engine_builds"],
     {"flickr-open": "latency_tail_ms (small waves)", "flickr-batch": "qps (a wave per /batch)",
      "road-live": "setup_s, peak_rss_mb"}),
    ("core", ["core.search_ms.p50.bucketbound", "core.search_ms.p50.osscaling",
              "core.search_ms.p50.greedy", "core.search_ms.sum.bucketbound",
              "core.search_ms.sum.osscaling", "core.search_ms.sum.greedy",
              "core.labels_created", "core.labels_pruned.budget", "core.labels_pruned.bound",
              "core.labels_pruned.dominated", "core.labels_pruned.strategy2",
              "core.jump_labels", "core.loops", "core.buckets_opened"],
     {"flickr-open": "cache misses", "flickr-batch": "qps",
      "road-live": "qps; os_ratio, feasible_frac hold"}),
    ("prep+index", ["prep.lookups_per_query.row", "prep.lookups_per_query.column",
                    "prep.lookups_per_query.scalar", "prep.lookup_share", "core.bind_ms.p50",
                    "index.candidate_sets_ms.p50"],
     {"flickr-open": "small (flat arrays)", "flickr-batch": "qps (partitioned tables)",
      "road-live": "latency_*"}),
    ("world", ["world.update_ms.p50", "world.repaired_cells.mean", "world.border_rebuilt_frac",
               "world.index_rebuilt_frac", "server.update_overhead_ms"],
     {"flickr-open": "update_p50_ms (probes only)", "flickr-batch": "update_p50_ms (probes only)",
      "road-live": "update_p50_ms, latency_tail_ms"}),
    ("loadgen", ["loadgen.late_ms.tail", "trace.overhead_frac"],
     {"flickr-open": "benchmark health", "flickr-batch": "benchmark health",
      "road-live": "benchmark health"}),
    ("ablation", ["ablation.baseline.qps", "ablation.wave_kernels_off.qps",
                  "ablation.num_cells_1.qps"],
     {"flickr-open": "not run", "flickr-batch": "kernel and one-tier ablations",
      "road-live": "not run"}),
)

#: Every per-layer metric's unit, as ``BENCHMARK.json`` declares it.
UNITS = {
    metric["name"]: metric["unit"]
    for metric in json.loads((bench.ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


METRICS = [name for _layer, names, _prediction in LAYERS for name in names]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    request: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of *intervals*."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """In-memory span recorder; the current span travels in a context variable."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._requests = 0
        self._lock = threading.Lock()
        #: Table lookups by kind, and their total time (the replay's counters).
        self.lookups: dict[str, int] = {}
        self.lookup_seconds = 0.0

    def open(self, name: str, new_request: bool = False, **attrs) -> Span:
        parent = self.current.get()
        if new_request:
            with self._lock:
                self._requests += 1
                request = self._requests
        else:
            request = parent.request if parent is not None else None
        span = Span(name=name, start=time.perf_counter(), parent=parent, request=request,
                    attrs=attrs)
        self.spans.append(span)
        return span

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name and span.end > 0.0]


def _wrap_async(stack: ExitStack, owner, attr: str, tracer: Tracer, name: str,
                new_request: bool = False, attrs=None) -> None:
    original = owner.__dict__[attr]

    async def traced(*args, **kwargs):
        span = tracer.open(name, new_request, **(attrs(*args, **kwargs) if attrs else {}))
        token = tracer.current.set(span)
        try:
            return await original(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            tracer.current.reset(token)

    _install(stack, owner, attr, traced)


def _wrap_sync(stack: ExitStack, owner, attr: str, tracer: Tracer, name: str,
               attrs=None, receipt=None) -> None:
    original = owner.__dict__[attr]
    inner = original.__func__ if isinstance(original, classmethod) else original

    def traced(*args, **kwargs):
        span = tracer.open(name, **(attrs(*args, **kwargs) if attrs else {}))
        try:
            result = inner(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
        if receipt is not None:
            span.attrs.update(receipt(result))
        return result

    _install(stack, owner, attr,
             classmethod(traced) if isinstance(original, classmethod) else traced)


def _install(stack: ExitStack, owner, attr: str, replacement) -> None:
    original = owner.__dict__[attr]
    setattr(owner, attr, replacement)
    stack.callback(setattr, owner, attr, original)


def _keys(queries, algorithm) -> list[tuple]:
    return [gen.query_key(query) + (algorithm,) for query in queries]


def install_serving_spans(stack: ExitStack, tracer: Tracer) -> None:
    """Wrap the layers a served request crosses (in the serving process)."""
    _wrap_async(stack, KORApp, "__call__", tracer, "server", new_request=True,
                attrs=lambda self, scope, *_: {"path": scope.get("path")})
    for function in ("parse_route_query", "encode_route_result", "validate_route_result"):
        original = getattr(app_module, function)

        def traced(*args, _original=original, **kwargs):
            span = tracer.open("codec")
            try:
                return _original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()

        _install(stack, app_module, function, traced)
    _wrap_async(stack, AsyncQueryService, "submit", tracer, "frontend",
                attrs=lambda self, query, algorithm="bucketbound", *a, **k: {
                    "key": _keys([query], algorithm)[0]})
    for service_class, name in ((QueryService, "execute"), (ShardedQueryService, "sharding")):
        _wrap_sync(stack, service_class, "execute", tracer, name,
                   attrs=lambda self, queries, algorithm="bucketbound", *a, **k: {
                       "keys": _keys(queries, algorithm)})
        _wrap_sync(stack, service_class, "apply_ops", tracer, "service.apply_ops")
    _wrap_sync(stack, MutableWorld, "apply_ops", tracer, "world",
               receipt=lambda update: {
                   "repaired": len(update.repaired_cells),
                   "border": update.border_rebuilt,
                   "index": update.index_rebuilt})

    for attr in ("submit_task", "submit_wave"):
        original = ExecutionBackend.__dict__[attr]

        def traced(self, task, _original=original):
            span = Span(name="task", start=time.perf_counter())
            future = _original(self, task)

            def done(future, span=span):
                span.end = time.perf_counter()
                if future.cancelled() or future.exception() is not None:
                    return
                outcomes = future.result()
                outcomes = outcomes if isinstance(outcomes, list) else [outcomes]
                # Wave members search in lockstep, so their runtimes overlap:
                # the longest one is the search part of the task.
                span.attrs["search"] = max(
                    (outcome.result.stats.runtime_seconds
                     for outcome in outcomes if outcome.result is not None), default=0.0)

            future.add_done_callback(done)
            tracer.spans.append(span)
            return future

        _install(stack, ExecutionBackend, attr, traced)


def install_lookup_counters(stack: ExitStack, tracer: Tracer) -> None:
    """Count and time table lookups, binds and candidate-set fetches."""
    depth = threading.local()
    for tables_class in (CostTables, PartitionedCostTables):
        for attr, function in list(vars(tables_class).items()):
            if not callable(function) or attr.startswith("_"):
                continue
            if attr.endswith(("_row",)):
                kind = "row"
            elif attr.endswith(("_col", "_cols")):
                kind = "column"
            elif attr in ("os_tau", "bs_tau", "os_sigma", "bs_sigma", "os_sigma_at",
                          "reachable"):
                kind = "scalar"
            else:
                continue

            def counted(*args, _function=function, _kind=kind, **kwargs):
                # Only the outermost lookup counts: partitioned tables
                # may answer through their cells' own tables.
                if getattr(depth, "level", 0):
                    return _function(*args, **kwargs)
                depth.level = 1
                begin = time.perf_counter()
                try:
                    return _function(*args, **kwargs)
                finally:
                    depth.level = 0
                    tracer.lookups[_kind] = tracer.lookups.get(_kind, 0) + 1
                    tracer.lookup_seconds += time.perf_counter() - begin

            _install(stack, tables_class, attr, counted)
    _wrap_sync(stack, QueryBinding, "bind", tracer, "bind")
    _wrap_sync(stack, InvertedIndex, "candidate_sets", tracer, "candidate_sets")


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------


async def traced_run(workload: str, seed: int, seconds: float, sizes) -> dict:
    """Untraced phase, traced phase, replay and ablations; per-layer metrics.

    Each phase is one round of the flickr workloads (see
    :func:`run.measure`) or half of road-live's operations, so a traced
    run costs about as much as an untraced one.  Every phase's answers
    are checked; the verdict and counts cover them all.
    """
    phase_seconds = seconds if workload in bench.ROUND_WORKLOADS else seconds / 2.0
    inputs = bench.prepare(workload, seed, phase_seconds, sizes)
    plain, plain_probes, _setup, _rss = await bench.measure(
        workload, inputs, repeats=1)
    runs = [(plain, plain_probes)]

    tracer = Tracer()
    with ExitStack() as stack:
        install_serving_spans(stack, tracer)
        phase, probes, _setup, _rss = await bench.measure(
            workload, inputs, explain=True, repeats=1, inspect=True)
    runs.append((phase, probes))
    ablations = {}
    if workload == "flickr-batch":
        for name, overrides in (("wave_kernels_off", {"wave_kernels": False}),
                                ("num_cells_1", {"num_cells": 1})):
            ablated, _probes, _setup, _rss = await bench.measure(
                workload, inputs, repeats=1, probes=False, **overrides)
            runs.append((ablated, []))
            ablations[name] = ablated
    tallies = [bench.check(inputs, run, run_probes) for run, run_probes in runs]

    metrics = dict.fromkeys(METRICS, 0.0)
    metrics.update(_serving_metrics(tracer, phase, probes, phase.counters, inputs))
    metrics.update(_replay(inputs, phase))
    metrics["loadgen.late_ms.tail"] = (
        bench.tail(phase.lateness)[1] * 1e3 if phase.lateness else 0.0)
    plain_qps, traced_qps = bench.qps_of(plain), bench.qps_of(phase)
    metrics["trace.overhead_frac"] = 1.0 - traced_qps / plain_qps if plain_qps else 0.0
    if ablations:
        metrics["ablation.baseline.qps"] = plain_qps
        for name, ablated in ablations.items():
            metrics[f"ablation.{name}.qps"] = bench.qps_of(ablated)

    column = {"workload": workload, "seed": seed, "time": time.time(), "metrics": metrics}
    TABLE_DIR.mkdir(exist_ok=True)
    (TABLE_DIR / f"trace-{workload}.json").write_text(json.dumps(column))
    print_table(workload)
    return {
        "correct": all(bench.verdict(tally) for tally in tallies),
        "attempted": sum(len(run.reads) + len(run.updates) + len(run_probes)
                         for run, run_probes in runs),
        "failed": sum(sum(not read.ok for read in run.reads) + tally["update_failures"]
                      for (run, _run_probes), tally in zip(runs, tallies)),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }


def _p50(values) -> float:
    return percentile(list(values), 50.0)


def _serving_metrics(tracer: Tracer, phase, probes, counters: dict, inputs) -> dict:
    metrics: dict[str, float] = {}
    children: dict[int, list[Span]] = {}
    for span in tracer.spans:
        if span.parent is not None and span.end > 0.0:
            children.setdefault(id(span.parent), []).append(span)

    servers = [span for span in tracer.named("server")
               if span.attrs.get("path") in ("/query", "/batch")]
    self_ms, codec_ms = [], []
    for span in servers:
        kids = children.get(id(span), [])
        fronts = [(kid.start, kid.end) for kid in kids if kid.name == "frontend"]
        self_ms.append((span.duration - covered(fronts, span.start, span.end)) * 1e3)
        codec_ms.append(sum(kid.duration for kid in kids if kid.name == "codec") * 1e3)
    metrics["server.self_ms.p50"] = _p50(self_ms)
    metrics["server.codec_ms.p50"] = _p50(codec_ms)
    front = counters["frontend"]
    metrics["server.shed"] = front.shed
    metrics["server.errors"] = sum(entry.get("errors", 0) for entry in front.endpoints.values())

    executes = [span for span in tracer.spans
                if span.name in ("execute", "sharding") and span.end > 0.0]
    waits = []
    for span in tracer.named("frontend"):
        covering = [
            (ex.start, ex.end) for ex in executes
            if span.attrs["key"] in ex.attrs["keys"] and span.start <= ex.start <= span.end
        ]
        waits.append((span.duration - covered(covering, span.start, span.end)) * 1e3)
    metrics["frontend.wait_ms.p50"] = _p50(waits)
    metrics["frontend.wait_ms.tail"] = bench.tail(waits)[1] if waits else 0.0
    scheduling = counters["scheduling"]
    requests = scheduling.get("requests", 0)
    metrics["frontend.coalesced_frac"] = front.coalesced / requests if requests else 0.0
    metrics["frontend.members_per_execute"] = (
        scheduling["flights"] / scheduling["waves"] if scheduling.get("waves") else 0.0)

    cache = counters["cache"]
    metrics["cache.hit_frac"] = cache.hit_rate
    metrics["cache.evictions"] = cache.evictions
    metrics["cache.invalidations"] = cache.invalidations
    metrics["cache.stale_writes"] = cache.stale_writes

    service = counters["service"]
    sharded = tracer.named("sharding")
    metrics["sharding.execute_ms.p50"] = _p50(span.duration * 1e3 for span in sharded)
    plans = counters.get("plans", [])
    if plans:
        metrics["sharding.crosscell_frac"] = sum(plan != "local" for plan in plans) / len(plans)
    computed = sum(service.merge_wins.values())
    metrics["sharding.tasks_per_query"] = (
        sum(service.shard_tasks.values()) / computed if computed else 0.0)
    metrics["sharding.merge_wins.cell"] = service.merge_wins.get("cell", 0)
    metrics["sharding.merge_wins.crosscell"] = service.merge_wins.get("crosscell", 0)
    metrics["sharding.degraded"] = sum(
        isinstance(read.doc, dict) and read.doc.get("degraded", False) for read in phase.reads)
    if "partition" in counters:
        partition = counters["partition"]
        metrics["partition.cells"] = len(partition.cells)
        metrics["partition.border_frac"] = len(partition.border_nodes) / inputs.graph.num_nodes

    tasks = [span for span in tracer.spans if span.name == "task" and span.end > 0.0]
    metrics["backends.task_ms.p50"] = _p50(span.duration * 1e3 for span in tasks)
    metrics["backends.overhead_ms.p50"] = _p50(
        (span.duration - span.attrs.get("search", 0.0)) * 1e3 for span in tasks)
    waves = service.waves or {}
    metrics["waves.formed"] = waves.get("formed", 0)
    metrics["waves.mean_members"] = waves.get("mean_members", 0.0)
    metrics["waves.fill_rate"] = waves.get("fill_rate", 0.0)
    metrics["waves.solo_fallbacks"] = waves.get("solo_fallbacks", 0)
    metrics["backends.queue_depth_peak"] = service.queue_depth_peak
    pins = counters["pins"]
    lookups = pins.get("hits", 0) + pins.get("misses", 0)
    metrics["backends.pin_hit_frac"] = pins.get("hits", 0) / lookups if lookups else 0.0
    metrics["backends.engine_builds"] = sum(
        sum(stats.get("builds", {}).values()) for stats in counters["workers"].values())

    metrics.update(_core_metrics(phase))

    worlds = tracer.named("world")
    applies = tracer.named("service.apply_ops")
    metrics["world.update_ms.p50"] = _p50(span.duration * 1e3 for span in worlds)
    if worlds:
        metrics["world.repaired_cells.mean"] = sum(s.attrs["repaired"] for s in worlds) / len(worlds)
        metrics["world.border_rebuilt_frac"] = sum(s.attrs["border"] for s in worlds) / len(worlds)
        metrics["world.index_rebuilt_frac"] = sum(s.attrs["index"] for s in worlds) / len(worlds)
    acks = sorted(u.done - u.sent for u in phase.updates + probes if u.error is None)
    inner = sorted(span.duration for span in (worlds or applies))
    if acks and inner:
        metrics["server.update_overhead_ms"] = (_p50(acks) - _p50(inner)) * 1e3
    return metrics


def _core_metrics(phase) -> dict:
    """Per-query ``SearchStats`` from ``explain``; each computation counted once."""
    seen = set()
    per_algorithm: dict[str, list[float]] = {}
    totals: dict[str, float] = {}
    fields = {
        "core.labels_created": "labels_created",
        "core.labels_pruned.budget": "labels_pruned_budget",
        "core.labels_pruned.bound": "labels_pruned_bound",
        "core.labels_pruned.dominated": "labels_pruned_dominated",
        "core.labels_pruned.strategy2": "labels_pruned_strategy2",
        "core.jump_labels": "jump_labels_created",
        "core.loops": "loops",
        "core.buckets_opened": "buckets_opened",
    }
    for read in phase.reads:
        doc = read.doc
        if not isinstance(doc, dict) or "explain" not in doc:
            continue
        key = gen.query_key(read.query) + (read.algorithm, doc.get("epoch", 0))
        if key in seen:
            continue  # a cache hit or coalesced answer repeats the leader's stats
        seen.add(key)
        stats = doc["explain"]["search"]
        per_algorithm.setdefault(read.algorithm, []).append(stats["runtime_seconds"] * 1e3)
        for metric, name in fields.items():
            totals[metric] = totals.get(metric, 0.0) + stats.get(name, 0)
    metrics = {metric: total / len(seen) for metric, total in totals.items()} if seen else {}
    for algorithm, times in per_algorithm.items():
        metrics[f"core.search_ms.p50.{algorithm}"] = _p50(times)
        metrics[f"core.search_ms.sum.{algorithm}"] = sum(times)
    return metrics


def _replay(inputs, phase) -> dict:
    """Replay unique queries on an in-process serial twin, counting lookups.

    At most :data:`REPLAY_PER_ALGORITHM` queries per algorithm, spread
    over the keyword counts, each algorithm's as one batch.
    """
    world = MutableWorld(inputs.graph) if inputs.live else inputs.graph
    twin = build_service(world, backend="serial", cache_capacity=0)
    unique: dict[str, dict] = {}
    for read in phase.reads:
        unique.setdefault(read.algorithm, {})[gen.query_key(read.query)] = read.query
    by_algorithm = {}
    for algorithm, queries in unique.items():
        ordered = sorted(queries.values(), key=lambda q: (len(q.keywords), gen.query_key(q)))
        step = max(1, len(ordered) // REPLAY_PER_ALGORITHM)
        by_algorithm[algorithm] = ordered[::step][:REPLAY_PER_ALGORITHM]
    tracer = Tracer()
    wall = 0.0
    count = 0
    try:
        with ExitStack() as stack:
            install_lookup_counters(stack, tracer)
            for algorithm, queries in sorted(by_algorithm.items()):
                begin = time.perf_counter()
                twin.execute(queries, algorithm=algorithm)
                wall += time.perf_counter() - begin
                count += len(queries)
    finally:
        twin.close()
    metrics = {
        f"prep.lookups_per_query.{kind}": tracer.lookups.get(kind, 0) / count if count else 0.0
        for kind in ("row", "column", "scalar")
    }
    metrics["prep.lookup_share"] = tracer.lookup_seconds / wall if wall else 0.0
    metrics["core.bind_ms.p50"] = _p50(span.duration * 1e3 for span in tracer.named("bind"))
    metrics["index.candidate_sets_ms.p50"] = _p50(
        span.duration * 1e3 for span in tracer.named("candidate_sets"))
    return metrics


def print_table(current: str) -> None:
    """The stage x workload table over every column traced so far."""
    columns = {}
    for workload in bench.WORKLOADS:
        path = TABLE_DIR / f"trace-{workload}.json"
        if path.exists():
            columns[workload] = json.loads(path.read_text())
    names = list(columns)
    print(f"stage x workload (traced run; column {current} is this run's, others from "
          f"earlier traced runs in {TABLE_DIR.name}/)")
    header = f"  {'metric':<34}" + "".join(f"{name:>16}" for name in names)
    for layer, metrics, prediction in LAYERS:
        print(f"[{layer}]  should move: " + "; ".join(
            f"{name}: {prediction[name]}" for name in names))
        print(header)
        for metric in metrics:
            cells = "".join(f"{columns[name]['metrics'].get(metric, 0.0):>16.4g}"
                            for name in names)
            print(f"  {metric:<34}{cells}")

