"""Batch execution: dedup, shared candidate sets, pluggable fan-out.

``execute_batch`` is the engine room of ``QueryService.run_batch``:

1. every slot is probed against the result cache (canonical keys, so a
   reordered keyword list still hits);
2. the remaining misses are deduplicated *within* the batch — two slots
   with the same canonical key share one computation;
3. the union of the miss queries' keywords is resolved through the
   engine's index in a single ``candidate_sets`` call, so a keyword
   shared by hundreds of queries costs one posting lookup;
4. unique computations fan out over the caller's
   :class:`repro.service.backends.ExecutionBackend` — an in-process
   backend (serial / thread pool) runs closures sharing the engine and
   the candidate map directly, while an out-of-process backend receives
   picklable :class:`~repro.service.backends.ShardTask` work addressed
   at the engine's registered handle (each worker process resolves its
   own binding; candidate sharing is an in-process optimisation only);
5. unique computations are grouped into **waves** of up to
   ``wave_size`` queries (``wave_kernels=True``, the default) — one
   kernel invocation (:func:`repro.core.kernels.run_wave`) per wave
   instead of one submission per query — with bit-identical results and
   per-member failure containment; a wave whose submission breaks
   outright falls back to per-query tasks;
6. results land back in their slots, so the report's order is the
   submission order no matter how many workers raced.

A slot whose computation raises is reported through its
:class:`BatchItem.error`; nothing about it enters the cache and no other
slot is disturbed.  Cache writes carry the epoch captured before the
batch computed, so a cache invalidated mid-batch (engine swap) never
receives stale routes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.deadline import Deadline
from repro.core.engine import KOREngine
from repro.core.kernels import KernelContext, run_wave
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.exceptions import QueryError
from repro.service.backends import (
    DEFAULT_WORKERS,
    EngineHandle,
    ExecutionBackend,
    ShardTask,
    ThreadBackend,
    WaveTask,
)
from repro.service.cache import UNCACHEABLE_PARAMS, ResultCache, canonical_cache_key
from repro.service import faults

__all__ = [
    "BatchError",
    "BatchItem",
    "BatchReport",
    "DEFAULT_WAVE_SIZE",
    "MAX_WAVE_SIZE",
    "WaveSizeController",
    "execute_batch",
]

#: How many unique computations one kernel wave carries.  Bigger waves
#: amortise numpy dispatch better (more pooled edges per lockstep step)
#: but serialise more work behind one submission; 32 queries x mean
#: degree ~3 keeps each step's block in the hundreds of lanes.
DEFAULT_WAVE_SIZE = 32

#: Hard ceiling on adaptive growth: beyond this a wave serialises too
#: much work behind one submission slot to be worth the wider blocks.
MAX_WAVE_SIZE = 128

#: Mean out-degree at which the base wave size already pools
#: comfortably wide step blocks (road networks sit around 2-4).
_REFERENCE_OUT_DEGREE = 4.0

#: Arrival rate (queries/second, the micro-batcher's EWMA) above which
#: the controller switches from the base to the grown wave size: under
#: load, larger waves amortise submission overhead that would otherwise
#: dominate; at low rates small waves keep per-wave latency low.
_GROWTH_QPS_THRESHOLD = 64.0


class WaveSizeController:
    """Adaptive wave sizing for the kernel dispatch paths.

    Replaces the fixed ``wave_size=32`` with a two-signal policy:

    * **width** — how wide the pooled out-edge blocks get, proxied by the
      graph's mean out-degree.  A denser graph pools more lanes per
      member, so bigger waves keep amortising numpy dispatch instead of
      just serialising work; the grown size scales the base by
      ``degree / reference_degree``, clamped to ``[base, cap]``.
    * **rate** — the arrival-rate EWMA the micro-batcher already tracks
      (:meth:`~repro.service.frontend.AsyncQueryService.tune` feeds it
      through ``tune_waves``).  Below the threshold the controller stays
      at the base size (latency-friendly); at or above it, waves grow.

    A controller built with ``fixed=True`` (the caller passed an explicit
    ``wave_size``) always returns the base — the knob stays honest.
    """

    def __init__(
        self,
        base: int = DEFAULT_WAVE_SIZE,
        *,
        fixed: bool = False,
        cap: int = MAX_WAVE_SIZE,
        reference_degree: float = _REFERENCE_OUT_DEGREE,
        rate_threshold: float = _GROWTH_QPS_THRESHOLD,
    ) -> None:
        if base < 1:
            raise QueryError(f"wave_size must be >= 1, got {base}")
        self.base = int(base)
        self.fixed = bool(fixed)
        self.cap = max(int(cap), self.base)
        self.reference_degree = float(reference_degree)
        self.rate_threshold = float(rate_threshold)
        self._grown = self.base
        self._arrival_qps = 0.0

    def retarget(self, graph) -> None:
        """Recompute the grown size from *graph*'s mean out-degree.

        Called at service construction and again whenever the engine is
        swapped or the world mutates (the graph's density may change).
        """
        if self.fixed:
            return
        degree = graph.num_edges / max(1, graph.num_nodes)
        scaled = int(self.base * degree / self.reference_degree)
        self._grown = max(self.base, min(self.cap, scaled))

    def observe(self, arrival_qps: float) -> None:
        """Feed the latest arrival-rate estimate (queries/second)."""
        self._arrival_qps = max(0.0, float(arrival_qps))

    @property
    def wave_size(self) -> int:
        """The wave size the next dispatch should use."""
        if self.fixed:
            return self.base
        return self._grown if self._arrival_qps >= self.rate_threshold else self.base

    def describe(self) -> dict:
        """Snapshot of the policy for ``scheduling_stats`` / ``/tune``."""
        return {
            "mode": "fixed" if self.fixed else "adaptive",
            "base": self.base,
            "grown": self._grown,
            "cap": self.cap,
            "rate_threshold": self.rate_threshold,
            "arrival_qps": self._arrival_qps,
            "wave_size": self.wave_size,
        }


@dataclass
class BatchItem:
    """Outcome of one slot of a batch, in submission order."""

    index: int
    query: KORQuery
    result: KORResult | None = None
    error: Exception | None = None
    cached: bool = False
    latency_seconds: float = 0.0
    #: Key of the engine handle the computation was addressed to (the
    #: winning shard on a sharded service); None for cache hits.
    shard: str | None = None
    #: Routing decision of a sharded service (``local`` /
    #: ``endpoints-span-cells`` / ...); None on the flat service and for
    #: cache hits, which never reach the router.
    plan: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the slot produced a result."""
        return self.error is None and self.result is not None


@dataclass
class BatchReport:
    """Everything a batch produced, slot by slot."""

    items: list[BatchItem]
    wall_seconds: float

    @property
    def ok(self) -> bool:
        """Whether every slot succeeded."""
        return all(item.ok for item in self.items)

    @property
    def errors(self) -> dict[int, Exception]:
        """Slot index -> exception, for the slots that failed."""
        return {item.index: item.error for item in self.items if item.error is not None}

    def stamp(self, epoch: int) -> None:
        """Mark every result with the graph epoch the batch was served under."""
        for item in self.items:
            if item.result is not None:
                item.result.epoch = epoch

    def results(self) -> list[KORResult]:
        """The per-slot results in submission order.

        Raises :class:`BatchError` when any slot failed — use
        :attr:`items` to consume partial outcomes.
        """
        if not self.ok:
            raise BatchError(self)
        return [item.result for item in self.items]


class BatchError(QueryError):
    """Raised when :meth:`BatchReport.results` meets failed slots.

    Carries the full :attr:`report` so callers can still consume the
    slots that did succeed.
    """

    def __init__(self, report: BatchReport) -> None:
        errors = report.errors
        preview = "; ".join(
            f"[{index}] {error}" for index, error in sorted(errors.items())[:3]
        )
        super().__init__(
            f"{len(errors)} of {len(report.items)} batch queries failed: {preview}"
        )
        self.report = report


@dataclass
class _Unit:
    """One unique computation, shared by every slot with its key."""

    query: KORQuery
    slots: list[int]
    key: Hashable | None = None
    result: KORResult | None = None
    error: Exception | None = None
    latency_seconds: float = 0.0
    shard: str | None = None
    plan: str | None = None


def dedup_units(
    items: list[BatchItem],
    keys: list[Hashable | None],
    cache: ResultCache,
    cacheable: bool,
    epoch: int | None,
) -> list[_Unit]:
    """Probe the cache and fold the misses into per-key units.

    Cache hits are written straight into their items; the returned units
    cover exactly the slots that still need computing, deduplicated by
    canonical key within the batch.
    """
    units: list[_Unit] = []
    by_key: dict[Hashable, _Unit] = {}
    for item in items:
        key = keys[item.index]
        hit = cache.get(key, epoch=epoch) if cacheable else None
        if hit is not None:
            item.result = hit
            item.cached = True
            continue
        if cacheable and key in by_key:
            by_key[key].slots.append(item.index)
            continue
        unit = _Unit(query=item.query, slots=[item.index], key=key)
        units.append(unit)
        if cacheable:
            by_key[key] = unit
    return units


def batch_keys(
    queries: Sequence[KORQuery], algorithm: str, params: dict
) -> tuple[bool, list[Hashable | None]]:
    """Canonical keys for a batch (and whether it is cacheable at all)."""
    cacheable = not (UNCACHEABLE_PARAMS & params.keys())
    if cacheable:
        try:
            return True, [canonical_cache_key(q, algorithm, params) for q in queries]
        except QueryError:
            # Unhashable parameter values: serve the batch, skip the cache.
            pass
    return False, [None] * len(queries)


def execute_batch(
    engine: KOREngine,
    cache: ResultCache,
    queries: Sequence[KORQuery],
    algorithm: str = "bucketbound",
    workers: int | None = None,
    params: dict | None = None,
    backend: ExecutionBackend | None = None,
    handle: EngineHandle | None = None,
    deadline: Deadline | None = None,
    wave_kernels: bool = True,
    wave_size: int = DEFAULT_WAVE_SIZE,
    stats=None,
) -> BatchReport:
    """Run *queries* through *engine* with caching and shared candidates.

    ``backend`` picks the execution strategy (default: a transient
    :class:`~repro.service.backends.ThreadBackend`, the pre-backend
    behaviour).  An out-of-process backend additionally needs ``handle``
    — the engine's registered :class:`EngineHandle` — so tasks can name
    the engine across the process boundary.  ``deadline``, when given,
    travels out-of-band into every unit's engine run (it never enters
    cache keys); a slot whose search outlives it fails with
    :class:`~repro.exceptions.DeadlineExceeded` without disturbing its
    neighbours, and nothing about it is cached.

    ``wave_kernels`` (default on) groups the batch's unique computations
    into waves of up to ``wave_size`` queries, each executed through one
    :func:`repro.core.kernels.run_wave` invocation — numpy lockstep for
    the eligible label-correcting algorithms, per-member execution (with
    shared candidates) otherwise.  Results are bit-identical to the
    per-query path; a wave whose submission breaks outright is resubmitted
    member by member, so containment matches the per-query path too.

    ``stats``, when given, is a :class:`~repro.service.stats.ServiceStats`
    (or anything with ``record_wave`` / ``record_wave_solo``) receiving
    the wave-dispatch occupancy counters.
    """
    params = dict(params or {})
    if "binding" in params or "candidates" in params:
        # A binding describes exactly one query and the executor builds its
        # own shared candidate map, so a batch-wide value is always wrong.
        raise QueryError(
            "'binding'/'candidates' cannot be passed to a batch: they are "
            "per-query; use engine.run() directly to supply them"
        )
    if "deadline" in params:
        # Deadlines travel out-of-band (the ``deadline=`` argument) so
        # cache keys and wave grouping never see them.
        raise QueryError(
            "'deadline' is not a query parameter; pass deadline= to the "
            "service call instead"
        )
    if wave_size < 1:
        raise QueryError(f"wave_size must be >= 1, got {wave_size}")
    begin = time.perf_counter()
    queries = list(queries)
    items = [BatchItem(index=i, query=query) for i, query in enumerate(queries)]

    cacheable, keys = batch_keys(queries, algorithm, params)
    epoch = cache.epoch if cacheable else None
    units = dedup_units(items, keys, cache, cacheable, epoch)

    if units:
        owned: ThreadBackend | None = None
        if backend is None:
            # Pools are persistent now, so a transient default backend
            # must be closed with the batch — and sized to the call's
            # workers, preserving the old per-batch pool semantics.
            backend = owned = ThreadBackend(workers if workers is not None else DEFAULT_WORKERS)
        try:
            if backend.in_process:
                _compute_in_process(
                    engine,
                    units,
                    algorithm,
                    params,
                    backend,
                    workers,
                    deadline,
                    shard=handle.key if handle is not None else "local",
                    wave_kernels=wave_kernels,
                    wave_size=wave_size,
                    stats=stats,
                )
            else:
                _compute_on_backend(
                    units,
                    algorithm,
                    params,
                    backend,
                    handle,
                    workers,
                    deadline,
                    wave_kernels=wave_kernels,
                    wave_size=wave_size,
                    stats=stats,
                )
        finally:
            if owned is not None:
                owned.close()

        shard_key = handle.key if handle is not None else None
        for unit in units:
            if unit.error is None and cacheable:
                cache.put(unit.key, unit.result, epoch=epoch)
            for slot in unit.slots:
                items[slot].result = unit.result
                items[slot].error = unit.error
                items[slot].latency_seconds = unit.latency_seconds
                items[slot].shard = shard_key

    return BatchReport(items=items, wall_seconds=time.perf_counter() - begin)


@dataclass(frozen=True)
class _LocalTask:
    """What an in-process unit looks like to a fault plan's task hook."""

    shard: str
    query: KORQuery


def _chunked(units: list[_Unit], size: int) -> list[list[_Unit]]:
    return [units[i : i + size] for i in range(0, len(units), size)]


def _fill_unit(unit: _Unit, outcome) -> None:
    unit.result = outcome.result
    unit.error = outcome.error
    unit.latency_seconds = outcome.latency_seconds


def _compute_in_process(
    engine: KOREngine,
    units: list[_Unit],
    algorithm: str,
    params: dict,
    backend: ExecutionBackend,
    workers: int | None,
    deadline: Deadline | None = None,
    shard: str = "local",
    wave_kernels: bool = True,
    wave_size: int = DEFAULT_WAVE_SIZE,
    stats=None,
) -> None:
    """Closure path: shared candidate map, live engine, backend.map."""
    # One index pass for the whole batch: the union of every miss
    # query's keywords, resolved to candidate node sets exactly once.
    words = {word for unit in units for word in unit.query.keywords}
    candidates = engine.candidate_sets(words) if words else {}
    if wave_kernels and len(units) > 1:
        _compute_waves_in_process(
            engine, units, algorithm, params, backend, workers,
            deadline, shard, candidates, wave_size, stats,
        )
        return
    if deadline is not None:
        params = {**params, "deadline": deadline}

    def compute(unit: _Unit) -> None:
        unit_begin = time.perf_counter()
        try:
            # Same fault hook as run_task_on_engine: one global load
            # plus a None check when no plan is installed.
            plan = faults._ACTIVE
            if plan is not None:
                plan.on_task(_LocalTask(shard, unit.query))
            binding = engine.bind(unit.query, candidates=candidates)
            unit.result = engine.run(
                unit.query, algorithm=algorithm, binding=binding, **params
            )
        except Exception as error:  # noqa: BLE001 - reported per slot
            unit.error = error
        unit.latency_seconds = time.perf_counter() - unit_begin

    backend.map(compute, units, workers=workers)


def _compute_waves_in_process(
    engine: KOREngine,
    units: list[_Unit],
    algorithm: str,
    params: dict,
    backend: ExecutionBackend,
    workers: int | None,
    deadline: Deadline | None,
    shard: str,
    candidates: dict,
    wave_size: int,
    stats=None,
) -> None:
    """Wave path on a live engine: chunk the unique computations into
    waves and run each through one kernel invocation (waves themselves
    still fan out over the backend)."""
    kctx = KernelContext(engine.graph, engine.tables)
    chunks = _chunked(units, wave_size)
    if stats is not None:
        for chunk in chunks:
            if len(chunk) > 1:
                stats.record_wave(len(chunk), wave_size)
            else:
                stats.record_wave_solo()

    def compute(chunk: list[_Unit]) -> None:
        # Same fault hook as the per-unit closure: members present to the
        # plan as _LocalTask, one global load when no plan is installed.
        plan = faults._ACTIVE
        on_member = None
        if plan is not None:

            def on_member(_index: int, query: KORQuery, _plan=plan) -> None:
                _plan.on_task(_LocalTask(shard, query))

        outcomes = run_wave(
            engine,
            [unit.query for unit in chunk],
            algorithm,
            params,
            candidates=candidates,
            deadline=deadline,
            on_member=on_member,
            kernel_context=kctx,
        )
        for unit, outcome in zip(chunk, outcomes):
            _fill_unit(unit, outcome)

    backend.map(compute, chunks, workers=workers)


def _compute_on_backend(
    units: list[_Unit],
    algorithm: str,
    params: dict,
    backend: ExecutionBackend,
    handle: EngineHandle | None,
    workers: int | None,
    deadline: Deadline | None = None,
    wave_kernels: bool = True,
    wave_size: int = DEFAULT_WAVE_SIZE,
    stats=None,
) -> None:
    """Task path: picklable ShardTasks against the engine's handle."""
    if handle is None:
        raise QueryError(
            f"{type(backend).__name__} needs the engine's EngineHandle to "
            "address work across the process boundary; pass handle="
        )
    if "trace" in params:
        # The worker would fill a pickled *copy* of the caller's trace
        # sink; refusing beats silently returning an empty trace.
        raise QueryError(
            "'trace' cannot cross the process boundary: run traced queries "
            "on an in-process backend (serial/thread) or engine.run()"
        )
    if wave_kernels and len(units) > 1:
        leftovers = _compute_waves_on_backend(
            units, algorithm, params, backend, handle, deadline, wave_size, stats
        )
        if not leftovers:
            return
        units = leftovers
        if stats is not None:
            stats.record_wave_solo(len(leftovers))
    tasks = [
        ShardTask.build(handle.key, unit.query, algorithm, params, deadline=deadline)
        for unit in units
    ]
    outcomes = backend.run_tasks(tasks, workers=workers)
    for unit, outcome in zip(units, outcomes):
        _fill_unit(unit, outcome)


def _compute_waves_on_backend(
    units: list[_Unit],
    algorithm: str,
    params: dict,
    backend: ExecutionBackend,
    handle: EngineHandle,
    deadline: Deadline | None,
    wave_size: int,
    stats=None,
) -> list[_Unit]:
    """Submit the units as :class:`WaveTask` work; return the units of
    any wave whose *submission* broke (worker dead beyond retry,
    cancellation) so the caller re-runs them as per-query tasks.

    Member-level failures are not leftovers — they arrive inside the
    wave's outcome list and land in their units like any task error.
    """
    chunks = _chunked(units, wave_size)
    waves = [
        WaveTask.build(
            handle.key, [u.query for u in chunk], algorithm, params, deadline=deadline
        )
        for chunk in chunks
    ]
    if stats is not None:
        for chunk in chunks:
            if len(chunk) > 1:
                stats.record_wave(len(chunk), wave_size)
            else:
                stats.record_wave_solo()
    futures = [backend.submit_wave(wave) for wave in waves]
    leftovers: list[_Unit] = []
    for chunk, future in zip(chunks, futures):
        try:
            outcomes = future.result()
        except Exception:  # noqa: BLE001 - broken wave, degrade per query
            leftovers.extend(chunk)
            continue
        if not isinstance(outcomes, list) or len(outcomes) != len(chunk):
            leftovers.extend(chunk)
            continue
        for unit, outcome in zip(chunk, outcomes):
            _fill_unit(unit, outcome)
    return leftovers
