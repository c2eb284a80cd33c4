"""``QueryService`` — the serving layer's front door.

Single queries go through :meth:`QueryService.submit` (cache probe,
compute on miss, record metrics); query lists go through
:meth:`QueryService.run_batch` / :meth:`QueryService.execute`, which add
in-batch dedup, one shared candidate-set pass over the index, and a
fan-out over a pluggable execution backend (see
:mod:`repro.service.batch` and :mod:`repro.service.backends`).

The service never mutates its engine: the graph, cost tables and index
are read-only at serve time, which is what makes the concurrent paths
safe.  Results handed out for cache hits are the *same objects* the
first computation produced — treat ``KORResult`` as immutable (its
``query`` attribute names the query that first computed the entry).

Swapping the engine (:meth:`QueryService.replace_engine`) invalidates
the cache — keys describe only the query, so entries computed against
the old graph must not survive the swap.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Mapping, Sequence

from repro.core.deadline import Deadline
from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.exceptions import QueryError
from repro.graph.mutation import GraphMutator, resolve_ops
from repro.service.backends import (
    DEFAULT_WORKERS,
    EngineHandle,
    ExecutionBackend,
    PartPatch,
)
from repro.service.batch import (
    BatchReport,
    WaveSizeController,
    _LocalTask,
    execute_batch,
)
from repro.service import faults
from repro.service.cache import UNCACHEABLE_PARAMS, ResultCache, canonical_cache_key
from repro.service.fence import EpochFence
from repro.service.stats import ServiceStats, StatsSnapshot

__all__ = ["QueryService"]


class QueryService:
    """Batched, cached, concurrent serving over one :class:`KOREngine`.

    Parameters
    ----------
    engine:
        The pre-processed engine to serve from.
    cache_capacity:
        LRU result-cache size in entries; 0 disables caching.
    default_workers:
        Fan-out width :meth:`run_batch` uses when the call does not pick
        one (in-process backends only — a process pool's width is fixed
        at backend construction).
    backend:
        Execution strategy for batches.  ``None`` (default) keeps PR 1's
        behaviour: a transient thread pool per batch.  Passing a
        :class:`~repro.service.backends.ProcessBackend` moves the
        compute out of the GIL; the service registers its engine with
        the backend automatically.
    max_cached_route_nodes:
        Optional total-route-size budget for the cache (results store
        full routes); see :class:`~repro.service.cache.ResultCache`.
    wave_kernels:
        Whether batches group their unique computations into numpy
        kernel waves (default True; see :mod:`repro.core.kernels`).
        Results are identical either way — turn off to force the
        one-submission-per-query path (e.g. when profiling it).
    wave_size:
        Fixed wave size, or ``None`` (default) for adaptive sizing: a
        :class:`~repro.service.batch.WaveSizeController` grows waves
        from the default when the graph's out-edge blocks are wide and
        the observed arrival rate is high (see :meth:`tune_waves`).
    """

    def __init__(
        self,
        engine: KOREngine,
        cache_capacity: int = 1024,
        default_workers: int = DEFAULT_WORKERS,
        backend: ExecutionBackend | None = None,
        max_cached_route_nodes: int | None = None,
        wave_kernels: bool = True,
        wave_size: int | None = None,
    ) -> None:
        if default_workers < 1:
            raise QueryError(f"default_workers must be >= 1, got {default_workers}")
        self._engine = engine
        self._cache = ResultCache(cache_capacity, max_route_nodes=max_cached_route_nodes)
        self._stats = ServiceStats()
        self._default_workers = default_workers
        self._wave_kernels = wave_kernels
        self._wave_controller = (
            WaveSizeController(wave_size, fixed=True)
            if wave_size is not None
            else WaveSizeController()
        )
        self._wave_controller.retarget(engine.graph)
        self._backend = backend
        self._handle = EngineHandle(engine)
        self._fence = EpochFence()
        self._update_lock = threading.Lock()
        self._mutator: GraphMutator | None = None
        # Set by build_service when it constructed the backend itself;
        # close() then owns the backend's lifecycle too.
        self._owns_backend = False
        if backend is not None:
            backend.register(self._handle)

    @classmethod
    def from_graph(cls, graph, **kwargs) -> "QueryService":
        """Convenience: pre-process *graph* and serve it."""
        return cls(KOREngine(graph), **kwargs)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def engine(self) -> KOREngine:
        """The wrapped engine."""
        return self._engine

    @property
    def backend(self) -> ExecutionBackend | None:
        """The execution backend (None = transient thread pools)."""
        return self._backend

    @property
    def cache(self) -> ResultCache:
        """The canonicalizing LRU result cache."""
        return self._cache

    @property
    def stats(self) -> ServiceStats:
        """Serving metrics (latency percentiles, hit rate, throughput)."""
        return self._stats

    @property
    def wave_size(self) -> int:
        """The wave size the next batch dispatch will use."""
        return self._wave_controller.wave_size

    def tune_waves(self, arrival_qps: float) -> int:
        """Feed the arrival-rate estimate into adaptive wave sizing.

        Called by :class:`~repro.service.frontend.AsyncQueryService`
        whenever its EWMA updates (and by ``/tune``); returns the wave
        size now in effect.  A service built with an explicit
        ``wave_size`` ignores the signal.
        """
        self._wave_controller.observe(arrival_qps)
        return self._wave_controller.wave_size

    def wave_policy(self) -> dict:
        """The adaptive-sizing policy snapshot (``scheduling_stats``)."""
        return self._wave_controller.describe()

    @property
    def epoch(self) -> int:
        """Graph epoch: applied updates / engine swaps since construction.

        Clients compare this against the epoch stamped on responses to
        detect results computed against a retired graph.
        """
        return self._fence.epoch

    def snapshot(self) -> StatsSnapshot:
        """One frozen view of the serving story.

        Beyond the raw :class:`ServiceStats` aggregates this folds in
        the backend's live submission accounting (``queue_depth_peak``)
        and, for a warm-pinned process backend, its pin counters
        (``pinning``).
        """
        backend = self._backend
        pinning = None
        queue_depth = None
        if backend is not None:
            queue_depth = backend.peak_in_flight
            pin_stats = getattr(backend, "pin_stats", None)
            if callable(pin_stats):
                pinning = pin_stats()
        return self._stats.snapshot(pinning=pinning, queue_depth_peak=queue_depth)

    # ------------------------------------------------------------------
    # engine lifecycle
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> int:
        """Drop every cached result and bump the cache epoch."""
        return self._cache.invalidate()

    def replace_engine(self, engine: KOREngine) -> None:
        """Serve from *engine* from now on, invalidating the cache.

        The cache's epoch guard also discards results still being
        computed against the old engine when they try to store
        themselves (see :class:`~repro.service.cache.ResultCache`).
        """
        with self._fence.landing():
            retired = self._handle
            self._engine = engine
            self._handle = EngineHandle(engine)
            # The mutation history described the retired graph.
            self._mutator = None
            self._wave_controller.retarget(engine.graph)
            self._fence.epoch += 1
            if self._backend is not None:
                self._backend.unregister(retired.key)
                self._backend.register(self._handle)
            self._cache.invalidate()

    def close(self) -> None:
        """Retire this service's engine from the backend (idempotent).

        On a shared backend the handle would otherwise stay registered —
        and keep shipping to new pool workers — for the backend's
        lifetime.  The backend itself is only closed when
        :func:`~repro.service.config.build_service` created it for this
        service.
        """
        if self._backend is not None:
            self._backend.unregister(self._handle.key)
            if self._owns_backend:
                self._backend.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # live mutation
    # ------------------------------------------------------------------
    def apply_ops(self, ops: Sequence[Mapping[str, object]]) -> int:
        """Apply wire-shaped graph mutations; returns the new epoch.

        The flat service has no partition, so repair *is* a full
        rebuild: tables and index are recomputed over the mutated graph
        (the sharded service repairs incrementally — see
        :meth:`repro.service.sharding.ShardedQueryService.apply_ops`).
        What it shares with the sharded path is the delivery protocol:
        the engine handle is reset in place (same key), pool workers
        receive a :class:`~repro.service.backends.PartPatch` through
        their ordinary task queues, and the cache is invalidated exactly
        once after the swap.  The rebuild runs beside serving; the swap
        lands under the :class:`~repro.service.fence.EpochFence`, after
        the waves in flight finish on the old engine.
        """
        with self._update_lock:
            if self._mutator is None:
                self._mutator = GraphMutator(self._engine.graph)
            delta = resolve_ops(self._mutator, ops)
            engine = type(self._engine)(self._mutator.graph)
            with self._fence.landing():
                self._engine = engine
                self._handle.reset(engine)
                if self._backend is not None:
                    # A delta that interned new keywords must ship the
                    # full graph: the worker would intern in merged-delta
                    # order, not op order, and disagree with the shipped
                    # index on keyword ids.
                    structural_only = not delta.set_keywords
                    self._backend.apply_patches(
                        [
                            PartPatch(
                                key=self._handle.key,
                                graph=None if structural_only else engine.graph,
                                graph_delta=delta if structural_only else None,
                                tables=engine.tables,
                                index=engine.index,
                            )
                        ]
                    )
                self._wave_controller.retarget(engine.graph)
                self._fence.epoch += 1
                self._cache.invalidate()
                return self._fence.epoch

    def update_edge_cost(
        self,
        u: int,
        v: int,
        objective: float | None = None,
        budget: float | None = None,
    ) -> int:
        """Re-cost edge ``(u, v)``; returns the new epoch."""
        op = {"op": "update_edge_cost", "u": u, "v": v}
        if objective is not None:
            op["objective"] = objective
        if budget is not None:
            op["budget"] = budget
        return self.apply_ops([op])

    def close_node(self, node: int) -> int:
        """Take *node* out of service; returns the new epoch."""
        return self.apply_ops([{"op": "close_node", "node": node}])

    def open_node(self, node: int) -> int:
        """Restore a closed node; returns the new epoch."""
        return self.apply_ops([{"op": "open_node", "node": node}])

    def update_keywords(self, node: int, keywords: Iterable[str]) -> int:
        """Replace *node*'s keywords; returns the new epoch."""
        return self.apply_ops(
            [{"op": "update_keywords", "node": node, "keywords": list(keywords)}]
        )

    # ------------------------------------------------------------------
    # single queries
    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        keywords: Iterable[str],
        budget_limit: float,
        algorithm: str = "bucketbound",
        **params,
    ) -> KORResult:
        """Answer one KOR query through the cache (mirrors ``engine.query``)."""
        return self.submit(
            KORQuery(source, target, tuple(keywords), budget_limit),
            algorithm=algorithm,
            **params,
        )

    def submit(
        self,
        query: KORQuery,
        algorithm: str = "bucketbound",
        deadline: Deadline | None = None,
        **params,
    ) -> KORResult:
        """Answer a pre-built query, serving repeats from the cache.

        Calls carrying uncacheable parameters (``trace`` and friends, see
        :data:`repro.service.cache.UNCACHEABLE_PARAMS`) bypass the cache
        in both directions but still feed the metrics.  Single queries
        always compute in the calling thread — backends only pay off on
        batches.

        ``deadline`` travels out-of-band: it reaches the engine run but
        never the cache key, so a deadline-carrying repeat still hits the
        cache, and a search that outlives its deadline fails with
        :class:`~repro.exceptions.DeadlineExceeded` without caching
        anything.

        Cacheable misses are **single-flight protected**: concurrent
        submissions of the same canonical key fold into one engine run
        (see :meth:`repro.service.cache.ResultCache.get_or_compute`);
        the waiters count as coalesced cache-served queries.
        """
        if "deadline" in params:
            raise QueryError(
                "'deadline' is not a query parameter; pass deadline= to the "
                "service call instead"
            )
        begin = time.perf_counter()
        cacheable = not (UNCACHEABLE_PARAMS & params.keys())
        key = canonical_cache_key(query, algorithm, params) if cacheable else None
        compute_params = params if deadline is None else {**params, "deadline": deadline}

        def compute() -> KORResult:
            # Same fault hook as the batch paths: one global load plus a
            # None check when no plan is installed.
            plan = faults._ACTIVE
            if plan is not None:
                plan.on_task(_LocalTask(self._handle.key, query))
            return self._engine.run(query, algorithm=algorithm, **compute_params)

        try:
            with self._fence.wave() as served_epoch:
                if cacheable:
                    result, how = self._cache.get_or_compute(
                        key, compute, epoch=self._cache.epoch
                    )
                else:
                    result, how = compute(), "computed"
        except Exception:
            self._stats.record_error()
            self._stats.record_busy(time.perf_counter() - begin)
            raise
        result.epoch = served_epoch
        elapsed = time.perf_counter() - begin
        if how == "coalesced":
            self._stats.record_coalesced()
        self._stats.record_query(elapsed, cached=how != "computed")
        self._stats.record_busy(elapsed)
        return result

    # ------------------------------------------------------------------
    # batches
    # ------------------------------------------------------------------
    def execute(
        self,
        queries: Sequence[KORQuery],
        algorithm: str = "bucketbound",
        workers: int | None = None,
        deadline: Deadline | None = None,
        **params,
    ) -> BatchReport:
        """Run a batch, returning the full per-slot :class:`BatchReport`.

        Failed slots carry their exception; successful slots are cached
        and unaffected.  Slot order is the submission order regardless of
        ``workers`` or backend.  ``deadline`` (out-of-band, never in
        cache keys) bounds every slot's search.  The batch runs inside the
        :class:`~repro.service.fence.EpochFence` and its results are
        stamped with the epoch it was served under.
        """
        if algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
            )
        with self._fence.wave() as epoch:
            report = execute_batch(
                self._engine,
                self._cache,
                queries,
                algorithm=algorithm,
                workers=workers if workers is not None else self._default_workers,
                params=params,
                backend=self._backend,
                handle=self._handle,
                deadline=deadline,
                wave_kernels=self._wave_kernels,
                wave_size=self._wave_controller.wave_size,
                stats=self._stats,
            )
        report.stamp(epoch)
        for item in report.items:
            if item.ok:
                self._stats.record_query(item.latency_seconds, cached=item.cached)
            else:
                self._stats.record_error()
        self._stats.record_busy(report.wall_seconds)
        return report

    def run_batch(
        self,
        queries: Sequence[KORQuery],
        algorithm: str = "bucketbound",
        workers: int | None = None,
        deadline: Deadline | None = None,
        **params,
    ) -> list[KORResult]:
        """Run a batch and return its results in submission order.

        Raises :class:`repro.service.batch.BatchError` (carrying the full
        report) when any slot failed.
        """
        return self.execute(
            queries,
            algorithm=algorithm,
            workers=workers,
            deadline=deadline,
            **params,
        ).results()
