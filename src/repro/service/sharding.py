"""``ShardedQueryService`` — partition-routed serving over many engines.

The flat :class:`~repro.service.service.QueryService` wraps exactly one
:class:`~repro.core.engine.KOREngine`, whose dense cost tables are the
scale ceiling: ``O(n^2)`` floats per matrix.  This module splits the
graph with :func:`repro.prep.partition.partition_graph` (the paper's
Section-6 sketch) and builds **one engine per cell** — each with its own
(small) tables and inverted index over the cell's induced subgraph —
plus one :class:`~repro.service.crosscell.BorderEngine` that answers
queries over the *full* graph from the very same per-cell tables plus a
``k x k`` border tier.  There is **no flat global engine**: per-service
table memory genuinely shrinks as ``num_cells`` grows, because nothing
holds an ``O(n^2)`` matrix any more.

Routing rule
------------
A query is *cell-local* when the cell owning its **source node** also
owns the target **and** every query keyword has at least one candidate
node inside that cell.  For such queries the service runs **one wave of
two concurrent attempts**: the owning cell's engine (cheap, sees only
the induced subgraph) and the cross-cell :class:`BorderEngine` (sees the
whole graph through assembled border tables).  Feasible outcomes merge
by objective score, ties preferring the cell engine; a cell route is
always genuinely feasible (the subgraph is a subgraph), and the border
assembly is *exact* (see :mod:`repro.service.crosscell`), so the merged
answer carries the same feasibility/objective semantics as a flat
engine.  Queries whose endpoints or keywords span cells — or whose
keywords are missing from the vocabulary entirely — skip the cell
attempt and run on the :class:`BorderEngine` alone.  Compared to the
previous local-then-global *sequential* escalation this one-wave scatter
removes a full round trip from border-heavy traffic: the cross-cell
answer is already computing while the local attempt runs.

With ``num_cells=1`` the single cell *is* the whole graph: the shard
engine answers everything by itself (the cross-cell twin would be a
duplicate and is skipped) and every answer matches the flat service bit
for bit.

Execution
---------
Shard work is described as picklable
:class:`~repro.service.backends.ShardTask` objects and executed by any
:class:`~repro.service.backends.ExecutionBackend` — serial, thread pool,
or a process pool whose workers hold their own copies of the shard
engines (finally escaping the GIL for CPU-bound batch fan-out).  The
cross-cell engine ships to workers the same way: its
:class:`~repro.service.backends.EngineHandle` pickles the partitioned
border tables and re-materialises a ``BorderEngine`` worker-side.
Results coming back from a cell engine are translated from cell-local
node ids to global ids before anything downstream sees them.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.deadline import Deadline
from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.core.route import Route
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.prep.partition import GraphPartition
from repro.service.backends import (
    DEFAULT_WORKERS,
    EngineHandle,
    ExecutionBackend,
    PartPatch,
    ShardTask,
    TaskOutcome,
    ThreadBackend,
    WaveTask,
    _outcome_of,
)
from repro.service.batch import (
    BatchItem,
    BatchReport,
    WaveSizeController,
    batch_keys,
    dedup_units,
)
from repro.service.cache import ResultCache
from repro.service.crosscell import BorderEngine
from repro.service.fence import EpochFence
from repro.service.stats import ServiceStats, StatsSnapshot
from repro.world import CellState, MutableWorld, WorldUpdate

__all__ = ["Shard", "ShardedQueryService"]

_SERVICE_COUNTER = itertools.count()

#: Routing decisions, as reported by :meth:`ShardedQueryService.plan_of`.
LOCAL = "local"
SPAN_ENDPOINTS = "endpoints-span-cells"
SPAN_KEYWORDS = "keywords-span-cells"
MISSING_KEYWORDS = "keywords-missing-from-graph"
INVALID_ENDPOINTS = "invalid-endpoints"

#: Table arrays counted by :meth:`ShardedQueryService.memory_bytes`.
_TABLE_ARRAYS = ("os_tau", "bs_tau", "os_sigma", "bs_sigma", "pred_tau", "pred_sigma")
_BORDER_ARRAYS = (
    "border_os_tau",
    "border_bs_tau",
    "border_os_sigma",
    "border_bs_sigma",
    "border_pred_tau",
    "border_pred_sigma",
)


@dataclass(frozen=True)
class Shard:
    """One cell's worth of serving state.

    ``to_global[local_id] == global_id``; ``to_local`` is the inverse
    mapping (global ids of this cell only).
    """

    key: str
    cell: int
    engine: KOREngine
    handle: EngineHandle
    to_local: dict[int, int]
    to_global: np.ndarray

    @property
    def num_nodes(self) -> int:
        """Node count of the cell's induced subgraph."""
        return len(self.to_global)


@dataclass
class _Plan:
    """Routing decision for one query."""

    reason: str
    shard: Shard | None = None  # the local candidate, when reason == LOCAL


def default_num_cells(num_nodes: int) -> int:
    """Default cell count: ``~sqrt(n)/2`` cells of ``~2*sqrt(n)`` nodes.

    Matches :class:`repro.prep.partition.PartitionedCostTables`'s
    heuristic, clamped to the node count.
    """
    return max(1, min(num_nodes, max(2, int(math.sqrt(num_nodes) / 2))))


class ShardedQueryService:
    """Partition-routed, cached, backend-executed serving layer.

    Parameters
    ----------
    graph:
        The full spatial-keyword graph to serve.
    num_cells:
        Partition granularity (default :func:`default_num_cells`).
        ``num_cells=1`` degenerates to the flat service exactly.
    seed:
        Partition seed (farthest-point sampling is randomised).
    backend:
        Execution backend for shard tasks; default a
        :class:`~repro.service.backends.ThreadBackend` owned (and closed)
        by this service.  A caller-supplied backend is shared, not owned.
    cache_capacity / max_cached_route_nodes:
        Result-cache bounds, as in the flat service.  Cached entries are
        already translated to global node ids.
    wave_kernels:
        Whether the scatter plan groups same-shard attempts into
        :class:`~repro.service.backends.WaveTask` waves (default True) —
        one submission and, on a process backend, one pickle+IPC round
        trip per shard wave instead of one per attempt.  Results are
        identical either way; waves that break outright fall back to
        per-query tasks.
    wave_size:
        Fixed wave size, or ``None`` (default) for adaptive sizing via
        :class:`~repro.service.batch.WaveSizeController`.
    """

    def __init__(
        self,
        graph: SpatialKeywordGraph | None = None,
        num_cells: int | None = None,
        seed: int = 0,
        backend: ExecutionBackend | None = None,
        cache_capacity: int = 1024,
        default_workers: int = DEFAULT_WORKERS,
        max_cached_route_nodes: int | None = None,
        world: MutableWorld | None = None,
        wave_kernels: bool = True,
        wave_size: int | None = None,
    ) -> None:
        if default_workers < 1:
            raise QueryError(f"default_workers must be >= 1, got {default_workers}")
        if world is None:
            if graph is None:
                raise QueryError("ShardedQueryService needs a graph or a world")
            world = MutableWorld(graph, num_cells=num_cells, seed=seed)
        elif graph is not None and graph is not world.graph:
            raise QueryError(
                "pass either a graph or a world, not both: the world carries "
                "its own graph"
            )
        self._world = world
        self._graph = world.graph
        self._partition: GraphPartition = world.partition
        self._owns_backend = backend is None
        self._backend = backend if backend is not None else ThreadBackend(default_workers)
        self._default_workers = default_workers
        self._cache = ResultCache(cache_capacity, max_route_nodes=max_cached_route_nodes)
        self._stats = ServiceStats()
        self._update_lock = threading.Lock()
        self._fence = EpochFence()
        self._fence.epoch = world.epoch
        self._wave_kernels = wave_kernels
        self._wave_controller = (
            WaveSizeController(wave_size, fixed=True)
            if wave_size is not None
            else WaveSizeController()
        )
        self._wave_controller.retarget(self._graph)

        # The world already materialised every cell's subgraph, tables
        # and index — shard engines assemble from those parts and pay
        # zero extra pre-processing; the cross-cell tier shares the very
        # same cell tables (its only additional state is the border
        # tier, and with one cell not even that).
        self._prefix = f"svc{next(_SERVICE_COUNTER)}/"
        self._shards = tuple(
            self._build_shard(state, handle=None) for state in world.cells
        )
        self._border_engine = BorderEngine(
            self._graph, tables=world.tables, index=world.index
        )
        self._crosscell_handle = EngineHandle(
            self._border_engine, key=f"{self._prefix}crosscell"
        )
        for shard in self._shards:
            self._backend.register(shard.handle)
        self._backend.register(self._crosscell_handle)

    def _build_shard(self, state: CellState, handle: EngineHandle | None) -> Shard:
        """A :class:`Shard` over one world cell's pre-built parts.

        With ``handle`` given (live update), the existing handle is
        reset in place so every registry keyed by it stays valid.
        """
        engine = KOREngine(state.subgraph, tables=state.tables, index=state.index)
        if handle is None:
            handle = EngineHandle(engine, key=f"{self._prefix}cell-{state.cell}")
        else:
            handle.reset(engine)
        return Shard(
            key=handle.key,
            cell=state.cell,
            engine=engine,
            handle=handle,
            to_local=state.to_local,
            to_global=state.to_global,
        )

    @classmethod
    def from_engine(cls, engine: KOREngine, **kwargs) -> "ShardedQueryService":
        """Shard an existing engine's graph (the engine is not reused)."""
        return cls(engine.graph, **kwargs)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> SpatialKeywordGraph:
        """The full graph being served."""
        return self._graph

    @property
    def partition(self) -> GraphPartition:
        """The node-to-cell assignment behind the shards."""
        return self._partition

    @property
    def world(self) -> MutableWorld:
        """The mutable world this service serves (graph + tables + index)."""
        return self._world

    @property
    def epoch(self) -> int:
        """Graph epoch: number of updates landed since construction."""
        return self._fence.epoch

    @property
    def shards(self) -> tuple[Shard, ...]:
        """One :class:`Shard` per cell, in cell order."""
        return self._shards

    @property
    def wave_size(self) -> int:
        """The wave size the next scatter will chunk shard groups by."""
        return self._wave_controller.wave_size

    def tune_waves(self, arrival_qps: float) -> int:
        """Feed the arrival-rate estimate into adaptive wave sizing.

        Same contract as the flat service's ``tune_waves``: called by the
        async front end whenever its EWMA updates; returns the wave size
        now in effect.
        """
        self._wave_controller.observe(arrival_qps)
        return self._wave_controller.wave_size

    def wave_policy(self) -> dict:
        """The adaptive-sizing policy snapshot (``scheduling_stats``)."""
        return self._wave_controller.describe()

    @property
    def num_shards(self) -> int:
        """Number of cells the graph was split into."""
        return len(self._shards)

    @property
    def border_engine(self) -> BorderEngine:
        """The cross-cell tier: full-graph answers over border tables."""
        return self._border_engine

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend shard tasks run on."""
        return self._backend

    @property
    def cache(self) -> ResultCache:
        """The canonicalizing LRU result cache (global-id results)."""
        return self._cache

    @property
    def stats(self) -> ServiceStats:
        """Serving metrics, including per-shard task counters."""
        return self._stats

    def snapshot(self) -> StatsSnapshot:
        """One frozen view of the serving story.

        Folds in the backend's submission accounting
        (``queue_depth_peak``) and, for a warm-pinned process backend,
        its pin counters (``pinning``).
        """
        pin_stats = getattr(self._backend, "pin_stats", None)
        pinning = pin_stats() if callable(pin_stats) else None
        return self._stats.snapshot(
            pinning=pinning, queue_depth_peak=self._backend.peak_in_flight
        )

    def memory_bytes(self) -> int:
        """Bytes of cost-table state resident in this service.

        Counts every score and predecessor matrix across the cell
        engines and the cross-cell tier exactly once (the border engine
        shares the cell tables, so shared arrays are deduplicated by
        identity).  This is the number the memory-scaling test pins:
        without a flat global engine it must not grow with ``num_cells``.
        """
        seen: set[int] = set()
        total = 0

        def add(array) -> None:
            nonlocal total
            if array is not None and id(array) not in seen:
                seen.add(id(array))
                total += array.nbytes

        for shard in self._shards:
            for name in _TABLE_ARRAYS:
                add(getattr(shard.engine.tables, name))
        assembled = self._border_engine.tables
        for tables in assembled.cell_tables:
            for name in _TABLE_ARRAYS:
                add(getattr(tables, name))
        for name in _BORDER_ARRAYS:
            add(getattr(assembled, name))
        # The assembled tables' bounded row/column LRU caches and pair
        # gathers are derived state but resident nonetheless; count them
        # so nothing hides.
        total += assembled.cache_bytes()
        return total

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> int:
        """Drop every cached result and bump the cache epoch."""
        return self._cache.invalidate()

    # ------------------------------------------------------------------
    # live mutation
    # ------------------------------------------------------------------
    def apply_ops(self, ops: Sequence[Mapping[str, object]]) -> int:
        """Apply wire-shaped graph mutations; returns the new epoch.

        The world performs the incremental repair (only the mutated
        cells' tables plus the border tier recompute); this method then
        lands the repaired parts in the serving plane under the
        :class:`~repro.service.fence.EpochFence`, once the waves in flight
        have finished: affected shard handles are reset in place (same keys),
        pool workers receive :class:`~repro.service.backends.PartPatch`
        deltas through their ordinary FIFO task queues — so every task
        submitted before the update runs against the old state and every
        task after against the new — and the result cache is invalidated
        exactly once at the end, which also makes the epoch guard drop
        write-backs from queries still finishing on the old graph.
        """
        with self._update_lock:
            update = self._world.apply_ops(ops)
            with self._fence.landing():
                self._integrate(update)
                self._fence.epoch = self._world.epoch
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

    def _integrate(self, update: WorldUpdate) -> None:
        """Land one applied :class:`~repro.world.WorldUpdate` in the
        serving plane (caller holds the update lock)."""
        world = self._world
        self._graph = world.graph
        # Density may have shifted: re-derive the grown wave size.
        self._wave_controller.retarget(self._graph)

        patches: list[PartPatch] = []
        repaired = set(update.repaired_cells)
        reindexed = {
            cell
            for cell in update.refreshed_cells
            if world.cells[cell].index is not self._shards[cell].engine.index
        }
        shards = list(self._shards)
        for cell in update.refreshed_cells:
            state = world.cells[cell]
            shards[cell] = self._build_shard(state, handle=shards[cell].handle)
            patches.append(
                PartPatch(
                    key=shards[cell].key,
                    # Cell subgraphs are small: shipping the refreshed one
                    # outright is cheaper than delta bookkeeping in local
                    # ids — and sidesteps keyword-id order entirely.
                    graph=state.subgraph,
                    tables=state.tables if cell in repaired else None,
                    index=state.index if cell in reindexed else None,
                )
            )
        self._shards = tuple(shards)

        # The cross-cell twin always refreshes: even a keyword-only
        # change rewrote the full graph it binds queries against.
        self._border_engine = BorderEngine(
            self._graph, tables=world.tables, index=world.index
        )
        self._crosscell_handle.reset(self._border_engine)
        delta = update.delta
        # A delta that interned new keywords cannot be replayed remotely:
        # the worker would intern in merged-delta order, not op order,
        # and disagree with the shipped index on keyword ids.  Ship the
        # full graph in that case (adjacency-sized, not table-sized).
        structural_only = not delta.set_keywords
        patches.append(
            PartPatch(
                key=self._crosscell_handle.key,
                graph=None if structural_only else self._graph,
                graph_delta=delta if structural_only else None,
                cell_tables=tuple(
                    (cell, world.cells[cell].tables) for cell in update.repaired_cells
                ),
                border=(
                    tuple(
                        (name, getattr(world.tables, name)) for name in _BORDER_ARRAYS
                    )
                    if update.border_rebuilt
                    else ()
                ),
                index=world.index if update.index_rebuilt else None,
            )
        )
        self._backend.apply_patches(patches)
        self._cache.invalidate()

    def close(self) -> None:
        """Retire this service's engines from the backend (idempotent).

        Every shard handle (and the cross-cell one) is unregistered — on
        a shared backend the engines would otherwise stay pinned, and be
        re-shipped to every new pool worker, for the backend's lifetime.
        The backend itself is only closed when this service created it.
        A closed service must not serve further batches.
        """
        for shard in self._shards:
            self._backend.unregister(shard.key)
        self._backend.unregister(self._crosscell_handle.key)
        if self._owns_backend:
            self._backend.close()

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def plan_of(self, query: KORQuery) -> str:
        """The routing decision for *query* (``local`` / ``*-span-cells``
        / ``keywords-missing-from-graph`` / ``invalid-endpoints``),
        without running anything."""
        return self._plan(query).reason

    def _plan(self, query: KORQuery) -> _Plan:
        n = self._graph.num_nodes
        if not (0 <= query.source < n and 0 <= query.target < n):
            # Let the cross-cell engine produce the canonical QueryError.
            return _Plan(reason=INVALID_ENDPOINTS)
        table = self._graph.keyword_table
        keyword_ids = [table.get(word) for word in query.keywords]
        if any(kid is None for kid in keyword_ids):
            # Absent from the whole vocabulary: no engine can cover it.
            # One cross-cell run produces the canonical infeasible answer
            # cheaply (binding fails before any search), and skipping
            # the local attempt avoids a pointless twin task.
            return _Plan(reason=MISSING_KEYWORDS)
        src_cell = int(self._partition.cell_of[query.source])
        if int(self._partition.cell_of[query.target]) != src_cell:
            return _Plan(reason=SPAN_ENDPOINTS)
        shard = self._shards[src_cell]
        for kid in keyword_ids:
            if shard.engine.index.document_frequency(kid) == 0:
                # Keyword exists in the graph but not in this cell: only
                # a cross-cell route can cover it.
                return _Plan(reason=SPAN_KEYWORDS)
        return _Plan(reason=LOCAL, shard=shard)

    def _localize(self, shard: Shard, query: KORQuery) -> KORQuery:
        return KORQuery(
            shard.to_local[query.source],
            shard.to_local[query.target],
            query.keywords,
            query.budget_limit,
        )

    def _globalize(self, shard: Shard, query: KORQuery, result: KORResult) -> KORResult:
        """Translate a cell-engine result back to global node ids."""
        route = result.route
        if route is not None:
            route = Route(
                nodes=tuple(int(shard.to_global[v]) for v in route.nodes),
                objective_score=route.objective_score,
                budget_score=route.budget_score,
            )
        return KORResult(
            query=query,
            algorithm=result.algorithm,
            route=route,
            covers_keywords=result.covers_keywords,
            within_budget=result.within_budget,
            stats=result.stats,
            failure_reason=result.failure_reason,
            degraded=result.degraded,
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
        """Answer one KOR query through routing and the cache."""
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
        """Answer a pre-built query (a batch of one, sharing all paths).

        Cacheable submissions are single-flight protected: concurrent
        identical misses fold into one scatter wave, with the waiters
        served the leader's (already cached, already global-id) result.
        ``deadline`` travels out-of-band: it bounds the scatter wave but
        never enters the cache key.
        """
        begin = time.perf_counter()
        cacheable, keys = batch_keys([query], algorithm, dict(params))

        def compute() -> KORResult:
            report = self.execute(
                [query], algorithm=algorithm, deadline=deadline, **params
            )
            item = report.items[0]
            if item.error is not None:
                raise item.error
            return item.result

        if not cacheable:
            return compute()
        # store=False: the leader's execute() already wrote the cache
        # (epoch-guarded) — get_or_compute only adds the coalescing.
        result, how = self._cache.get_or_compute(keys[0], compute, store=False)
        if how != "computed":
            # The leader's stats were recorded inside execute(); hits
            # and coalesced waiters are accounted here instead.
            elapsed = time.perf_counter() - begin
            if how == "coalesced":
                self._stats.record_coalesced()
            self._stats.record_query(elapsed, cached=True)
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
        """Run a batch through routing, the backend and the cache.

        **One wave** of backend work: every unique miss submits its
        cell-local attempt (when the routing plan has one) *and* its
        cross-cell attempt concurrently; feasible outcomes merge by
        objective score, ties preferring the cell engine.  Slot order is
        submission order; one failing query marks only its own slot.

        ``deadline`` bounds every attempt of the wave.  When the
        cross-cell attempt dies (deadline, injected fault, dead worker)
        but the cell-local attempt produced a feasible route, the cell
        answer stands in, flagged ``degraded=True`` — it is genuinely
        feasible (a subgraph route is a full-graph route) but only the
        border engine's verdict speaks for global optimality.  A wave
        whose cross attempt *completed* never degrades.

        The wave runs inside the :class:`~repro.service.fence.EpochFence`,
        so no update lands under it, and every result is stamped with
        the epoch it was served under (``KORResult.epoch``).
        """
        if algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
            )
        if "binding" in params or "candidates" in params:
            raise QueryError(
                "'binding'/'candidates' cannot be passed to a sharded batch: "
                "they are per-query state bound to one engine's node ids"
            )
        if "deadline" in params:
            raise QueryError(
                "'deadline' is not a query parameter; pass deadline= to the "
                "service call instead"
            )
        if "trace" in params:
            # Cell engines search in cell-local node ids and the
            # concurrent cross-cell twin would interleave a second
            # engine's events into the same sink — a sharded trace would
            # silently mislead.  (Process backends additionally cannot
            # ship the sink back at all.)
            raise QueryError(
                "'trace' is not supported on a sharded service: trace "
                "events would carry cell-local node ids; trace via "
                "engine.run() or a flat QueryService instead"
            )
        begin = time.perf_counter()
        queries = list(queries)
        items = [BatchItem(index=i, query=query) for i, query in enumerate(queries)]
        with self._fence.wave() as served_epoch:
            cacheable, keys = batch_keys(queries, algorithm, dict(params))
            epoch = self._cache.epoch if cacheable else None
            units = dedup_units(items, keys, self._cache, cacheable, epoch)

            if units:
                effective = workers if workers is not None else self._default_workers
                plans = [self._plan(unit.query) for unit in units]
                wave: list[ShardTask] = []
                owners: list[tuple[int, bool]] = []  # (unit position, is cell attempt)
                for position, (unit, plan) in enumerate(zip(units, plans)):
                    unit.plan = plan.reason
                    if plan.shard is not None:
                        wave.append(
                            ShardTask.build(
                                plan.shard.key,
                                self._localize(plan.shard, unit.query),
                                algorithm,
                                params,
                                deadline=deadline,
                            )
                        )
                        owners.append((position, True))
                        if self.num_shards == 1:
                            # The single cell is the whole graph — the
                            # cross-cell twin would recompute the same answer.
                            continue
                    wave.append(
                        ShardTask.build(
                            self._crosscell_handle.key,
                            unit.query,
                            algorithm,
                            params,
                            deadline=deadline,
                        )
                    )
                    owners.append((position, False))
                outcomes = self._scatter(wave, algorithm, params, deadline, workers=effective)
                self._record_tasks(wave, outcomes)

                cell_outcomes: dict[int, TaskOutcome] = {}
                cross_outcomes: dict[int, TaskOutcome] = {}
                for (position, is_cell), outcome in zip(owners, outcomes):
                    (cell_outcomes if is_cell else cross_outcomes)[position] = outcome

                for position, (unit, plan) in enumerate(zip(units, plans)):
                    self._merge(
                        unit,
                        plan,
                        cell_outcomes.get(position),
                        cross_outcomes.get(position),
                    )

                for unit in units:
                    if unit.error is None and cacheable:
                        self._cache.put(unit.key, unit.result, epoch=epoch)
                    for slot in unit.slots:
                        items[slot].result = unit.result
                        items[slot].error = unit.error
                        items[slot].latency_seconds = unit.latency_seconds
                        items[slot].shard = unit.shard
                        items[slot].plan = unit.plan

        report = BatchReport(items=items, wall_seconds=time.perf_counter() - begin)
        report.stamp(served_epoch)
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

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _scatter(
        self,
        tasks: list[ShardTask],
        algorithm: str,
        params: dict,
        deadline: Deadline | None,
        workers: int | None,
    ) -> list[TaskOutcome]:
        """Dispatch the scatter plan, waving same-shard attempts together.

        Groups the plan's tasks by shard key (cell engines and the
        cross-cell assembly alike), chunks each group by the adaptive
        wave size, and ships every multi-member chunk as one
        :class:`~repro.service.backends.WaveTask` through ``submit_wave``
        — one submission (and, on a process pool, one pickle+IPC round
        trip) per shard wave instead of one per attempt.  Singleton
        chunks go per-query.  All three containment tiers are preserved:
        a poisoned member errors its own slot inside the kernel, a
        kernel-level failure re-runs the wave member by member worker-
        side (:func:`~repro.service.backends.run_wave_on_engine`), and a
        wave whose *submission* breaks outright is resubmitted here as
        the original per-query ShardTasks.  Outcomes return in task
        order regardless of dispatch shape.
        """
        if not (self._wave_kernels and len(tasks) > 1):
            return self._backend.run_tasks(tasks, workers=workers)

        groups: dict[str, list[int]] = {}
        for position, task in enumerate(tasks):
            groups.setdefault(task.shard, []).append(position)

        capacity = self._wave_controller.wave_size
        dispatches: list[tuple[list[int], object, bool]] = []
        for shard_key, positions in groups.items():
            for lo in range(0, len(positions), capacity):
                chunk = positions[lo : lo + capacity]
                if len(chunk) == 1:
                    dispatches.append(
                        ([chunk[0]], self._backend.submit_task(tasks[chunk[0]]), False)
                    )
                    self._stats.record_wave_solo()
                else:
                    wave = WaveTask.build(
                        shard_key,
                        [tasks[i].query for i in chunk],
                        algorithm,
                        params,
                        deadline=deadline,
                    )
                    dispatches.append((chunk, self._backend.submit_wave(wave), True))
                    self._stats.record_wave(len(chunk), capacity)

        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        broken: list[int] = []
        for chunk, future, is_wave in dispatches:
            if not is_wave:
                outcomes[chunk[0]] = _outcome_of(future)
                continue
            try:
                wave_outcomes = future.result()
            except Exception:  # noqa: BLE001 - broken wave, degrade per query
                broken.extend(chunk)
                continue
            if not isinstance(wave_outcomes, list) or len(wave_outcomes) != len(chunk):
                broken.extend(chunk)
                continue
            for position, outcome in zip(chunk, wave_outcomes):
                outcomes[position] = outcome

        if broken:
            self._stats.record_wave_solo(len(broken))
            retried = self._backend.run_tasks(
                [tasks[i] for i in broken], workers=workers
            )
            for position, outcome in zip(broken, retried):
                outcomes[position] = outcome
        return outcomes  # type: ignore[return-value]

    def _record_tasks(
        self, tasks: Sequence[ShardTask], outcomes: Sequence[TaskOutcome]
    ) -> None:
        for task, outcome in zip(tasks, outcomes):
            self._stats.record_shard(task.shard, errors=0 if outcome.error is None else 1)

    def _merge(
        self,
        unit,
        plan: _Plan,
        cell: TaskOutcome | None,
        cross: TaskOutcome | None,
    ) -> None:
        """Pick the winning outcome of a unit's scatter wave.

        Feasible candidates are merged by objective score (ties prefer
        the cell shard — its result was produced from less state); with
        no feasible candidate the *cross-cell* outcome stands, because
        only the border engine's verdict speaks for the whole graph
        (when only the cell attempt ran, its cell *is* the whole graph).

        **Graceful degradation**: when the cross-cell attempt *errored*
        (deadline, fault, dead worker) but the cell attempt produced a
        feasible route, that route is returned flagged
        ``degraded=True`` — feasible for sure, optimal unproven.  A
        cross attempt that completed (feasible or not) is authoritative,
        so its waves never degrade.
        """
        # Attempt seconds are summed: that is the compute the query cost,
        # and on a serial (or saturated) backend also its wall clock.  On
        # a concurrent backend the attempts overlap, so batch wall time
        # is tracked separately by BatchReport.wall_seconds.
        unit.latency_seconds = sum(
            outcome.latency_seconds for outcome in (cell, cross) if outcome is not None
        )
        candidates: list[tuple[str, TaskOutcome, Shard | None]] = []
        if cell is not None:
            assert plan.shard is not None
            candidates.append((plan.shard.key, cell, plan.shard))
        if cross is not None:
            candidates.append((self._crosscell_handle.key, cross, None))

        best: tuple[str, KORResult] | None = None
        for key, outcome, shard in candidates:
            if not (outcome.ok and outcome.result.feasible):
                continue
            result = (
                self._globalize(shard, unit.query, outcome.result)
                if shard is not None
                else outcome.result
            )
            if best is None or result.objective_score < best[1].objective_score:
                best = (key, result)
        if best is not None:
            unit.shard, unit.result = best
            unit.error = None
            cross_died = cross is not None and cross.error is not None
            if cross_died and best[0] != self._crosscell_handle.key:
                unit.result = replace(unit.result, degraded=True)
                self._stats.record_merge("degraded")
            else:
                self._stats.record_merge(
                    "crosscell" if best[0] == self._crosscell_handle.key else "cell"
                )
            return

        # Nothing feasible: the last candidate is always the one whose
        # verdict covers the full graph (cross-cell when it ran).
        key, outcome, shard = candidates[-1]
        unit.shard = key
        if outcome.error is not None:
            unit.error = outcome.error
            unit.result = None
            self._stats.record_merge("error")
        elif outcome.result is not None:
            unit.result = (
                self._globalize(shard, unit.query, outcome.result)
                if shard is not None
                else outcome.result
            )
            self._stats.record_merge("infeasible")
        else:  # pragma: no cover - backends always set one of the two
            unit.error = QueryError("backend returned an empty task outcome")
            self._stats.record_merge("error")
