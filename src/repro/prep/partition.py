"""Partition-based pre-processing (the paper's future work, Section 6).

The paper sketches: split the graph into subgraphs, pre-process all-pairs
scores *within* each subgraph only, and additionally store the best
objective/budget scores between every pair of **border nodes** (nodes
with an edge crossing cells).  A cross-cell score is then assembled as

    score(i, j) = min over border exits b1 of cell(i), entries b2 of
                  cell(j) of  in_cell(i -> b1) + border(b1 -> b2) +
                  in_cell(b2 -> j)

This assembly is **exact**, not merely an upper bound.  Crossing a cell
boundary is only possible along an edge whose endpoints are both border
nodes, so any optimal path from ``i`` decomposes at its *first* border
node ``b1`` (the prefix can never have left ``cell(i)``) and its *last*
border node ``b2`` (the suffix can never leave ``cell(j)``), while the
middle ``b1 -> b2`` leg is measured on the **full** graph.  Minimising
over every ``(b1, b2)`` combination therefore recovers the flat table's
value for both path families (``tau`` and ``sigma``), and a path that
never touches a border node is covered by the in-cell term.  What the
partitioned tables trade away is not accuracy but *pre-processing
shape*: ``O(sum n_c^2 + k^2)`` floats instead of ``O(n^2)``, with
assembly work at query time.  A whole row (or column) is assembled in one
gather: a flat array of every ``(border b, node v in cell(b))`` pair,
sorted by ``v`` and holding the in-cell leg, is built lazily once; a miss
adds the ``mid`` vector (``|exits| * k`` sums over the anchor cell's
border nodes) to the gathered legs and takes a lexicographic segmented
min per ``v`` — ``sum_c |border(c)| * |c|`` pairs, no loop over cells.
Scalar lookups read the cached row.  The accompanying ablation benchmark
quantifies build time, memory and exactness against the flat tables.

:class:`PartitionedCostTables` implements the full access protocol of
:class:`repro.prep.tables.CostTables` — scalar lookups, row/column
views, multi-column gathers, and (when built with ``predecessors=True``)
``tau_path`` / ``sigma_path`` materialisation that stitches the in-cell
legs (via each cell's predecessor matrices) to the border leg (via one
stored full-graph predecessor row per border node).  That is what lets
:class:`repro.service.crosscell.BorderEngine` run every search algorithm
over a partitioned graph with flat-engine semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import PrepError
from repro.graph.digraph import SpatialKeywordGraph
from repro.prep.dijkstra import multi_source_two_criteria, reconstruct_path
from repro.prep.tables import CostTables

__all__ = ["GraphPartition", "partition_graph", "PartitionedCostTables"]


@dataclass(frozen=True)
class GraphPartition:
    """Assignment of nodes to cells plus the border-node inventory.

    Attributes
    ----------
    cell_of:
        ``cell_of[v]`` is the cell id of node ``v``.
    cells:
        Node arrays per cell (sorted ascending, so ``cells[c][local]`` is
        the global id of the cell's ``local``-th node — the same dense
        re-indexing :meth:`repro.graph.digraph.SpatialKeywordGraph.
        induced_subgraph` applies).
    border_nodes:
        Sorted array of all nodes with an edge crossing cells.
    border_index:
        Position of each border node in ``border_nodes`` (-1 otherwise).
    """

    cell_of: np.ndarray
    cells: tuple[np.ndarray, ...]
    border_nodes: np.ndarray
    border_index: np.ndarray

    @property
    def num_cells(self) -> int:
        """Number of cells the graph was split into."""
        return len(self.cells)

    def is_border(self, node: int) -> bool:
        """Whether *node* has an edge into or out of another cell."""
        return self.border_index[node] >= 0


def partition_graph(graph: SpatialKeywordGraph, num_cells: int, seed: int = 0) -> GraphPartition:
    """Split *graph* into roughly balanced connected cells.

    Greedy multi-source BFS (a light-weight stand-in for METIS, which is
    unavailable offline): seeds are spread via farthest-point sampling on
    hop distance, then cells claim unassigned neighbours round-robin, so
    cells stay connected and balanced within a factor ~2.
    """
    n = graph.num_nodes
    if not 1 <= num_cells <= n:
        raise PrepError(f"num_cells must be in 1..{n}, got {num_cells}")
    rng = np.random.default_rng(seed)

    # Undirected adjacency for growth (direction matters for scores, not
    # for spatial contiguity).
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for edge in graph.iter_edges():
        neighbours[edge.u].add(edge.v)
        neighbours[edge.v].add(edge.u)

    seeds = _farthest_point_seeds(neighbours, num_cells, rng)
    cell_of = np.full(n, -1, dtype=np.int64)
    frontiers: list[list[int]] = [[] for _ in range(num_cells)]
    for cell, seed_node in enumerate(seeds):
        cell_of[seed_node] = cell
        frontiers[cell] = [seed_node]

    assigned = num_cells
    while assigned < n:
        grew = False
        for cell in range(num_cells):
            frontier = frontiers[cell]
            next_frontier: list[int] = []
            claimed = False
            while frontier and not claimed:
                node = frontier.pop()
                for other in neighbours[node]:
                    if cell_of[other] == -1:
                        cell_of[other] = cell
                        next_frontier.append(other)
                        assigned += 1
                        claimed = True
                if frontier or claimed:
                    next_frontier.append(node) if claimed else None
            frontiers[cell] = next_frontier + frontier
            grew = grew or claimed
        if not grew:
            # Disconnected remainder: hand leftover nodes to the smallest
            # cells so every node lands somewhere.
            leftovers = np.flatnonzero(cell_of == -1)
            sizes = np.bincount(cell_of[cell_of >= 0], minlength=num_cells)
            for node in leftovers:
                cell = int(np.argmin(sizes))
                cell_of[node] = cell
                sizes[cell] += 1
                frontiers[cell].append(int(node))
                assigned += 1

    cells = tuple(
        np.flatnonzero(cell_of == cell).astype(np.int64) for cell in range(num_cells)
    )
    border_mask = np.zeros(n, dtype=bool)
    for edge in graph.iter_edges():
        if cell_of[edge.u] != cell_of[edge.v]:
            border_mask[edge.u] = True
            border_mask[edge.v] = True
    border_nodes = np.flatnonzero(border_mask).astype(np.int64)
    border_index = np.full(n, -1, dtype=np.int64)
    border_index[border_nodes] = np.arange(len(border_nodes))
    return GraphPartition(
        cell_of=cell_of,
        cells=cells,
        border_nodes=border_nodes,
        border_index=border_index,
    )


def _farthest_point_seeds(
    neighbours: list[set[int]], num_cells: int, rng: np.random.Generator
) -> list[int]:
    """Seed nodes spread out by hop distance (farthest-point heuristic)."""
    n = len(neighbours)
    first = int(rng.integers(n))
    seeds = [first]
    distance = _bfs_hops(neighbours, first)
    while len(seeds) < num_cells:
        # Unreached nodes (inf) are the farthest of all — prefer them so
        # disconnected components get their own seeds.
        candidate = int(np.argmax(np.where(np.isfinite(distance), distance, np.inf)))
        if candidate in seeds:
            remaining = [v for v in range(n) if v not in seeds]
            candidate = int(rng.choice(remaining))
        seeds.append(candidate)
        distance = np.minimum(distance, _bfs_hops(neighbours, candidate))
    return seeds


def _bfs_hops(neighbours: list[set[int]], source: int) -> np.ndarray:
    hops = np.full(len(neighbours), np.inf)
    hops[source] = 0
    queue = [source]
    while queue:
        node = queue.pop(0)
        for other in neighbours[node]:
            if hops[other] == np.inf:
                hops[other] = hops[node] + 1
                queue.append(int(other))
    return hops


def _lex_min(primary: np.ndarray, secondary: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimise *primary* along *axis*; break ties by smallest *secondary*.

    Unreachable entries (``inf`` primary) yield ``inf`` in both outputs.
    """
    best = primary.min(axis=axis)
    expanded = np.expand_dims(best, axis)
    tied_secondary = np.where(primary == expanded, secondary, np.inf)
    best_secondary = tied_secondary.min(axis=axis)
    return best, np.where(np.isfinite(best), best_secondary, np.inf)


def _lex_argmin(primary: np.ndarray, secondary: np.ndarray) -> int:
    """Index of the lexicographically smallest ``(primary, secondary)`` pair."""
    best = primary.min()
    tied = np.where(primary == best, secondary, np.inf)
    return int(np.argmin(tied))


#: Byte budget per assembled-row/column cache side.  Each entry holds two
#: length-n float64 arrays; without a bound a long-lived engine serving
#: varied targets would quietly regrow the very ``O(n^2)`` footprint the
#: partitioned tables exist to eliminate.
_CACHE_BYTE_BUDGET = 2_000_000
#: Entry floor so tiny graphs / huge graphs still keep enough locality
#: for one query's worth of repeated lookups.
_CACHE_MIN_ENTRIES = 16


class _LRUPairCache:
    """Tiny LRU for ``(node, kind) -> (primary, secondary)`` pairs."""

    def __init__(self, num_nodes: int) -> None:
        per_entry = 2 * 8 * max(num_nodes, 1)
        self.capacity = max(_CACHE_MIN_ENTRIES, _CACHE_BYTE_BUDGET // per_entry)
        self._data: dict = {}

    def get(self, key):
        value = self._data.get(key)
        if value is not None:
            # Re-insert to mark recency (dicts preserve insertion order).
            del self._data[key]
            self._data[key] = value
        return value

    def put(self, key, value) -> None:
        if key not in self._data and len(self._data) >= self.capacity:
            self._data.pop(next(iter(self._data)))
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:  # tests compare against {} after pickling
        if isinstance(other, _LRUPairCache):
            return self._data == other._data
        return self._data == other

    def nbytes(self) -> int:
        """Bytes held by the cached arrays."""
        return sum(
            primary.nbytes + secondary.nbytes
            for primary, secondary in self._data.values()
        )


@dataclass
class PartitionedCostTables:
    """Cell-local tables plus border-to-border tables (future work, §6).

    Implements the full access protocol of :class:`CostTables` — scalar
    lookups, ``*_col`` / ``*_row`` views, ``*_cols`` gathers and (with
    ``predecessors=True``) path materialisation.  Assembled scores are
    **exact** (see the module docstring): in-cell whenever the optimal
    path stays inside one cell, stitched through the best border-node
    pair otherwise.  Row/column results are cached per node in LRU
    caches bounded to ``_CACHE_BYTE_BUDGET`` bytes each, so long-lived
    instances amortise assembly cost without ever regrowing an
    ``O(n^2)`` resident footprint; :meth:`cache_bytes` reports them and
    the pair gathers.
    """

    partition: GraphPartition
    #: Per cell: dense in-cell tables indexed by local position.
    cell_tables: tuple[CostTables, ...]
    #: Local position of each node inside its cell.
    local_index: np.ndarray
    #: Border x border score matrices on the full graph.
    border_os_tau: np.ndarray
    border_bs_tau: np.ndarray
    border_os_sigma: np.ndarray
    border_bs_sigma: np.ndarray
    #: Full-graph predecessor rows, one per border node (optional).
    border_pred_tau: np.ndarray | None = None
    border_pred_sigma: np.ndarray | None = None
    #: Derived state, rebuilt empty by ``__post_init__``: LRU caches of
    #: assembled columns (queries hit one target repeatedly) and rows
    #: (greedy expansion walks one node at a time), plus the lazily built
    #: pair gathers.  ``init=False`` keeps ``dataclasses.replace`` from
    #: ever carrying them onto new cell tables.
    _column_cache: _LRUPairCache = field(init=False, repr=False)
    _row_cache: _LRUPairCache = field(init=False, repr=False)
    _gathers: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._column_cache = _LRUPairCache(self.num_nodes)
        self._row_cache = _LRUPairCache(self.num_nodes)
        self._gathers = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: SpatialKeywordGraph,
        num_cells: int | None = None,
        seed: int = 0,
        partition: GraphPartition | None = None,
        cell_tables: tuple[CostTables, ...] | None = None,
        predecessors: bool = False,
    ) -> "PartitionedCostTables":
        """Partition *graph* and build all component tables.

        ``num_cells`` defaults to ``sqrt(n) / 2`` — cells of roughly
        ``2 * sqrt(n)`` nodes, the classic space/accuracy sweet spot.
        A pre-computed ``partition`` and per-cell ``cell_tables`` (one
        :class:`CostTables` per cell over its induced subgraph, in cell
        order) can be supplied to share state with an existing sharded
        deployment instead of re-pre-processing every cell.
        ``predecessors=True`` keeps one full-graph predecessor row per
        border node (and requires path-capable cell tables), enabling
        ``tau_path`` / ``sigma_path``.
        """
        n = graph.num_nodes
        if partition is None:
            if num_cells is None:
                num_cells = max(2, int(np.sqrt(n) / 2))
            partition = partition_graph(graph, num_cells, seed=seed)

        local_index = np.zeros(n, dtype=np.int64)
        for nodes in partition.cells:
            local_index[nodes] = np.arange(len(nodes))

        if cell_tables is None:
            built = []
            for nodes in partition.cells:
                subgraph, _mapping = graph.induced_subgraph([int(v) for v in nodes])
                built.append(CostTables.from_graph(subgraph, predecessors=predecessors))
            cell_tables = tuple(built)
        else:
            cell_tables = tuple(cell_tables)
            if len(cell_tables) != partition.num_cells:
                raise PrepError(
                    f"got {len(cell_tables)} cell tables for "
                    f"{partition.num_cells} cells"
                )
            for cell, (nodes, tables) in enumerate(zip(partition.cells, cell_tables)):
                if tables.num_nodes != len(nodes):
                    raise PrepError(
                        f"cell {cell} has {len(nodes)} nodes but its tables "
                        f"cover {tables.num_nodes}"
                    )
                if predecessors and not tables.has_paths:
                    raise PrepError(
                        f"cell {cell} tables lack predecessor matrices; "
                        "path materialisation needs predecessors=True cells"
                    )

        border = partition.border_nodes
        # One batched sweep per criterion: the per-call setup (CSR build,
        # dense secondary lookup) dominates a per-node loop on graphs of
        # this size, and the border tier is the shared term between full
        # rebuilds and incremental repair.
        os_tau, bs_tau, pred_tau = multi_source_two_criteria(
            graph, border, "objective"
        )
        bs_sigma, os_sigma, pred_sigma = multi_source_two_criteria(
            graph, border, "budget"
        )
        border_os_tau = os_tau[:, border]
        border_bs_tau = bs_tau[:, border]
        border_os_sigma = os_sigma[:, border]
        border_bs_sigma = bs_sigma[:, border]
        border_pred_tau = pred_tau if predecessors else None
        border_pred_sigma = pred_sigma if predecessors else None
        return cls(
            partition=partition,
            cell_tables=cell_tables,
            local_index=local_index,
            border_os_tau=border_os_tau,
            border_bs_tau=border_bs_tau,
            border_os_sigma=border_os_sigma,
            border_bs_sigma=border_bs_sigma,
            border_pred_tau=border_pred_tau,
            border_pred_sigma=border_pred_sigma,
        )

    # ------------------------------------------------------------------
    # pickling (handles ship these to process-pool workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Derived state: shipping it would bloat every worker pickle with
        # whatever the parent happened to look up.
        state = self.__dict__.copy()
        for name in ("_column_cache", "_row_cache", "_gathers"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes the tables were computed for."""
        return len(self.partition.cell_of)

    @property
    def has_paths(self) -> bool:
        """Whether path materialisation is available."""
        return self.border_pred_tau is not None and all(
            tables.has_paths for tables in self.cell_tables
        )

    def reachable(self, i: int, j: int) -> bool:
        """Whether any path ``i -> j`` exists."""
        return bool(np.isfinite(self.os_tau(i, j)))

    # ------------------------------------------------------------------
    # scalar lookups
    # ------------------------------------------------------------------
    # Every scalar is read from the cached row of its source, so it is
    # bit-identical to the row and column views.
    def os_tau(self, i: int, j: int) -> float:
        """Assembled ``OS(tau_{i,j})`` (exact; see module docstring)."""
        return self._at(i, j, "tau", 0)

    def bs_tau(self, i: int, j: int) -> float:
        """``BS`` of the assembled objective-optimal path."""
        return self._at(i, j, "tau", 1)

    def os_sigma(self, i: int, j: int) -> float:
        """``OS`` of the assembled budget-optimal path."""
        return self._at(i, j, "sigma", 1)

    def bs_sigma(self, i: int, j: int) -> float:
        """Assembled ``BS(sigma_{i,j})`` (exact)."""
        return self._at(i, j, "sigma", 0)

    # ------------------------------------------------------------------
    # column access (protocol shared with CostTables)
    # ------------------------------------------------------------------
    def os_tau_col(self, t: int) -> np.ndarray:
        """Assembled ``OS(tau_{i,t})`` for every ``i``."""
        return self._assembled(t, "tau", "column")[0]

    def bs_tau_col(self, t: int) -> np.ndarray:
        """Assembled ``BS`` along tau for every ``i``."""
        return self._assembled(t, "tau", "column")[1]

    def os_sigma_col(self, t: int) -> np.ndarray:
        """Assembled ``OS`` along sigma for every ``i``."""
        return self._assembled(t, "sigma", "column")[1]

    def bs_sigma_col(self, t: int) -> np.ndarray:
        """Assembled ``BS(sigma_{i,t})`` for every ``i``."""
        return self._assembled(t, "sigma", "column")[0]

    def os_tau_cols(self, nodes: np.ndarray) -> np.ndarray:
        """``OS(tau_{i,t})`` for every ``i`` and every ``t`` in *nodes*."""
        return self._gather_cols(nodes, self.os_tau_col)

    def bs_tau_cols(self, nodes: np.ndarray) -> np.ndarray:
        """``BS(tau_{i,t})`` for every ``i`` and every ``t`` in *nodes*."""
        return self._gather_cols(nodes, self.bs_tau_col)

    def bs_sigma_cols(self, nodes: np.ndarray) -> np.ndarray:
        """``BS(sigma_{i,t})`` for every ``i`` and every ``t`` in *nodes*."""
        return self._gather_cols(nodes, self.bs_sigma_col)

    # ------------------------------------------------------------------
    # row access (protocol shared with CostTables)
    # ------------------------------------------------------------------
    def os_tau_row(self, i: int) -> np.ndarray:
        """Assembled ``OS(tau_{i,j})`` for every ``j``."""
        return self._assembled(i, "tau", "row")[0]

    def bs_tau_row(self, i: int) -> np.ndarray:
        """Assembled ``BS`` along tau for every ``j``."""
        return self._assembled(i, "tau", "row")[1]

    def os_sigma_row(self, i: int) -> np.ndarray:
        """Assembled ``OS`` along sigma for every ``j``."""
        return self._assembled(i, "sigma", "row")[1]

    def bs_sigma_row(self, i: int) -> np.ndarray:
        """Assembled ``BS(sigma_{i,j})`` for every ``j``."""
        return self._assembled(i, "sigma", "row")[0]

    def os_sigma_at(self, i: int, j: int) -> float:
        """``OS(sigma_{i,j})`` from the sigma row of *i* — the row the
        Strategy-1 jump test has just fetched, so the read is a cache hit."""
        return self.os_sigma(i, j)

    # ------------------------------------------------------------------
    # path materialisation (protocol shared with CostTables)
    # ------------------------------------------------------------------
    def tau_path(self, i: int, j: int) -> list[int]:
        """Materialise the objective-optimal path ``i -> j`` (global ids)."""
        return self._path(int(i), int(j), "tau")

    def sigma_path(self, i: int, j: int) -> list[int]:
        """Materialise the budget-optimal path ``i -> j`` (global ids)."""
        return self._path(int(i), int(j), "sigma")

    # ------------------------------------------------------------------
    # memory accounting (the ablation's headline number)
    # ------------------------------------------------------------------
    def memory_bytes(self, include_paths: bool = False) -> int:
        """Bytes held by every score matrix (cells + border).

        ``include_paths=True`` additionally counts the predecessor
        matrices (cell and border) that path materialisation needs.
        """
        total = 0
        names = ["os_tau", "bs_tau", "os_sigma", "bs_sigma"]
        if include_paths:
            names += ["pred_tau", "pred_sigma"]
        for tables in self.cell_tables:
            for name in names:
                matrix = getattr(tables, name)
                if matrix is not None:
                    total += matrix.nbytes
        border = [
            self.border_os_tau,
            self.border_bs_tau,
            self.border_os_sigma,
            self.border_bs_sigma,
        ]
        if include_paths:
            border += [self.border_pred_tau, self.border_pred_sigma]
        for matrix in border:
            if matrix is not None:
                total += matrix.nbytes
        return total

    def cache_bytes(self) -> int:
        """Bytes held by derived state: the row/column LRUs and gathers."""
        gathered = sum(array.nbytes for arrays in self._gathers.values() for array in arrays)
        return self._column_cache.nbytes() + self._row_cache.nbytes() + gathered

    @staticmethod
    def flat_memory_bytes(num_nodes: int, dtype_bytes: int = 8) -> int:
        """Bytes a flat :class:`CostTables` needs for the same graph."""
        return 4 * num_nodes * num_nodes * dtype_bytes

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _in_cell(self, kind: str, cell: int) -> tuple[np.ndarray, np.ndarray]:
        """(primary, secondary) in-cell matrices for *kind*."""
        tables = self.cell_tables[cell]
        if kind == "tau":
            return tables.os_tau, tables.bs_tau
        return tables.bs_sigma, tables.os_sigma

    def _border_matrices(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """(primary, secondary) border-to-border matrices for *kind*."""
        if kind == "tau":
            return self.border_os_tau, self.border_bs_tau
        return self.border_bs_sigma, self.border_os_sigma

    def _cell_border_positions(self, cell: int) -> np.ndarray:
        """Rows of ``border_nodes`` belonging to *cell*."""
        nodes = self.partition.cells[cell]
        positions = self.partition.border_index[nodes]
        return positions[positions >= 0]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise PrepError(f"node {node} outside 0..{self.num_nodes - 1}")

    def _at(self, i: int, j: int, kind: str, which: int) -> float:
        self._check_node(int(j))
        return float(self._assembled(int(i), kind, "row")[which][int(j)])

    def _assemble_pair(
        self, i: int, j: int, kind: str
    ) -> tuple[float, float, tuple[int, int] | None]:
        """One assembled ``(primary, secondary, decomposition)`` entry.

        Path materialisation's view of one pair.  The decomposition is
        ``None`` when the in-cell path wins (or nothing is reachable) and
        ``(b1, b2)`` — global border node ids — when the stitched path
        wins.  Ties prefer the in-cell path, then the lexicographically
        smaller ``(primary, secondary)`` combo, as the row assembly does.
        """
        self._check_node(i)
        self._check_node(j)
        part = self.partition
        ci, cj = int(part.cell_of[i]), int(part.cell_of[j])
        li, lj = int(self.local_index[i]), int(self.local_index[j])
        best_primary, best_secondary = np.inf, np.inf
        if ci == cj:
            prim_m, sec_m = self._in_cell(kind, ci)
            best_primary = float(prim_m[li, lj])
            best_secondary = float(sec_m[li, lj])
        combo: tuple[int, int] | None = None

        exits = self._cell_border_positions(ci)
        entries = self._cell_border_positions(cj)
        if len(exits) and len(entries):
            prim_i, sec_i = self._in_cell(kind, ci)
            prim_j, sec_j = self._in_cell(kind, cj)
            border_prim, border_sec = self._border_matrices(kind)
            exit_nodes = part.border_nodes[exits]
            entry_nodes = part.border_nodes[entries]
            # legs: i -> exit (in cell), exit -> entry (border), entry -> j,
            # associated as leg1 + (border + leg3), as columns are.
            leg1_prim = prim_i[li, self.local_index[exit_nodes]]
            leg1_sec = sec_i[li, self.local_index[exit_nodes]]
            leg3_prim = prim_j[self.local_index[entry_nodes], lj]
            leg3_sec = sec_j[self.local_index[entry_nodes], lj]
            mid_prim_all = border_prim[np.ix_(exits, entries)] + leg3_prim[None, :]
            mid_sec_all = border_sec[np.ix_(exits, entries)] + leg3_sec[None, :]
            mid_prim, mid_sec = _lex_min(mid_prim_all, mid_sec_all, axis=1)
            total_prim = leg1_prim + mid_prim
            total_sec = leg1_sec + mid_sec
            pick = _lex_argmin(total_prim, total_sec)
            cand_prim = float(total_prim[pick])
            cand_sec = float(total_sec[pick])
            if (cand_prim, cand_sec) < (best_primary, best_secondary):
                best_primary, best_secondary = cand_prim, cand_sec
                entry_pick = _lex_argmin(mid_prim_all[pick], mid_sec_all[pick])
                combo = (int(exit_nodes[pick]), int(entry_nodes[entry_pick]))
        return best_primary, best_secondary, combo

    def _assembled(self, node: int, kind: str, direction: str) -> tuple[np.ndarray, np.ndarray]:
        """Assembled ``(primary, secondary)`` row from, or column to, *node*.

        A column is a row over the transposed in-cell and border matrices.
        ``mid[b]`` is the best ``in-cell(node, b1) + border(b1, b)`` over
        the border nodes ``b1`` of *node*'s cell (``|exits| * k`` sums);
        the stitched candidates ``mid[b] + leg(b, v)`` then cover every
        gathered pair at once — ``(leg1 + border) + leg3`` for rows,
        ``leg1 + (border + leg3)`` for columns — and are minimised per
        ``v`` lexicographically: a segmented min on the primary, then a
        min of the secondary over the primary ties.  Ties with the
        in-cell value prefer it.
        """
        cache = self._row_cache if direction == "row" else self._column_cache
        cached = cache.get((node, kind))
        if cached is not None:
            return cached
        self._check_node(node)
        part = self.partition
        cell, local = int(part.cell_of[node]), int(self.local_index[node])
        (prim_m, sec_m), (border_prim, border_sec) = (
            self._in_cell(kind, cell), self._border_matrices(kind)
        )
        if direction == "column":
            prim_m, sec_m, border_prim, border_sec = prim_m.T, sec_m.T, border_prim.T, border_sec.T
        prim = np.full(self.num_nodes, np.inf)
        sec = np.full(self.num_nodes, np.inf)
        prim[part.cells[cell]] = prim_m[local, :]
        sec[part.cells[cell]] = sec_m[local, :]
        ends = self._cell_border_positions(cell)
        if len(ends):
            end_locals = self.local_index[part.border_nodes[ends]]
            mid_prim, mid_sec = _lex_min(
                prim_m[local, end_locals][:, None] + border_prim[ends, :],
                sec_m[local, end_locals][:, None] + border_sec[ends, :],
                axis=0,
            )
            border, starts, lengths, nodes = self._pairs()
            leg_prim, leg_sec = self._legs(kind, direction)
            cand_prim = np.take(mid_prim, border) + leg_prim
            best_prim = np.minimum.reduceat(cand_prim, starts)
            # Secondary pass over the primary ties of reachable nodes only
            # (NaN never compares equal, so unreachable segments tie nowhere).
            finite_best = np.where(np.isfinite(best_prim), best_prim, np.nan)
            tied = np.flatnonzero(cand_prim == np.repeat(finite_best, lengths))
            best_sec = np.full(len(best_prim), np.inf)
            np.minimum.at(
                best_sec,
                np.searchsorted(starts, tied, side="right") - 1,
                np.take(mid_sec, np.take(border, tied)) + np.take(leg_sec, tied),
            )
            cur_prim, cur_sec = prim[nodes], sec[nodes]
            better = (best_prim < cur_prim) | ((best_prim == cur_prim) & (best_sec < cur_sec))
            prim[nodes] = np.where(better, best_prim, cur_prim)
            sec[nodes] = np.where(better, best_sec, cur_sec)
        cache.put((node, kind), (prim, sec))
        return prim, sec

    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every ``(border b, node v in cell(b))`` pair, sorted by ``v``.

        Returns ``(border, starts, lengths, nodes)``: the position of each
        pair's ``b`` in ``border_nodes``, then per segment (one per node
        ``v`` whose cell has border nodes) its first pair, its length
        ``|border(cell(v))|`` and ``v`` itself — all int32.
        """
        pairs = self._gathers.get("pairs")
        if pairs is None:
            part = self.partition
            border_cell = part.cell_of[part.border_nodes]
            by_cell = np.argsort(border_cell, kind="stable")
            counts = np.bincount(border_cell, minlength=part.num_cells)
            first = np.cumsum(counts) - counts
            per_node = counts[part.cell_of]
            nodes = np.flatnonzero(per_node)
            lengths = per_node[nodes]
            starts = np.cumsum(lengths) - lengths
            segment = np.repeat(np.arange(len(nodes)), lengths)
            rank = np.arange(len(segment)) - starts[segment]
            border = by_cell[first[part.cell_of[nodes]][segment] + rank]
            pairs = tuple(a.astype(np.int32) for a in (border, starts, lengths, nodes))
            self._gathers["pairs"] = pairs
        return pairs

    def _legs(self, kind: str, direction: str) -> tuple[np.ndarray, np.ndarray]:
        """In-cell legs of every pair: ``b -> v`` for rows, ``v -> b`` for columns."""
        legs = self._gathers.get((kind, direction))
        if legs is None:
            part = self.partition
            border, _starts, lengths, nodes = self._pairs()
            v = np.repeat(nodes, lengths)
            size = np.array([len(cell) for cell in part.cells], dtype=np.int64)
            offset = np.cumsum(size * size) - size * size
            cell = part.cell_of[v]
            lb, lv = self.local_index[part.border_nodes[border]], self.local_index[v]
            src, dst = (lb, lv) if direction == "row" else (lv, lb)
            flat = offset[cell] + src * size[cell] + dst
            matrices = zip(*(self._in_cell(kind, c) for c in range(part.num_cells)))
            legs = tuple(np.concatenate([m.ravel() for m in ms])[flat] for ms in matrices)
            self._gathers[(kind, direction)] = legs
        return legs

    def _gather_cols(self, nodes: np.ndarray, column) -> np.ndarray:
        targets = [int(t) for t in np.asarray(nodes).ravel()]
        if not targets:
            return np.empty((self.num_nodes, 0))
        return np.stack([column(t) for t in targets], axis=1)

    def _cell_path(self, cell: int, u: int, v: int, kind: str) -> list[int]:
        """In-cell optimal path ``u -> v`` translated to global ids."""
        tables = self.cell_tables[cell]
        lu, lv = int(self.local_index[u]), int(self.local_index[v])
        local = tables.tau_path(lu, lv) if kind == "tau" else tables.sigma_path(lu, lv)
        to_global = self.partition.cells[cell]
        return [int(to_global[node]) for node in local]

    def _path(self, i: int, j: int, kind: str) -> list[int]:
        if not self.has_paths:
            raise PrepError(
                "tables were built with predecessors=False; "
                "path materialisation is unavailable"
            )
        primary, _secondary, combo = self._assemble_pair(i, j, kind)
        if not np.isfinite(primary):
            raise PrepError(f"node {j} is unreachable from {i}")
        part = self.partition
        if combo is None:
            return self._cell_path(int(part.cell_of[i]), i, j, kind)
        b1, b2 = combo
        pred = self.border_pred_tau if kind == "tau" else self.border_pred_sigma
        try:
            middle = reconstruct_path(pred[int(part.border_index[b1])], b1, b2)
        except ValueError as exc:  # pragma: no cover - scores imply reachability
            raise PrepError(str(exc)) from exc
        first = self._cell_path(int(part.cell_of[i]), i, b1, kind)
        last = self._cell_path(int(part.cell_of[j]), b2, j, kind)
        return first[:-1] + middle + last[1:]
