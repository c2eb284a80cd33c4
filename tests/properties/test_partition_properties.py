"""Property-based tests for partitioned pre-processing."""

import pickle

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KOREngine
from repro.graph.builder import GraphBuilder
from repro.graph.generators import grid_graph
from repro.prep.partition import GraphPartition, PartitionedCostTables, partition_graph
from repro.prep.tables import CostTables
from repro.service.backends import EngineHandle, PartPatch

from tests.strategies import small_graphs

SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestPartitionInvariants:
    @SLOW
    @given(small_graphs(min_nodes=4, max_nodes=7), st.integers(2, 3))
    def test_cells_partition_the_node_set(self, graph, cells):
        partition = partition_graph(graph, cells)
        seen = sorted(v for cell in partition.cells for v in cell)
        assert seen == list(range(graph.num_nodes))

    @SLOW
    @given(small_graphs(min_nodes=4, max_nodes=7), st.integers(2, 3))
    def test_assembled_scores_are_sound_upper_bounds(self, graph, cells):
        """Partitioned scores never undercut the flat optimum, and agree
        exactly on reachability within assembled routes."""
        partitioned = PartitionedCostTables.from_graph(graph, num_cells=cells, seed=0)
        flat = CostTables.from_graph(graph, predecessors=False)
        n = graph.num_nodes
        for t in range(n):
            for kind, column, reference in (
                ("tau", partitioned.os_tau_col(t), flat.os_tau_col(t)),
                ("sigma", partitioned.bs_sigma_col(t), flat.bs_sigma_col(t)),
            ):
                finite = np.isfinite(reference)
                assert np.all(column[finite] >= reference[finite] - 1e-9), kind
                # Anything the partitioned tables claim reachable must be.
                assert np.all(np.isfinite(column) <= finite | np.isinf(column))


# ----------------------------------------------------------------------
# exactness of the one-gather row/column assembly
# ----------------------------------------------------------------------


@st.composite
def partitioned_instances(draw):
    """A small graph plus a drawn cell assignment, and a second cost set
    that re-costs only edges inside cell 0 (what one repaired cell looks
    like).

    The cell assignment is drawn rather than grown, so single cells,
    cells without border nodes and unreachable nodes all come up.
    """
    n = draw(st.integers(2, 8))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    relabel = {label: cell for cell, label in enumerate(sorted(set(labels)))}
    cell_of = np.array([relabel[label] for label in labels], dtype=np.int64)
    # Integer costs force ties; tenths make float addition order-sensitive,
    # so the association of every sum is checked too.
    costs = st.sampled_from(draw(st.sampled_from(((1.0, 2.0, 3.0), (0.1, 0.2, 0.3, 0.7)))))
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.integers(0, 2)) == 0:
                edges.append((u, v, draw(costs), draw(costs)))
    if not edges:  # graphs need an edge
        edges.append((0, 1, draw(costs), draw(costs)))
    recosted = [
        (u, v, draw(costs), draw(costs)) if cell_of[u] == cell_of[v] == 0 else (u, v, o, b)
        for u, v, o, b in edges
    ]
    return _build(n, edges), _build(n, recosted), _partition(cell_of, edges)


def _build(n, edges):
    builder = GraphBuilder()
    for _ in range(n):
        builder.add_node()
    for u, v, objective, budget in edges:
        builder.add_edge(u, v, objective, budget)
    return builder.build()


def _partition(cell_of, edges) -> GraphPartition:
    border_mask = np.zeros(len(cell_of), dtype=bool)
    for u, v, _o, _b in edges:
        if cell_of[u] != cell_of[v]:
            border_mask[u] = border_mask[v] = True
    border_nodes = np.flatnonzero(border_mask).astype(np.int64)
    border_index = np.full(len(cell_of), -1, dtype=np.int64)
    border_index[border_nodes] = np.arange(len(border_nodes))
    return GraphPartition(
        cell_of=cell_of,
        cells=tuple(
            np.flatnonzero(cell_of == cell).astype(np.int64)
            for cell in range(int(cell_of.max()) + 1)
        ),
        border_nodes=border_nodes,
        border_index=border_index,
    )


def _lexmin(candidates) -> tuple[float, float]:
    """Smallest ``(primary, secondary)``; unreachable is ``(inf, inf)``."""
    best = min(candidates, default=(np.inf, np.inf))
    return (np.inf, np.inf) if best[0] == np.inf else best


def _reference(tables: PartitionedCostTables, kind: str, direction: str):
    """Brute-force per-pair assembly: ``ref[i, j] = (primary, secondary)``.

    Rows associate as ``(leg1 + border) + leg3``: the best first two legs
    per entry ``b2``, then the best entry.  Columns associate as
    ``leg1 + (border + leg3)``: the best last two legs per exit ``b1``,
    then the best exit.  Every minimum is lexicographic, and a stitched
    path replaces the in-cell value only when strictly better.
    """
    part = tables.partition
    n = tables.num_nodes
    primary, secondary = (
        ("os_tau", "bs_tau") if kind == "tau" else ("bs_sigma", "os_sigma")
    )
    bp = getattr(tables, f"border_{primary}")
    bs = getattr(tables, f"border_{secondary}")

    def leg(u, v):
        cell = tables.cell_tables[part.cell_of[u]]
        lu, lv = tables.local_index[u], tables.local_index[v]
        return float(getattr(cell, primary)[lu, lv]), float(getattr(cell, secondary)[lu, lv])

    def borders_of(node):
        return [
            (x, int(b)) for x, b in enumerate(part.border_nodes)
            if part.cell_of[b] == part.cell_of[node]
        ]

    ref = np.full((n, n, 2), np.inf)
    for i in range(n):
        for j in range(n):
            best = leg(i, j) if part.cell_of[i] == part.cell_of[j] else (np.inf, np.inf)
            stitched = []
            if direction == "row":
                for y, b2 in borders_of(j):
                    mid_p, mid_s = _lexmin(
                        (leg(i, b1)[0] + float(bp[x, y]), leg(i, b1)[1] + float(bs[x, y]))
                        for x, b1 in borders_of(i)
                    )
                    stitched.append((mid_p + leg(b2, j)[0], mid_s + leg(b2, j)[1]))
            else:
                for x, b1 in borders_of(i):
                    mid_p, mid_s = _lexmin(
                        (float(bp[x, y]) + leg(b2, j)[0], float(bs[x, y]) + leg(b2, j)[1])
                        for y, b2 in borders_of(j)
                    )
                    stitched.append((leg(i, b1)[0] + mid_p, leg(i, b1)[1] + mid_s))
            candidate = _lexmin(stitched)
            if candidate < best:
                best = candidate
            ref[i, j] = best
    return ref


def _assert_rows_and_columns_exact(tables: PartitionedCostTables) -> None:
    views = {
        "tau": (("os_tau_row", "bs_tau_row"), ("os_tau_col", "bs_tau_col")),
        "sigma": (("bs_sigma_row", "os_sigma_row"), ("bs_sigma_col", "os_sigma_col")),
    }
    n = tables.num_nodes
    for kind, (rows, cols) in views.items():
        for direction, names in (("row", rows), ("column", cols)):
            ref = _reference(tables, kind, direction)
            for node in range(n):
                for which, name in enumerate(names):
                    got = getattr(tables, name)(node)
                    want = ref[node, :, which] if direction == "row" else ref[:, node, which]
                    assert np.array_equal(got, want), (kind, name, node, got, want)


EXACT = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestOneGatherAssembly:
    @EXACT
    @given(partitioned_instances())
    def test_rows_and_columns_match_per_pair_reference_bit_for_bit(self, instance):
        graph, _recosted, partition = instance
        tables = PartitionedCostTables.from_graph(graph, partition=partition)
        _assert_rows_and_columns_exact(tables)

    @EXACT
    @given(partitioned_instances())
    def test_scalar_lookups_read_the_cached_row(self, instance):
        graph, _recosted, partition = instance
        tables = PartitionedCostTables.from_graph(graph, partition=partition)
        n = graph.num_nodes
        for i in range(n):
            for j in range(n):
                assert tables.os_sigma_at(i, j) == tables.os_sigma_row(i)[j]
                assert tables.bs_sigma(i, j) == tables.bs_sigma_row(i)[j]
                assert tables.os_tau(i, j) == tables.os_tau_row(i)[j]
                assert tables.bs_tau(i, j) == tables.bs_tau_row(i)[j]

    @SLOW
    @given(partitioned_instances())
    def test_rows_after_a_part_patch_match_a_fresh_build(self, instance):
        graph, recosted, partition = instance
        before = PartitionedCostTables.from_graph(graph, partition=partition)
        handle = EngineHandle(KOREngine(graph, tables=before))
        n = graph.num_nodes
        for node in range(n):  # fill the caches and gathers on the old costs
            before.bs_sigma_row(node), before.os_tau_row(node), before.os_tau_col(node)
        fresh = PartitionedCostTables.from_graph(recosted, partition=partition)
        PartPatch(
            key=handle.key,
            graph=recosted,
            cell_tables=((0, fresh.cell_tables[0]),),
            border=tuple(
                (name, getattr(fresh, name))
                for name in ("border_os_tau", "border_bs_tau", "border_os_sigma", "border_bs_sigma")
            ),
        ).apply_to(handle)
        patched = handle._tables
        assert patched is not before
        for node in range(n):
            for name in ("bs_sigma_row", "os_sigma_row", "os_tau_row", "bs_tau_row",
                         "os_tau_col", "bs_sigma_col"):
                assert np.array_equal(getattr(patched, name)(node), getattr(fresh, name)(node))

    def test_cache_bytes_counts_the_gathers_and_pickling_drops_them(self):
        graph = grid_graph(4, 4)
        tables = PartitionedCostTables.from_graph(graph, num_cells=2, seed=0)
        assert tables.cache_bytes() == 0
        tables.os_tau_row(0)
        lru = tables._row_cache.nbytes() + tables._column_cache.nbytes()
        gathered = tables.cache_bytes() - lru
        assert gathered > 0
        assert all(
            array.dtype == np.int32 for array in tables._gathers["pairs"]
        )
        clone = pickle.loads(pickle.dumps(tables))
        assert clone._gathers == {} and clone.cache_bytes() == 0
        np.testing.assert_array_equal(clone.os_tau_row(0), tables.os_tau_row(0))
