"""Ablation A2 — partition-based pre-processing (paper future work, §6).

Compares flat all-pairs tables against the partitioned variant on build
time, score memory and the accuracy of the assembled scores (rows and
columns).  The assembly is exact (repro.prep.partition explains why), so
the deviation column doubles as an end-to-end verification and must read
~0.
"""

from _helpers import emit_figure
from repro.bench.experiments import ablation_partition


def test_emit_figure(benchmark):
    """Build both table kinds, compare, and save the comparison."""
    result = emit_figure(benchmark, ablation_partition)
    flat_mb = result.series["flat"][1]
    partitioned_mb = result.series["partitioned"][1]
    # The whole point of the future-work design: less table memory.
    assert partitioned_mb < flat_mb
    # Exact assembly: no sampled row or column of BS(sigma) / OS(tau)
    # deviates from the flat optimum beyond float noise, either way.
    assert abs(result.series["partitioned"][2]) < 1e-9
