"""The front-door benchmark's own tests: a tiny smoke of each workload and
the answer checker's failure accounting.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs as gen  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
from checker import GraphLedger, check_answer  # noqa: E402
from repro.core.engine import KOREngine  # noqa: E402
from repro.graph.generators import figure_1_graph  # noqa: E402
from repro.server.schema import encode_route_result  # noqa: E402

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# checker
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure1():
    graph = figure_1_graph()
    engine = KOREngine(graph)
    query = engine.query(0, 7, ["t1", "t2", "t3"], 8.0, algorithm="bucketbound").query
    result = engine.run(query, "bucketbound")
    reference = engine.run(query, "exact")
    return graph, query, result, reference


def _doc(result, epoch=0) -> dict:
    return json.loads(json.dumps(encode_route_result(result, epoch=epoch)))


def test_checker_accepts_a_correct_answer(figure1):
    graph, query, result, reference = figure1
    assert result.feasible
    assert check_answer(_doc(result), query, "bucketbound", GraphLedger(graph),
                        reference=reference) == []


def test_checker_flags_a_wrong_route(figure1):
    graph, query, result, reference = figure1
    doc = _doc(result)
    doc["score"]["objective"] += 1.0
    assert "score-mismatch" in check_answer(doc, query, "bucketbound", GraphLedger(graph))
    doc = _doc(result)
    doc["route"] = [doc["route"][0], doc["route"][-1]]
    violations = check_answer(doc, query, "bucketbound", GraphLedger(graph))
    assert violations and set(violations) <= {"missing-edge", "score-mismatch", "flag-mismatch"}


def test_checker_flags_a_route_through_a_closed_node(figure1):
    graph, query, result, _reference = figure1
    ledger = GraphLedger(graph)
    middle = result.route.nodes[1]
    ledger.apply([{"op": "close_node", "node": middle}], epoch=1)
    violations = check_answer(_doc(result, epoch=1), query, "bucketbound", ledger,
                              acked_epoch=1)
    assert "closed-node" in violations


def test_checker_flags_a_stale_epoch(figure1):
    graph, query, result, _reference = figure1
    ledger = GraphLedger(graph)
    ledger.apply([{"op": "update_edge_cost", "u": 0, "v": 1, "objective": 2.0}], epoch=1)
    assert "stale-epoch" in check_answer(_doc(result, epoch=0), query, "bucketbound", ledger,
                                         acked_epoch=1)


def test_checker_flags_an_answer_stamped_with_a_later_epoch(figure1):
    graph, query, result, _reference = figure1
    ledger = GraphLedger(graph)
    u, v = result.route.nodes[0], result.route.nodes[1]
    objective, budget = graph.edge(u, v)
    ledger.apply([{"op": "update_edge_cost", "u": u, "v": v, "objective": objective * 2,
                   "budget": budget}], epoch=1)
    # Sent before the update was acked, computed on epoch 0, stamped 1.
    assert check_answer(_doc(result, epoch=1), query, "bucketbound", ledger,
                        acked_epoch=0) == ["epoch-mislabel"]
    assert "score-mismatch" in check_answer(_doc(result, epoch=1), query, "bucketbound",
                                            ledger, acked_epoch=1)


def test_checker_flags_a_schema_invalid_body(figure1):
    graph, query, result, _reference = figure1
    doc = _doc(result)
    del doc["found"]
    assert check_answer(doc, query, "bucketbound", GraphLedger(graph)) == ["schema"]


def test_checker_flags_disagreement_with_the_reference(figure1):
    graph, query, result, reference = figure1
    infeasible = reference.__class__(
        query=query, algorithm="exact", route=None, covers_keywords=False,
        within_budget=False)
    assert "reference-feasibility" in check_answer(
        _doc(result), query, "bucketbound", GraphLedger(graph), reference=infeasible)


def test_injected_violations_count_as_failed(figure1):
    graph, query, result, reference = figure1
    good = _doc(result, epoch=0)
    wrong = _doc(result, epoch=0)
    wrong["score"]["budget"] *= 2.0
    invalid = _doc(result, epoch=0)
    invalid["schema"] = "kor.route_result.v0"
    reads = [
        bench.Read(query=query, algorithm="bucketbound", due=0.0, done=0.01,
                   doc=json.dumps(doc).encode(), acked_epoch=acked)
        for doc, acked in ((good, 0), (wrong, 0), (invalid, 0), (good, 1))
    ]
    update = bench.Update(ops=[{"op": "update_edge_cost", "u": 0, "v": 1, "objective": 2.0}],
                          sent=0.0, done=0.01, epoch=1)
    phase = bench.Phase(reads=reads, updates=[update], start=0.0, end=1.0)
    inputs = bench.Inputs(graph=graph, live=True, exact={gen.query_key(query): reference})
    tally = bench.check(inputs, phase, [])
    metrics, diagnostics = bench.end_to_end(inputs, phase, [], 0.1, 1.0, tally)
    assert tally["violations"] == {"score-mismatch": 1, "schema": 1, "stale-epoch": 1}
    assert diagnostics["failed"] == 3
    assert metrics["ok_frac"][0] == pytest.approx(1.0 - 3 / 5)
    assert not bench.verdict(tally)


# ----------------------------------------------------------------------
# smoke
# ----------------------------------------------------------------------


#: Memory touched and freed by the test process before a smoke run.
BALLAST_MB = 1024


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_workload_smoke(workload, capsys):
    # The test process serves the run, so its peak RSS already holds the
    # ballast; peak_rss_mb must count only from the reset before deploying.
    ballast = b"\x01" * (BALLAST_MB << 20)
    del ballast
    assert bench.peak_rss_mb([os.getpid()]) > BALLAST_MB
    result = asyncio.run(bench.run(workload, seed=3, seconds=2.0, trace=False,
                                   sizes=gen.TINY))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert result["metrics"]["peak_rss_mb"]["value"] < BALLAST_MB
    assert "workload " + workload in capsys.readouterr().out


def test_tiny_traced_smoke(tmp_path, monkeypatch):
    monkeypatch.setattr(layers, "TABLE_DIR", tmp_path)
    result = asyncio.run(bench.run("flickr-open", seed=3, seconds=2.0, trace=True,
                                   sizes=gen.TINY))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert result["metrics"]["prep.lookups_per_query.row"]["value"] > 0
    assert (tmp_path / "trace-flickr-open.json").exists()


def test_same_seed_same_inputs():
    first = bench.prepare("flickr-open", 5, 2.0, gen.TINY)
    second = bench.prepare("flickr-open", 5, 2.0, gen.TINY)
    other = bench.prepare("flickr-open", 6, 2.0, gen.TINY)
    assert first.schedules == second.schedules and first.entries == second.entries
    assert first.schedules != other.schedules
