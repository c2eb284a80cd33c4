"""Independent answer checker for the front-door benchmark.

Every ``200`` answer is checked on the client side, without trusting
any of the server's own verdicts:

* the body is re-validated against ``kor.route_result.v1``;
* it echoes the query that was sent;
* the route is re-scored on the benchmark's own copy of the graph at the
  response's ``epoch``: every edge exists, no closed node is used, it
  runs from the source to the target, it covers the keywords, its budget
  score is within the limit, and the reported objective and budget
  scores and the ``covers_keywords`` / ``within_budget`` flags match;
* a read sent after an update's ack but stamped with an older epoch is
  stale, and a route that is wrong for its stamped epoch but right for an
  older one that was current while the read was in flight is
  mislabelled;
* where an exact reference exists (branch-and-bound on a flat
  ``KOREngine``, run by the benchmark outside timing), the answer must
  agree with it: the complete algorithms find a feasible route exactly
  when one exists, no route beats the optimum, and OSScaling and
  BucketBound stay within their approximation guarantees
  (``OS <= OS* / (1 - eps)`` and ``OS <= OS* * beta / (1 - eps)`` at the
  engine defaults ``eps = 0.5``, ``beta = 1.2``).

Each violation is named; any one makes the request failed.
"""

from __future__ import annotations

import math

from repro.core.query import KORQuery
from repro.graph.digraph import SpatialKeywordGraph
from repro.graph.mutation import GraphMutator, resolve_ops
from repro.server.schema import WireError, validate_route_result

#: Approximation factor each algorithm guarantees at the engine defaults;
#: ``None`` for heuristics (only "never better than the optimum" holds).
GUARANTEE = {
    "osscaling": 1.0 / (1.0 - 0.5),
    "bucketbound": 1.2 / (1.0 - 0.5),
    "greedy": None,
}
#: Algorithms that always find a feasible route when one exists.
COMPLETE = frozenset({"osscaling", "bucketbound"})

_REL_TOL = 1e-6
_ABS_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


class GraphLedger:
    """The benchmark's own copy of the graph at every epoch.

    Updates are replayed through a private :class:`GraphMutator` in the
    order the server acknowledged them, so an answer can be re-scored on
    exactly the graph its epoch stamp names.
    """

    def __init__(self, graph: SpatialKeywordGraph) -> None:
        self._mutator = GraphMutator(graph)
        self.graphs: dict[int, SpatialKeywordGraph] = {0: graph}
        self.closed: dict[int, frozenset] = {0: frozenset()}
        self.latest = 0

    def apply(self, ops: list[dict], epoch: int) -> None:
        """Record the state after *ops*, acknowledged as *epoch*."""
        if epoch != self.latest + 1:
            raise ValueError(f"update acked as epoch {epoch}, expected {self.latest + 1}")
        resolve_ops(self._mutator, ops)
        self.graphs[epoch] = self._mutator.graph
        self.closed[epoch] = self._mutator.closed_nodes
        self.latest = epoch


def check_answer(
    doc: object,
    query: KORQuery,
    algorithm: str,
    ledger: GraphLedger,
    acked_epoch: int = 0,
    reference=None,
) -> list[str]:
    """Names of every violation in one ``/query`` answer (empty: correct).

    *acked_epoch* is the newest epoch the client had seen acknowledged
    when it sent the read; *reference* is the exact result for the query
    on the graph the answer was served from, when the benchmark has one.
    """
    try:
        doc = validate_route_result(doc)
    except WireError:
        return ["schema"]
    violations: list[str] = []
    echoed = doc["query"]
    if (
        echoed["source"] != query.source
        or echoed["target"] != query.target
        or sorted(set(echoed["keywords"])) != sorted(set(query.keywords))
        or not _close(float(echoed["budget_limit"]), query.budget_limit)
    ):
        violations.append("query-echo")
    epoch = doc.get("epoch", 0)
    if epoch < acked_epoch:
        violations.append("stale-epoch")
    graph = ledger.graphs.get(epoch)
    if graph is None:
        return violations + ["unknown-epoch"]
    nodes = doc["route"]
    if nodes is not None:
        wrong = _rescore(doc, nodes, query, graph, ledger.closed[epoch])
        if wrong and any(
            not _rescore(doc, nodes, query, ledger.graphs[older], ledger.closed[older])
            for older in range(acked_epoch, epoch)
        ):
            # Right for a graph that was current while the read was in
            # flight, but stamped with a later epoch: still a failure.
            wrong = ["epoch-mislabel"]
        violations.extend(wrong)
    if reference is not None:
        violations.extend(_against_reference(doc, algorithm, reference))
    return violations


def _rescore(
    doc: dict, nodes: list[int], query: KORQuery, graph: SpatialKeywordGraph,
    closed: frozenset,
) -> list[str]:
    violations: list[str] = []
    n = graph.num_nodes
    if not nodes or nodes[0] != query.source or nodes[-1] != query.target:
        violations.append("route-endpoints")
    if any(not 0 <= node < n for node in nodes):
        return violations + ["route-node-range"]
    if any(node in closed for node in nodes):
        violations.append("closed-node")
    objective = budget = 0.0
    for u, v in zip(nodes, nodes[1:]):
        if not graph.has_edge(u, v):
            return violations + ["missing-edge"]
        edge_objective, edge_budget = graph.edge(u, v)
        objective += edge_objective
        budget += edge_budget
    covered: set[str] = set()
    for node in nodes:
        covered |= graph.node_keyword_strings(node)
    covers = set(query.keywords) <= covered
    within = budget <= query.budget_limit + _ABS_TOL
    if not _close(objective, doc["score"]["objective"]) or not _close(
        budget, doc["score"]["budget"]
    ):
        violations.append("score-mismatch")
    if covers != doc["covers_keywords"] or within != doc["within_budget"]:
        violations.append("flag-mismatch")
    return violations


def _against_reference(doc: dict, algorithm: str, reference) -> list[str]:
    violations: list[str] = []
    if algorithm in COMPLETE and doc["feasible"] != reference.feasible:
        violations.append("reference-feasibility")
    if doc["feasible"] and not reference.feasible:
        if "reference-feasibility" not in violations:
            violations.append("reference-feasibility")
        return violations
    if doc["feasible"] and reference.feasible:
        served = doc["score"]["objective"]
        optimum = reference.route.objective_score
        if served < optimum - _REL_TOL * optimum - _ABS_TOL:
            violations.append("beats-optimum")
        factor = GUARANTEE.get(algorithm)
        if factor is not None and served > optimum * factor * (1 + _REL_TOL) + _ABS_TOL:
            violations.append("guarantee")
    return violations
