"""``EpochFence``: serving waves and update landings never overlap.

An answer is stamped with the epoch its wave read, and no update lands
while a wave is in flight, so the stamp names the state the answer was
computed on — also when an update is issued mid-wave.
"""

from __future__ import annotations

import threading
import time

from repro.core.engine import KOREngine
from repro.graph.mutation import GraphMutator, resolve_ops
from repro.service import QueryService, ShardedQueryService
from repro.service.faults import FaultPlan, FaultRule, injected
from repro.service.fence import EpochFence
from repro.world import MutableWorld

from tests.service.test_differential import fingerprint, random_instance
from tests.service.test_mutation_differential import mutation_sequence, query_battery


def _hold_wave(fence, seen):
    entered, release = threading.Event(), threading.Event()

    def wave():
        with fence.wave() as epoch:
            entered.set()
            assert release.wait(5.0)
            seen.append(epoch)

    worker = threading.Thread(target=wave)
    worker.start()
    assert entered.wait(5.0)
    return worker, release


def _land(fence, epoch):
    landed = threading.Event()

    def land():
        with fence.landing():
            fence.epoch = epoch
        landed.set()

    threading.Thread(target=land).start()
    return landed


def _enter(fence):
    with fence.wave() as epoch:
        return [epoch]


class TestEpochFence:
    def test_landing_waits_for_the_wave_in_flight(self):
        fence, seen = EpochFence(), []
        worker, release = _hold_wave(fence, seen)
        landed = _land(fence, 1)
        assert not landed.wait(0.1)
        release.set()
        worker.join(5.0)
        assert not worker.is_alive()
        assert landed.wait(5.0)
        assert seen == [0] and fence.epoch == 1

    def test_a_waiting_landing_goes_before_new_waves(self):
        fence, seen = EpochFence(), []
        worker, release = _hold_wave(fence, seen)
        landed = _land(fence, 1)
        time.sleep(0.05)  # the landing is now waiting
        late = threading.Thread(target=lambda: seen.extend(_enter(fence)))
        late.start()
        time.sleep(0.05)
        assert seen == []  # the late wave queues behind the landing
        release.set()
        worker.join(5.0)
        late.join(5.0)
        assert not worker.is_alive() and not late.is_alive()
        assert landed.is_set()
        assert seen == [0, 1]


class TestUpdateMidWave:
    """An update issued while a wave computes lands after it: the wave's
    answers are the pre-update world's, stamped with the old epoch."""

    def _serve_across_update(self, service, queries, ops):
        plan = FaultPlan([FaultRule(kind="delay_task", seconds=0.02, times=4)])
        outcome = {}

        def serve():
            outcome["report"] = service.execute(queries, algorithm="exact")

        with injected(plan):
            worker = threading.Thread(target=serve)
            worker.start()
            time.sleep(0.01)
            epoch = service.apply_ops(ops)
            worker.join(60.0)
        assert not worker.is_alive()
        return outcome["report"], epoch

    def test_flat_wave_answers_carry_the_epoch_they_were_computed_on(self):
        engine, _ = random_instance(3)
        service = QueryService(engine, cache_capacity=64)
        queries = query_battery(engine.graph, 3, count=10)
        pre = [fingerprint(KOREngine(engine.graph).run(q, algorithm="exact")) for q in queries]
        ops = mutation_sequence(engine.graph, 31, count=5)
        mutator = GraphMutator(engine.graph)
        resolve_ops(mutator, ops)
        post_oracle = KOREngine(mutator.graph)

        report, epoch = self._serve_across_update(service, queries, ops)
        assert epoch == 1
        assert [item.result.epoch for item in report.items] == [0] * len(queries)
        assert [fingerprint(item.result) for item in report.items] == pre
        after = service.execute(queries, algorithm="exact")
        assert [item.result.epoch for item in after.items] == [1] * len(queries)
        assert service.submit(queries[0], algorithm="greedy").epoch == 1
        assert [fingerprint(item.result) for item in after.items] == [
            fingerprint(post_oracle.run(q, algorithm="exact")) for q in queries
        ]
        service.close()

    def test_sharded_wave_answers_carry_the_epoch_they_were_computed_on(self):
        engine, _ = random_instance(4)
        world = MutableWorld(engine.graph, num_cells=2, seed=0)
        service = ShardedQueryService(world=world)
        queries = query_battery(world.graph, 4, count=10)
        oracle = ShardedQueryService(world=MutableWorld(engine.graph, num_cells=2, seed=0))
        pre = [fingerprint(r) for r in oracle.run_batch(queries, algorithm="exact")]
        oracle.close()

        report, epoch = self._serve_across_update(
            service, queries, mutation_sequence(world.graph, 41, count=5)
        )
        assert epoch == world.epoch == service.epoch == 1
        assert [item.result.epoch for item in report.items] == [0] * len(queries)
        assert [fingerprint(item.result) for item in report.items] == pre
        service.close()
