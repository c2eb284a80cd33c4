"""Tests for benchmark workload caching (repro.bench.workloads)."""

import pytest

from repro.bench import workloads


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    monkeypatch.setenv("KOR_BENCH_SCALE", "small")
    monkeypatch.setenv("KOR_BENCH_QUERIES", "3")
    workloads.clear_caches()
    yield
    workloads.clear_caches()


class TestEnvironmentKnobs:
    def test_num_queries_from_env(self):
        assert workloads.bench_num_queries() == 3

    def test_scale_from_env(self):
        assert workloads.bench_scale() == "small"

    def test_invalid_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("KOR_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError):
            workloads.bench_scale()

    def test_road_sizes_scale(self):
        assert workloads.road_sizes("small") == (500, 1000, 1500, 2000)
        assert workloads.road_sizes("paper") == (5000, 10000, 15000, 20000)


class TestWorkloadCaching:
    def test_flickr_workload_is_cached(self):
        first = workloads.flickr_workload()
        second = workloads.flickr_workload()
        assert first is second

    def test_query_sets_cached_per_cell(self):
        workload = workloads.flickr_workload()
        a = workload.query_set(2, 3.0)
        b = workload.query_set(2, 3.0)
        assert a is b
        c = workload.query_set(2, 6.0)
        assert c is not a

    def test_query_sets_cached_per_seed(self):
        workload = workloads.flickr_workload()
        first = workload.query_set(2, 6.0, num_queries=6, seed=1)
        other = workload.query_set(2, 6.0, num_queries=6, seed=2)
        assert [(q.source, q.target, q.keywords) for q in first] != [
            (q.source, q.target, q.keywords) for q in other
        ]
        assert workload.query_set(2, 6.0, num_queries=6, seed=1) is first

    def test_query_set_sizes_follow_env(self):
        workload = workloads.flickr_workload()
        assert len(workload.query_set(2, 6.0)) == 3

    def test_road_workload_builds_and_caches(self):
        first = workloads.road_workload(200)
        second = workloads.road_workload(200)
        assert first is second
        assert first.graph.num_nodes > 100
