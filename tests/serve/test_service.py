"""Tests for the service layer: warm path, coalescing, error mapping."""

import json
import random
import shutil
import sys
import tempfile
import threading
import time

from repro.runtime.cache import RESULT, STAGES_DIR_PREFIX, ResultCache
from repro.runtime.jobs import JobSpec
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.scheduler import JobOutcome
from repro.serve import service as service_module
from repro.serve.service import AnalysisService, ServeConfig

TINY = {"workload": "spec.gzip", "intervals": 12, "seed": 7,
        "scale": "tiny", "k_max": 5}


def _make(tmp_path, **overrides) -> AnalysisService:
    config = ServeConfig(cache_dir=tmp_path / "cache", **overrides)
    return AnalysisService(config, metrics=MetricsRegistry())


def _wait_until(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _without_served(body: dict) -> dict:
    data = dict(body)
    data.pop("served", None)
    return data


class TestAnalyze:
    def test_cold_then_warm_bodies_are_identical(self, tmp_path):
        service = _make(tmp_path)
        status1, cold = service.handle("/analyze", dict(TINY))
        status2, warm = service.handle("/analyze", dict(TINY))
        assert status1 == status2 == 200
        assert cold["served"] == {"cache_hit": False, "coalesced": False}
        assert warm["served"] == {"cache_hit": True, "coalesced": False}
        # Byte-identical modulo the per-request served section.
        assert json.dumps(_without_served(cold), sort_keys=True) == \
            json.dumps(_without_served(warm), sort_keys=True)
        assert warm["key"] == JobSpec(
            workload="spec.gzip", n_intervals=12, seed=7, scale="tiny",
            k_max=5).key
        # The warm path never touched admission or the scheduler: only
        # the cold request's staged graph (collect, eipv, fit) ran.
        assert service.metrics.count("serve.warm_hit") == 1
        assert service.metrics.count("jobs.executed") == 3

    def test_render_false_omits_the_report(self, tmp_path):
        service = _make(tmp_path)
        _, with_report = service.handle("/analyze", dict(TINY))
        _, without = service.handle("/analyze",
                                    dict(TINY, render=False))
        assert "report" in with_report
        assert "report" not in without
        # Same key: the render flag shapes the envelope, not the job.
        assert with_report["key"] == without["key"]

    def test_thundering_herd_executes_once(self, tmp_path, monkeypatch):
        service = _make(tmp_path)
        real_submit_graph = service_module.submit_graph
        calls = []
        entered = threading.Event()
        release = threading.Event()

        def gated_submit_graph(graph, **kwargs):
            calls.append(graph.keys())
            entered.set()
            release.wait(30)
            return real_submit_graph(graph, **kwargs)

        monkeypatch.setattr(service_module, "submit_graph",
                            gated_submit_graph)
        n = 6
        results = [None] * n

        def worker(i):
            results[i] = service.handle("/analyze", dict(TINY))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n)]
        threads[0].start()
        assert entered.wait(10)
        for thread in threads[1:]:
            thread.start()
        assert _wait_until(lambda: service.coalescer.waiters() == n - 1)
        release.set()
        for thread in threads:
            thread.join(30)

        # One execution for N identical in-flight requests...
        assert len(calls) == 1
        assert all(status == 200 for status, _ in results)
        served = [body["served"] for _, body in results]
        assert sum(not s["coalesced"] for s in served) == 1
        assert sum(s["coalesced"] for s in served) == n - 1
        # ...and every response body is byte-identical.
        rendered = {json.dumps(_without_served(body), sort_keys=True)
                    for _, body in results}
        assert len(rendered) == 1
        assert service.metrics.count("coalesce.follower") == n - 1

    def test_job_failure_maps_to_500_with_traceback(self, tmp_path,
                                                    monkeypatch):
        service = _make(tmp_path)

        def failing_submit_graph(graph, **kwargs):
            # The analysis node is inserted last, after its stages.
            spec = graph.node(graph.keys()[-1]).spec
            return [JobOutcome(spec=spec, key=spec.key,
                               result=None, cache_hit=False,
                               wall_time=0.0, worker="test",
                               error="Traceback: boom")]

        monkeypatch.setattr(service_module, "submit_graph",
                            failing_submit_graph)
        status, body = service.handle("/analyze", dict(TINY))
        assert status == 500
        assert "boom" in body["traceback"]
        assert service.metrics.count("serve.errors") == 1

    def test_job_timeout_maps_to_504(self, tmp_path, monkeypatch):
        service = _make(tmp_path)

        def timing_out_submit_graph(graph, **kwargs):
            spec = graph.node(graph.keys()[-1]).spec
            return [JobOutcome(spec=spec, key=spec.key,
                               result=None, cache_hit=False,
                               wall_time=0.0, worker="test",
                               error="job exceeded the timeout",
                               timed_out=True)]

        monkeypatch.setattr(service_module, "submit_graph",
                            timing_out_submit_graph)
        status, _ = service.handle("/analyze", dict(TINY))
        assert status == 504


class TestDerivedAnalyses:
    """Smaller k_max requests are cut from the longest cached curve."""

    def test_smaller_k_is_derived_and_identical_to_computing_it(
            self, tmp_path):
        service = _make(tmp_path / "a")
        direct = _make(tmp_path / "b")
        status, _ = service.handle("/analyze", dict(TINY, k_max=12))
        assert status == 200
        executed = service.metrics.count("jobs.executed")
        for k in range(11, 1, -1):
            status, derived = service.handle("/analyze", dict(TINY, k_max=k))
            _, computed = direct.handle("/analyze", dict(TINY, k_max=k))
            assert status == 200
            assert derived["served"] == {"cache_hit": False,
                                         "coalesced": False}
            assert json.dumps(_without_served(derived), sort_keys=True) == \
                json.dumps(_without_served(computed), sort_keys=True)
        assert service.metrics.count("jobs.executed") == executed
        assert service.stats()["cache"]["derived"] == 10
        # Stored under its own key: a repeat is a plain warm hit.
        _, again = service.handle("/analyze", dict(TINY, k_max=7))
        assert again["served"]["cache_hit"] is True
        # k_max=1 sums one-column error vectors differently, so it runs.
        status, _ = service.handle("/analyze", dict(TINY, k_max=1))
        assert status == 200
        assert service.metrics.count("jobs.executed") > executed

    def test_pruned_longest_entry_falls_back_to_computing(self, tmp_path):
        service = _make(tmp_path)
        service.handle("/analyze", dict(TINY, k_max=9))
        longest = JobSpec(workload="spec.gzip", n_intervals=12, seed=7,
                          scale="tiny", k_max=9)
        shutil.rmtree(service.store.entry_dir(RESULT, longest.key))
        executed = service.metrics.count("jobs.executed")
        status, body = service.handle("/analyze", dict(TINY, k_max=4))
        assert status == 200 and body["report"]
        assert service.metrics.count("jobs.executed") > executed
        assert service.metrics.count("serve.curve_derived") == 0
        assert service._curves[longest.curve_key][0] == 4

    def test_no_cache_derives_from_its_temporary_store(self, tmp_path):
        # A --no-cache daemon still holds a store (a temporary one), so
        # it indexes curves and derives smaller-k refits like any other.
        service = _make(tmp_path, no_cache=True)
        try:
            service.handle("/analyze", dict(TINY, k_max=9))
            executed = service.metrics.count("jobs.executed")
            _, body = service.handle("/analyze", dict(TINY, k_max=4))
            assert body["served"] == {"cache_hit": False,
                                      "coalesced": False}
            assert service.metrics.count("serve.curve_derived") == 1
            assert service.metrics.count("jobs.executed") == executed
            _, again = service.handle("/analyze", dict(TINY, k_max=4))
            assert again["served"]["cache_hit"] is True
        finally:
            service.close()

    def test_index_is_lru_bounded_by_cache_max_entries(self, tmp_path):
        service = _make(tmp_path, cache_max_entries=2)
        specs = [JobSpec(workload="spec.gzip", seed=seed, k_max=5)
                 for seed in (1, 2, 3)]
        service._note_curve(specs[0])
        service._note_curve(specs[1])
        service._note_curve(specs[0])           # touch: now most recent
        service._note_curve(specs[2])
        assert list(service._curves) == [specs[0].curve_key,
                                         specs[2].curve_key]

    def test_concurrent_requests_leave_each_execution_at_its_max(
            self, tmp_path):
        service = _make(tmp_path)
        executions = [dict(TINY), dict(TINY, workload="spec.art")]
        for body in executions:   # collect once, outside the stress
            service.handle("/analyze", dict(body, k_max=2))
        pairs = [(i, k) for i in range(len(executions))
                 for k in range(2, 9)]
        random.Random(3).shuffle(pairs)
        lock = threading.Lock()
        responses = {}

        def worker():
            while True:
                with lock:
                    if not pairs:
                        return
                    i, k = pairs.pop()
                status, body = service.handle(
                    "/analyze", dict(executions[i], k_max=k))
                with lock:
                    responses[i, k] = (status, body)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, daemon=True)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(status == 200 for status, _ in responses.values())
        for i, body in enumerate(executions):
            top = responses[i, 8][1]["result"]["re"]
            for k in range(2, 8):
                assert responses[i, k][1]["result"]["re"] == top[:k]
            spec = JobSpec(workload=body["workload"], n_intervals=12,
                           seed=7, scale="tiny", k_max=8)
            assert service._curves[spec.curve_key] == (8, spec.key)


class TestAdmissionIntegration:
    def test_saturated_service_sheds_distinct_requests(self, tmp_path,
                                                       monkeypatch):
        service = _make(tmp_path, max_inflight=1, max_queue=0)
        entered = threading.Event()
        release = threading.Event()
        real_submit_graph = service_module.submit_graph

        def gated_submit_graph(graph, **kwargs):
            entered.set()
            release.wait(30)
            return real_submit_graph(graph, **kwargs)

        monkeypatch.setattr(service_module, "submit_graph",
                            gated_submit_graph)
        first = {}

        def occupant():
            first["response"] = service.handle("/analyze", dict(TINY))

        thread = threading.Thread(target=occupant)
        thread.start()
        assert entered.wait(10)
        # A *different* spec can't coalesce; with the queue full it sheds.
        status, body = service.handle("/analyze", dict(TINY, seed=8))
        assert status == 429
        assert "retry" in body["error"]
        release.set()
        thread.join(30)
        assert first["response"][0] == 200
        assert service.metrics.count("admission.shed") == 1

    def test_queued_request_deadline_maps_to_504(self, tmp_path,
                                                 monkeypatch):
        service = _make(tmp_path, max_inflight=1, max_queue=1)
        entered = threading.Event()
        release = threading.Event()
        real_submit_graph = service_module.submit_graph

        def gated_submit_graph(graph, **kwargs):
            entered.set()
            release.wait(30)
            return real_submit_graph(graph, **kwargs)

        monkeypatch.setattr(service_module, "submit_graph",
                            gated_submit_graph)
        thread = threading.Thread(
            target=lambda: service.handle("/analyze", dict(TINY)))
        thread.start()
        assert entered.wait(10)
        status, body = service.handle(
            "/analyze", dict(TINY, seed=8, deadline_s=0.05))
        assert status == 504
        assert "deadline" in body["error"]
        release.set()
        thread.join(30)


class TestProtocolErrors:
    def test_unknown_endpoint_is_404(self, tmp_path):
        status, body = _make(tmp_path).handle("/nope", {})
        assert status == 404
        assert "no such endpoint" in body["error"]

    def test_bad_request_is_400(self, tmp_path):
        status, body = _make(tmp_path).handle("/analyze",
                                              {"workload": "nope"})
        assert status == 400
        assert "unknown workload" in body["error"]


class TestHousekeeping:
    def test_cache_growth_is_bounded(self, tmp_path):
        service = _make(tmp_path, cache_max_entries=1)
        service.handle("/analyze", dict(TINY))
        service.handle("/analyze", dict(TINY, seed=8))
        assert len(service.store.entries()) <= 1
        assert service.metrics.count("cache.pruned") >= 1

    def test_temporary_store_growth_is_bounded(self, tmp_path,
                                               monkeypatch):
        # Without a disk cache the daemon holds a temporary store for
        # its lifetime: bounded by cache_max_entries like a disk store,
        # and removed by close().
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        service = _make(tmp_path, cache_max_entries=1, no_cache=True)
        root = service.store.root
        assert root.name.startswith(STAGES_DIR_PREFIX)
        service.handle("/analyze", dict(TINY))
        service.handle("/analyze", dict(TINY, seed=8))
        stats = service.stats()
        assert stats["cache"]["entries"] <= 1
        assert stats["cache"]["pruned"] >= 1
        assert stats["artifacts"]["pruned"] >= 1
        service.close()
        assert not root.exists()
        assert not (tmp_path / "cache").exists()

    def test_stats_exposes_the_contract(self, tmp_path):
        service = _make(tmp_path)
        service.handle("/analyze", dict(TINY))
        service.handle("/analyze", dict(TINY))
        stats = service.stats()
        assert stats["requests"]["analyze"] == 2
        assert stats["cache"]["warm_responses"] == 1
        # Three result entries (the collect and eipv stage summaries and
        # the analysis) and the two array entries they describe.
        assert stats["cache"]["entries"] == 5
        assert stats["cache"]["by_kind"] == {"eipv": 1, RESULT: 3,
                                             "trace": 1}
        assert stats["coalesce"]["leaders"] == 1
        assert stats["jobs"]["executed"] == 3
        assert stats["admission"]["running"] == 0
        assert stats["artifacts"]["stores"] == 2
        assert stats["artifacts"]["stages"] == {
            "collect_computed": 1, "collect_artifact_hits": 0,
            "eipv_computed": 1, "eipv_artifact_hits": 0}
        assert service.healthz()["status"] == "ok"


class TestStatsUnderPrune:
    """An entry removed between the store walk's listing and its sizing
    (a prune on another request thread) is left out of the numbers: it
    never fails ``/v1/stats``, nor a sweep, whose ``runtime_stats.json``
    sizes the store even when every shard resumes."""

    SWEEP = {"workloads": ["spec.gzip"], "machines": ["itanium2"],
             "seeds": [7], "interval_sizes": [10_000_000], "intervals": 8,
             "k_max": 3, "folds": 2}

    @staticmethod
    def prune_mid_walk(monkeypatch) -> None:
        real = ResultCache.entries

        def listed_then_pruned(store):
            listed = real(store)
            if listed:
                shutil.rmtree(store.entry_dir(*listed[0]))
            return listed

        monkeypatch.setattr(ResultCache, "entries", listed_then_pruned)

    def test_stats_skips_an_entry_pruned_mid_walk(self, tmp_path,
                                                  monkeypatch):
        service = _make(tmp_path)
        try:
            service.handle("/analyze", dict(TINY))
            self.prune_mid_walk(monkeypatch)
            stats = service.stats()
            assert stats["cache"]["entries"] == 4
            assert sum(stats["cache"]["by_kind"].values()) == 4
        finally:
            service.close()

    def test_resumed_sweep_survives_an_entry_pruned_mid_walk(
            self, tmp_path, monkeypatch):
        service = _make(tmp_path)
        try:
            status, first = service.handle("/v1/sweep", dict(self.SWEEP))
            assert status == 200
            self.prune_mid_walk(monkeypatch)
            status, resumed = service.handle("/v1/sweep", dict(self.SWEEP))
            assert status == 200, resumed
            assert resumed["report"] == first["report"]
        finally:
            service.close()


class TestNoCacheIdentity:
    def test_bodies_identical_with_and_without_disk_cache(self, tmp_path):
        cached = _make(tmp_path / "disk")
        bare = _make(tmp_path / "bare", no_cache=True)
        requests = (
            ("/v1/analyze", dict(TINY)),
            ("/v1/census", {"workloads": ["spec.gzip"], "k_max": 5}),
            ("/v1/sweep", {"workloads": ["spec.gzip", "spec.art"],
                           "seeds": [7], "interval_sizes": [10_000_000],
                           "machines": ["itanium2"]}),
        )
        try:
            for path, body in requests:
                status1, with_cache = cached.handle(path, dict(body))
                status2, without = bare.handle(path, dict(body))
                assert status1 == status2 == 200, path
                assert json.dumps(_without_served(with_cache),
                                  sort_keys=True) == \
                    json.dumps(_without_served(without), sort_keys=True)
        finally:
            cached.close()
            bare.close()
