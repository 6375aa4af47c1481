"""Tests for the service layer: warm path, coalescing, error mapping."""

import json
import threading
import time

from repro.experiments.common import memo_size
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
        assert len(service.cache.entries()) <= 1
        assert service.metrics.count("cache.pruned") >= 1

    def test_memo_growth_is_bounded(self, tmp_path):
        # The monolithic path is the one that feeds the in-process
        # collect memo; staged requests persist through the artifact
        # store instead and never touch it.  Without a disk cache there
        # is no artifact store, so requests run monolithically.
        service = _make(tmp_path, memo_max_entries=0, no_cache=True)
        service.handle("/analyze", dict(TINY))
        assert memo_size() == 0
        assert service.metrics.count("serve.memo_cleared") >= 1

    def test_stats_exposes_the_contract(self, tmp_path):
        service = _make(tmp_path)
        service.handle("/analyze", dict(TINY))
        service.handle("/analyze", dict(TINY))
        stats = service.stats()
        assert stats["requests"]["analyze"] == 2
        assert stats["cache"]["warm_responses"] == 1
        # Three object entries: collect + eipv stage results + analysis.
        assert stats["cache"]["entries"] == 3
        assert stats["coalesce"]["leaders"] == 1
        assert stats["jobs"]["executed"] == 3
        assert stats["shm"]["live_segments"] == []
        assert stats["admission"]["running"] == 0
        assert stats["artifacts"]["enabled"] is True
        assert stats["artifacts"]["by_kind"] == {"eipv": 1, "trace": 1}
        assert stats["artifacts"]["stores"] == 2
        assert stats["artifacts"]["stages"] == {
            "collect_computed": 1, "collect_artifact_hits": 0,
            "eipv_computed": 1, "eipv_artifact_hits": 0}
        assert service.healthz()["status"] == "ok"
