"""Cross-process span merging and the JSONL trace file.

The acceptance bar: a ``--jobs 2`` profile run produces the same merged
stage structure as a serial one, and the JSONL trace round-trips.
"""

import os

import pytest

from repro import api, obs
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    read_trace,
    trace_events,
    write_trace,
)
from repro.runtime import pool as pool_mod
from repro.runtime import scheduler
from repro.runtime.jobs import JobSpec
from repro.runtime.scheduler import run_jobs

CONFIG = api.AnalysisConfig(k_max=5, seed=7)
WORKLOADS = ["spec.gzip", "spec.art"]

#: Every stage path one pipeline job goes through, in breakdown order.
JOB_STAGES = (
    "job",
    "job/stage.eipv",
    "job/stage.eipv/trace.sample",
    "job/stage.eipv/trace.build_eipvs",
    "job/analyze",
    "job/analyze/cv",
    "job/analyze/cv/cv.fold",
    "job/analyze/cv/cv.fold/fit.tree",
    "job/analyze/cv/cv.fold/cv.predict",
)


def _profile(jobs: int) -> api.ProfileResult:
    return api.profile(WORKLOADS, config=CONFIG, n_intervals=12,
                       scale="tiny", jobs=jobs)


class TestParallelMerge:
    def test_serial_covers_every_pipeline_stage(self):
        result = _profile(jobs=1)
        assert result.stage_names() == JOB_STAGES
        assert len(result.spans) == len(WORKLOADS)
        assert [root["attrs"]["workload"] for root in result.spans] == \
            WORKLOADS  # submission order survives
        assert result.total_wall_s > 0

    def test_two_workers_merge_to_same_structure(self):
        serial = _profile(jobs=1)
        parallel = _profile(jobs=2)
        assert parallel.stage_names() == serial.stage_names()
        assert [r["attrs"]["workload"] for r in parallel.spans] == \
            [r["attrs"]["workload"] for r in serial.spans]
        by_path = {s.path: s for s in parallel.stages}
        for s in serial.stages:
            assert by_path[s.path].calls == s.calls

    def test_profile_does_not_leak_tracing(self):
        assert not obs.tracing_enabled()
        _profile(jobs=1)
        assert not obs.tracing_enabled()

    def test_failed_job_raises_with_workload_named(self):
        with pytest.raises(RuntimeError, match="no.such.workload"):
            api.profile(["no.such.workload"], config=CONFIG,
                        n_intervals=12, scale="tiny")


class TestManifestSpans:
    """The spans of the jobs a run manifest records live in the tracer's
    forest: pool workers ship theirs beside each result and the parent
    grafts them, so neither results, store entries nor the manifest
    carry spans."""

    SPECS = [JobSpec(workload=name, n_intervals=12, seed=7, scale="tiny",
                     k_max=5) for name in WORKLOADS]

    def test_span_roots_merge_in_submission_order(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
        with obs.capture() as tracer:
            outcomes = run_jobs(self.SPECS, jobs=2)
        assert all(o.ok and o.worker != f"pid-{os.getpid()}"
                   for o in outcomes)  # grafted from pool workers
        roots = tracer.snapshot()
        assert [root["attrs"]["workload"] for root in roots] == WORKLOADS
        assert all(root["name"] == "job" for root in roots)

    def test_untraced_run_has_no_spans(self):
        result, spans, _, _ = scheduler._worker_execute(self.SPECS[0])
        assert spans == []
        assert result.key == self.SPECS[0].key
        assert not obs.tracing_enabled()

    def test_untraced_job_ignores_a_tracer_inherited_at_fork(self):
        """Regression: a worker forked while its parent traced kept that
        tracer, and every later untraced job recorded into it."""
        worker_pool = pool_mod.WorkerPool()
        try:
            with obs.capture():
                executor, _ = worker_pool.acquire(1)
                assert executor.submit(obs.tracing_enabled).result(60)
            _, spans, _, _ = executor.submit(
                scheduler._worker_execute, self.SPECS[0]).result(120)
            assert spans == []
            assert executor.submit(obs.current_tracer).result(60) is None
        finally:
            worker_pool.release()
            worker_pool.shutdown()

    def test_cached_payload_never_stores_spans(self, tmp_path):
        from repro.runtime.cache import RESULT
        from tests.runtime.test_artifacts import new_store
        traced_store = new_store(tmp_path / "traced")
        plain_store = new_store(tmp_path / "plain")
        with obs.capture():
            traced, = run_jobs([self.SPECS[0]], store=traced_store)
        plain, = run_jobs([self.SPECS[0]], store=plain_store)
        entry = traced_store.entry_path(RESULT, traced.key)
        assert entry.read_bytes() == plain_store.entry_path(
            RESULT, plain.key).read_bytes()
        warm, = run_jobs([self.SPECS[0]], store=traced_store)
        assert warm.cache_hit and warm.result == traced.result


class TestJsonlTrace:
    FOREST = [{"name": "job", "wall_s": 0.5,
               "attrs": {"workload": "spec.gzip"},
               "children": [{"name": "analyze", "wall_s": 0.25,
                             "counters": {"points": 12}}]}]

    def test_events_depth_first_with_meta_header(self):
        events = trace_events(self.FOREST, meta={"command": "profile"})
        header, first, second = events
        assert header == {"type": "trace_meta",
                          "schema_version": TRACE_SCHEMA_VERSION,
                          "command": "profile"}
        assert (first["path"], first["depth"]) == ("job", 0)
        assert (second["path"], second["depth"]) == ("job/analyze", 1)
        assert second["counters"] == {"points": 12}

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "traces" / "run.jsonl"
        out = write_trace(path, self.FOREST, meta={"command": "profile"})
        assert out == path and path.exists()
        assert read_trace(path) == trace_events(self.FOREST,
                                                meta={"command": "profile"})

    def test_real_profile_trace_parses(self, tmp_path):
        result = api.profile("spec.gzip", config=CONFIG, n_intervals=12,
                             scale="tiny")
        path = write_trace(tmp_path / "profile.jsonl", list(result.spans))
        events = read_trace(path)
        assert events[0]["type"] == "trace_meta"
        spans = [e for e in events if e["type"] == "span"]
        assert {e["path"] for e in spans} == set(JOB_STAGES)
