"""The stage graph: byte-identity across the pipeline split.

The invariant this file defends: splitting one analysis into
collect → eipv → analysis stage nodes — with intermediates persisted in
the run's store and reloaded zero-copy — changes *nothing* about the
results.  Cold, warm, artifact-warm and killed+resumed runs, on a disk
store or a temporary one, all produce the same bytes; only the work done
differs.
"""

import json
import pickle
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import ClassVar

import pytest

from repro.runtime import pool as pool_mod
from repro.runtime import stages
from repro.runtime.cache import (RESULT, STAGES_DIR_PREFIX, ResultCache,
                                 store_scope)
from repro.runtime.graph import submit_graph
from repro.runtime.jobs import JobSpec, spec_key
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.scheduler import run_jobs
from repro.sweep import SweepInterrupted, SweepSpace, run_sweep
from repro.sweep.engine import RUNTIME_STATS_NAME
from tests.runtime.test_artifacts import write_entry


def tiny_spec(interval: int = 2_000_000, n_intervals: int = 12,
              workload: str = "spec.gzip", seed: int = 7) -> JobSpec:
    return JobSpec(workload=workload, n_intervals=n_intervals, seed=seed,
                   scale="tiny", k_max=5, folds=4,
                   interval_instructions=interval)


def drop_results(store) -> None:
    """Delete every result entry, keeping the array entries."""
    for kind, key in store.entries():
        if kind == RESULT:
            shutil.rmtree(store.entry_dir(kind, key))


class TestSpecDerivation:
    def test_interval_variants_share_one_collect_stage(self):
        # Same (workload, machine, seed) cell, same total instructions,
        # different EIPV granularity: one simulated execution.
        at_2m = tiny_spec(interval=2_000_000, n_intervals=30)
        at_5m = tiny_spec(interval=5_000_000, n_intervals=12)
        assert stages.collect_spec_for(at_2m).key \
            == stages.collect_spec_for(at_5m).key
        assert stages.eipv_spec_for(at_2m).key \
            != stages.eipv_spec_for(at_5m).key

    def test_different_cells_do_not_share(self):
        base = stages.collect_spec_for(tiny_spec())
        for variant in (tiny_spec(seed=8), tiny_spec(workload="spec.art"),
                        tiny_spec(n_intervals=13)):
            assert stages.collect_spec_for(variant).key != base.key

    def test_stage_specs_round_trip_like_pool_payloads(self):
        # A pool worker receives the pickled spec and returns the
        # pickled result; both keep their keys.
        collect = stages.collect_spec_for(tiny_spec())
        eipv = stages.eipv_spec_for(tiny_spec())
        for spec in (collect, eipv):
            again = pickle.loads(pickle.dumps(spec))
            assert again == spec
            assert again.key == spec.key
            assert again.canonical()["kind"] == spec.kind
        result = stages.StageResult(key=eipv.key, source="computed",
                                    n_intervals=12, n_eips=40)
        assert pickle.loads(pickle.dumps(result)) == result

    def test_eipv_spec_embeds_its_upstream(self):
        # Self-describing stages: the EIPV spec can derive its collect
        # stage without any side channel — what makes lost artifacts
        # recoverable in-stage.
        spec = tiny_spec()
        assert stages.eipv_spec_for(spec).collect_spec() \
            == stages.collect_spec_for(spec)


class TestGraphShapes:
    def test_shared_prefix_forest(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [tiny_spec(interval=2_000_000, n_intervals=30),
                 tiny_spec(interval=5_000_000, n_intervals=12)]
        graph = stages.analysis_graph(specs, store=cache)
        # 1 shared collect + 2 eipv + 2 analysis = 5 nodes, 3 waves.
        assert len(graph) == 5
        assert [len(wave) for wave in graph.waves()] == [1, 2, 2]

    def test_cached_final_skips_its_stage_nodes(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.put(spec.key, {"anything": True})
        graph = stages.analysis_graph([spec], store=cache)
        assert len(graph) == 1
        assert graph.node(spec.key).deps == ()


@pytest.fixture
def scratch_tmp(tmp_path, monkeypatch):
    """A private temp dir for this test's temporary stores."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


def stage_dirs(root) -> list:
    return sorted(root.glob(f"{STAGES_DIR_PREFIX}*"))


class TestArtifactPlumbing:
    def test_store_for_nullcache_and_disk_cache(self, tmp_path,
                                                scratch_tmp):
        cache = ResultCache(tmp_path / "cache")
        with store_scope(cache) as store:
            assert store is cache
            assert store.store_dir.is_dir()
        assert store.store_dir.is_dir()  # the disk store outlives the scope
        with store_scope(None) as store:
            assert stage_dirs(scratch_tmp) == [store.root]
        assert stage_dirs(scratch_tmp) == []

    def test_unusable_root_degrades_to_temporary_store(self, tmp_path,
                                                       scratch_tmp):
        # --cache-dir pointing at a regular file must not fail the run:
        # the stages get a temporary store instead, removed on exit.
        target = tmp_path / "not-a-dir"
        target.write_text("plain file")
        with store_scope(ResultCache(target)) as store:
            assert stage_dirs(scratch_tmp) == [store.root]
        assert stage_dirs(scratch_tmp) == []
        assert target.read_text() == "plain file"

    def test_publish_failure_never_fails_the_stage(self, tmp_path):
        store = ResultCache(tmp_path)
        spec = stages.collect_spec_for(tiny_spec())
        # Occupy the store's directory with a regular file mid-run: the
        # publish raises OSError internally, but the simulate still
        # succeeds and the stage reports a computed (unpersisted)
        # result.
        store.store_dir.write_text("squatter")
        result = spec.execute(store=store)
        assert result.source == "computed"
        assert result.n_samples > 0
        assert store.entries() == []


class TestStagedByteIdentity:
    def run_staged(self, cache, spec):
        with store_scope(cache) as store:
            graph = stages.analysis_graph([spec], store=store)
            outcomes = submit_graph(graph, jobs=1, store=store)
        assert all(outcome.ok for outcome in outcomes)
        return outcomes

    def test_temporary_and_disk_stores_agree_cold_and_warm(
            self, tmp_path):
        spec = tiny_spec()
        temporary = self.run_staged(None, spec)
        assert len(temporary) == 3
        reference = temporary[-1].result.to_dict()

        cache = ResultCache(tmp_path)
        cold = self.run_staged(cache, spec)
        assert cold[-1].result.to_dict() == reference
        # Both stages computed and published their artifacts, and the
        # analysis its result: one entry per product.
        assert [o.result.source for o in cold[:2]] \
            == ["computed", "computed"]
        assert cache.stats().by_kind == {"eipv": 1, "result": 1,
                                         "trace": 1}

        # Drop the result entry but keep the artifacts: the rerun
        # serves both stage nodes from their entries' headers and
        # reloads zero-copy instead of re-simulating, same bytes out.
        drop_results(cache)
        warm = self.run_staged(cache, spec)
        assert [(o.cache_hit, o.result.source) for o in warm[:2]] \
            == [(True, "artifact"), (True, "artifact")]
        assert warm[-1].result.to_dict() == reference

    def test_fully_warm_run_is_one_cache_hit(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        self.run_staged(cache, spec)
        again = self.run_staged(cache, spec)
        assert len(again) == 1  # cached final: no stage nodes at all
        assert again[0].cache_hit is True

    def test_torn_trace_artifact_heals_silently(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        reference = self.run_staged(cache, spec)[-1].result.to_dict()

        # Tear the trace artifact inside its columns, drop everything
        # downstream of it.
        collect_key = stages.collect_spec_for(spec).key
        entry = cache.entry_path("trace", collect_key)
        entry.write_bytes(entry.read_bytes()[:-16])
        shutil.rmtree(cache.entry_dir("eipv", stages.eipv_spec_for(spec).key))
        drop_results(cache)

        healed = self.run_staged(cache, spec)
        assert healed[-1].result.to_dict() == reference
        # The store holds fresh, valid entries again.
        assert cache.stats().by_kind == {"eipv": 1, "result": 1,
                                         "trace": 1}

    def test_eipv_self_heal_recomputes_quarantined_trace(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        reference = self.run_staged(cache, spec)[-1].result.to_dict()
        store = cache
        collect_key = stages.collect_spec_for(spec).key
        eipv_key = stages.eipv_spec_for(spec).key

        # Corrupt the trace, remove the eipv artifact, then run *only*
        # the eipv stage: it must quarantine the bad trace, re-simulate
        # in-stage, and republish both artifacts.
        write_entry(store.entry_path("trace", collect_key),
                    b"\x93NUMPY garbage")
        shutil.rmtree(store.entry_dir("eipv", eipv_key))
        result = stages.eipv_spec_for(spec).execute(store=store)
        assert result.source == "computed"
        assert len(store.quarantined()) == 1
        assert store.has("trace", collect_key)
        assert store.has("eipv", eipv_key)

        # And the healed dataset still feeds a byte-identical analysis.
        drop_results(cache)
        assert self.run_staged(cache, spec)[-1].result.to_dict() == reference


SPACE = SweepSpace(workloads=("spec.gzip", "spec.art"),
                   interval_instructions=(2_000_000, 5_000_000),
                   seeds=(7,), n_intervals=4)  # 2 cells, 4 points


class TestStagedSweep:
    def test_cacheless_sweep_matches_cached_and_shares_collects(
            self, tmp_path):
        # Without a cache the sweep stages through a temporary store;
        # with one, through the disk store.  Same bytes, same sharing.
        cacheless = run_sweep(SPACE, tmp_path / "bare", shards=2)
        cache = ResultCache(tmp_path / "cache")
        staged = run_sweep(SPACE, tmp_path / "staged", shards=2,
                           store=cache)
        assert staged.report == cacheless.report

        # 4 points over 2 (workload, machine, seed) cells: each cell
        # simulated once, each interval-size variant built once.
        for outcome in (cacheless, staged):
            assert outcome.stage_stats["stages"] == {
                "collect_computed": 2, "collect_artifact_hits": 0,
                "eipv_computed": 4, "eipv_artifact_hits": 0, "failed": 0}
        assert cache.stats().by_kind == {"eipv": 4, "result": 4,
                                         "trace": 2}
        # A temporary store's random root stays out of the stats file.
        stats = json.loads(
            (tmp_path / "bare" / RUNTIME_STATS_NAME).read_text())
        assert stats["store"] is None

    def test_warm_sweep_recomputes_zero_collect_stages(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(SPACE, tmp_path / "cold", shards=2, store=cache)
        # Drop the result entries, keep the artifacts: a fresh sweep
        # directory must rebuild every point without one re-simulation.
        drop_results(cache)
        warm = run_sweep(SPACE, tmp_path / "warm", shards=2, store=cache)
        assert warm.stage_stats["stages"]["collect_computed"] == 0
        assert warm.stage_stats["stages"]["collect_artifact_hits"] == 2
        assert warm.stage_stats["stages"]["eipv_artifact_hits"] == 4
        assert warm.n_executed == 4  # analyses re-ran, cheaply

        stats = json.loads(
            (tmp_path / "warm" / RUNTIME_STATS_NAME).read_text())
        assert stats["stages"]["collect_computed"] == 0
        assert stats["store"]["by_kind"] == {"eipv": 4, "result": 4,
                                             "trace": 2}
        assert "stage_cache" not in stats

    def test_fully_warm_rerun_adds_no_stage_nodes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(SPACE, tmp_path / "one", shards=2, store=cache)
        again = run_sweep(SPACE, tmp_path / "two", shards=2, store=cache)
        # Final results are cached, so their stage nodes are never even
        # added to the graph: a warm sweep is pure cache hits.
        assert again.n_cached == 4 and again.n_executed == 0
        assert set(again.stage_stats["stages"].values()) == {0}

    def test_cold_sweep_stores_one_result_per_point(self, tmp_path):
        # A stage's only record is its trace or EIPV entry: the result
        # entries are the points' analyses, one each.
        cache = ResultCache(tmp_path / "cache")
        run_sweep(SPACE, tmp_path / "sweep", shards=2, store=cache)
        results = [key for kind, key in cache.entries() if kind == RESULT]
        assert sorted(results) == sorted(spec.key for spec in SPACE.specs())
        for key in results:
            spec = cache.header(RESULT, key)["spec"]
            assert spec.get("kind") not in ("collect", "eipv")

    def test_killed_staged_sweep_resumes_byte_identically(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_dir = tmp_path / "sweep"
        with pytest.raises(SweepInterrupted):
            run_sweep(SPACE, sweep_dir, shards=4, store=cache,
                      stop_after=2)
        # The crash drill still recorded its runtime stats...
        assert (sweep_dir / RUNTIME_STATS_NAME).is_file()

        metrics = MetricsRegistry()
        resumed = run_sweep(SPACE, sweep_dir, shards=4, store=cache,
                            metrics=metrics)
        reference = run_sweep(SPACE, tmp_path / "ref", shards=1)
        assert resumed.report == reference.report
        # ...and the resumed run re-simulated nothing: surviving stage
        # results come back as cache hits or artifact hits.
        stats = json.loads(
            (sweep_dir / RUNTIME_STATS_NAME).read_text())
        assert stats["stages"]["collect_computed"] == 0
        assert stats["points"]["failed"] == 0

    def test_runtime_stats_are_deterministic_counters_only(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(SPACE, tmp_path / "sweep", shards=2, store=cache)
        raw = (tmp_path / "sweep" / RUNTIME_STATS_NAME).read_text()
        stats = json.loads(raw)
        # Purity check over everything but the store root (a path the
        # test host picked, free to contain any substring).
        stats_sans_root = json.loads(raw)
        stats_sans_root["store"].pop("root")
        lowered = json.dumps(stats_sans_root).lower()
        for token in ("wall", "elapsed", "seconds", "time"):
            assert token not in lowered
        assert stats["schema"] == 1
        assert stats["space_key"] == SPACE.key
        assert set(stats["points"]) == {"cached", "executed", "failed"}


class TestWarmWorkersAndStores:
    def test_each_batch_writes_to_the_store_it_was_given(self, tmp_path,
                                                         monkeypatch):
        # Regression: a warm worker kept the first store installed under
        # a setup key it had already run, so a later batch against that
        # store published its artifacts into whichever store the worker
        # saw last.  One worker makes the reuse deterministic.
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
        metrics = MetricsRegistry()
        worker_pool = pool_mod.WorkerPool(max_workers=1, metrics=metrics)
        monkeypatch.setattr(pool_mod, "default_pool", lambda: worker_pool)
        x = ResultCache(tmp_path / "x")
        y = ResultCache(tmp_path / "y")
        reseeded = SweepSpace(workloads=SPACE.workloads,
                              interval_instructions=SPACE
                              .interval_instructions,
                              seeds=(8,), n_intervals=SPACE.n_intervals)
        try:
            run_sweep(SPACE, tmp_path / "one", jobs=2, shards=1, store=x)
            run_sweep(SPACE, tmp_path / "two", jobs=2, shards=1, store=y)
            run_sweep(reseeded, tmp_path / "three", jobs=2, shards=1,
                      store=x)
        finally:
            worker_pool.shutdown()
        assert metrics.count("pool.spawns") == 1
        assert metrics.count("pool.warm_hits") > 0
        assert x.stats().by_kind == {"eipv": 8, "result": 8, "trace": 4}
        assert y.stats().by_kind == {"eipv": 4, "result": 4, "trace": 2}


@dataclass(frozen=True)
class LatePublisher:
    """A job that outlives its run: it waits until the run's store is
    gone, then publishes into it."""

    kind: ClassVar[str] = "late_publish"

    tag: int

    def canonical(self) -> dict:
        return asdict(self)

    @cached_property
    def key(self) -> str:
        return spec_key(self.canonical())

    def stored(self, store):
        return None

    def execute(self, jobs: int = 1, store=None) -> int:
        deadline = time.monotonic() + 10
        while store.root.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        store.put(self.key, {"tag": self.tag})
        return self.tag


class TestTemporaryStores:
    """Runs without a disk cache stage through a temporary store, and no
    way out of a run leaves one behind."""

    def test_normal_run_leaves_no_store(self, tmp_path, scratch_tmp):
        outcome = run_sweep(SPACE, tmp_path / "sweep", shards=2)
        assert outcome.stage_stats["stages"]["collect_computed"] == 2
        assert stage_dirs(scratch_tmp) == []

    def test_storeless_job_gets_and_removes_its_own(self, scratch_tmp,
                                                    monkeypatch):
        roots = []
        real = stages.eipv_dataset

        def spy(store, spec):
            roots.append(store.root)
            assert stage_dirs(scratch_tmp) == [store.root]
            return real(store, spec)

        monkeypatch.setattr(stages, "eipv_dataset", spy)
        result = tiny_spec().execute()
        assert result.n_intervals == 12 and len(roots) == 1
        assert stage_dirs(scratch_tmp) == []

    def test_failing_stage_leaves_no_store(self, scratch_tmp):
        from repro.experiments import table2_quadrants
        with pytest.raises(RuntimeError, match="census jobs failed"):
            table2_quadrants.run(workloads=["no.such.workload"], k_max=5)
        assert stage_dirs(scratch_tmp) == []

    def test_scheduler_exception_leaves_no_store(self, tmp_path,
                                                 scratch_tmp):
        with pytest.raises(SweepInterrupted):
            run_sweep(SPACE, tmp_path / "sweep", shards=2, stop_after=1)
        assert stage_dirs(scratch_tmp) == []

    def test_job_that_outlives_its_run_leaves_no_store(self, scratch_tmp,
                                                       monkeypatch):
        # Regression: a timed-out pool job kept running after its run
        # had removed the temporary store, and its publish created the
        # store's directories again, which nothing removed.
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
        worker_pool = pool_mod.WorkerPool(max_workers=2,
                                          metrics=MetricsRegistry())
        try:
            with store_scope(None) as store:
                outcomes = run_jobs([LatePublisher(1), LatePublisher(2)],
                                    jobs=2, store=store, timeout=0.2,
                                    metrics=MetricsRegistry(),
                                    worker_pool=worker_pool)
            assert all(outcome.timed_out for outcome in outcomes)
            deadline = time.monotonic() + 15
            while worker_pool.leaked_workers() \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert worker_pool.leaked_workers() == []
        finally:
            worker_pool.shutdown()
        assert stage_dirs(scratch_tmp) == []
