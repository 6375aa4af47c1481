"""The stage graph: byte-identity across the pipeline split.

The invariant this file defends: splitting one analysis into
collect → eipv → analysis stage nodes — with intermediates persisted in
the artifact store and reloaded zero-copy — changes *nothing* about the
results.  Cold, warm, artifact-warm and killed+resumed runs all produce
the monolithic pipeline's exact bytes; only the work done differs.
"""

import json

import pytest

from repro.runtime import stages
from repro.runtime.cache import ResultCache
from repro.runtime.graph import submit_graph
from repro.runtime.jobs import JobSpec, execute_job
from repro.runtime.metrics import MetricsRegistry
from repro.sweep import SweepInterrupted, SweepSpace, run_sweep
from repro.sweep.engine import RUNTIME_STATS_NAME


def tiny_spec(interval: int = 2_000_000, n_intervals: int = 12,
              workload: str = "spec.gzip", seed: int = 7) -> JobSpec:
    return JobSpec(workload=workload, n_intervals=n_intervals, seed=seed,
                   scale="tiny", k_max=5, folds=4,
                   interval_instructions=interval)


def strip(result) -> dict:
    """A result's deterministic fields (timings/spans are measured)."""
    data = result.to_dict()
    data.pop("timings", None)
    data.pop("spans", None)
    return data


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
        # Workers rebuild specs from spec.canonical(); the kind tag the
        # canonical embeds must be tolerated by from_dict.
        collect = stages.collect_spec_for(tiny_spec())
        eipv = stages.eipv_spec_for(tiny_spec())
        assert stages.CollectSpec.from_dict(collect.canonical()) == collect
        assert stages.EipvSpec.from_dict(eipv.canonical()) == eipv

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
        graph = stages.analysis_graph(specs, cache=cache,
                                      artifacts=cache.artifacts)
        # 1 shared collect + 2 eipv + 2 analysis = 5 nodes, 3 waves.
        assert len(graph) == 5
        assert [len(wave) for wave in graph.waves()] == [1, 2, 2]

    def test_without_artifacts_degenerates_to_flat_graph(self):
        specs = [tiny_spec(), tiny_spec(workload="spec.art")]
        graph = stages.analysis_graph(specs, cache=None, artifacts=None)
        assert len(graph) == 2
        assert [len(wave) for wave in graph.waves()] == [2]

    def test_cached_final_skips_its_stage_nodes(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec()
        cache.put(spec.key, {"anything": True})
        graph = stages.analysis_graph([spec], cache=cache,
                                      artifacts=cache.artifacts)
        assert len(graph) == 1
        assert graph.node(spec.key).deps == ()


class TestArtifactPlumbing:
    def test_artifact_context_installs_and_restores(self, tmp_path):
        cache = ResultCache(tmp_path)
        before = stages.current_artifact_store()
        with stages.artifact_context(cache.artifacts):
            assert stages.current_artifact_store() is cache.artifacts
        assert stages.current_artifact_store() is before

    def test_store_for_nullcache_and_disk_cache(self, tmp_path):
        from repro.runtime.cache import NullCache
        cache = ResultCache(tmp_path)
        assert stages.artifact_store_for(NullCache()) is None
        assert stages.artifact_store_for(None) is None
        assert stages.artifact_store_for(cache) is cache.artifacts

    def test_stage_setup_is_keyed_by_store_root(self, tmp_path):
        cache = ResultCache(tmp_path)
        setup = stages.stage_setup(cache.artifacts)
        assert str(cache.artifacts.root) in setup.key

    def test_unusable_root_degrades_to_no_store(self, tmp_path):
        # --cache-dir pointing at a regular file must not fail the run:
        # the artifact tier silently disables and the monolithic path
        # carries on (mirrors the shm fallback contract).
        target = tmp_path / "not-a-dir"
        target.write_text("plain file")
        cache = ResultCache(target)
        assert stages.artifact_store_for(cache) is None

    def test_publish_failure_never_fails_the_stage(self, tmp_path):
        cache = ResultCache(tmp_path)
        store = cache.artifacts
        spec = stages.collect_spec_for(tiny_spec())
        # Occupy the store's root with a regular file mid-run: the
        # publish raises OSError internally, but the simulate still
        # succeeds and the stage reports a computed (unpersisted)
        # result.
        store.root.write_text("squatter")
        with stages.artifact_context(store):
            result = stages.execute_collect(spec)
        assert result.source == "computed"
        assert result.n_samples > 0
        assert store.entries() == []


class TestStagedByteIdentity:
    def run_staged(self, cache, spec):
        graph = stages.analysis_graph([spec], cache=cache,
                                      artifacts=cache.artifacts)
        with stages.artifact_context(cache.artifacts):
            outcomes = submit_graph(graph, jobs=1, cache=cache)
        assert all(outcome.ok for outcome in outcomes)
        return outcomes

    def test_staged_equals_monolithic_cold_and_artifact_warm(self, tmp_path):
        spec = tiny_spec()
        reference = strip(execute_job(spec))

        cache = ResultCache(tmp_path)
        cold = self.run_staged(cache, spec)
        assert strip(cold[-1].result) == reference
        # Both stages computed and published their artifacts.
        assert [o.result.source for o in cold[:2]] \
            == ["computed", "computed"]
        assert cache.artifacts.stats().by_kind == {"eipv": 1, "trace": 1}

        # Drop the result objects but keep the artifacts: the rerun
        # reloads zero-copy instead of re-simulating, same bytes out.
        for path in cache.entries():
            path.unlink()
        warm = self.run_staged(cache, spec)
        assert [o.result.source for o in warm[:2]] \
            == ["artifact", "artifact"]
        assert strip(warm[-1].result) == reference

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
        reference = strip(self.run_staged(cache, spec)[-1].result)

        # Tear the trace artifact, drop everything downstream of it.
        store = cache.artifacts
        collect_key = stages.collect_spec_for(spec).key
        column = store.entry_dir("trace", collect_key) / "eips.npy"
        column.write_bytes(column.read_bytes()[:16])
        store.entry_dir("eipv", stages.eipv_spec_for(spec).key)
        store.prune(max_entries=0)  # also exercise empty-store rebuild
        for path in cache.entries():
            path.unlink()

        healed = self.run_staged(cache, spec)
        assert strip(healed[-1].result) == reference
        # The store holds fresh, valid artifacts again.
        assert cache.artifacts.stats().by_kind == {"eipv": 1, "trace": 1}

    def test_eipv_self_heal_recomputes_quarantined_trace(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        reference = strip(self.run_staged(cache, spec)[-1].result)
        store = cache.artifacts
        collect_key = stages.collect_spec_for(spec).key
        eipv_key = stages.eipv_spec_for(spec).key

        # Corrupt the trace, remove the eipv artifact, then run *only*
        # the eipv stage: it must quarantine the bad trace, re-simulate
        # in-stage, and republish both artifacts.
        column = store.entry_dir("trace", collect_key) / "eips.npy"
        column.write_bytes(b"\x93NUMPY garbage")
        import shutil
        shutil.rmtree(store.entry_dir("eipv", eipv_key))
        with stages.artifact_context(store):
            result = stages.execute_eipv(stages.eipv_spec_for(spec))
        assert result.source == "computed"
        assert len(store.quarantined()) == 1
        assert store.has("trace", collect_key)
        assert store.has("eipv", eipv_key)

        # And the healed dataset still feeds a byte-identical analysis.
        for path in cache.entries():
            path.unlink()
        assert strip(self.run_staged(cache, spec)[-1].result) == reference


SPACE = SweepSpace(workloads=("spec.gzip", "spec.art"),
                   interval_instructions=(2_000_000, 5_000_000),
                   seeds=(7,), n_intervals=4)  # 2 cells, 4 points


class TestStagedSweep:
    def test_staged_sweep_matches_monolithic_and_shares_collects(
            self, tmp_path):
        # Without a cache there is no artifact store: the sweep runs
        # monolithically.  With one, it runs staged.  Same bytes.
        monolithic = run_sweep(SPACE, tmp_path / "mono", shards=2)
        cache = ResultCache(tmp_path / "cache")
        staged = run_sweep(SPACE, tmp_path / "staged", shards=2,
                           cache=cache)
        assert staged.report == monolithic.report
        assert monolithic.stage_stats["stages"]["collect_computed"] == 0

        # 4 points over 2 (workload, machine, seed) cells: each cell
        # simulated once, each interval-size variant built once.
        assert staged.stage_stats["stages"] == {
            "collect_computed": 2, "collect_artifact_hits": 0,
            "eipv_computed": 4, "eipv_artifact_hits": 0}
        assert cache.artifacts.stats().by_kind == {"eipv": 4, "trace": 2}

    def test_warm_sweep_recomputes_zero_collect_stages(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(SPACE, tmp_path / "cold", shards=2, cache=cache)
        # Drop the JSON result tier, keep the artifacts: a fresh sweep
        # directory must rebuild every point without one re-simulation.
        for path in cache.entries():
            path.unlink()
        warm = run_sweep(SPACE, tmp_path / "warm", shards=2, cache=cache)
        assert warm.stage_stats["stages"]["collect_computed"] == 0
        assert warm.stage_stats["stages"]["collect_artifact_hits"] == 2
        assert warm.stage_stats["stages"]["eipv_artifact_hits"] == 4
        assert warm.n_executed == 4  # analyses re-ran, cheaply

        stats = json.loads(
            (tmp_path / "warm" / RUNTIME_STATS_NAME).read_text())
        assert stats["stages"]["collect_computed"] == 0
        assert stats["artifact_store"]["entries"] == 6

    def test_fully_warm_rerun_serves_stage_nodes_from_result_cache(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(SPACE, tmp_path / "one", shards=2, cache=cache)
        again = run_sweep(SPACE, tmp_path / "two", shards=2, cache=cache)
        # Final results are cached, so their stage nodes are never even
        # added to the graph: a warm sweep is pure cache hits.
        assert again.n_cached == 4 and again.n_executed == 0
        assert again.stage_stats["stage_cache"] == {"hits": 0, "failed": 0}

    def test_killed_staged_sweep_resumes_byte_identically(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_dir = tmp_path / "sweep"
        with pytest.raises(SweepInterrupted):
            run_sweep(SPACE, sweep_dir, shards=4, cache=cache,
                      stop_after=2)
        # The crash drill still recorded its runtime stats...
        assert (sweep_dir / RUNTIME_STATS_NAME).is_file()

        metrics = MetricsRegistry()
        resumed = run_sweep(SPACE, sweep_dir, shards=4, cache=cache,
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
        run_sweep(SPACE, tmp_path / "sweep", shards=2, cache=cache)
        raw = (tmp_path / "sweep" / RUNTIME_STATS_NAME).read_text()
        stats = json.loads(raw)
        # Purity check over everything but the store root (a path the
        # test host picked, free to contain any substring).
        stats_sans_root = json.loads(raw)
        stats_sans_root["artifact_store"].pop("root")
        lowered = json.dumps(stats_sans_root).lower()
        for token in ("wall", "elapsed", "seconds", "time"):
            assert token not in lowered
        assert stats["schema"] == 1
        assert stats["space_key"] == SPACE.key
        assert set(stats["points"]) == {"cached", "executed", "failed"}
