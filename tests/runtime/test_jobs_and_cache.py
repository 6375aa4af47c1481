"""Job hashing, result serialization, and store robustness."""

import json
import pickle

import numpy as np
import pytest

from repro.core.predictability import analyze_predictability
from repro.experiments.common import RunConfig, collect
from repro.runtime import cache as cache_mod
from repro.runtime.cache import SCHEMA_VERSION, ResultCache, default_cache_dir
from repro.runtime.jobs import JobResult, JobSpec
from repro.runtime.metrics import MetricsRegistry
from repro.workloads.scale import TINY, get_scale
from tests.runtime.test_artifacts import (ENTRIES, KEY, ResultEntry,
                                          same_key_race)

TINY_SPEC = JobSpec(workload="spec.gzip", n_intervals=12, seed=7,
                    scale="tiny", k_max=5)


class TestJobSpec:
    def test_key_is_deterministic_across_instances(self):
        a = JobSpec(workload="odbc", n_intervals=60, seed=11)
        b = JobSpec(workload="odbc", n_intervals=60, seed=11)
        assert a is not b
        assert a.key == b.key
        assert a.key == a.key

    def test_key_is_sha256_hex(self):
        key = TINY_SPEC.key
        assert len(key) == 64
        int(key, 16)  # hex-parseable

    @pytest.mark.parametrize("change", [
        {"workload": "spec.mcf"},
        {"n_intervals": 13},
        {"seed": 8},
        {"machine": "xeon"},
        {"scale": "default"},
        {"k_max": 6},
        {"folds": 5},
        {"min_leaf": 2},
        {"code_version": "0.0.0-other"},
    ])
    def test_any_field_change_changes_the_key(self, change):
        changed = JobSpec(**{**TINY_SPEC.canonical(), **change})
        assert changed.key != TINY_SPEC.key

    @pytest.mark.parametrize("change, match", [
        ({"k_max": 0}, "k_max"),
        ({"folds": 1}, "two folds"),
        ({"min_leaf": 0}, "min_leaf"),
        ({"n_intervals": 9}, "every fold needs an interval"),
        ({"n_intervals": -5}, "every fold needs an interval"),
    ])
    def test_refuses_values_the_analysis_cannot_use(self, change, match):
        # Refused where the identity is built, before anything runs.
        with pytest.raises(ValueError, match=match):
            JobSpec(**{**TINY_SPEC.canonical(), **change})

    def test_dict_round_trip(self):
        # The canonical dict a store entry records beside its result
        # rebuilds the spec it was computed from.
        twin = JobSpec(**TINY_SPEC.canonical())
        assert twin == TINY_SPEC
        assert twin.key == TINY_SPEC.key

    def test_run_config_round_trip(self):
        config = RunConfig("odbh.q13", n_intervals=24, seed=3,
                           machine="pentium4", scale=TINY)
        spec = JobSpec.from_run_config(config, k_max=9)
        assert spec.to_run_config() == config
        assert spec.k_max == 9

    def test_canonical_is_json_safe(self):
        json.dumps(TINY_SPEC.canonical())

    def test_key_is_a_property_not_a_method(self):
        # The public dedup identity: cache, coalescer and manifests all
        # read `spec.key`; a stale call-style would hash the bound method.
        assert isinstance(TINY_SPEC.key, str)

    def test_equality_hash_key_round_trip(self):
        # Equal specs are interchangeable everywhere a spec is a dict key
        # or a dedup identity: ==, hash() and .key must all agree, and
        # the pickle round trip a pool worker receives must preserve
        # all three.
        twin = pickle.loads(pickle.dumps(TINY_SPEC))
        assert twin == TINY_SPEC
        assert hash(twin) == hash(TINY_SPEC)
        assert twin.key == TINY_SPEC.key
        assert len({twin, TINY_SPEC}) == 1
        other = JobSpec(**{**TINY_SPEC.canonical(), "seed": 8})
        assert other != TINY_SPEC
        assert other.key != TINY_SPEC.key

    def test_key_is_cached_per_instance(self):
        spec = JobSpec(workload="odbc")
        assert spec.key is spec.key  # cached_property: one digest, reused


class TestJobResult:
    def test_execute_matches_direct_pipeline(self):
        job = TINY_SPEC.execute()
        _, dataset = collect(TINY_SPEC.to_run_config())
        direct = analyze_predictability(dataset, k_max=TINY_SPEC.k_max,
                                        seed=TINY_SPEC.seed)
        reconstructed = job.to_result()
        np.testing.assert_array_equal(reconstructed.curve.re,
                                      direct.curve.re)
        assert reconstructed.k_opt == direct.k_opt
        assert reconstructed.quadrant == direct.quadrant
        assert reconstructed.summary() == direct.summary()

    def test_json_round_trip_is_lossless(self):
        job = TINY_SPEC.execute()
        restored = JobResult.from_dict(json.loads(json.dumps(job.to_dict())))
        assert restored.re == job.re
        assert restored.re_kopt == job.re_kopt
        assert restored.cpi_variance == job.cpi_variance
        assert restored.to_result().summary() == job.to_result().summary()

    def test_pickle_round_trip_is_lossless(self):
        # What a pool worker sends back: the result object itself.
        job = TINY_SPEC.execute()
        restored = pickle.loads(pickle.dumps(job))
        assert restored == job
        assert restored.key == TINY_SPEC.key
        assert JobSpec.result_type is JobResult


class TestResultCache:
    """The store's contract, run for a result entry and an array entry
    alike (see :data:`~tests.runtime.test_artifacts.ENTRIES`)."""

    def test_round_trip(self, tmp_path):
        for entry in ENTRIES:
            store = ResultCache(tmp_path / entry.kind)
            entry.put(store, KEY, value=0.25)
            assert entry.read(store, KEY) == 0.25

    def test_missing_key_is_a_miss(self, tmp_path):
        for entry in ENTRIES:
            assert entry.read(ResultCache(tmp_path), "f" * 64) is None

    def test_garbage_json_is_quarantined(self, tmp_path):
        for entry in ENTRIES:
            store = ResultCache(tmp_path / entry.kind)
            entry.put(store, KEY)
            (store.entry_dir(entry.kind, KEY) / "meta.json").write_text(
                "{not json at all", encoding="utf-8")
            assert entry.read(store, KEY) is None
            assert not store.entry_dir(entry.kind, KEY).exists()
            assert store.stats().quarantined == 1

    def test_truncated_entry_is_quarantined(self, tmp_path):
        for entry in ENTRIES:
            store = ResultCache(tmp_path / entry.kind)
            entry.put(store, KEY)
            entry.tear(store, KEY)
            assert entry.read(store, KEY) is None
            assert store.stats().quarantined == 1

    def test_stale_schema_version_is_quarantined(self, tmp_path):
        for entry in ENTRIES:
            store = ResultCache(tmp_path / entry.kind)
            entry.put(store, KEY)
            path = store.entry_dir(entry.kind, KEY) / "meta.json"
            header = json.loads(path.read_text(encoding="utf-8"))
            header["schema_version"] = SCHEMA_VERSION - 1
            path.write_text(json.dumps(header), encoding="utf-8")
            assert entry.read(store, KEY) is None
            assert store.stats().quarantined == 1

    def test_key_mismatch_is_quarantined(self, tmp_path):
        for entry in ENTRIES:
            store = ResultCache(tmp_path / entry.kind)
            entry.put(store, KEY)
            other = "a" * 64
            store.entry_dir(entry.kind, KEY).rename(
                store.entry_dir(entry.kind, other))
            assert entry.read(store, other) is None
            assert store.stats().quarantined == 1

    def test_rewrite_after_quarantine_works(self, tmp_path):
        for entry in ENTRIES:
            store = ResultCache(tmp_path / entry.kind)
            entry.put(store, KEY)
            (store.entry_dir(entry.kind, KEY) / "meta.json").write_text(
                "garbage", encoding="utf-8")
            assert entry.read(store, KEY) is None
            entry.put(store, KEY, value=2.0)
            assert entry.read(store, KEY) == 2.0

    def test_no_tmp_files_left_behind(self, tmp_path):
        for entry in ENTRIES:
            store = ResultCache(tmp_path)
            entry.put(store, KEY)
            leftovers = [p for p in store.entry_dir(entry.kind, KEY)
                         .parent.iterdir() if p.suffix == ".tmp"]
            assert leftovers == []

    def test_stats_and_clear(self, tmp_path):
        for entry in ENTRIES:
            store = ResultCache(tmp_path / entry.kind)
            for i in range(3):
                entry.put(store, f"{i:064x}")
            stats = store.stats()
            assert stats.entries == 3
            assert stats.by_kind == {entry.kind: 3}
            assert stats.total_bytes > 0
            assert store.clear() == 3
            assert store.stats().entries == 0

    def test_enumeration_is_sorted_regardless_of_creation_order(
            self, tmp_path):
        # RL001 regression: directory listings yield filesystem order,
        # which tracks creation order on most filesystems — create
        # entries shuffled and require sorted enumeration anyway.
        store = ResultCache(tmp_path)
        keys = [f"{i:064x}" for i in (7, 1, 9, 3)]
        for key in keys:
            for entry in ENTRIES:
                entry.put(store, key)
        store.quarantine_dir.mkdir(parents=True)
        for name in ["zz", "aa", "mm"]:
            (store.quarantine_dir / name).mkdir()
        store.manifest_dir.mkdir(parents=True)
        for name in ["run-b.json", "run-a.json"]:
            (store.manifest_dir / name).write_text("{}", encoding="utf-8")
        assert store.entries() == sorted(
            (entry.kind, key) for entry in ENTRIES for key in keys)
        assert [p.name for p in store.quarantined()] == ["aa", "mm", "zz"]
        assert [p.name for p in store.manifests()] \
            == ["run-a.json", "run-b.json"]

    def test_clear_evicts_in_sorted_path_order(self, tmp_path,
                                               monkeypatch):
        store = ResultCache(tmp_path)
        for i in (5, 2, 8):
            for entry in ENTRIES:
                entry.put(store, f"{i:064x}")
        removed_order = []
        real_rmtree = cache_mod.shutil.rmtree

        def recording_rmtree(path, *args, **kwargs):
            removed_order.append(str(path))
            return real_rmtree(path, *args, **kwargs)

        monkeypatch.setattr(cache_mod.shutil, "rmtree", recording_rmtree)
        assert store.clear() == 6
        assert removed_order == sorted(removed_order)

    def test_cache_stats_cli_output_is_deterministic(self, tmp_path,
                                                     capsys):
        from repro.cli import main as cli_main
        store = ResultCache(tmp_path)
        for i in (4, 0, 6):
            for entry in ENTRIES:
                entry.put(store, f"{i:064x}")
        outputs = []
        for _ in range(2):
            assert cli_main(["cache", "stats", "--cache-dir",
                             str(tmp_path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # One table for every kind.
        assert outputs[0].count("store at") == 1
        assert "kind eipv" in outputs[0] and "kind result" in outputs[0]

    def test_stats_render_mentions_root(self, tmp_path):
        text = ResultCache(tmp_path).stats().render()
        assert str(tmp_path) in text
        assert "entries" in text

    def test_default_dir_respects_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir().name == "repro"


class TestConcurrentWriters:
    def test_same_key_race_leaves_one_valid_entry(self, tmp_path):
        same_key_race(tmp_path, ResultEntry())


class TestPrune:
    def test_prune_evicts_to_the_bound_in_sorted_order(self, tmp_path):
        for entry in ENTRIES:
            store = ResultCache(tmp_path / entry.kind)
            for i in (7, 1, 4, 9):
                entry.put(store, f"{i:064x}")
            assert store.prune(max_entries=2) == 2
            # Sorted eviction: the lexically-earliest entries go first.
            assert store.entries() == [(entry.kind, f"{7:064x}"),
                                       (entry.kind, f"{9:064x}")]

    def test_prune_within_bound_is_a_no_op(self, tmp_path):
        for entry in ENTRIES:
            store = ResultCache(tmp_path / entry.kind)
            entry.put(store, "aa" * 32)
            assert store.prune(max_entries=5) == 0
            assert len(store.entries()) == 1

    def test_prune_counts_into_metrics(self, tmp_path):
        for entry in ENTRIES:
            metrics = MetricsRegistry()
            store = ResultCache(tmp_path / entry.kind, metrics=metrics)
            for i in range(3):
                entry.put(store, f"{i:064x}")
            store.prune(max_entries=1)
            assert metrics.count(f"{entry.counter}.pruned") == 2


def test_get_scale_round_trips_spec_scales():
    for name in ("tiny", "default", "paper"):
        assert get_scale(name).name == name
