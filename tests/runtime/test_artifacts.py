"""The one store: entries, atomic publication, quarantine, one walk.

Every entry is a ``(kind, key)`` directory with a ``meta.json`` header
written last: a result entry carries its payload in the header, an array
entry carries ``.npy`` arrays beside it.  :data:`ENTRIES` names the two
shapes; every behaviour the kinds share runs for both (here and in
``test_jobs_and_cache.py``), so the store cannot keep one contract for
results and another for artifacts.
"""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.cache import RESULT, ResultCache
from repro.runtime.metrics import MetricsRegistry

KEY = "cd" * 32
OTHER = "ef" * 32


class ResultEntry:
    """A job result: no arrays, the payload in the header."""

    kind = RESULT
    counter = "cache"

    def put(self, store: ResultCache, key: str, value: float = 1.5) -> None:
        store.put(key, {"value": value}, spec={"kind": "analysis"})

    def read(self, store: ResultCache, key: str):
        payload = store.get(key)
        return None if payload is None else payload["value"]

    def tear(self, store: ResultCache, key: str) -> None:
        header = store.entry_dir(self.kind, key) / "meta.json"
        header.write_bytes(header.read_bytes()[:20])


class ArrayEntry:
    """A stage artifact: ``.npy`` arrays beside the header."""

    kind = "eipv"
    counter = "artifact"

    def put(self, store: ResultCache, key: str, value: float = 1.5) -> None:
        put_simple(store, key, self.kind, value)

    def read(self, store: ResultCache, key: str):
        if store.open_meta(self.kind, key) is None:
            return None
        view = store.load_array(self.kind, key, "data")
        return None if view is None else float(view[0])

    def tear(self, store: ResultCache, key: str) -> None:
        array = store.entry_dir(self.kind, key) / "data.npy"
        array.write_bytes(array.read_bytes()[:10])


#: The two entry shapes every shared behaviour is checked for.
ENTRIES = (ResultEntry(), ArrayEntry())


def put_simple(store: ResultCache, key: str = KEY,
               kind: str = "eipv", value: float = 1.5) -> None:
    with store.publish(kind, key, {"n": 3}) as staging:
        np.save(staging / "data.npy", np.full(3, value))


class TestRoundTrip:
    def test_put_then_open_meta_and_load(self, tmp_path):
        store = ResultCache(tmp_path)
        put_simple(store)
        assert store.has("eipv", KEY)
        assert store.open_meta("eipv", KEY) == {"n": 3}
        view = store.load_array("eipv", KEY, "data")
        assert view is not None
        np.testing.assert_array_equal(np.asarray(view), np.full(3, 1.5))

    def test_loaded_views_are_read_only(self, tmp_path):
        store = ResultCache(tmp_path)
        put_simple(store)
        view = store.load_array("eipv", KEY, "data")
        assert view.flags.writeable is False
        with pytest.raises((ValueError, RuntimeError)):
            view[0] = 99.0

    def test_missing_artifact_is_a_miss(self, tmp_path):
        for entry in ENTRIES:
            metrics = MetricsRegistry()
            store = ResultCache(tmp_path / entry.kind, metrics=metrics)
            assert store.has(entry.kind, KEY) is False
            assert entry.read(store, KEY) is None
            assert metrics.count(f"{entry.counter}.miss") == 1

    def test_kind_and_key_are_distinct_namespaces(self, tmp_path):
        store = ResultCache(tmp_path)
        put_simple(store, kind="trace", value=1.0)
        put_simple(store, kind="eipv", value=2.0)
        store.put(KEY, {"value": 3.0})
        assert np.asarray(store.load_array("trace", KEY, "data"))[0] == 1.0
        assert np.asarray(store.load_array("eipv", KEY, "data"))[0] == 2.0
        assert store.get(KEY) == {"value": 3.0}

    def test_put_failure_leaves_no_litter_and_no_artifact(self, tmp_path):
        store = ResultCache(tmp_path)
        with pytest.raises(RuntimeError):
            with store.publish("eipv", KEY, {}) as staging:
                np.save(staging / "data.npy", np.zeros(2))
                raise RuntimeError("publisher died mid-write")
        assert store.has("eipv", KEY) is False
        assert list(tmp_path.rglob("*.tmp")) == []


class TestQuarantine:
    def test_truncated_array_quarantines_whole_artifact(self, tmp_path):
        metrics = MetricsRegistry()
        store = ResultCache(tmp_path, metrics=metrics)
        put_simple(store)
        ArrayEntry().tear(store, KEY)
        assert store.load_array("eipv", KEY, "data") is None
        # The whole directory moved aside: next probe is a clean miss,
        # so the producing stage silently recomputes.
        assert store.has("eipv", KEY) is False
        assert len(store.quarantined()) == 1
        assert metrics.count("artifact.quarantined") == 1

    def test_garbage_meta_quarantines(self, tmp_path):
        # Bytes that are not even UTF-8 read as damage, not as an error.
        for entry in ENTRIES:
            store = ResultCache(tmp_path / entry.kind)
            entry.put(store, KEY)
            (store.entry_dir(entry.kind, KEY) / "meta.json").write_bytes(
                b"\xff\xfe{oops")
            assert entry.read(store, KEY) is None
            assert store.has(entry.kind, KEY) is False
            assert len(store.quarantined()) == 1

    def test_wrong_schema_or_identity_quarantines(self, tmp_path):
        for entry in ENTRIES:
            for field, value in (("key", OTHER), ("kind", "trace"),
                                 ("meta", [1, 2])):
                store = ResultCache(tmp_path / entry.kind / field)
                entry.put(store, KEY)
                path = store.entry_dir(entry.kind, KEY) / "meta.json"
                header = json.loads(path.read_text())
                header[field] = value
                path.write_text(json.dumps(header))
                assert entry.read(store, KEY) is None, (entry.kind, field)
                assert len(store.quarantined()) == 1

    def test_repeated_quarantine_keeps_every_specimen(self, tmp_path):
        store = ResultCache(tmp_path)
        for _ in range(2):
            put_simple(store)
            (store.entry_dir("eipv", KEY) / "meta.json").write_text("x")
            assert store.open_meta("eipv", KEY) is None
        names = [p.name for p in store.quarantined()]
        assert names == [f"eipv-{KEY}", f"eipv-{KEY}.1"]


class TestMaintenance:
    def test_entries_sorted_and_exclude_quarantine(self, tmp_path):
        store = ResultCache(tmp_path)
        put_simple(store, key=OTHER)
        put_simple(store, key=KEY)
        put_simple(store, key="aa" * 32, kind="trace")
        store.put("bb" * 32, {"value": 1})
        (store.entry_dir("eipv", KEY) / "meta.json").write_text("x")
        assert store.open_meta("eipv", KEY) is None  # quarantined
        # (kind, key) order: kind-major, the same on every filesystem.
        assert store.entries() == [("eipv", OTHER), (RESULT, "bb" * 32),
                                   ("trace", "aa" * 32)]

    def test_stats_counts_by_kind(self, tmp_path):
        store = ResultCache(tmp_path)
        put_simple(store, key=KEY, kind="trace")
        put_simple(store, key=KEY, kind="eipv")
        put_simple(store, key=OTHER, kind="eipv")
        store.put(KEY, {"value": 1})
        stats = store.stats()
        assert stats.entries == 4
        assert stats.by_kind == {"eipv": 2, RESULT: 1, "trace": 1}
        assert stats.total_bytes == sum(
            path.stat().st_size for path in store.store_dir.rglob("*")
            if path.is_file())
        text = stats.render()
        assert text.count("store at") == 1
        assert "kind result" in text and "kind trace" in text

    def test_prune_is_deterministic_sorted_eviction(self, tmp_path):
        for entry in ENTRIES:
            store = ResultCache(tmp_path / entry.kind)
            keys = [f"{i:064x}" for i in (7, 1, 4, 9)]
            for key in keys:
                entry.put(store, key)
            assert store.prune(max_entries=2) == 2
            survivors = [key for _, key in store.entries()]
            assert survivors == sorted(keys)[2:]

    def test_clear_removes_artifacts_and_quarantine(self, tmp_path):
        store = ResultCache(tmp_path)
        put_simple(store, key=KEY)
        put_simple(store, key=OTHER)
        (store.entry_dir("eipv", KEY) / "meta.json").write_text("x")
        store.open_meta("eipv", KEY)
        assert store.clear() == 1  # OTHER; KEY was quarantined
        assert store.entries() == []
        assert store.quarantined() == []


class TestResultCacheIntegration:
    def test_cache_prune_bounds_both_tiers(self, tmp_path):
        # One rule over one walk: the bound counts every kind together
        # and evicts in sorted (kind, key) order.
        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=metrics)
        for i in range(4):
            key = f"{i:064x}"
            cache.put(key, {"k": key})
            put_simple(cache, key=key)
        removed = cache.prune(max_entries=3)
        assert removed == 5  # the 4 eipv entries, then one result
        assert cache.entries() == [(RESULT, f"{i:064x}") for i in (1, 2, 3)]
        assert metrics.count("artifact.pruned") == 4
        assert metrics.count("cache.pruned") == 1

    def test_cache_clear_covers_artifacts(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"k": 1})
        put_simple(cache, key=KEY)
        put_simple(cache, key=OTHER, kind="trace")
        assert cache.clear() == 3
        assert cache.entries() == []

    def test_contains_probe_has_no_metrics_side_effect(self, tmp_path):
        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=metrics)
        assert cache.has(RESULT, KEY) is False
        cache.put(KEY, {"k": 1})
        assert cache.has(RESULT, KEY) is True
        counters = metrics.snapshot()["counters"]
        assert "cache.hit" not in counters
        assert "cache.miss" not in counters


class TestStatsRace:
    """An entry removed between the listing and its sizing (a concurrent
    prune) is left out of the stats, never raised."""

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.kind)
    def test_entry_removed_between_listing_and_sizing(self, entry, tmp_path,
                                                      monkeypatch):
        real = ResultCache.entries

        def listed_then_pruned(store):
            listed = real(store)
            shutil.rmtree(store.entry_dir(*listed[0]))
            return listed

        store = ResultCache(tmp_path)
        entry.put(store, KEY)
        entry.put(store, OTHER)
        monkeypatch.setattr(ResultCache, "entries", listed_then_pruned)
        stats = store.stats()
        assert stats.entries == 1
        assert stats.by_kind == {entry.kind: 1}


def _write_two_tier_layout(root: Path) -> None:
    """A cache directory as the two-tier layout wrote it."""
    obj = root / "objects" / KEY[:2] / f"{KEY}.json"
    obj.parent.mkdir(parents=True)
    obj.write_text(json.dumps({"schema_version": 1, "key": KEY,
                               "spec": {"kind": "analysis"},
                               "payload": {"value": 1}}))
    art = root / "artifacts" / "eipv" / KEY[:2] / KEY
    art.mkdir(parents=True)
    np.save(art / "data.npy", np.zeros(3))
    (art / "meta.json").write_text(json.dumps(
        {"schema_version": 1, "kind": "eipv", "key": KEY, "meta": {}}))
    (root / "quarantine").mkdir()
    (root / "quarantine" / f"{OTHER}.json").write_text("garbage")


class TestTwoTierLayout:
    def test_old_layout_reads_as_misses_and_is_left_alone(self, tmp_path,
                                                         capsys):
        from repro.cli import main as cli_main
        from repro.serve.service import AnalysisService, ServeConfig

        _write_two_tier_layout(tmp_path)
        before = sorted(str(p) for p in tmp_path.rglob("*"))
        store = ResultCache(tmp_path)
        assert store.get(KEY) is None
        assert store.open_meta("eipv", KEY) is None
        assert store.stats().entries == 0
        assert store.stats().quarantined == 0

        args = ["spec.gzip", "--intervals", "12", "--seed", "7",
                "--scale", "tiny", "--k-max", "5"]
        assert cli_main(["analyze", *args, "--no-cache"]) == 0
        reference = capsys.readouterr().out
        assert cli_main(["analyze", *args, "--cache-dir",
                         str(tmp_path)]) == 0
        assert capsys.readouterr().out == reference
        assert cli_main(["cache", "stats", "--cache-dir",
                         str(tmp_path)]) == 0
        table = capsys.readouterr().out
        assert re.search(r"^ *entries +5$", table, re.M)
        assert re.search(r"^ *quarantined +0$", table, re.M)

        service = AnalysisService(ServeConfig(cache_dir=tmp_path),
                                  metrics=MetricsRegistry())
        try:
            assert service.stats()["cache"]["by_kind"] == {
                "eipv": 1, RESULT: 3, "trace": 1}
        finally:
            service.close()
        # The old directories are neither read nor touched.
        assert set(before) <= {str(p) for p in tmp_path.rglob("*")}
        assert ResultCache(tmp_path).clear() == 5
        assert (tmp_path / "objects" / KEY[:2] / f"{KEY}.json").is_file()


class TestNeverListed:
    def test_manifests_sweeps_and_nested_caches_are_not_entries(
            self, tmp_path):
        store = ResultCache(tmp_path)
        nested = ResultCache(tmp_path / "cli")
        for target in (store, nested):
            put_simple(target)
            target.put(KEY, {"value": 1})
        store.manifest_dir.mkdir()
        (store.manifest_dir / "run.json").write_text("{}")
        sweep = tmp_path / "sweeps" / "0123456789abcdef"
        (sweep / "table").mkdir(parents=True)
        (sweep / "manifest.json").write_text("{}")
        outside = sorted(p for p in tmp_path.rglob("*")
                         if store.store_dir not in p.parents
                         and p != store.store_dir)

        assert store.entries() == [("eipv", KEY), (RESULT, KEY)]
        assert store.prune(max_entries=0) == 2
        put_simple(store)
        assert store.clear() == 1
        assert sorted(p for p in tmp_path.rglob("*")
                      if store.store_dir not in p.parents
                      and p != store.store_dir) == outside
        assert nested.entries() == [("eipv", KEY), (RESULT, KEY)]


def _race_publisher(root: str, entry, key: str, barrier,
                    rounds: int) -> None:
    """One racing publisher: rendezvous, then publish the same entry
    repeatedly so two writers genuinely overlap in the rename window."""
    store = ResultCache(Path(root))
    for _ in range(rounds):
        barrier.wait(timeout=30)
        entry.put(store, key, value=4.0)


def same_key_race(tmp_path: Path, entry) -> None:
    """Two processes publish ``entry`` under one key while this one reads:
    readers see a complete entry or a miss, the loser detects the winner
    and discards its tree, and exactly one valid entry remains."""
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(3)
    except (OSError, PermissionError, ValueError):
        pytest.skip("multiprocessing unavailable in this environment")
    rounds = 25
    workers = [ctx.Process(target=_race_publisher,
                           args=(str(tmp_path), entry, KEY, barrier, rounds))
               for _ in range(2)]
    for worker in workers:
        worker.start()
    store = ResultCache(tmp_path)
    for _ in range(rounds):
        barrier.wait(timeout=30)
        # Readers racing the publishers must only ever see a complete
        # entry or a miss — never a partial directory, never a
        # quarantine.
        assert entry.read(store, KEY) in (None, 4.0)
    for worker in workers:
        worker.join(30)
        assert worker.exitcode == 0

    # Exactly one valid entry for the key...
    assert entry.read(store, KEY) == 4.0
    assert store.entries() == [(entry.kind, KEY)]
    # ...no quarantine debris and no leaked staging directories.
    assert store.quarantined() == []
    assert list(tmp_path.rglob("*.tmp")) == []


class TestConcurrentPublishers:
    def test_same_key_race_leaves_one_valid_artifact(self, tmp_path):
        same_key_race(tmp_path, ArrayEntry())
