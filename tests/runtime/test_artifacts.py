"""The one store: entries, atomic publication, quarantine, one walk.

Every entry is a ``(kind, key)`` directory holding one ``entry`` file: a
prefix, the JSON header, then the columns.  A result entry carries its
payload in the header and has no columns; an array entry carries named
columns after it.  :data:`ENTRIES` names the two shapes; every
behaviour the kinds share runs for both (here and in
``test_jobs_and_cache.py``), so the store cannot keep one contract for
results and another for artifacts.
"""

import json
import os
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import cache as cache_mod
from repro.runtime.cache import MAGIC, RESULT, SCHEMA_VERSION, ResultCache
from repro.runtime.metrics import MetricsRegistry

KEY = "cd" * 32
OTHER = "ef" * 32

#: An entry file's prefix: the magic and the header's length.
PREFIX = struct.Struct("<8sQ")


def split_entry(path: Path) -> tuple[dict, bytes]:
    """The header of an entry file and its column bytes (everything
    from the first 64-byte boundary after the header)."""
    raw = path.read_bytes()
    _, length = PREFIX.unpack_from(raw)
    start = -(-(PREFIX.size + length) // 64) * 64
    return json.loads(raw[PREFIX.size:PREFIX.size + length]), raw[start:]


def write_entry(path: Path, text: bytes, columns: bytes = b"") -> None:
    """An entry file with the raw header bytes ``text``; ``columns``
    start at the first 64-byte boundary after it, where readers look."""
    pad = bytes(-(PREFIX.size + len(text)) % 64)
    path.write_bytes(PREFIX.pack(MAGIC, len(text)) + text + pad + columns)


def edit_header(store: ResultCache, kind: str, key: str, edit) -> None:
    """Rewrite the entry's header as ``edit(header)`` returns it, every
    column's bytes kept at its offset."""
    path = store.entry_path(kind, key)
    header, columns = split_entry(path)
    write_entry(path, json.dumps(edit(header)).encode(), columns)


def set_field(header: dict, field: str, value) -> dict:
    header[field] = value
    return header


class ResultEntry:
    """A job result: no columns, the payload in the header."""

    kind = RESULT
    counter = "cache"

    def put(self, store: ResultCache, key: str, value: float = 1.5) -> None:
        store.put(key, {"value": value}, spec={"kind": "analysis"})

    def read(self, store: ResultCache, key: str):
        payload = store.get(key)
        return None if payload is None else payload["value"]

    def tear(self, store: ResultCache, key: str) -> None:
        """Cut the file inside its header."""
        path = store.entry_path(self.kind, key)
        path.write_bytes(path.read_bytes()[:20])


class ArrayEntry:
    """A stage artifact: columns after the header."""

    kind = "eipv"
    counter = "artifact"

    def put(self, store: ResultCache, key: str, value: float = 1.5) -> None:
        put_simple(store, key, self.kind, value)

    def read(self, store: ResultCache, key: str):
        loaded = store.load_arrays(self.kind, key)
        return None if loaded is None else float(loaded[1]["data"][0])

    def tear(self, store: ResultCache, key: str) -> None:
        """Cut the file inside its last column."""
        path = store.entry_path(self.kind, key)
        path.write_bytes(path.read_bytes()[:-10])


#: The two entry shapes every shared behaviour is checked for.
ENTRIES = (ResultEntry(), ArrayEntry())


def new_store(root: Path, **kwargs) -> ResultCache:
    """A store at a fresh ``root``, made here as ``store_scope`` makes a
    run's root: a publish never creates it."""
    root.mkdir(parents=True, exist_ok=True)
    return ResultCache(root, **kwargs)


def put_simple(store: ResultCache, key: str = KEY,
               kind: str = "eipv", value: float = 1.5) -> None:
    store.publish(kind, key, {"n": 3}, arrays={"data": np.full(3, value)})


class TestRoundTrip:
    def test_put_then_open_meta_and_load(self, tmp_path):
        store = ResultCache(tmp_path)
        put_simple(store)
        assert store.has("eipv", KEY)
        assert store.open_meta("eipv", KEY) == {"n": 3}
        meta, views = store.load_arrays("eipv", KEY)
        assert meta == {"n": 3}
        assert list(views) == ["data"]
        np.testing.assert_array_equal(views["data"], np.full(3, 1.5))

    def test_loaded_views_are_read_only(self, tmp_path):
        store = ResultCache(tmp_path)
        store.publish("eipv", KEY, {}, arrays={
            "data": np.full(3, 1.5), "codes": np.arange(5, dtype=np.int32),
            "flags": np.array([True, False])})
        _, views = store.load_arrays("eipv", KEY)
        assert sorted(views) == ["codes", "data", "flags"]
        for view in views.values():
            assert view.flags.writeable is False
            with pytest.raises((ValueError, RuntimeError)):
                view[0] = 1
            with pytest.raises(ValueError):
                view.flags.writeable = True

    def test_missing_artifact_is_a_miss(self, tmp_path):
        for entry in ENTRIES:
            metrics = MetricsRegistry()
            store = new_store(tmp_path / entry.kind, metrics=metrics)
            assert store.has(entry.kind, KEY) is False
            assert entry.read(store, KEY) is None
            assert metrics.count(f"{entry.counter}.miss") == 1

    def test_kind_and_key_are_distinct_namespaces(self, tmp_path):
        store = ResultCache(tmp_path)
        put_simple(store, kind="trace", value=1.0)
        put_simple(store, kind="eipv", value=2.0)
        store.put(KEY, {"value": 3.0})
        assert store.load_arrays("trace", KEY)[1]["data"][0] == 1.0
        assert store.load_arrays("eipv", KEY)[1]["data"][0] == 2.0
        assert store.get(KEY) == {"value": 3.0}

    def test_publish_never_creates_the_root(self, tmp_path):
        # A job that outlives its run's temporary store fails to publish
        # instead of bringing the removed store back.
        store = ResultCache(tmp_path / "gone")
        for entry in ENTRIES:
            with pytest.raises(OSError):
                entry.put(store, KEY)
        assert not (tmp_path / "gone").exists()

    def test_put_failure_leaves_no_litter_and_no_artifact(self, tmp_path,
                                                          monkeypatch):
        def dies_mid_write(path, header, arrays):
            path.write_bytes(b"half an entry")
            raise RuntimeError("publisher died mid-write")

        monkeypatch.setattr(cache_mod, "_write_entry", dies_mid_write)
        store = ResultCache(tmp_path)
        with pytest.raises(RuntimeError):
            put_simple(store)
        assert store.has("eipv", KEY) is False
        assert list(tmp_path.rglob("*.tmp")) == []


class TestQuarantine:
    def test_truncated_array_quarantines_whole_artifact(self, tmp_path):
        metrics = MetricsRegistry()
        store = ResultCache(tmp_path, metrics=metrics)
        put_simple(store)
        ArrayEntry().tear(store, KEY)
        assert store.load_arrays("eipv", KEY) is None
        # The whole directory moved aside: next probe is a clean miss,
        # so the producing stage silently recomputes.
        assert store.has("eipv", KEY) is False
        assert len(store.quarantined()) == 1
        assert metrics.count("artifact.quarantined") == 1

    def test_garbage_meta_quarantines(self, tmp_path):
        # Bytes that are not even UTF-8 read as damage, not as an error.
        for entry in ENTRIES:
            store = new_store(tmp_path / entry.kind)
            entry.put(store, KEY)
            write_entry(store.entry_path(entry.kind, KEY), b"\xff\xfe{oops")
            assert entry.read(store, KEY) is None
            assert store.has(entry.kind, KEY) is False
            assert len(store.quarantined()) == 1

    def test_wrong_schema_or_identity_quarantines(self, tmp_path):
        for entry in ENTRIES:
            for field, value in (("key", OTHER), ("kind", "trace"),
                                 ("meta", [1, 2])):
                store = new_store(tmp_path / entry.kind / field)
                entry.put(store, KEY)
                edit_header(store, entry.kind, KEY,
                            lambda header: set_field(header, field, value))
                assert entry.read(store, KEY) is None, (entry.kind, field)
                assert len(store.quarantined()) == 1

    def test_repeated_quarantine_keeps_every_specimen(self, tmp_path):
        store = ResultCache(tmp_path)
        for _ in range(2):
            put_simple(store)
            store.entry_path("eipv", KEY).write_text("x")
            assert store.open_meta("eipv", KEY) is None
        names = [p.name for p in store.quarantined()]
        assert names == [f"eipv-{KEY}", f"eipv-{KEY}.1"]


class TestEntryFile:
    """One file per entry, and every way that file can be damaged."""

    def test_entry_directory_holds_exactly_one_file(self, tmp_path):
        for entry in ENTRIES:
            store = new_store(tmp_path / entry.kind)
            entry.put(store, KEY)
            assert os.listdir(store.entry_dir(entry.kind, KEY)) == ["entry"]

    def test_columns_are_64_byte_aligned_after_the_header(self, tmp_path):
        store = ResultCache(tmp_path)
        arrays = {"a": np.arange(3, dtype=np.int16), "b": np.ones(5),
                  "c": np.empty(0, dtype=np.int64)}
        store.publish("eipv", KEY, {"n": 3}, spec={"kind": "eipv"},
                      arrays=arrays)
        raw = store.entry_path("eipv", KEY).read_bytes()
        assert raw[:8] == MAGIC
        header, columns = split_entry(store.entry_path("eipv", KEY))
        assert header["schema_version"] == SCHEMA_VERSION
        assert (header["kind"], header["key"]) == ("eipv", KEY)
        assert (header["meta"], header["spec"]) == ({"n": 3},
                                                    {"kind": "eipv"})
        start = len(raw) - len(columns)
        assert start % 64 == 0
        for name, array in arrays.items():
            column = header["columns"][name]
            assert column["dtype"] == array.dtype.str
            assert column["shape"] == list(array.shape)
            assert column["offset"] % 64 == 0
            offset = column["offset"]
            assert columns[offset:offset + array.nbytes] == array.tobytes()

    def test_result_entry_has_no_columns(self, tmp_path):
        store = ResultCache(tmp_path)
        ResultEntry().put(store, KEY)
        header, columns = split_entry(store.entry_path(RESULT, KEY))
        assert header["columns"] == {} and columns == b""
        assert store.load_arrays(RESULT, KEY) == ({"value": 1.5}, {})

    @pytest.mark.parametrize("keep", [0, 8, 16, 40], ids=lambda n: f"{n}B")
    def test_truncated_file_quarantines(self, tmp_path, keep):
        # Cut in the prefix or in the header: the header read refuses it.
        metrics = MetricsRegistry()
        store = ResultCache(tmp_path, metrics=metrics)
        put_simple(store)
        path = store.entry_path("eipv", KEY)
        path.write_bytes(path.read_bytes()[:keep])
        assert store.open_meta("eipv", KEY) is None
        assert store.has("eipv", KEY) is False
        assert len(store.quarantined()) == 1
        assert metrics.count("artifact.quarantined") == 1

    def test_column_past_the_end_quarantines(self, tmp_path):
        store = ResultCache(tmp_path)
        put_simple(store)
        size = store.entry_path("eipv", KEY).stat().st_size

        def beyond(header):
            header["columns"]["data"]["offset"] = size
            return header

        edit_header(store, "eipv", KEY, beyond)
        # The header alone is sound; mapping the column refuses it.
        assert store.open_meta("eipv", KEY) == {"n": 3}
        assert store.load_arrays("eipv", KEY) is None
        assert store.has("eipv", KEY) is False
        assert len(store.quarantined()) == 1

    @pytest.mark.parametrize("column", [
        {"dtype": "|O", "shape": [3], "offset": 0},
        {"dtype": [["f", "|O"]], "shape": [3], "offset": 0},
        {"dtype": "no such dtype", "shape": [3], "offset": 0},
        {"dtype": "<f8", "shape": [-3], "offset": 0},
        {"dtype": "<f8", "shape": [3], "offset": -64},
        {"dtype": "<f8", "shape": "3", "offset": 0},
        {"dtype": "<f8", "shape": [3]},
        ["<f8", [3], 0],
    ], ids=["object", "object-field", "unparsable", "negative-shape",
            "negative-offset", "string-shape", "no-offset", "not-a-table"])
    def test_bad_column_table_quarantines(self, tmp_path, column):
        store = ResultCache(tmp_path)
        put_simple(store)

        def damage(header):
            header["columns"]["data"] = column
            return header

        edit_header(store, "eipv", KEY, damage)
        assert store.load_arrays("eipv", KEY) is None
        assert len(store.quarantined()) == 1

    def test_refuses_to_publish_objects(self, tmp_path):
        store = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="objects"):
            store.publish("eipv", KEY, {}, arrays={
                "data": np.array([{"a": 1}], dtype=object)})
        assert store.entries() == []
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_schema_2_directory_reads_as_miss_and_is_replaced(self,
                                                              tmp_path):
        """A directory of the layout before one-file entries (a
        ``meta.json`` header beside one ``.npy`` per array) has no entry
        file: it reads as a plain miss, counts in ``stats()`` as it does
        against ``prune``'s bound (with 0 bytes), and publishing its key
        moves it aside."""
        for entry in ENTRIES:
            metrics = MetricsRegistry()
            store = new_store(tmp_path / entry.kind, metrics=metrics)
            old = store.entry_dir(entry.kind, KEY)
            old.mkdir(parents=True)
            np.save(old / "data.npy", np.zeros(3))
            (old / "meta.json").write_text(json.dumps(
                {"schema_version": 2, "kind": entry.kind, "key": KEY,
                 "meta": {"value": 9.0}, "spec": None}))
            assert store.has(entry.kind, KEY) is False
            assert entry.read(store, KEY) is None
            assert metrics.count(f"{entry.counter}.miss") == 1
            assert store.quarantined() == []
            stats = store.stats()
            assert stats.entries == len(store.entries()) == 1
            assert stats.by_kind == {entry.kind: 1}
            assert stats.total_bytes == 0

            entry.put(store, KEY, value=2.0)
            assert entry.read(store, KEY) == 2.0
            assert os.listdir(old) == ["entry"]
            assert store.stats().entries == len(store.entries()) == 1
            specimen, = store.quarantined()
            assert sorted(os.listdir(specimen)) == ["data.npy", "meta.json"]


class TestMaintenance:
    def test_entries_sorted_and_exclude_quarantine(self, tmp_path):
        store = ResultCache(tmp_path)
        put_simple(store, key=OTHER)
        put_simple(store, key=KEY)
        put_simple(store, key="aa" * 32, kind="trace")
        store.put("bb" * 32, {"value": 1})
        store.entry_path("eipv", KEY).write_text("x")
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
            store = new_store(tmp_path / entry.kind)
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
        store.entry_path("eipv", KEY).write_text("x")
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
        assert re.search(r"^ *entries +3$", table, re.M)
        assert re.search(r"^ *quarantined +0$", table, re.M)

        service = AnalysisService(ServeConfig(cache_dir=tmp_path),
                                  metrics=MetricsRegistry())
        try:
            assert service.stats()["cache"]["by_kind"] == {
                "eipv": 1, RESULT: 1, "trace": 1}
        finally:
            service.close()
        # The old directories are neither read nor touched.
        assert set(before) <= {str(p) for p in tmp_path.rglob("*")}
        assert ResultCache(tmp_path).clear() == 3
        assert (tmp_path / "objects" / KEY[:2] / f"{KEY}.json").is_file()


class TestNeverListed:
    def test_manifests_sweeps_and_nested_caches_are_not_entries(
            self, tmp_path):
        store = ResultCache(tmp_path)
        nested = new_store(tmp_path / "cli")
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

    # Exactly one valid entry for the key, one file...
    assert entry.read(store, KEY) == 4.0
    assert store.entries() == [(entry.kind, KEY)]
    assert os.listdir(store.entry_dir(entry.kind, KEY)) == ["entry"]
    # ...no quarantine debris and no leaked staging directories.
    assert store.quarantined() == []
    assert list(tmp_path.rglob("*.tmp")) == []


class TestConcurrentPublishers:
    def test_same_key_race_leaves_one_valid_artifact(self, tmp_path):
        same_key_race(tmp_path, ArrayEntry())
