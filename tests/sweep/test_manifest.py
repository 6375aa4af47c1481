"""Shard layout, manifest round-trips, and torn-partial rejection."""

import json

import pytest

from repro.sweep import SweepManifest, SweepStateError, shard_bounds
from repro.sweep.manifest import (MANIFEST_NAME, load_manifest,
                                  read_partial, write_partial)


class TestShardBounds:
    def test_contiguous_cover(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_near_equal_sizes(self):
        for total in (1, 7, 100, 1350):
            for shards in (1, 3, 8, 64):
                bounds = shard_bounds(total, shards)
                sizes = [hi - lo for lo, hi in bounds]
                assert sum(sizes) == total
                assert max(sizes) - min(sizes) <= 1
                assert bounds[0][0] == 0 and bounds[-1][1] == total
                assert all(bounds[i][1] == bounds[i + 1][0]
                           for i in range(len(bounds) - 1))

    def test_more_shards_than_points_clamps(self):
        assert shard_bounds(2, 8) == [(0, 1), (1, 2)]
        assert shard_bounds(0, 4) == [(0, 0)]

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)


ROWS = [[0, 0.5, 1.0, 0.1, 0.05, 3, 12, 4, 0],
        [1, 0.6, 1.1, 0.2, 0.08, 2, 12, 4, 1]]


class TestPartials:
    def test_round_trip(self, tmp_path):
        name = write_partial(tmp_path, 0, 0, 2, ROWS)
        assert read_partial(tmp_path, name, 0, 0, 2) == ROWS

    def test_row_count_mismatch_refused_at_write(self, tmp_path):
        with pytest.raises(ValueError, match="rows"):
            write_partial(tmp_path, 0, 0, 3, ROWS)

    def test_torn_partial_reads_as_not_done(self, tmp_path):
        name = write_partial(tmp_path, 0, 0, 2, ROWS)
        path = tmp_path / name
        path.write_text(path.read_text()[:-20], encoding="utf-8")
        assert read_partial(tmp_path, name, 0, 0, 2) is None

    def test_wrong_shard_or_bounds_reads_as_not_done(self, tmp_path):
        name = write_partial(tmp_path, 0, 0, 2, ROWS)
        assert read_partial(tmp_path, name, 1, 0, 2) is None
        assert read_partial(tmp_path, name, 0, 0, 3) is None
        assert read_partial(tmp_path, "shards/none.json", 0, 0, 2) is None


class TestManifest:
    def manifest(self):
        return SweepManifest(space={"kind": "sweep-space"}, space_key="a" * 64,
                             n_points=10, bounds=shard_bounds(10, 3))

    def test_save_load_round_trip(self, tmp_path):
        manifest = self.manifest()
        manifest.save(tmp_path)
        loaded = load_manifest(tmp_path)
        assert loaded == manifest
        assert loaded.n_shards == 3

    def test_fresh_dir_has_no_manifest(self, tmp_path):
        assert load_manifest(tmp_path) is None

    def test_corrupt_manifest_is_an_error_not_a_recompute(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(SweepStateError, match="unreadable"):
            load_manifest(tmp_path)

    def test_newer_schema_refused(self, tmp_path):
        data = self.manifest().to_dict()
        data["schema"] = 99
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(data),
                                              encoding="utf-8")
        with pytest.raises(SweepStateError, match="newer"):
            load_manifest(tmp_path)

    def test_atomic_save_leaves_no_tmp(self, tmp_path):
        self.manifest().save(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_NAME]
