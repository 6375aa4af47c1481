"""Tests for the B-tree substrate and its descent modulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.cpu import ExecutionProfile
from repro.workloads.btree import (
    BTree,
    BTreeDescentModulator,
    path_overlap,
)
from tests.workloads.btree_reference import ReferenceBTree


class TestBTreeStructure:
    def test_single_leaf(self):
        tree = BTree([5], fanout=4)
        assert tree.height == 1
        assert tree.node_count() == 1

    def test_height_grows_logarithmically(self):
        small = BTree(range(10), fanout=4)
        large = BTree(range(1000), fanout=4)
        assert large.height > small.height
        # height bounded by ceil(log_fanout(n)) + 1
        assert large.height <= 6

    def test_search_finds_every_key(self):
        keys = list(range(0, 500, 7))
        tree = BTree(keys, fanout=8)
        for key in keys:
            value, path = tree.search(key)
            assert value == key
            assert len(path) == tree.height

    def test_search_absent_key(self):
        tree = BTree(range(0, 100, 2), fanout=8)
        value, path = tree.search(51)
        assert value is None
        assert len(path) == tree.height

    def test_duplicate_keys_deduplicated(self):
        tree = BTree([1, 1, 2, 2, 3], fanout=4)
        assert tree.n_keys == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            BTree([], fanout=4)
        with pytest.raises(ValueError):
            BTree([1], fanout=2)

    def test_range_descents_paths_share_root(self):
        tree = BTree(range(1000), fanout=8)
        rng = np.random.default_rng(0)
        paths = tree.range_descents(rng, 10, 0, 999)
        roots = {path[0] for path in paths}
        assert len(roots) == 1

    @settings(max_examples=25, deadline=None)
    @given(keys=st.lists(st.integers(0, 10_000), min_size=1, max_size=400),
           fanout=st.sampled_from([3, 8, 32]))
    def test_structure_invariants(self, keys, fanout):
        tree = BTree(keys, fanout=fanout)
        unique = sorted(set(keys))
        assert tree.n_keys == len(unique)
        assert tree.min_key == unique[0]
        assert tree.max_key == unique[-1]
        # Every key reachable; every path exactly `height` nodes.
        for key in unique[:20]:
            value, path = tree.search(key)
            assert value == key
            assert len(path) == tree.height


    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(st.integers(-1_000, 1_000), min_size=1,
                         max_size=800),
           fanout=st.integers(3, 64),
           probes=st.lists(st.integers(-1_200, 1_200), max_size=30),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_node_walking_reference(self, keys, fanout, probes,
                                            seed):
        """The array-backed tree answers exactly like the node-walking
        one it replaced: same node ids, paths, heights and counts."""
        tree = BTree(keys, fanout=fanout)
        reference = ReferenceBTree(keys, fanout=fanout)
        assert (tree.n_keys, tree.min_key, tree.max_key, tree.height,
                tree.node_count()) == (
            reference.n_keys, reference.min_key, reference.max_key,
            reference.height, reference.node_count())
        low, high = reference.min_key, reference.max_key
        for key in probes + keys[:30] + [low - 1, low, high, high + 1]:
            assert tree.search(key) == reference.search(key), key
        for lo, hi in ((low - 50, high + 50), (low, low), (high, high + 9)):
            assert (tree.range_descents(np.random.default_rng(seed), 12,
                                        lo, hi)
                    == reference.range_descents(
                        np.random.default_rng(seed), 12, lo, hi))


class TestPathOverlap:
    def test_identical_paths_full_overlap(self):
        assert path_overlap([[1, 2, 3], [1, 2, 3]]) == pytest.approx(0.5)

    def test_single_path_defined_as_one(self):
        assert path_overlap([[1, 2, 3]]) == 1.0

    def test_disjoint_paths_low_overlap(self):
        overlap = path_overlap([[1, 2, 3], [4, 5, 6]])
        assert overlap == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            path_overlap([])

    def test_overlap_increases_with_shared_prefix(self):
        shared = path_overlap([[1, 2, 3], [1, 2, 4]])
        divergent = path_overlap([[1, 2, 3], [1, 5, 6]])
        assert shared > divergent


class TestDescentModulator:
    def make(self, **kwargs):
        tree = BTree(range(20_000), fanout=16)
        return BTreeDescentModulator(tree, **kwargs)

    def test_locality_within_configured_band(self):
        modulator = self.make(min_locality=0.9, max_locality=0.99)
        profile = ExecutionProfile()
        rng = np.random.default_rng(1)
        values = [modulator.modulate(profile, rng).data_locality
                  for _ in range(300)]
        assert min(values) >= 0.9
        assert max(values) <= 0.99

    def test_locality_varies_over_time(self):
        modulator = self.make(min_locality=0.85, max_locality=0.99)
        profile = ExecutionProfile()
        rng = np.random.default_rng(2)
        values = [modulator.modulate(profile, rng).data_locality
                  for _ in range(400)]
        assert np.std(values) > 0.001

    def test_walk_is_autocorrelated(self):
        """The width random walk makes consecutive chunks similar — the
        slow 'apparent phases' of Figure 11."""
        modulator = self.make(width_walk_sigma=0.2)
        profile = ExecutionProfile()
        rng = np.random.default_rng(3)
        values = np.array([modulator.modulate(profile, rng).data_locality
                           for _ in range(500)])
        lag1 = np.corrcoef(values[:-1], values[1:])[0, 1]
        shuffled = values.copy()
        rng.shuffle(shuffled)
        lag1_shuffled = np.corrcoef(shuffled[:-1], shuffled[1:])[0, 1]
        assert lag1 > lag1_shuffled + 0.2

    def test_reset(self):
        modulator = self.make()
        profile = ExecutionProfile()
        rng = np.random.default_rng(4)
        for _ in range(50):
            modulator.modulate(profile, rng)
        modulator.reset()
        mid = (modulator._LOG_WIDTH_LOW + modulator._LOG_WIDTH_HIGH) / 2
        assert modulator._log_width == mid

    def test_validation(self):
        tree = BTree(range(100), fanout=4)
        with pytest.raises(ValueError):
            BTreeDescentModulator(tree, probes_per_chunk=1)
        with pytest.raises(ValueError):
            BTreeDescentModulator(tree, min_locality=0.9, max_locality=0.5)
        with pytest.raises(ValueError):
            BTreeDescentModulator(tree, width_walk_sigma=-1)
