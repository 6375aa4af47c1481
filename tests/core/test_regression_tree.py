"""Tests for the regression tree: paper example, invariants, equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regression_tree import RegressionTreeSequence
from repro.sparse import CSRMatrix
from repro.experiments.example_tree import (
    FIGURE1_CHAMBERS,
    TABLE1_CPIS,
    TABLE1_EIPVS,
)
from tests.core.reference_tree import DenseStoreTree, FullScanTree


class TestWorkedExample:
    """The paper's Table 1 / Figure 1 example, exactly."""

    def fitted(self):
        return RegressionTreeSequence(k_max=4).fit(TABLE1_EIPVS,
                                                   TABLE1_CPIS)

    def test_root_split_is_eip0_at_20(self):
        tree = self.fitted()
        assert tree.root.feature == 0
        assert tree.root.threshold == 20.0

    def test_left_subtree_splits_on_eip2_at_60(self):
        tree = self.fitted()
        assert tree.root.left.feature == 2
        assert tree.root.left.threshold == 60.0

    def test_right_subtree_splits_on_eip1_at_0(self):
        tree = self.fitted()
        assert tree.root.right.feature == 1
        assert tree.root.right.threshold == 0.0

    def test_chambers_match_figure1(self):
        tree = self.fitted()
        got = {(tuple(sorted(int(i) for i in leaf.rows)),
                round(leaf.value, 2)) for leaf in tree.leaves(4)}
        expected = {(tuple(sorted(m)), v) for m, v in FIGURE1_CHAMBERS}
        assert got == expected

    def test_t2_applies_only_root_split(self):
        tree = self.fitted()
        leaves = tree.leaves(2)
        assert len(leaves) == 2
        sizes = sorted(leaf.n for leaf in leaves)
        assert sizes == [4, 4]

    def test_t1_is_global_mean(self):
        tree = self.fitted()
        predictions = tree.predict(TABLE1_EIPVS, k=1)
        assert predictions == pytest.approx(
            np.full(8, TABLE1_CPIS.mean()))


class TestInvariants:
    def random_data(self, seed, m=40, n=12, density=0.4):
        rng = np.random.default_rng(seed)
        matrix = ((rng.random((m, n)) < density)
                  * rng.integers(1, 30, (m, n))).astype(float)
        y = rng.random(m) * 4
        return matrix, y

    def test_children_partition_parent(self):
        matrix, y = self.random_data(0)
        tree = RegressionTreeSequence(k_max=10).fit(matrix, y)

        def walk(node):
            if node.feature is None:
                return
            left = set(node.left.rows.tolist())
            right = set(node.right.rows.tolist())
            assert left | right == set(node.rows.tolist())
            assert not (left & right)
            walk(node.left)
            walk(node.right)

        walk(tree.root)

    def test_split_reduces_sse(self):
        matrix, y = self.random_data(1)
        tree = RegressionTreeSequence(k_max=10).fit(matrix, y)

        def walk(node):
            if node.feature is None:
                return
            assert node.left.sse + node.right.sse < node.sse + 1e-9
            walk(node.left)
            walk(node.right)

        walk(tree.root)

    def test_training_sse_decreases_with_k(self):
        matrix, y = self.random_data(2)
        tree = RegressionTreeSequence(k_max=15).fit(matrix, y)
        sses = [tree.training_sse(k) for k in range(1, tree.max_k() + 1)]
        assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))

    def test_leaf_count_equals_k(self):
        matrix, y = self.random_data(3)
        tree = RegressionTreeSequence(k_max=12).fit(matrix, y)
        for k in range(1, tree.max_k() + 1):
            assert len(tree.leaves(k)) == k

    def test_prediction_is_chamber_mean(self):
        matrix, y = self.random_data(4)
        tree = RegressionTreeSequence(k_max=8).fit(matrix, y)
        for k in (1, 4, tree.max_k()):
            for leaf in tree.leaves(k):
                member_mean = y[leaf.rows].mean()
                assert leaf.value == pytest.approx(member_mean)

    def test_constant_target_no_splits(self):
        matrix, _ = self.random_data(5)
        tree = RegressionTreeSequence(k_max=10).fit(
            matrix, np.full(len(matrix), 2.5))
        assert tree.max_k() == 1
        assert tree.predict(matrix, 1) == pytest.approx(np.full(len(matrix),
                                                                2.5))

    def test_min_leaf_respected(self):
        matrix, y = self.random_data(6, m=60)
        tree = RegressionTreeSequence(k_max=30, min_leaf=5).fit(matrix, y)
        for leaf in tree.leaves():
            assert leaf.n >= 5

    def test_perfectly_separable_data_zero_error(self):
        # CPI determined by whether feature 0 is used.
        matrix = np.zeros((20, 3))
        matrix[:10, 0] = 5
        matrix[10:, 1] = 7
        y = np.where(matrix[:, 0] > 0, 2.0, 1.0)
        tree = RegressionTreeSequence(k_max=4).fit(matrix, y)
        assert tree.training_sse() == pytest.approx(0.0)
        assert tree.predict(matrix) == pytest.approx(y)

    def test_predict_all_k_matches_predict(self):
        matrix, y = self.random_data(7)
        tree = RegressionTreeSequence(k_max=12).fit(matrix, y)
        allk = tree.predict_all_k(matrix)
        for k in range(1, tree.max_k() + 1):
            assert allk[:, k - 1] == pytest.approx(tree.predict(matrix, k))

    def test_unseen_points_route_to_leaves(self):
        matrix, y = self.random_data(8)
        tree = RegressionTreeSequence(k_max=8).fit(matrix, y)
        probe = np.full((1, matrix.shape[1]), 1000.0)
        prediction = float(tree.predict(probe)[0])
        leaf_values = [leaf.value for leaf in tree.leaves()]
        assert min(abs(prediction - v) for v in leaf_values) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionTreeSequence(k_max=0)
        with pytest.raises(ValueError):
            RegressionTreeSequence(min_leaf=0)
        with pytest.raises(ValueError):
            RegressionTreeSequence().fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            RegressionTreeSequence().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(RuntimeError):
            RegressionTreeSequence().predict(np.zeros((1, 2)))


def _brute_force_best_sse(matrix, y, min_leaf=1):
    """Exhaustive O(m^2 n) split search: the oracle for the vectorized one.

    Tries every (feature, distinct value) wall and returns the smallest
    total children SSE, or inf when no wall leaves min_leaf on each side.
    """
    best = np.inf
    for j in range(matrix.shape[1]):
        column = matrix[:, j]
        for t in np.unique(column)[:-1]:
            left = column <= t
            if left.sum() < min_leaf or (~left).sum() < min_leaf:
                continue
            sse = (((y[left] - y[left].mean()) ** 2).sum()
                   + ((y[~left] - y[~left].mean()) ** 2).sum())
            best = min(best, float(sse))
    return best


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(4, 30),
       n=st.integers(1, 10))
def test_root_split_matches_brute_force(seed, m, n):
    """The vectorized segmented split search agrees exactly with an
    exhaustive every-wall reference."""
    rng = np.random.default_rng(seed)
    matrix = ((rng.random((m, n)) < 0.45)
              * rng.integers(1, 8, (m, n))).astype(float)
    y = np.round(rng.random(m) * 3, 3)
    tree = RegressionTreeSequence(k_max=2).fit(matrix, y)

    best_sse = _brute_force_best_sse(matrix, y)
    if tree.root.feature is None:
        # No useful split found: reference must agree (no split can beat
        # the parent SSE by more than floating noise).
        parent_sse = float(((y - y.mean()) ** 2).sum())
        assert best_sse == np.inf or best_sse >= parent_sse - 1e-9
    else:
        children_sse = tree.root.left.sse + tree.root.right.sse
        assert children_sse == pytest.approx(best_sse, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), min_leaf=st.integers(1, 4))
def test_root_split_respects_min_leaf_vs_brute_force(seed, min_leaf):
    rng = np.random.default_rng(seed)
    matrix = ((rng.random((20, 5)) < 0.5)
              * rng.integers(1, 6, (20, 5))).astype(float)
    y = np.round(rng.random(20) * 3, 3)
    tree = RegressionTreeSequence(k_max=2, min_leaf=min_leaf).fit(matrix, y)
    best_sse = _brute_force_best_sse(matrix, y, min_leaf=min_leaf)
    if tree.root.feature is not None:
        children_sse = tree.root.left.sse + tree.root.right.sse
        assert children_sse == pytest.approx(best_sse, abs=1e-8)
        assert min(tree.root.left.n, tree.root.right.n) >= min_leaf


def _tree_signature(tree):
    signature = []

    def walk(node):
        if node is None:
            return
        signature.append((node.split_rank, node.feature, node.threshold,
                          node.value, node.sse, node.rows.tolist()))
        walk(node.left)
        walk(node.right)

    walk(tree.root)
    return signature


class TestSearchModesAndSparse:
    """Node-local, full-scan, CSR and dense-store fits are bit-identical."""

    def random_data(self, seed, m=45, n=25, density=0.3):
        rng = np.random.default_rng(seed)
        matrix = ((rng.random((m, n)) < density)
                  * rng.integers(1, 20, (m, n))).astype(float)
        y = rng.random(m) * 4
        return matrix, y

    @pytest.mark.parametrize("seed", range(5))
    def test_node_local_matches_full_scan(self, seed):
        matrix, y = self.random_data(seed)
        node = RegressionTreeSequence(k_max=12).fit(matrix, y)
        full = FullScanTree(k_max=12).fit(matrix, y)
        assert _tree_signature(node) == _tree_signature(full)

    @pytest.mark.parametrize("seed", range(5))
    def test_csr_input_matches_dense(self, seed):
        """The CSR fit equals the dense-store oracle's, and a dense
        caller's matrix, converted at entry, gives the same tree."""
        matrix, y = self.random_data(seed + 100)
        dense = DenseStoreTree(k_max=12).fit(matrix, y)
        sparse = RegressionTreeSequence(k_max=12).fit(
            CSRMatrix.from_dense(matrix), y)
        converted = RegressionTreeSequence(k_max=12).fit(matrix, y)
        assert _tree_signature(dense) == _tree_signature(sparse)
        assert _tree_signature(dense) == _tree_signature(converted)

    def test_predict_matches_on_csr_input(self):
        matrix, y = self.random_data(7)
        tree = RegressionTreeSequence(k_max=10).fit(
            CSRMatrix.from_dense(matrix), y)
        oracle = DenseStoreTree(k_max=10).fit(matrix, y)
        probe, _ = self.random_data(8, m=30)
        csr_probe = CSRMatrix.from_dense(probe)
        dense_all = oracle.predict_all_k(probe)
        assert np.array_equal(tree.predict_all_k(csr_probe), dense_all)
        assert np.array_equal(tree.predict_all_k(probe), dense_all)
        assert np.array_equal(tree.predict(csr_probe, 4),
                              oracle.predict(probe, 4))

    def test_predict_all_k_matches_leaf_walk(self):
        matrix, y = self.random_data(9)
        tree = RegressionTreeSequence(k_max=10).fit(matrix, y)
        probe, _ = self.random_data(10, m=20)
        all_k = tree.predict_all_k(probe)
        for k in range(1, tree.max_k() + 1):
            reference = np.array([tree.leaf_for(row, k).value
                                  for row in probe])
            assert np.array_equal(all_k[:, k - 1], reference)

    def test_store_indices_released_after_fit(self):
        matrix, y = self.random_data(11)
        tree = RegressionTreeSequence(k_max=8).fit(matrix, y)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert node.store_idx is None
            if node.left is not None:
                stack.extend([node.left, node.right])
