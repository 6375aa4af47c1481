"""Tests for the regression-tree vs k-means comparison (Section 4.6)."""

import numpy as np

from repro.core.comparison import compare_methods, kmeans_relative_errors
from repro.sparse import CSRMatrix, as_dense
from repro.trace.eipv import EIPVDataset


def cpi_driven_dataset(m=60, seed=0):
    """EIPVs whose *small count differences* carry the CPI signal.

    Two code-identical phases differ only in one EIP's count; CPI follows
    that count.  A CPI-supervised tree finds the wall; CPI-blind k-means
    on normalized vectors struggles — the paper's Section 4.6 setup.
    """
    rng = np.random.default_rng(seed)
    matrix = np.zeros((m, 8), dtype=np.int32)
    y = np.empty(m)
    for i in range(m):
        hot = rng.integers(0, 2)
        # Same regions active either way; only feature 0's count differs.
        matrix[i, 0] = 5 if hot else 4
        for j in range(1, 8):
            matrix[i, j] = 10 + rng.integers(0, 2)
        y[i] = (3.0 if hot else 1.0) + rng.normal(0, 0.05)
    return EIPVDataset(matrix=matrix, cpis=y,
                       eip_index=np.arange(8) * 16,
                       interval_instructions=1000,
                       workload_name="cpi-driven")


class TestComparison:
    def test_tree_beats_kmeans_on_cpi_driven_data(self):
        dataset = cpi_driven_dataset()
        comparison = compare_methods(dataset, k_max=12, seed=0,
                                     kmeans_k_values=[2, 4, 8])
        assert comparison.tree_re < comparison.kmeans_re
        assert comparison.improvement > 0.3

    def test_improvement_zero_when_kmeans_re_zero(self):
        from repro.core.comparison import MethodComparison
        comparison = MethodComparison(workload="w", tree_re=0.0, tree_k=1,
                                      kmeans_re=0.0, kmeans_k=1)
        assert comparison.improvement == 0.0

    def test_kmeans_relative_errors_shape(self):
        dataset = cpi_driven_dataset()
        errors = kmeans_relative_errors(dataset.matrix, dataset.cpis,
                                        [2, 4], folds=5, seed=0)
        assert set(errors) == {2, 4}
        assert all(v >= 0 for v in errors.values())

    def test_kmeans_on_csr_equals_dense(self):
        """A dataset's CSR matrix gives k-means the errors its dense
        array does, the way compare_methods passes it."""
        dataset = cpi_driven_dataset()
        dense = as_dense(dataset.matrix)
        on_csr = kmeans_relative_errors(CSRMatrix.from_dense(dense),
                                        dataset.cpis, [2, 4], folds=5, seed=0)
        assert on_csr == kmeans_relative_errors(dense, dataset.cpis, [2, 4],
                                                folds=5, seed=0)

    def test_kmeans_zero_variance_target(self):
        dataset = cpi_driven_dataset()
        errors = kmeans_relative_errors(dataset.matrix,
                                        np.full(len(dataset.cpis), 2.0),
                                        [2], folds=5)
        assert errors[2] == 0.0

    def test_kmeans_can_find_structure_when_vectors_differ(self):
        """Sanity: when phases have distinct EIPVs, k-means also predicts
        CPI well — the tree's advantage is specific to subtle signals."""
        rng = np.random.default_rng(1)
        m = 60
        matrix = np.zeros((m, 6), dtype=np.int32)
        y = np.empty(m)
        for i in range(m):
            phase = i % 2
            matrix[i, phase * 3:(phase + 1) * 3] = 10
            y[i] = 1.0 + 2.0 * phase + rng.normal(0, 0.05)
        errors = kmeans_relative_errors(matrix.astype(float), y, [2],
                                        folds=5, seed=1)
        assert errors[2] < 0.2
