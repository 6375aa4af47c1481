"""Equality oracles for the regression tree's split search and store.

:class:`~repro.core.regression_tree.RegressionTreeSequence` hands each
node the indices of its own triplets, partitioned from its parent's.
:class:`FullScanTree` keeps the search it replaced: every node masks the
whole feature store down to its own rows.  Both yield the same triplets
in the same order, so ``test_regression_tree.py`` (and the fit+CV
benchmark in ``benchmarks/test_bench_pipeline.py``) require their trees
to be identical.

The tree reads CSR only.  :class:`DenseStoreTree` keeps the dense path
it dropped: the feature store built from ``np.nonzero`` of a dense
matrix, and prediction reading dense columns.  A CSR fit and its
predictions must equal it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.regression_tree import RegressionTreeSequence


class FullScanTree(RegressionTreeSequence):
    """A tree whose split search scans the whole feature store per node."""

    def _node_triplets(self, node):
        store = self._store
        in_node = np.zeros(store.n_rows, dtype=bool)
        in_node[node.rows] = True
        select = in_node[store.row]
        return (store.feat[select], store.val[select],
                self._y[store.row[select]])


class DenseFeatureStore:
    """The tree's feature store built from a dense matrix's
    ``np.nonzero`` triplets."""

    def __init__(self, matrix) -> None:
        matrix = np.asarray(matrix)
        self.n_rows, self.n_features = matrix.shape
        rows, features = np.nonzero(matrix)
        values = matrix[rows, features].astype(np.float64)
        order = np.lexsort((values, features))
        self.feat = features[order].astype(np.int64)
        self.row = rows[order].astype(np.int64)
        self.val = values[order]

    @property
    def nnz(self) -> int:
        return len(self.feat)


class DenseColumns:
    """Prediction's column reads straight from a dense matrix."""

    def __init__(self, matrix) -> None:
        self._dense = np.asarray(matrix)
        self.n_rows = self._dense.shape[0]

    def get(self, feature: int, rows: np.ndarray) -> np.ndarray:
        return self._dense[rows, feature]


class DenseStoreTree(RegressionTreeSequence):
    """A tree that fits and predicts on dense matrices, never CSR."""

    def _feature_store(self, matrix):
        return DenseFeatureStore(matrix)

    def _columns(self, matrix):
        return DenseColumns(matrix)
