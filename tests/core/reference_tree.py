"""The whole-store split scan: the equality oracle for the node-local search.

:class:`~repro.core.regression_tree.RegressionTreeSequence` hands each
node the indices of its own triplets, partitioned from its parent's.
:class:`FullScanTree` keeps the search it replaced: every node masks the
whole feature store down to its own rows.  Both yield the same triplets
in the same order, so ``test_regression_tree.py`` (and the fit+CV
benchmark in ``benchmarks/test_bench_pipeline.py``) require their trees
to be identical.
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
