"""Regression trees over EIP vectors (paper Section 4).

The tree recursively splits the EIPV space with axis-aligned walls of the
form ``count(EIP_i) <= threshold``, choosing at every step the (EIP,
threshold) pair that minimizes the weighted intra-chamber CPI variance —
exactly the construction of Section 4.1.  The example of Table 1/Figure 1
is reproduced verbatim by the unit tests.

Design notes:

* **Best-first growth.** The paper asks for "the optimal tree T_k" for
  each ``k <= 50``.  We grow one tree best-first (always splitting the leaf
  whose best split removes the most CPI variance) and record each split's
  rank; the first ``k - 1`` splits then *are* the tree ``T_k``, giving the
  whole nested family in one build.  This is the standard greedy CART
  construction (exact at each step), matching rpart's behaviour that the
  paper relied on.

* **Sparsity.** An EIPV holds at most ``samples_per_interval`` non-zero
  counts out of N unique EIPs, so columns are overwhelmingly zero.  The
  split search keeps per-feature non-zero lists and treats the zero block
  in closed form.  The store and the prediction router read CSR only; a
  caller's dense matrix is converted once, where :meth:`fit`,
  :meth:`predict` and :meth:`predict_all_k` are entered.  The test suite
  keeps the dense store as its oracle (``tests/core/reference_tree.py``).

* **Node-local search.** Each frontier node carries the indices of its own
  triplets, partitioned from its parent when a split is applied.  A node's
  exact split search therefore touches O(nnz_node) entries, not
  O(nnz_total) — the difference between quadratic and near-linear fits on
  wide datasets.  The test suite keeps the previous whole-store scan as
  its reference (``tests/core/reference_tree.py``); both walk candidates
  in the same order and produce bit-identical trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import span
from repro.sparse import CSRMatrix, as_csr

#: A split's CPI-variance reduction must exceed this to be applied
#: (guards against floating-point noise producing spurious splits).
MIN_GAIN = 1e-12


@dataclass(eq=False)  # identity comparison: nodes hold numpy arrays
class TreeNode:
    """One node of the regression tree.

    Leaves have ``feature is None``.  ``value`` is the mean CPI of the
    node's training points (the prediction for any EIPV landing here);
    ``sse`` is their sum of squared deviations.  ``split_rank`` is the
    order in which this node was split during best-first growth (0 for the
    root); ``None`` while the node is a leaf.  ``store_idx`` holds the
    node's triplet indices during node-local growth; it is released as
    soon as the node can no longer split.
    """

    rows: np.ndarray
    value: float
    sse: float
    depth: int
    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    split_rank: int | None = None
    best_split: tuple | None = field(default=None, repr=False)
    store_idx: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class _FeatureStore:
    """Sparse (feature, row, value) triplets sorted by (feature, value).

    One lexicographic sort at fit time lets every node's exact split search
    run as a handful of segmented-prefix-sum numpy operations over just the
    node's non-zero entries.  CSR triplets export in row-major order —
    the same order ``np.nonzero`` yields — so the stable sort (and hence
    the fitted tree) equals a dense matrix's.
    """

    def __init__(self, matrix: CSRMatrix) -> None:
        self.n_rows, self.n_features = matrix.shape
        rows, features, values = matrix.triplets()
        values = values.astype(np.float64)
        order = np.lexsort((values, features))
        self.feat = features[order].astype(np.int64)
        self.row = rows[order].astype(np.int64)
        self.val = values[order]

    @property
    def nnz(self) -> int:
        return len(self.feat)


class _ColumnAccessor:
    """Per-feature column reads of a CSR matrix for prediction routing.

    The triplets are re-sorted by column once; a reusable scratch array
    then turns each node visit into two scatter/gather passes over just
    that column's non-zeros.
    """

    def __init__(self, matrix: CSRMatrix) -> None:
        self.n_rows = matrix.shape[0]
        rows, cols, vals = matrix.triplets()
        order = np.lexsort((rows, cols))
        self._rows = rows[order]
        self._vals = vals[order].astype(np.float64)
        self._offsets = np.searchsorted(cols[order],
                                        np.arange(matrix.shape[1] + 1))
        self._scratch = np.zeros(matrix.shape[0])

    def get(self, feature: int, rows: np.ndarray) -> np.ndarray:
        """Values of ``matrix[rows, feature]`` (zeros where absent)."""
        lo, hi = self._offsets[feature], self._offsets[feature + 1]
        col_rows = self._rows[lo:hi]
        self._scratch[col_rows] = self._vals[lo:hi]
        values = self._scratch[rows]
        self._scratch[col_rows] = 0.0
        return values


class RegressionTreeSequence:
    """The nested family of trees T_1 .. T_k_max over one dataset.

    Build once with :meth:`fit`; then :meth:`predict` evaluates any member
    T_k by treating splits of rank >= k - 1 as un-applied.
    """

    def __init__(self, k_max: int = 50, min_leaf: int = 1) -> None:
        if k_max < 1:
            raise ValueError("k_max must be at least 1")
        if min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        self.k_max = k_max
        self.min_leaf = min_leaf
        self.root: TreeNode | None = None
        self.n_splits = 0
        self._store: _FeatureStore | None = None

    # -- construction ---------------------------------------------------

    def fit(self, matrix, y: np.ndarray) -> "RegressionTreeSequence":
        """Grow the tree family on (EIPV matrix, CPI vector)."""
        with span("fit.tree") as fit_span:
            self._fit(self._feature_store(matrix), y)
            fit_span.inc("splits", self.n_splits)
            fit_span.inc("points", len(y))
        return self

    def _feature_store(self, matrix) -> _FeatureStore:
        """The split search's store over ``matrix``, dense or CSR."""
        return _FeatureStore(as_csr(matrix))

    def _columns(self, matrix) -> _ColumnAccessor:
        """Prediction's column reader over ``matrix``, dense or CSR."""
        return _ColumnAccessor(as_csr(matrix))

    def _fit(self, store: _FeatureStore, y: np.ndarray) -> None:
        y = np.asarray(y, dtype=np.float64)
        if store.n_rows != len(y):
            raise ValueError("matrix rows must match y length")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._store = store
        self._y = y
        # Reusable scratch, indexed by dataset row (reset after each use).
        self._scratch_val = np.zeros(store.n_rows)
        self._scratch_flag = np.zeros(store.n_rows, dtype=bool)

        rows = np.arange(len(y), dtype=np.int32)
        self.root = self._make_node(rows, depth=0)
        self.root.store_idx = np.arange(store.nnz, dtype=np.int64)
        self._find_best_split(self.root)

        # Best-first growth: repeatedly split the leaf with the largest
        # variance reduction.
        frontier = [self.root]
        self.n_splits = 0
        while self.n_splits < self.k_max - 1:
            best_node = None
            best_gain = MIN_GAIN
            for node in frontier:
                if node.best_split is None:
                    continue
                gain = node.sse - node.best_split[0]
                if gain > best_gain:
                    best_gain = gain
                    best_node = node
            if best_node is None:
                break
            self._apply_split(best_node)
            frontier.remove(best_node)
            frontier.extend([best_node.left, best_node.right])
            self.n_splits += 1
        for node in frontier:
            node.store_idx = None  # growth over: release frontier triplets

    def _make_node(self, rows: np.ndarray, depth: int) -> TreeNode:
        y = self._y[rows]
        total = float(y.sum())
        value = total / len(rows)
        sse = float(((y - value) ** 2).sum())
        return TreeNode(rows=rows, value=value, sse=sse, depth=depth)

    def _node_triplets(self, node: TreeNode):
        """The node's (feature, value, cpi) triplets in store order, read
        straight from the node's own index array."""
        store = self._store
        idx = node.store_idx
        return store.feat[idx], store.val[idx], self._y[store.row[idx]]

    def _find_best_split(self, node: TreeNode) -> None:
        """Compute and cache the node's best (feature, threshold).

        Fully vectorized: segmented prefix sums over the node's non-zero
        triplets (already sorted by feature then value) score every
        candidate ``count(EIP) <= t`` wall of every feature in one pass.
        The per-feature zero block (intervals where the EIP was never
        sampled) is handled in closed form.
        """
        rows = node.rows
        n = len(rows)
        if n < 2 * self.min_leaf or node.sse <= MIN_GAIN:
            node.best_split = None
            node.store_idx = None
            return
        y_node = self._y[rows]
        total_sum = float(y_node.sum())
        total_sumsq = float((y_node * y_node).sum())

        feat, val, y_nz = self._node_triplets(node)
        count = len(feat)
        if count == 0:
            node.best_split = None
            node.store_idx = None
            return
        y_sq = y_nz * y_nz

        # Segment bookkeeping: one segment per feature present in the node,
        # entries within a segment already sorted by value.
        new_seg = np.empty(count, dtype=bool)
        new_seg[0] = True
        np.not_equal(feat[1:], feat[:-1], out=new_seg[1:])
        seg_start = np.nonzero(new_seg)[0]
        seg_id = np.cumsum(new_seg) - 1
        seg_end = np.append(seg_start[1:], count)
        seg_len = seg_end - seg_start

        # Per-entry prefix sums within each segment.
        cs = np.cumsum(y_nz)
        cq = np.cumsum(y_sq)
        offset_s = np.concatenate(([0.0], cs[seg_start[1:] - 1]))
        offset_q = np.concatenate(([0.0], cq[seg_start[1:] - 1]))
        positions = np.arange(1, count + 1)
        cnt_nz_left = positions - seg_start[seg_id]
        sum_nz_left = cs - offset_s[seg_id]
        sq_nz_left = cq - offset_q[seg_id]

        # Per-segment totals and zero-block summaries.
        seg_sum = np.add.reduceat(y_nz, seg_start)
        seg_sq = np.add.reduceat(y_sq, seg_start)
        n0 = (n - seg_len).astype(np.float64)
        sum0 = total_sum - seg_sum
        sq0 = total_sumsq - seg_sq

        # Candidate splits after each non-zero entry ("x <= val").
        n_left = n0[seg_id] + cnt_nz_left
        sum_left = sum0[seg_id] + sum_nz_left
        sq_left = sq0[seg_id] + sq_nz_left
        n_right = n - n_left
        last_in_seg = np.zeros(count, dtype=bool)
        last_in_seg[seg_end - 1] = True
        same_as_next = np.zeros(count, dtype=bool)
        if count > 1:
            same_as_next[:-1] = (val[:-1] == val[1:]) & ~last_in_seg[:-1]
        valid = ~last_in_seg & ~same_as_next & (n_right > 0)
        # When the zero block is empty the last candidate would put
        # everything left; excluded via n_right above.  A candidate is
        # also only a real wall when both sides meet min_leaf.
        valid &= (n_left >= self.min_leaf) & (n_right >= self.min_leaf)

        best_sse = np.inf
        best_feature = -1
        best_threshold = 0.0
        if valid.any():
            sum_right = total_sum - sum_left
            sq_right = total_sumsq - sq_left
            with np.errstate(divide="ignore", invalid="ignore"):
                sse = ((sq_left - sum_left * sum_left / n_left)
                       + (sq_right - sum_right * sum_right
                          / np.maximum(n_right, 1)))
            sse[~valid] = np.inf
            index = int(np.argmin(sse))
            best_sse = float(sse[index])
            best_feature = int(feat[index])
            best_threshold = float(val[index])

        # Candidate "x <= 0" splits: zero block left, non-zeros right.
        zero_ok = ((n0 >= self.min_leaf) & (seg_len >= self.min_leaf))
        if zero_ok.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                sse0 = ((sq0 - sum0 * sum0 / np.maximum(n0, 1))
                        + (seg_sq - seg_sum * seg_sum / seg_len))
            sse0[~zero_ok] = np.inf
            index0 = int(np.argmin(sse0))
            if sse0[index0] < best_sse:
                best_sse = float(sse0[index0])
                best_feature = int(feat[seg_start[index0]])
                best_threshold = 0.0

        if best_feature < 0 or node.sse - best_sse <= MIN_GAIN:
            node.best_split = None
            node.store_idx = None
        else:
            node.best_split = (best_sse, best_feature, best_threshold)

    def _apply_split(self, node: TreeNode) -> None:
        """Execute the node's cached best split and prepare the children."""
        sse_children, feature, threshold = node.best_split
        rows = node.rows
        store = self._store
        idx = node.store_idx
        feat_sub = store.feat[idx]
        lo = np.searchsorted(feat_sub, feature, side="left")
        hi = np.searchsorted(feat_sub, feature, side="right")
        rows_j = store.row[idx[lo:hi]]
        values_j = store.val[idx[lo:hi]]
        # Feature value per node row (zeros by default).
        scratch = self._scratch_val
        scratch[rows_j] = values_j
        go_left = scratch[rows] <= threshold
        scratch[rows_j] = 0.0
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        if len(left_rows) == 0 or len(right_rows) == 0:
            raise AssertionError("degenerate split should have been skipped")
        node.feature = feature
        node.threshold = threshold
        node.split_rank = self.n_splits
        node.left = self._make_node(left_rows, node.depth + 1)
        node.right = self._make_node(right_rows, node.depth + 1)
        # Partition the triplets: a boolean-mask split preserves the
        # (feature, value, row-major) order, so each child searches
        # exactly the subsequence a whole-store scan would produce.
        flag = self._scratch_flag
        flag[left_rows] = True
        mask = flag[store.row[idx]]
        flag[left_rows] = False
        node.left.store_idx = idx[mask]
        node.right.store_idx = idx[~mask]
        node.store_idx = None  # parent triplets are no longer needed
        self._find_best_split(node.left)
        self._find_best_split(node.right)

    # -- evaluation -----------------------------------------------------

    def max_k(self) -> int:
        """Largest chamber count this sequence actually reached."""
        return self.n_splits + 1

    def leaf_for(self, x: np.ndarray, k: int) -> TreeNode:
        """The chamber of T_k that the vector ``x`` falls into."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        if k < 1:
            raise ValueError("k must be at least 1")
        node = self.root
        while (node.split_rank is not None and node.split_rank <= k - 2):
            if x[node.feature] <= node.threshold:
                node = node.left
            else:
                node = node.right
        return node

    def predict(self, matrix, k: int | None = None) -> np.ndarray:
        """Predicted CPI (chamber mean) of each row of ``matrix`` under T_k."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        if k is None:
            k = self.max_k()
        if k < 1:
            raise ValueError("k must be at least 1")
        columns = self._columns(matrix)
        out = np.empty(columns.n_rows)
        stack = [(self.root, np.arange(columns.n_rows, dtype=np.int64))]
        while stack:
            node, rows = stack.pop()
            if node.split_rank is not None and node.split_rank <= k - 2:
                go_left = columns.get(node.feature, rows) <= node.threshold
                stack.append((node.right, rows[~go_left]))
                stack.append((node.left, rows[go_left]))
            else:
                out[rows] = node.value
        return out

    def predict_all_k(self, matrix) -> np.ndarray:
        """Predictions under every member tree at once.

        Returns an array of shape ``(len(matrix), max_k)`` whose column
        ``k - 1`` equals ``predict(matrix, k)``.  Rows are batch-routed
        level by level: a node entered after ancestor splits of rank
        ``< low`` predicts columns ``low .. split_rank`` (all remaining
        columns at a leaf), because T_k applies exactly the splits of rank
        ``<= k - 2`` and ranks increase along any root-to-leaf path.
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        k_max = self.max_k()
        columns = self._columns(matrix)
        out = np.empty((columns.n_rows, k_max))
        stack = [(self.root, np.arange(columns.n_rows, dtype=np.int64), 0)]
        while stack:
            node, rows, low = stack.pop()
            if node.split_rank is None:
                out[rows, low:] = node.value
                continue
            rank = node.split_rank
            out[rows, low:rank + 1] = node.value
            go_left = columns.get(node.feature, rows) <= node.threshold
            stack.append((node.right, rows[~go_left], rank + 1))
            stack.append((node.left, rows[go_left], rank + 1))
        return out

    def leaves(self, k: int | None = None) -> list[TreeNode]:
        """The chambers of T_k, left-to-right."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        if k is None:
            k = self.max_k()
        result: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.split_rank is not None and node.split_rank <= k - 2:
                stack.append(node.right)
                stack.append(node.left)
            else:
                result.append(node)
        return result

    def training_sse(self, k: int | None = None) -> float:
        """Total within-chamber SSE of T_k on the training data."""
        return sum(leaf.sse for leaf in self.leaves(k))

    def describe(self, k: int | None = None, eip_index=None,
                 max_depth: int = 6) -> str:
        """ASCII rendering of T_k (for reports and debugging)."""
        lines: list[str] = []

        def label(feature: int) -> str:
            if eip_index is None:
                return f"EIP[{feature}]"
            entry = eip_index[feature]
            if isinstance(entry, str):
                return entry
            return f"EIP 0x{int(entry):x}"

        if k is None:
            k = self.max_k()

        def walk(node: TreeNode, prefix: str) -> None:
            internal = node.split_rank is not None and node.split_rank <= k - 2
            if not internal or node.depth >= max_depth:
                lines.append(f"{prefix}leaf: n={node.n} "
                             f"mean CPI={node.value:.3f}")
                return
            lines.append(f"{prefix}{label(node.feature)} <= "
                         f"{node.threshold:g}?")
            walk(node.left, prefix + "  ")
            walk(node.right, prefix + "  ")

        walk(self.root, "")
        return "\n".join(lines)
