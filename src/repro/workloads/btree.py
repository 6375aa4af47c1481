"""In-memory B-tree: the index-scan substrate behind ODB-H Q18.

The paper explains Q18's unpredictability by its access path: the Oracle
optimizer chooses an *index scan* — rows are reached through a B-tree whose
traversal order "can have a highly unpredictable behavior due to the
randomness of the tree traversal" [31].  We therefore build a real B-tree
and derive Q18's chunk-to-chunk memory behaviour from actual descent
statistics, rather than hand-waving a noise term.

The tree is a classic order-``fanout`` B-tree over integer keys, bulk
loaded from sorted keys.  Search returns the list of visited nodes so
callers can reason about path overlap (shared upper levels cache well;
divergent leaf-level nodes do not).

A bulk-loaded tree is fully determined by its sorted keys and its fanout,
so it is kept as two arrays instead of node objects: the sorted distinct
keys (leaf ``i`` holds ``keys[i * fanout:(i + 1) * fanout]``) and the first
key of every leaf.  Node ids follow bulk-loading order: the leaves
``0 .. L-1`` left to right, then each internal level left to right, the
root last.  Node ``j`` of a level parents nodes ``j * fanout ..
(j + 1) * fanout - 1`` of the level below, so the level-``d`` ancestor of
leaf ``i`` (leaves are level 0) is node ``offset[d] + i // fanout**d``,
where ``offset[d]`` is the id of level ``d``'s first node.  A descent is
one ``searchsorted`` over the leaf first keys plus that arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.uarch.cpu import ExecutionProfile
from repro.workloads.regions import ProfileModulator


class BTree:
    """An order-``fanout`` B-tree built by bulk loading sorted keys.

    Bulk loading keeps the construction simple and produces the same
    balanced shape a database index has after a rebuild.
    """

    def __init__(self, keys, fanout: int = 32) -> None:
        if fanout < 3:
            raise ValueError("fanout must be at least 3")
        keys = np.sort(np.asarray(keys, dtype=np.int64), axis=None)
        if not keys.size:
            raise ValueError("BTree needs at least one key")
        # Sort plus a neighbour mask, not np.unique: on numpy 2.x unique
        # takes a hash path that is an order of magnitude slower here.
        distinct = np.ones(keys.size, dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        self.keys = keys[distinct]
        self.fanout = fanout
        self.n_keys = len(self.keys)
        self.min_key = int(self.keys[0])
        self.max_key = int(self.keys[-1])
        self._leaf_first = self.keys[::fanout]
        counts = [len(self._leaf_first)]
        while counts[-1] > 1:
            counts.append(-(-counts[-1] // fanout))
        # Per level, root first: the id of the level's first node, and the
        # number of leaves under each of its nodes.
        self._offsets = np.cumsum([0] + counts[:-1])[::-1]
        self._spans = fanout ** np.arange(len(counts), dtype=np.int64)[::-1]

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        return len(self._offsets)

    def node_count(self) -> int:
        """Total nodes in the tree (the root has the last id)."""
        return int(self._offsets[0]) + 1

    def _leaves(self, keys):
        """The leaf a descent for each key ends in.

        Separator keys are each child's smallest key, so a descent lands
        in the last leaf whose first key is at most the probe, or in leaf
        0 when the probe is below every key.
        """
        return np.maximum(
            self._leaf_first.searchsorted(keys, side="right") - 1, 0)

    def search(self, key: int) -> tuple[int | None, list[int]]:
        """Find ``key``; return (value or None, visited node ids, root first)."""
        path = (self._offsets + self._leaves(key) // self._spans).tolist()
        index = int(self.keys.searchsorted(key))
        if index < self.n_keys and self.keys[index] == key:
            return key, path  # value == key (row id)
        return None, path

    def range_descents(self, rng: np.random.Generator, count: int,
                       low: int, high: int) -> list[list[int]]:
        """Perform ``count`` searches with keys uniform in [low, high]."""
        if count <= 0:
            raise ValueError("count must be positive")
        if low > high:
            raise ValueError("low must be <= high")
        leaves = self._leaves(rng.integers(low, high + 1, size=count))
        return (self._offsets[:, None]
                + leaves // self._spans[:, None]).T.tolist()


def path_overlap(paths: list[list[int]]) -> float:
    """Fraction of node visits that revisit an already-touched node.

    1.0 means every descent walked the same path (perfect reuse); values
    near the minimum mean the descents fanned out across the tree.  With a
    single path the overlap is defined as 1.0.
    """
    if not paths:
        raise ValueError("need at least one path")
    total = sum(len(p) for p in paths)
    unique = len({node for p in paths for node in p})
    if total == 0:
        raise ValueError("paths must be non-empty")
    if len(paths) == 1:
        return 1.0
    return 1.0 - unique / total


class BTreeDescentModulator(ProfileModulator):
    """Derives chunk memory locality from real B-tree descent overlap.

    Per chunk the modulator models one batch of index probes: it draws a key
    range whose *width* varies (narrow ranges = clustered orders, wide
    ranges = scattered customers), runs real descents, and maps the observed
    path overlap to the profile's ``data_locality``.  Narrow batches reuse
    the same subtree (cache-friendly); wide batches scatter across leaves
    (expensive).  The chunk-to-chunk spread in overlap is what makes Q18's
    CPI vary while its EIPs do not.

    The batch key-range *width* drifts as a bounded random walk in log
    space (``width_walk_sigma``): real order streams cluster in time, so
    narrow-range episodes and wide-range episodes each last many chunks.
    That drift is what paints the slow "apparent phases" on Q18's CPI curve
    (paper Fig. 11) which nonetheless do not correlate with EIPs.
    """

    _LOG_WIDTH_LOW = float(np.log(1e-3))
    _LOG_WIDTH_HIGH = 0.0

    def __init__(self, tree: BTree, probes_per_chunk: int = 12,
                 min_locality: float = 0.82,
                 max_locality: float = 0.995,
                 width_walk_sigma: float = 0.35) -> None:
        if probes_per_chunk < 2:
            raise ValueError("probes_per_chunk must be at least 2")
        if not 0 <= min_locality < max_locality <= 1:
            raise ValueError("need 0 <= min_locality < max_locality <= 1")
        if width_walk_sigma < 0:
            raise ValueError("width_walk_sigma must be non-negative")
        self.tree = tree
        self.probes_per_chunk = probes_per_chunk
        self.min_locality = min_locality
        self.max_locality = max_locality
        self.width_walk_sigma = width_walk_sigma
        self._log_width = (self._LOG_WIDTH_LOW + self._LOG_WIDTH_HIGH) / 2.0

    def reset(self) -> None:
        self._log_width = (self._LOG_WIDTH_LOW + self._LOG_WIDTH_HIGH) / 2.0

    def _next_log_width(self, rng: np.random.Generator) -> float:
        if self.width_walk_sigma == 0:
            return float(rng.uniform(self._LOG_WIDTH_LOW,
                                     self._LOG_WIDTH_HIGH))
        self._log_width += float(rng.normal(0.0, self.width_walk_sigma))
        # Reflect at the bounds to keep the walk inside the range.
        low, high = self._LOG_WIDTH_LOW, self._LOG_WIDTH_HIGH
        span = high - low
        offset = (self._log_width - low) % (2 * span)
        if offset > span:
            offset = 2 * span - offset
        self._log_width = low + offset
        return self._log_width

    def modulate(self, profile: ExecutionProfile,
                 rng: np.random.Generator) -> ExecutionProfile:
        span = self.tree.max_key - self.tree.min_key
        width = int(span * np.exp(self._next_log_width(rng)))
        width = max(1, width)
        low = int(rng.integers(self.tree.min_key,
                               max(self.tree.min_key + 1,
                                   self.tree.max_key - width + 1)))
        paths = self.tree.range_descents(rng, self.probes_per_chunk,
                                         low, low + width)
        overlap = path_overlap(paths)
        # Normalize: perfect overlap -> max_locality, worst case (all
        # distinct below the root) -> min_locality.
        depth = self.tree.height
        worst = 1.0 / depth  # only the root is shared
        scale = max(1e-9, 1.0 - worst)
        normalized = min(1.0, max(0.0, (overlap - worst) / scale))
        locality = (self.min_locality
                    + normalized * (self.max_locality - self.min_locality))
        return profile.scaled(data_locality=float(locality))
