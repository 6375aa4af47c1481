"""The node-walking B-tree: the equality oracle for the array-backed one.

This is the object-per-node tree :class:`repro.workloads.btree.BTree`
replaced, kept as the semantic reference.  Bulk loading numbers the nodes
leaves first, then each internal level left to right, root last; a search
walks separator keys from the root down.  ``test_btree.py`` proves the
array-backed tree returns the same values, paths, heights and node counts.
"""

from __future__ import annotations

import numpy as np


class BTreeNode:
    """One node: sorted keys plus children (internal) or values (leaf)."""

    __slots__ = ("keys", "children", "values", "node_id")

    def __init__(self, node_id: int, leaf: bool) -> None:
        self.node_id = node_id
        self.keys: list[int] = []
        self.children: list[BTreeNode] | None = None if leaf else []
        self.values: list[int] | None = [] if leaf else None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class ReferenceBTree:
    """An order-``fanout`` B-tree built by bulk loading sorted keys."""

    def __init__(self, keys, fanout: int = 32) -> None:
        if fanout < 3:
            raise ValueError("fanout must be at least 3")
        keys = sorted(set(int(k) for k in keys))
        if not keys:
            raise ValueError("BTree needs at least one key")
        self.fanout = fanout
        self._next_id = 0
        self.root = self._bulk_load(keys)
        self.n_keys = len(keys)
        self.min_key = keys[0]
        self.max_key = keys[-1]

    def _new_node(self, leaf: bool) -> BTreeNode:
        node = BTreeNode(self._next_id, leaf)
        self._next_id += 1
        return node

    def _bulk_load(self, keys: list[int]) -> BTreeNode:
        # Build leaves.
        level: list[BTreeNode] = []
        for i in range(0, len(keys), self.fanout):
            leaf = self._new_node(leaf=True)
            leaf.keys = keys[i:i + self.fanout]
            leaf.values = list(leaf.keys)  # value == key (row id)
            level.append(leaf)
        # Build internal levels until a single root remains.
        while len(level) > 1:
            parents: list[BTreeNode] = []
            for i in range(0, len(level), self.fanout):
                group = level[i:i + self.fanout]
                parent = self._new_node(leaf=False)
                parent.children = group
                # Separator keys: smallest key of each child except first.
                parent.keys = [self._smallest(child) for child in group[1:]]
                parents.append(parent)
            level = parents
        return level[0]

    @staticmethod
    def _smallest(node: BTreeNode) -> int:
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        height = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def node_count(self) -> int:
        """Total nodes in the tree."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    def search(self, key: int) -> tuple[int | None, list[int]]:
        """Find ``key``; return (value or None, visited node ids, root first)."""
        node = self.root
        path = [node.node_id]
        while not node.is_leaf:
            index = np.searchsorted(node.keys, key, side="right")
            node = node.children[int(index)]
            path.append(node.node_id)
        if key in node.keys:
            return key, path
        return None, path

    def range_descents(self, rng: np.random.Generator, count: int,
                       low: int, high: int) -> list[list[int]]:
        """Perform ``count`` searches with keys uniform in [low, high]."""
        if count <= 0:
            raise ValueError("count must be positive")
        if low > high:
            raise ValueError("low must be <= high")
        keys = rng.integers(low, high + 1, size=count)
        return [self.search(int(k))[1] for k in keys]
