"""A minimal CSR sparse matrix — no scipy dependency; the EIPV layout.

An interval holds at most ``samples_per_interval`` non-zero counts out
of up to ~10^4 unique EIPs (ODB-C-style footprints), so a dense EIPV
matrix is overwhelmingly zeros.  :class:`CSRMatrix` stores only the
non-zeros in the classic compressed-sparse-row layout and implements
exactly the operations the pipeline needs — row subsetting
(cross-validation folds), column selection (feature pruning), axis
sums, vertical stacking (per-thread datasets) and triplet export (the
regression tree's feature store).  A caller's dense matrix enters
through :func:`as_csr`; k-means, which needs dense rows, leaves through
:func:`as_dense`.

Invariants: ``indices`` are strictly increasing within each row (no
duplicates), so ``toarray`` round-trips exactly and triplet export is in
row-major order — the same order ``np.nonzero`` yields for a dense
matrix, which keeps trees fitted on a converted dense matrix
bit-identical to trees fitted on the CSR build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CSRMatrix:
    """Compressed-sparse-row matrix over numpy arrays.

    ``indptr`` has ``shape[0] + 1`` entries; row ``i``'s non-zeros live at
    ``indices[indptr[i]:indptr[i+1]]`` / ``data[indptr[i]:indptr[i+1]]``,
    with column indices strictly increasing within the row.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        n_rows, n_cols = self.shape
        self.shape = (int(n_rows), int(n_cols))
        if len(self.indptr) != self.shape[0] + 1:
            raise ValueError("indptr length must be shape[0] + 1")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data length mismatch")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.data):
            raise ValueError("indptr must start at 0 and end at nnz")
        if (np.diff(self.indptr) < 0).any():
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (self.indices.min() < 0
                                  or self.indices.max() >= self.shape[1]):
            raise ValueError("column index out of range")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_codes(cls, rows: np.ndarray, cols: np.ndarray, shape,
                   dtype=np.int32) -> "CSRMatrix":
        """Count (row, col) occurrences into a CSR histogram.

        This is the sparse analogue of
        ``bincount(row * n_cols + col).reshape(...)`` but never allocates
        the dense ``n_rows * n_cols`` intermediate.
        """
        n_rows, n_cols = int(shape[0]), int(shape[1])
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if len(rows) != len(cols):
            raise ValueError("rows and cols length mismatch")
        combined = rows * n_cols + cols
        uniq, counts = np.unique(combined, return_counts=True)
        entry_rows = uniq // n_cols
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(entry_rows, minlength=n_rows), out=indptr[1:])
        return cls(indptr=indptr, indices=uniq % n_cols,
                   data=counts.astype(dtype), shape=(n_rows, n_cols))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("need a 2-D array")
        rows, cols = np.nonzero(dense)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=dense.shape[0]),
                  out=indptr[1:])
        return cls(indptr=indptr, indices=cols, data=dense[rows, cols],
                   shape=dense.shape)

    @classmethod
    def vstack(cls, blocks) -> "CSRMatrix":
        """Stack CSR blocks vertically (all must share a column count)."""
        blocks = list(blocks)
        if not blocks:
            raise ValueError("need at least one block")
        n_cols = blocks[0].shape[1]
        if any(b.shape[1] != n_cols for b in blocks):
            raise ValueError("all blocks must have the same column count")
        row_counts = np.concatenate([np.diff(b.indptr) for b in blocks])
        indptr = np.zeros(len(row_counts) + 1, dtype=np.int64)
        np.cumsum(row_counts, out=indptr[1:])
        return cls(indptr=indptr,
                   indices=np.concatenate([b.indices for b in blocks]),
                   data=np.concatenate([b.data for b in blocks]),
                   shape=(int(len(row_counts)), n_cols))

    # -- properties ------------------------------------------------------

    @property
    def ndim(self) -> int:
        return 2

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def dtype(self):
        return self.data.dtype

    # -- conversions -----------------------------------------------------

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) in row-major order — ``np.nonzero`` order."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return rows, self.indices, self.data

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None):
        if axis is None:
            return self.data.sum()
        if axis == 0:
            totals = np.bincount(self.indices, weights=self.data,
                                 minlength=self.shape[1])
            if np.issubdtype(self.data.dtype, np.integer):
                return totals.astype(np.int64)
            return totals
        if axis == 1:
            rows = np.repeat(np.arange(self.shape[0]),
                             np.diff(self.indptr))
            totals = np.bincount(rows, weights=self.data,
                                 minlength=self.shape[0])
            if np.issubdtype(self.data.dtype, np.integer):
                return totals.astype(np.int64)
            return totals
        raise ValueError("axis must be None, 0 or 1")

    # -- slicing ---------------------------------------------------------

    def row_subset(self, rows: np.ndarray) -> "CSRMatrix":
        """Rows in the given order (index array or boolean mask)."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        lens = np.diff(self.indptr)[rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        total = int(indptr[-1])
        # Gather each kept row's entry range, preserving row order.
        take = (np.repeat(self.indptr[rows] - indptr[:-1], lens)
                + np.arange(total))
        return CSRMatrix(indptr=indptr, indices=self.indices[take],
                         data=self.data[take],
                         shape=(len(rows), self.shape[1]))

    def select_columns(self, keep: np.ndarray) -> "CSRMatrix":
        """Keep only the (sorted, unique) columns, renumbered to 0..k-1."""
        keep = np.asarray(keep, dtype=np.int64)
        if len(keep) > 1 and (np.diff(keep) <= 0).any():
            raise ValueError("keep must be sorted and unique")
        if len(keep) == 0:
            return CSRMatrix(indptr=np.zeros(self.shape[0] + 1, np.int64),
                             indices=np.empty(0, np.int64),
                             data=np.empty(0, self.data.dtype),
                             shape=(self.shape[0], 0))
        pos = np.searchsorted(keep, self.indices)
        pos_clipped = np.minimum(pos, len(keep) - 1)
        valid = keep[pos_clipped] == self.indices
        entry_rows = np.repeat(np.arange(self.shape[0]),
                               np.diff(self.indptr))
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(entry_rows[valid], minlength=self.shape[0]),
                  out=indptr[1:])
        return CSRMatrix(indptr=indptr, indices=pos_clipped[valid],
                         data=self.data[valid],
                         shape=(self.shape[0], len(keep)))

    def __getitem__(self, key) -> "CSRMatrix":
        """Supports ``m[rows]`` (array/mask) and ``m[:, cols]``."""
        if isinstance(key, tuple):
            row_key, col_key = key
            if (isinstance(row_key, slice)
                    and row_key == slice(None, None, None)):
                return self.select_columns(col_key)
            raise TypeError("only m[rows] and m[:, cols] are supported")
        return self.row_subset(key)

    def __len__(self) -> int:
        return self.shape[0]


def as_csr(matrix) -> CSRMatrix:
    """``matrix`` as a :class:`CSRMatrix`: CSR input is returned as is,
    anything else goes through :meth:`CSRMatrix.from_dense`."""
    if isinstance(matrix, CSRMatrix):
        return matrix
    return CSRMatrix.from_dense(matrix)


def as_dense(matrix) -> np.ndarray:
    """The dense ``np.ndarray`` of a dense-or-CSR matrix."""
    if isinstance(matrix, CSRMatrix):
        return matrix.toarray()
    return np.asarray(matrix)
