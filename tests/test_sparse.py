"""Tests for the minimal CSR matrix (repro.sparse)."""

import numpy as np
import pytest

from repro.sparse import CSRMatrix, as_csr, as_dense


def _random_dense(rng, n_rows=7, n_cols=11, density=0.3, dtype=np.int32):
    dense = rng.integers(1, 9, size=(n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) > density] = 0
    return dense.astype(dtype)


class TestRoundTrip:
    def test_from_dense_toarray_exact(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            dense = _random_dense(rng)
            csr = CSRMatrix.from_dense(dense)
            assert csr.shape == dense.shape
            assert csr.nnz == int((dense != 0).sum())
            np.testing.assert_array_equal(csr.toarray(), dense)
            assert csr.toarray().dtype == dense.dtype

    def test_all_zero_and_empty_rows(self):
        dense = np.zeros((4, 6), dtype=np.int32)
        dense[2, 3] = 5
        csr = CSRMatrix.from_dense(dense)
        assert csr.nnz == 1
        np.testing.assert_array_equal(csr.toarray(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_dense(np.arange(5))

    def test_len_and_ndim(self):
        csr = CSRMatrix.from_dense(np.eye(3, dtype=np.int32))
        assert len(csr) == 3
        assert csr.ndim == 2
        assert csr.dtype == np.int32


class TestFromCodes:
    def test_matches_dense_bincount(self):
        """from_codes is the sparse analogue of the dense histogram."""
        rng = np.random.default_rng(1)
        n_rows, n_cols = 9, 13
        rows = rng.integers(0, n_rows, size=500)
        cols = rng.integers(0, n_cols, size=500)
        dense = np.bincount(rows * n_cols + cols,
                            minlength=n_rows * n_cols
                            ).reshape(n_rows, n_cols).astype(np.int32)
        csr = CSRMatrix.from_codes(rows, cols, (n_rows, n_cols))
        np.testing.assert_array_equal(csr.toarray(), dense)
        assert csr.dtype == np.int32

    def test_empty_codes(self):
        csr = CSRMatrix.from_codes(np.empty(0, np.int64),
                                   np.empty(0, np.int64), (3, 4))
        assert csr.nnz == 0
        np.testing.assert_array_equal(csr.toarray(), np.zeros((3, 4)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_codes(np.arange(3), np.arange(2), (4, 4))


class TestValidation:
    def test_bad_indptr_length(self):
        with pytest.raises(ValueError):
            CSRMatrix(indptr=np.array([0, 1]), indices=np.array([0]),
                      data=np.array([1]), shape=(2, 2))

    def test_indices_data_mismatch(self):
        with pytest.raises(ValueError):
            CSRMatrix(indptr=np.array([0, 1, 2]), indices=np.array([0]),
                      data=np.array([1, 2]), shape=(2, 2))

    def test_indptr_must_end_at_nnz(self):
        with pytest.raises(ValueError):
            CSRMatrix(indptr=np.array([0, 1, 1]), indices=np.array([0, 1]),
                      data=np.array([1, 2]), shape=(2, 2))

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            CSRMatrix(indptr=np.array([0, 1]), indices=np.array([5]),
                      data=np.array([1]), shape=(1, 2))

    def test_decreasing_indptr_and_negative_column_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRMatrix(indptr=np.array([0, 2, 1, 2]),
                      indices=np.array([0, 1]), data=np.array([1, 2]),
                      shape=(3, 2))
        with pytest.raises(ValueError, match="out of range"):
            CSRMatrix(indptr=np.array([0, 1]), indices=np.array([-1]),
                      data=np.array([1]), shape=(1, 2))


class TestReductionsAndTriplets:
    def test_sums_match_dense(self):
        rng = np.random.default_rng(2)
        dense = _random_dense(rng)
        csr = CSRMatrix.from_dense(dense)
        assert csr.sum() == dense.sum()
        np.testing.assert_array_equal(csr.sum(axis=0), dense.sum(axis=0))
        np.testing.assert_array_equal(csr.sum(axis=1), dense.sum(axis=1))
        assert csr.sum(axis=0).dtype == np.int64
        with pytest.raises(ValueError):
            csr.sum(axis=2)

    def test_triplets_in_nonzero_order(self):
        """Triplet export order must equal np.nonzero order — the tree
        relies on this for sparse/dense bit-identity."""
        rng = np.random.default_rng(3)
        dense = _random_dense(rng)
        csr = CSRMatrix.from_dense(dense)
        rows, cols, vals = csr.triplets()
        exp_rows, exp_cols = np.nonzero(dense)
        np.testing.assert_array_equal(rows, exp_rows)
        np.testing.assert_array_equal(cols, exp_cols)
        np.testing.assert_array_equal(vals, dense[exp_rows, exp_cols])


class TestSlicing:
    def test_row_subset_mask_and_order(self):
        rng = np.random.default_rng(4)
        dense = _random_dense(rng, n_rows=10)
        csr = CSRMatrix.from_dense(dense)
        mask = rng.random(10) < 0.5
        np.testing.assert_array_equal(csr.row_subset(mask).toarray(),
                                      dense[mask])
        order = rng.permutation(10)
        np.testing.assert_array_equal(csr.row_subset(order).toarray(),
                                      dense[order])
        repeated = np.array([3, 3, 0])
        np.testing.assert_array_equal(csr.row_subset(repeated).toarray(),
                                      dense[repeated])

    def test_select_columns(self):
        rng = np.random.default_rng(5)
        dense = _random_dense(rng, n_cols=12)
        csr = CSRMatrix.from_dense(dense)
        keep = np.array([0, 3, 7, 11])
        np.testing.assert_array_equal(csr.select_columns(keep).toarray(),
                                      dense[:, keep])

    def test_select_columns_empty_keep(self):
        csr = CSRMatrix.from_dense(np.ones((3, 4), dtype=np.int32))
        out = csr.select_columns(np.empty(0, np.int64))
        assert out.shape == (3, 0)
        assert out.nnz == 0

    def test_select_columns_requires_sorted_unique(self):
        csr = CSRMatrix.from_dense(np.ones((2, 4), dtype=np.int32))
        with pytest.raises(ValueError):
            csr.select_columns(np.array([3, 1]))
        with pytest.raises(ValueError):
            csr.select_columns(np.array([1, 1]))

    def test_getitem_forms(self):
        rng = np.random.default_rng(6)
        dense = _random_dense(rng)
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_array_equal(csr[np.array([1, 4])].toarray(),
                                      dense[[1, 4]])
        np.testing.assert_array_equal(csr[:, np.array([2, 5])].toarray(),
                                      dense[:, [2, 5]])
        with pytest.raises(TypeError):
            csr[1:3, np.array([0])]


class TestVstack:
    def test_matches_dense_vstack(self):
        rng = np.random.default_rng(7)
        blocks = [_random_dense(rng, n_rows=r) for r in (3, 1, 5)]
        stacked = CSRMatrix.vstack(
            [CSRMatrix.from_dense(b) for b in blocks])
        np.testing.assert_array_equal(stacked.toarray(), np.vstack(blocks))

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            CSRMatrix.vstack([])
        a = CSRMatrix.from_dense(np.ones((2, 3), dtype=np.int32))
        b = CSRMatrix.from_dense(np.ones((2, 4), dtype=np.int32))
        with pytest.raises(ValueError):
            CSRMatrix.vstack([a, b])


class TestHelpers:
    def test_as_csr_and_as_dense(self):
        dense = np.eye(3, dtype=np.int32)
        csr = CSRMatrix.from_dense(dense)
        assert as_csr(csr) is csr
        converted = as_csr(dense)
        assert isinstance(converted, CSRMatrix)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(converted, part),
                                          getattr(csr, part))
        with pytest.raises(ValueError):
            as_csr(np.arange(3))
        np.testing.assert_array_equal(as_dense(csr), dense)
        assert as_dense(dense) is not None
        np.testing.assert_array_equal(as_dense(dense), dense)
