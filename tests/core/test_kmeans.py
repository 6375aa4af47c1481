"""Tests for the from-scratch k-means implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kmeans import (
    kmeans,
    l1_normalize,
    predict_cpi_by_cluster,
    prepare_eipvs,
    random_projection,
)
from repro.sparse import CSRMatrix


def blobs(k=3, per=20, dim=5, spread=0.05, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5, 5, (k, dim))
    points = np.vstack([
        center + rng.normal(0, spread, (per, dim)) for center in centers])
    labels = np.repeat(np.arange(k), per)
    return points, labels


class TestNormalization:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 10, (8, 5)).astype(float)
        matrix[0] = 0  # empty row stays zero
        normalized = l1_normalize(matrix)
        sums = normalized.sum(axis=1)
        assert sums[1:] == pytest.approx(np.ones(7))
        assert sums[0] == pytest.approx(0.0)

    def test_projection_shape(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((10, 100))
        projected = random_projection(matrix, 15, rng)
        assert projected.shape == (10, 15)

    def test_projection_noop_when_dim_large(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((10, 5))
        assert random_projection(matrix, 15, rng).shape == (10, 5)

    def test_projection_preserves_relative_distances(self):
        rng = np.random.default_rng(1)
        points, _ = blobs(k=2, per=10, dim=50, spread=0.01)
        projected = random_projection(points, 15, rng)
        within = np.linalg.norm(projected[0] - projected[1])
        across = np.linalg.norm(projected[0] - projected[15])
        assert across > within

    def test_prepare_eipvs_pipeline(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 40, (12, 200)).astype(float)
        points = prepare_eipvs(matrix, rng, projection_dim=15)
        assert points.shape == (12, 15)
        assert prepare_eipvs(matrix, rng, projection_dim=None).shape \
            == (12, 200)

    @pytest.mark.parametrize("projection_dim", [15, None])
    def test_prepare_eipvs_reads_csr(self, projection_dim):
        """An EIPV dataset's CSR matrix prepares like its dense array."""
        rng = np.random.default_rng(2)
        matrix = rng.integers(0, 40, (12, 200)).astype(np.int32)
        matrix[rng.random(matrix.shape) < 0.8] = 0
        csr = prepare_eipvs(CSRMatrix.from_dense(matrix),
                            np.random.default_rng(5), projection_dim)
        dense = prepare_eipvs(matrix, np.random.default_rng(5),
                              projection_dim)
        assert np.array_equal(csr, dense)


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        points, truth = blobs(k=3, per=25)
        result = kmeans(points, 3, np.random.default_rng(0))
        # Same-blob points share a cluster label.
        for blob_id in range(3):
            labels = result.labels[truth == blob_id]
            assert len(set(labels.tolist())) == 1

    def test_assignment_minimizes_distance(self):
        points, _ = blobs(k=3, per=15)
        result = kmeans(points, 3, np.random.default_rng(1))
        distances = ((points[:, None, :]
                      - result.centroids[None, :, :]) ** 2).sum(axis=2)
        assert (result.labels == distances.argmin(axis=1)).all()

    def test_inertia_decreases_with_k(self):
        points, _ = blobs(k=4, per=15, spread=0.5)
        rng = np.random.default_rng(2)
        inertias = [kmeans(points, k, rng).inertia for k in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_k_equals_n_zero_inertia(self):
        points, _ = blobs(k=2, per=3)
        result = kmeans(points, len(points), np.random.default_rng(0))
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_validation(self):
        points, _ = blobs()
        with pytest.raises(ValueError):
            kmeans(points, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kmeans(points, len(points) + 1, np.random.default_rng(0))

    def test_assign_new_points(self):
        points, _ = blobs(k=2, per=20, spread=0.01)
        result = kmeans(points, 2, np.random.default_rng(0))
        new_labels = result.assign(points[:5] + 0.001)
        assert (new_labels == result.labels[:5]).all()


class TestClusterCPIPrediction:
    def test_prediction_uses_cluster_means(self):
        points, truth = blobs(k=2, per=20, spread=0.01)
        cpis = np.where(truth == 0, 1.0, 3.0)
        predictions = predict_cpi_by_cluster(
            points, cpis, points, 2, np.random.default_rng(0))
        assert predictions == pytest.approx(cpis)

    def test_cpi_blind_clustering_fails_when_code_identical(self):
        """Identical EIPVs with different CPIs: k-means cannot separate —
        the paper's core criticism."""
        rng = np.random.default_rng(0)
        points = np.ones((40, 5)) + rng.normal(0, 1e-6, (40, 5))
        cpis = np.array([1.0, 3.0] * 20)
        predictions = predict_cpi_by_cluster(points, cpis, points, 2, rng)
        errors = np.abs(predictions - cpis)
        assert errors.mean() > 0.5


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), k=st.integers(1, 6))
def test_kmeans_invariants(seed, k):
    rng = np.random.default_rng(seed)
    points = rng.random((30, 4))
    result = kmeans(points, k, rng)
    assert result.centroids.shape == (k, 4)
    assert len(result.labels) == 30
    assert set(result.labels.tolist()) <= set(range(k))
    assert result.inertia >= 0
