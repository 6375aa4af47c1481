"""K-means clustering of EIPVs (the prior art the paper compares against).

Sherwood et al. cluster basic-block vectors with k-means and *assume* that
points sharing a cluster share a CPI; the paper's Section 4.6 contrasts
this with regression trees, where CPI drives the partitioning.  This module
implements the SimPoint-style pipeline from scratch:

1. L1-normalize each EIPV (samples per interval can differ);
2. optionally random-project to a low dimension (SimPoint uses 15);
3. k-means with k-means++ seeding and Lloyd iterations.

:func:`predict_cpi_by_cluster` then gives k-means the most charitable
reading: predict a held-out interval's CPI as the mean CPI of its cluster
(computed from training intervals only), mirroring the tree's chamber-mean
prediction so the two methods are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse import as_dense

#: SimPoint's random-projection dimension.
DEFAULT_PROJECTION_DIM = 15


def l1_normalize(matrix: np.ndarray) -> np.ndarray:
    """Scale each row to sum to 1 (empty rows stay zero)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    sums = matrix.sum(axis=1, keepdims=True)
    return np.divide(matrix, np.maximum(sums, 1e-300))


def random_projection(matrix: np.ndarray, dim: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Project rows onto ``dim`` random unit directions."""
    if dim <= 0:
        raise ValueError("projection dim must be positive")
    n_features = matrix.shape[1]
    if dim >= n_features:
        return np.asarray(matrix, dtype=np.float64)
    directions = rng.normal(size=(n_features, dim))
    directions /= np.linalg.norm(directions, axis=0, keepdims=True)
    return matrix @ directions


@dataclass
class KMeansResult:
    """Fitted k-means model."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iterations: int

    @property
    def k(self) -> int:
        return len(self.centroids)

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Nearest-centroid label for each point row."""
        distances = _pairwise_sq(points, self.centroids)
        return distances.argmin(axis=1)


def _pairwise_sq(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, points x centroids."""
    p2 = (points * points).sum(axis=1)[:, None]
    c2 = (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(p2 + c2 - 2.0 * points @ centroids.T, 0.0)


def _kmeanspp_init(points: np.ndarray, k: int,
                   rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = _pairwise_sq(points, centroids[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[i:] = points[rng.integers(n, size=k - i)]
            break
        probabilities = closest / total
        index = int(rng.choice(n, p=probabilities))
        centroids[i] = points[index]
        distance = _pairwise_sq(points, centroids[i:i + 1]).ravel()
        np.minimum(closest, distance, out=closest)
    return centroids


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
           max_iterations: int = 100, tolerance: float = 1e-9) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    centroids = _kmeanspp_init(points, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    inertia = np.inf
    for iteration in range(1, max_iterations + 1):
        distances = _pairwise_sq(points, centroids)
        labels = distances.argmin(axis=1)
        new_inertia = float(distances[np.arange(n), labels].sum())
        for j in range(k):
            members = points[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the farthest point.
                farthest = int(distances.min(axis=1).argmax())
                centroids[j] = points[farthest]
        if inertia - new_inertia <= tolerance:
            inertia = new_inertia
            break
        inertia = new_inertia
    return KMeansResult(centroids=centroids, labels=labels, inertia=inertia,
                        n_iterations=iteration)


def prepare_eipvs(matrix, rng: np.random.Generator,
                  projection_dim: int | None = DEFAULT_PROJECTION_DIM
                  ) -> np.ndarray:
    """The SimPoint preprocessing: L1-normalize then random-project.

    ``matrix`` is CSR or dense; clustering needs dense rows, so it is
    densified here.
    """
    normalized = l1_normalize(as_dense(matrix))
    if projection_dim is None:
        return normalized
    return random_projection(normalized, projection_dim, rng)


def predict_cpi_by_cluster(train_points: np.ndarray, train_cpis: np.ndarray,
                           test_points: np.ndarray, k: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Cluster train EIPVs; predict each test point's CPI as its cluster mean.

    CPI never enters the clustering — that is k-means' defining handicap in
    the paper's comparison.
    """
    model = kmeans(train_points, k, rng)
    cluster_means = np.empty(model.k)
    global_mean = float(np.mean(train_cpis))
    for j in range(model.k):
        members = train_cpis[model.labels == j]
        cluster_means[j] = members.mean() if len(members) else global_mean
    return cluster_means[model.assign(test_points)]
