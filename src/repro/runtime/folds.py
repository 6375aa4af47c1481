"""Cross-validation folds as schedulable jobs (kind ``"cv_fold"``).

Parallelizing a *single* analysis: the folds of
:func:`repro.core.cross_validation.cross_validated_sse` are independent
tree fits, so they fan out through the same scheduler census runs use.
Three properties keep a parallel run bit-identical to the serial loop:

* **Identical partition.**  Each fold job recomputes
  ``fold_indices(n_points, folds, default_rng(seed))`` — one permutation
  draw — so every worker derives the same fold membership from the spec
  alone, with no index arrays shipped around.

* **Identical per-fold floats.**  A fold job runs exactly the serial
  loop's body (same fit, same ``predict_all_k``, same squared-error
  reduction); results travel back by pickle, which preserves every float
  bit.

* **Identical merge.**  The parent accumulates per-fold error vectors in
  fold submission order with the same ``sse[:reached] += errors`` /
  tail-extension operations the serial loop performs.

The (matrix, y) dataset reaches each pool worker once, as a file: the
parent writes it as one ``folds`` artifact (the layout ``put_eipv``
uses) into a temporary :class:`~repro.runtime.cache.ArtifactStore`, and
a :class:`~repro.runtime.pool.WorkerSetup` keyed by the dataset's
content token maps it read-only in each worker (a warm worker that
already holds the token maps nothing) and publishes it with
:func:`publish_dataset`.  The page cache shares the mapped bytes across
workers.  Fold jobs are never cached: a fold is an internal slice of
one analysis, cheap relative to its dataset hash and meaningless
outside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import tempfile
import time
import weakref
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from repro.core.regression_tree import RegressionTreeSequence
from repro.obs import span
from repro.runtime.cache import ArtifactStore, NullCache
from repro.runtime.jobs import CODE_VERSION, register_job_kind, spec_key
from repro.runtime.metrics import METRICS, MetricsRegistry
from repro.runtime.stages import load_matrix, save_matrix
from repro.sparse import is_sparse

#: Artifact kind of a fold dataset in its temporary store.
FOLDS_KIND = "folds"

#: Prefix of the temporary directory each parallel CV writes its
#: dataset into (removed before ``run_parallel_folds`` returns).
FOLDS_DIR_PREFIX = "repro-folds-"

#: Datasets available to fold jobs in this process, keyed by token.
_DATASETS: dict[str, tuple] = {}

#: Memoized tokens keyed by the identity of the live (matrix, y) pair.
#: Entries are evicted by ``weakref.finalize`` when either object dies,
#: so a recycled ``id()`` can never resurrect a stale token.
_TOKEN_MEMO: dict[tuple[int, int], str] = {}


def _hash_buffer(digest, arr: np.ndarray) -> None:
    """Feed an array's bytes to the digest without a ``tobytes`` copy."""
    if not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    digest.update(arr.data)


def dataset_token(matrix, y: np.ndarray) -> str:
    """Short content hash identifying one (matrix, y) dataset.

    Hashing streams each buffer straight into SHA-256 (contiguous arrays
    are not copied), and the token is memoized per live object pair so
    repeated analyses of the same dataset hash its gigabytes only once.
    """
    memo_key = (id(matrix), id(y))
    token = _TOKEN_MEMO.get(memo_key)
    if token is not None:
        return token
    digest = hashlib.sha256()
    _hash_buffer(digest, np.ascontiguousarray(y, dtype=np.float64))
    if is_sparse(matrix):
        for part in (matrix.indptr, matrix.indices, matrix.data):
            _hash_buffer(digest, part)
    else:
        _hash_buffer(digest, np.asarray(matrix))
    digest.update(repr(tuple(matrix.shape)).encode())
    token = digest.hexdigest()[:16]
    try:
        for obj in (matrix, y):
            weakref.finalize(obj, _TOKEN_MEMO.pop, memo_key, None)
    except TypeError:
        return token
    _TOKEN_MEMO[memo_key] = token
    return token


def publish_dataset(token: str, matrix, y: np.ndarray) -> None:
    """Make a dataset visible to fold jobs executing in this process."""
    _DATASETS[token] = (matrix, y)


def _put_dataset(store: ArtifactStore, token: str, matrix,
                 y: np.ndarray) -> None:
    """Write (matrix, y) once as a ``folds`` artifact keyed by token, in
    the EIPV artifact's matrix layout."""
    meta = {"sparse": is_sparse(matrix),
            "shape": [int(dim) for dim in matrix.shape]}
    with store.put(FOLDS_KIND, token, meta) as staging:
        np.save(staging / "y.npy", y)
        save_matrix(staging, matrix)


def _attach_dataset(root: str, token: str) -> None:
    """Pool-worker setup hook: map the fold dataset and publish it.

    The arrays are the store's read-only memmap views.  A missing or
    unreadable artifact raises; the scheduler then recomputes the folds
    in the parent, where the dataset is still published in-process.
    """
    store = ArtifactStore(root, metrics=MetricsRegistry())
    meta = store.open_meta(FOLDS_KIND, token)
    y = store.load_array(FOLDS_KIND, token, "y") if meta else None
    matrix = (load_matrix(store, FOLDS_KIND, token, meta)
              if y is not None else None)
    if matrix is None:
        raise RuntimeError(f"fold dataset {token!r} in {root} is unreadable")
    publish_dataset(token, matrix, np.asarray(y))


@dataclass(frozen=True)
class FoldSpec:
    """One fold of one cross-validation, self-describing via the seed."""

    kind: ClassVar[str] = "cv_fold"

    dataset_token: str
    fold_index: int
    n_points: int
    folds: int
    seed: int
    k_max: int
    min_leaf: int
    code_version: str = CODE_VERSION

    def canonical(self) -> dict:
        return asdict(self)

    @cached_property
    def key(self) -> str:
        """Stable dedup identity (same construction as ``JobSpec.key``)."""
        return spec_key(self.canonical())

    @classmethod
    def from_dict(cls, data: dict) -> "FoldSpec":
        return cls(**data)


@dataclass(frozen=True)
class FoldResult:
    """Held-out squared errors of one fold's tree family."""

    key: str
    errors: tuple
    reached: int
    timings: dict = field(default_factory=dict)
    spans: tuple = ()

    def to_dict(self) -> dict:
        data = asdict(self)
        data["errors"] = list(self.errors)
        data["spans"] = [dict(s) for s in self.spans]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FoldResult":
        data = dict(data)
        data["errors"] = tuple(float(v) for v in data["errors"])
        data["spans"] = tuple(data.get("spans", ()))
        return cls(**data)


def execute_fold(spec: FoldSpec, jobs: int = 1, store=None) -> FoldResult:
    """Fit on the fold's training part, score every T_k on the rest.

    This is the serial loop body of ``cross_validated_sse``, verbatim, so
    the floats coming back are the ones the serial path would produce.
    A fold has no inner fan-out and reads its dataset from the fold
    setup, so ``jobs`` and ``store`` are unused.
    """
    from repro.core.cross_validation import fold_indices

    try:
        matrix, y = _DATASETS[spec.dataset_token]
    except KeyError:
        raise RuntimeError(
            f"dataset {spec.dataset_token!r} was not published to this "
            "process (fold jobs need publish_dataset or the fold "
            "dataset setup)") from None
    start = time.perf_counter()
    held_out = fold_indices(spec.n_points, spec.folds,
                            np.random.default_rng(spec.seed))[spec.fold_index]
    with span("cv.fold") as fold_span:
        train_mask = np.ones(spec.n_points, dtype=bool)
        train_mask[held_out] = False
        tree = RegressionTreeSequence(k_max=spec.k_max,
                                      min_leaf=spec.min_leaf)
        tree.fit(matrix[train_mask], y[train_mask])
        test_y = y[held_out]
        with span("cv.predict"):
            predictions = tree.predict_all_k(matrix[held_out])
        errors = ((predictions - test_y[:, None]) ** 2).sum(axis=0)
        fold_span.inc("held_out", len(held_out))
    snapshot = fold_span.snapshot()
    return FoldResult(
        key=spec.key,
        errors=tuple(float(v) for v in errors),
        reached=tree.max_k(),
        timings={"fold_s": time.perf_counter() - start},
        spans=(snapshot,) if snapshot is not None else (),
    )


def run_parallel_folds(matrix, y: np.ndarray, config, jobs: int,
                       timeout: float | None = None) -> np.ndarray:
    """Fan the folds of one cross-validation across worker processes.

    Returns the summed held-out squared-error vector E_k — bit-identical
    to the serial loop at any ``jobs`` (including the scheduler's serial
    fallback when a pool cannot be built).

    When the folds will reach the pool, the dataset is written once into
    a temporary artifact store and workers map it through a
    :class:`~repro.runtime.pool.WorkerSetup` keyed by the content token;
    the directory is removed before this returns, whatever happens.  The
    parent also publishes the dataset in-process for the scheduler's
    fallback.  A store that cannot be written runs the folds here
    (counted as ``folds.store_failed``).
    """
    from repro.runtime import pool as pool_mod
    from repro.runtime.graph import JobGraph, submit_graph

    token = dataset_token(matrix, y)
    publish_dataset(token, matrix, y)
    graph = JobGraph()
    for i in range(config.folds):
        graph.add(FoldSpec(dataset_token=token, fold_index=i,
                           n_points=len(y), folds=config.folds,
                           seed=config.seed, k_max=config.k_max,
                           min_leaf=config.min_leaf))
    try:
        with contextlib.ExitStack() as stack:
            setup = None
            if pool_mod.use_pool(jobs, config.folds):
                try:
                    root = stack.enter_context(tempfile.TemporaryDirectory(
                        prefix=FOLDS_DIR_PREFIX, ignore_cleanup_errors=True))
                    # A private registry keeps these writes out of the
                    # pipeline's ``artifact.*`` counters.
                    store = ArtifactStore(root, metrics=MetricsRegistry())
                    _put_dataset(store, token, matrix, y)
                except OSError:
                    METRICS.inc("folds.store_failed")
                    jobs = 1
                else:
                    setup = pool_mod.WorkerSetup(
                        key=f"folds:{token}", fn=_attach_dataset,
                        args=(root, token))
            outcomes = submit_graph(graph, jobs=jobs, cache=NullCache(),
                                    timeout=timeout, setup=setup)
    finally:
        _DATASETS.pop(token, None)

    sse = np.zeros(config.k_max)
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(
                f"cross-validation fold {outcome.spec.fold_index} failed:\n"
                f"{outcome.error}")
        errors = np.asarray(outcome.result.errors, dtype=np.float64)
        reached = outcome.result.reached
        sse[:reached] += errors
        # Trees that stopped growing early keep their last prediction for
        # larger k — the same tail extension as the serial loop.
        if reached < config.k_max:
            sse[reached:] += errors[-1]
    return sse


register_job_kind("cv_fold", execute=execute_fold,
                  spec_from_dict=FoldSpec.from_dict,
                  result_from_dict=FoldResult.from_dict)
