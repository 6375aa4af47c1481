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

The (matrix, y) dataset is published to each pool worker once —
through a cached :class:`~repro.runtime.pool.WorkerSetup` shm attach on
the warm-pool path, or the legacy pool initializer on the pickled
transport (:func:`publish_dataset` keyed by a content token either
way) — instead of being pickled into all ``folds`` job payloads.  Fold
jobs are
never cached: a fold is an internal slice of one analysis, cheap relative
to its dataset hash and meaningless outside it.
"""

from __future__ import annotations

import hashlib
import time
import weakref
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from repro.core.regression_tree import RegressionTreeSequence
from repro.obs import span
from repro.runtime.cache import NullCache
from repro.runtime.jobs import CODE_VERSION, register_job_kind, spec_key
from repro.sparse import is_sparse

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


def register_dataset_token(matrix, y: np.ndarray, token: str) -> None:
    """Pre-register a known content token for a live (matrix, y) pair.

    Callers that already own a content-addressed identity for a dataset
    — the artifact store's ``eipv`` stage key covers exactly the bytes
    :func:`dataset_token` would hash — register it so the fold fan-out
    and the shared-memory arena never re-hash a memmapped dataset.
    Registration needs weak references to evict on object death; plain
    dense ``ndarray``s don't support them, in which case this silently
    does nothing and :func:`dataset_token` hashes as usual.
    """
    memo_key = (id(matrix), id(y))
    if memo_key in _TOKEN_MEMO:
        return
    try:
        for obj in (matrix, y):
            weakref.finalize(obj, _TOKEN_MEMO.pop, memo_key, None)
    except TypeError:
        return
    _TOKEN_MEMO[memo_key] = token


def publish_dataset(token: str, matrix, y: np.ndarray) -> None:
    """Make a dataset visible to fold jobs executing in this process."""
    _DATASETS[token] = (matrix, y)


def _init_worker(token: str, matrix, y: np.ndarray) -> None:
    """Pool initializer: ship the dataset to a worker once (pickled)."""
    publish_dataset(token, matrix, y)


def _init_worker_shm(handle) -> None:
    """Pool initializer: attach the shared-memory dataset (zero-copy).

    Only the small :class:`~repro.runtime.shm.ArenaHandle` is pickled;
    the arrays are read-only views over the parent's segment.  If the
    attach fails the pool breaks and the scheduler's serial fallback
    recomputes the folds in the parent, where the dataset is still
    published in-process.
    """
    from repro.runtime.shm import attach_dataset

    matrix, y = attach_dataset(handle)
    publish_dataset(handle.token, matrix, y)


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


def execute_fold(spec: FoldSpec, jobs: int = 1) -> FoldResult:
    """Fit on the fold's training part, score every T_k on the rest.

    This is the serial loop body of ``cross_validated_sse``, verbatim, so
    the floats coming back are the ones the serial path would produce.
    A fold has no inner fan-out, so ``jobs`` is unused.
    """
    from repro.core.cross_validation import fold_indices

    try:
        matrix, y = _DATASETS[spec.dataset_token]
    except KeyError:
        raise RuntimeError(
            f"dataset {spec.dataset_token!r} was not published to this "
            "process (fold jobs need publish_dataset or the pool "
            "initializer)") from None
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
                       timeout: float | None = None,
                       shm: bool = True) -> np.ndarray:
    """Fan the folds of one cross-validation across worker processes.

    Returns the summed held-out squared-error vector E_k — bit-identical
    to the serial loop at any ``jobs`` (including the scheduler's serial
    fallback when a pool cannot be built).

    ``shm`` selects the dataset transport: ``True`` publishes (matrix, y)
    once into a shared-memory arena and workers attach zero-copy views,
    ``False`` pickles the arrays into each worker.  Shared memory
    silently degrades to the pickled transport when unavailable; either
    way the fold floats are the same.

    The shm path rides the persistent warm pool: the published arena is
    cached parent-side in :func:`repro.runtime.pool.arena_cache` keyed
    by the dataset token (a k-sweep's repeated analyses publish once),
    and workers attach through a :class:`~repro.runtime.pool.WorkerSetup`
    cached by the same key (a warm worker re-attaches nothing).  The
    pickled transport keeps the legacy per-call pool — its initializer
    must run at worker spawn, so a persistent pool cannot serve it.
    """
    from repro.runtime import pool as pool_mod
    from repro.runtime.graph import JobGraph, submit_graph

    token = dataset_token(matrix, y)
    publish_dataset(token, matrix, y)
    initializer, initargs, setup = None, (), None
    if shm and jobs > 1:
        handle = pool_mod.arena_cache().handle_for(token, matrix, y)
        if handle is not None:
            setup = pool_mod.WorkerSetup(key=f"arena:{token}",
                                         fn=_init_worker_shm,
                                         args=(handle,))
    if setup is None:
        initializer, initargs = _init_worker, (token, matrix, y)
    try:
        graph = JobGraph()
        specs = [FoldSpec(dataset_token=token, fold_index=i,
                          n_points=len(y), folds=config.folds,
                          seed=config.seed, k_max=config.k_max,
                          min_leaf=config.min_leaf)
                 for i in range(config.folds)]
        for spec in specs:
            graph.add(spec)
        outcomes = submit_graph(graph, jobs=jobs, cache=NullCache(),
                                timeout=timeout, initializer=initializer,
                                initargs=initargs, setup=setup)
    except BaseException:
        # A crash mid-dispatch may implicate the published segment;
        # evict it so nothing leaks past the failed analysis.
        if setup is not None:
            pool_mod.arena_cache().evict(token)
        raise
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
