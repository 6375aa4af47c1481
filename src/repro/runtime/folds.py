"""Cross-validation folds as schedulable jobs (kind ``"cv_fold"``).

Parallelizing a *single* analysis: the folds of
:func:`repro.core.cross_validation.cross_validated_sse` are independent
tree fits, so they fan out through the same scheduler census runs use.
Three properties keep a parallel run bit-identical to the serial loop:

* **Identical partition.**  Each fold job recomputes
  ``fold_indices(n_points, folds, default_rng(seed))`` — one permutation
  draw — so every worker derives the same fold membership from the spec
  alone, with no index arrays shipped around.

* **Identical per-fold floats.**  A fold job runs the serial loop's
  fold body, :func:`repro.core.cross_validation.fold_errors`; the spec
  travels to its worker and the result back by pickle, which preserves
  every float bit.

* **Identical merge.**  The parent adds the per-fold error vectors in
  fold order with the serial loop's merge,
  :func:`repro.core.cross_validation.add_fold_errors`.

A fold job reads its dataset like every other job reads its inputs:
from its spec.  The parent writes (matrix, y) once as the only
``folds`` entry (one file: ``y`` and the CSR triplet ``put_eipv``
stores) of a temporary :class:`~repro.runtime.cache.ResultCache` and
names that store's root in every :class:`FoldSpec`;
:meth:`FoldSpec.execute` maps the entry read-only, runs the fold and
drops the views when it returns, so a warm worker keeps nothing between
jobs.  The page cache shares the mapped
bytes across workers.  Fold jobs run with no store and are never
cached: a fold is an internal slice of one analysis, meaningless
outside it, so its key only has to be unique within one CV.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from repro.runtime.cache import ResultCache
from repro.runtime.jobs import CODE_VERSION, spec_key
from repro.runtime.metrics import METRICS, MetricsRegistry
from repro.runtime.stages import load_matrix, save_matrix
from repro.sparse import CSRMatrix

#: Entry kind of a fold dataset in its temporary store.
FOLDS_KIND = "folds"

#: Key of the one ``folds`` entry in a CV's temporary store.
FOLDS_KEY = "dataset"

#: Prefix of the temporary directory each parallel CV writes its
#: dataset into (removed before ``run_parallel_folds`` returns).
FOLDS_DIR_PREFIX = "repro-folds-"


def _put_dataset(store: ResultCache, matrix: CSRMatrix,
                 y: np.ndarray) -> None:
    """Write (matrix, y) as the store's ``folds`` entry, in the EIPV
    entry's matrix layout."""
    store.publish(FOLDS_KIND, FOLDS_KEY,
                  {"shape": [int(dim) for dim in matrix.shape]},
                  arrays={"y": y, **save_matrix(matrix)})


def _load_dataset(root: str):
    """(matrix, y) as read-only views of the mapped entry in the store
    at ``root``.

    A missing or unreadable entry raises; the parent then recomputes the
    fold from its own arrays.
    """
    store = ResultCache(root, metrics=MetricsRegistry())
    loaded = store.load_arrays(FOLDS_KIND, FOLDS_KEY)
    if loaded is None:
        raise RuntimeError(f"fold dataset in {root} is unreadable")
    meta, views = loaded
    return load_matrix(views, meta), views["y"]


@dataclass(frozen=True)
class FoldResult:
    """Held-out squared errors of one fold's tree family."""

    key: str
    errors: tuple
    reached: int


@dataclass(frozen=True)
class FoldSpec:
    """One fold of one cross-validation, self-describing via the seed."""

    kind: ClassVar[str] = "cv_fold"

    #: Root of the temporary store holding the CV's dataset.
    root: str
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

    def execute(self, jobs: int = 1, store=None) -> FoldResult:
        """Map the CV's dataset and run the fold body on this fold.

        The arrays are dropped when this returns.  A fold has no inner
        fan-out and reads its dataset from ``root``, so ``jobs`` and
        ``store`` are unused.
        """
        from repro.core.cross_validation import fold_errors, fold_indices

        matrix, y = _load_dataset(self.root)
        partition = fold_indices(self.n_points, self.folds,
                                 np.random.default_rng(self.seed))
        errors, reached = fold_errors(matrix, y, partition[self.fold_index],
                                      self.k_max, self.min_leaf)
        return FoldResult(key=self.key,
                          errors=tuple(float(v) for v in errors),
                          reached=reached)


def run_parallel_folds(matrix: CSRMatrix, y: np.ndarray, config, jobs: int,
                       timeout: float | None = None) -> np.ndarray:
    """Fan the folds of one cross-validation across worker processes.

    Returns the summed held-out squared-error vector E_k — bit-identical
    to the serial loop at any ``jobs`` (including the scheduler's serial
    fallback when a pool cannot be built).

    The dataset is written once into a temporary store whose directory
    is removed before this returns, whatever happens.  A fold whose job
    fails is recomputed here from the caller's arrays; a store that
    cannot be written runs every fold here (counted as
    ``folds.store_failed``).
    """
    from repro.core.cross_validation import (add_fold_errors, fold_errors,
                                             fold_indices)
    from repro.runtime.graph import JobGraph, submit_graph

    outcomes = [None] * config.folds
    with contextlib.ExitStack() as stack:
        try:
            root = stack.enter_context(tempfile.TemporaryDirectory(
                prefix=FOLDS_DIR_PREFIX, ignore_cleanup_errors=True))
            # A private registry keeps these writes out of the
            # pipeline's ``artifact.*`` counters.
            _put_dataset(ResultCache(root, metrics=MetricsRegistry()),
                         matrix, y)
        except OSError:
            METRICS.inc("folds.store_failed")
        else:
            graph = JobGraph()
            for i in range(config.folds):
                graph.add(FoldSpec(root=root, fold_index=i, n_points=len(y),
                                   folds=config.folds, seed=config.seed,
                                   k_max=config.k_max,
                                   min_leaf=config.min_leaf))
            outcomes = submit_graph(graph, jobs=jobs, timeout=timeout)

    partition = fold_indices(len(y), config.folds,
                             np.random.default_rng(config.seed))
    sse = np.zeros(config.k_max)
    for i, (held_out, outcome) in enumerate(zip(partition, outcomes)):
        if outcome is not None and outcome.ok:
            errors = np.asarray(outcome.result.errors, dtype=np.float64)
            reached = outcome.result.reached
        else:
            try:
                errors, reached = fold_errors(matrix, y, held_out,
                                              config.k_max, config.min_leaf)
            except Exception as exc:
                if outcome is None:
                    raise
                raise RuntimeError(
                    f"cross-validation fold {i} failed in its job and "
                    f"again in the parent; the job's error:\n"
                    f"{outcome.error}") from exc
        add_fold_errors(sse, errors, reached)
    return sse
