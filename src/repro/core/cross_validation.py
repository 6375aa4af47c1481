"""Ten-fold cross-validation of the regression-tree family (Section 4.4).

For each fold, a tree family is built on 90% of the (EIPV, CPI) points;
every held-out EIPV is dropped into each T_k's chambers and its CPI
predicted as the chamber mean.  Summing squared errors across folds gives
E_k; dividing by the total CPI variance gives the relative error curve

    RE_k = E_k / E .

``RE_k`` near 0 means EIPVs explain CPI; near (or above!) 1 means they do
not — a complex model can generalize *worse* than the global mean, which is
exactly what the paper observes for ODB-C.

The asymptote ``RE_inf`` is the paper's upper bound on predictability; we
follow the paper in reporting ``k_opt``, the smallest k whose RE is within
0.5% (absolute) of the best achievable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import UNSET, AnalysisConfig, resolve_config
from repro.core.regression_tree import RegressionTreeSequence
from repro.obs import span
from repro.sparse import is_sparse

#: The paper's tolerance: RE_kopt approximates RE_inf if within 0.5%.
KOPT_TOLERANCE = 0.005

#: The paper's chamber-count cap.
DEFAULT_K_MAX = 50

#: The paper's fold count.
DEFAULT_FOLDS = 10


@dataclass(frozen=True)
class RECurve:
    """The relative cross-validation error curve of one dataset.

    ``re[k - 1]`` is RE_k for k = 1..k_max.  ``k_opt`` is the smallest k
    within :data:`KOPT_TOLERANCE` of the curve minimum; ``re_kopt`` its RE;
    ``re_inf`` the curve's tail value (the paper's predictability bound).
    """

    re: np.ndarray
    k_opt: int
    re_kopt: float
    re_inf: float
    total_variance: float
    n_points: int

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(1, len(self.re) + 1)

    @property
    def explained_fraction(self) -> float:
        """1 - RE_inf, clipped to [0, 1]: CPI variance EIPVs can explain."""
        return float(np.clip(1.0 - self.re_inf, 0.0, 1.0))

    def as_rows(self) -> list[tuple[int, float]]:
        """(k, RE_k) rows for table output."""
        return [(int(k), float(re)) for k, re in zip(self.k_values, self.re)]


def fold_indices(n: int, folds: int,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """Randomly partition ``range(n)`` into ``folds`` near-equal parts."""
    if folds < 2:
        raise ValueError("need at least two folds")
    if n < folds:
        raise ValueError(f"cannot make {folds} folds from {n} points")
    permutation = rng.permutation(n)
    return [permutation[i::folds] for i in range(folds)]


def fold_errors(matrix, y: np.ndarray, held_out: np.ndarray, k_max: int,
                min_leaf: int):
    """The fold body: fit T_1..T_k_max on the rows outside ``held_out``,
    then sum each T_k's squared error over the held-out rows.

    The serial loop, the fold jobs and the parent's recompute of a failed
    fold job all run this, so their floats are the same bits.  Returns
    ``(errors, reached)``: one error per k up to ``reached``, the largest
    k the tree grew to.
    """
    with span("cv.fold") as fold_span:
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[held_out] = False
        tree = RegressionTreeSequence(k_max=k_max, min_leaf=min_leaf)
        tree.fit(matrix[train_mask], y[train_mask])
        test_y = y[held_out]
        with span("cv.predict"):
            predictions = tree.predict_all_k(matrix[held_out])
        errors = ((predictions - test_y[:, None]) ** 2).sum(axis=0)
        fold_span.inc("held_out", len(held_out))
    return errors, tree.max_k()


def add_fold_errors(sse: np.ndarray, errors: np.ndarray,
                    reached: int) -> None:
    """The SSE merge: add one fold's held-out errors into E_k in place.

    Trees that stopped growing early keep their last prediction for
    larger k (T_k == T_reached beyond the last useful split).  Folds
    merge in fold order, so a parallel run adds the same floats in the
    same order as the serial loop.
    """
    sse[:reached] += errors
    if reached < len(sse):
        sse[reached:] += errors[-1]


def cross_validated_sse(matrix: np.ndarray, y: np.ndarray,
                        k_max=UNSET, folds=UNSET, seed=UNSET, min_leaf=UNSET,
                        *, config: AnalysisConfig | None = None,
                        jobs: int = 1) -> np.ndarray:
    """Summed held-out squared error E_k for k = 1..k_max.

    Builds one tree family per fold and evaluates every member tree on the
    held-out part, exactly the procedure of Section 4.4.  Pass
    ``config=AnalysisConfig(...)``; the loose kwargs are deprecated.
    ``jobs > 1`` fans the folds across worker processes with a
    deterministic merge — the result is bit-identical to the serial loop.
    The partition is drawn first, so an impossible one raises the same
    ``ValueError`` at any ``jobs``, and the serial-vs-parallel rule
    (:func:`repro.runtime.pool.use_pool`) is checked before the dataset
    is written for any worker.
    """
    config = resolve_config(config, k_max, folds, seed, min_leaf,
                            caller="cross_validated_sse")
    if not is_sparse(matrix):
        matrix = np.asarray(matrix)
    y = np.asarray(y, dtype=np.float64)
    partition = fold_indices(len(y), config.folds,
                             np.random.default_rng(config.seed))
    k_max = config.k_max
    if jobs > 1:
        from repro.runtime import pool as pool_mod
        if pool_mod.use_pool(jobs, config.folds):
            from repro.runtime.folds import run_parallel_folds
            with span("cv", folds=config.folds, k_max=k_max) as cv_span:
                sse = run_parallel_folds(matrix, y, config, jobs)
                cv_span.inc("points", len(y))
            return sse
        # The folds never reach run_jobs, so count the choice here.
        from repro.runtime.metrics import METRICS
        METRICS.inc("dispatch.serial_chosen")
    sse = np.zeros(k_max)
    with span("cv", folds=config.folds, k_max=k_max) as cv_span:
        for held_out in partition:
            errors, reached = fold_errors(matrix, y, held_out, k_max,
                                          config.min_leaf)
            add_fold_errors(sse, errors, reached)
        cv_span.inc("points", len(y))
    return sse


def relative_error_curve(matrix: np.ndarray, y: np.ndarray,
                         k_max=UNSET, folds=UNSET, seed=UNSET, min_leaf=UNSET,
                         *, config: AnalysisConfig | None = None,
                         jobs: int = 1) -> RECurve:
    """The paper's RE_k curve with k_opt and RE_inf.

    Pass ``config=AnalysisConfig(...)``; loose kwargs are deprecated.
    ``jobs`` parallelizes the folds (bit-identical merge).
    """
    config = resolve_config(config, k_max, folds, seed, min_leaf,
                            caller="relative_error_curve")
    y = np.asarray(y, dtype=np.float64)
    total_variance = float(np.var(y))
    baseline = total_variance * len(y)
    sse = cross_validated_sse(matrix, y, config=config, jobs=jobs)
    if baseline <= 0:
        # Constant CPI: any model is exact; RE is defined as 0.
        re = np.zeros(config.k_max)
    else:
        re = sse / baseline
    return summarize_curve(re, total_variance, len(y))


def summarize_curve(re: np.ndarray, total_variance: float,
                    n_points: int) -> RECurve:
    """An :class:`RECurve` from RE_1..RE_k: the paper's k_opt and RE_inf.

    The one place those rules live.  A curve's first k entries are the
    curve at ``k_max=k`` (best-first growth, seed-only folds), so this
    also summarizes a prefix of a longer curve exactly as a fresh
    computation at ``k_max=k`` would.
    """
    re_min = float(re.min())
    within = np.nonzero(re <= re_min + KOPT_TOLERANCE)[0]
    k_opt = int(within[0]) + 1
    # The tail value: average of the last quarter of the curve, a stable
    # stand-in for RE at k -> infinity.
    tail = re[-max(1, len(re) // 4):]
    return RECurve(
        re=re,
        k_opt=k_opt,
        re_kopt=float(re[k_opt - 1]),
        re_inf=float(tail.mean()),
        total_variance=total_variance,
        n_points=n_points,
    )
