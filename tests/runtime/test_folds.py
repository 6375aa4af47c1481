"""Cross-validation fold jobs, their one dataset transport, and the
job-kind registry.

The transport tests guard two invariants: parallel-fold results are
bit-identical to the serial loop whichever way the dataset reached the
folds (a mapped ``folds`` artifact in a pool worker, the parent's
in-process copy after a failed worker setup, or an in-process run when
the store cannot be written), and no code path — normal completion,
fold errors, scheduler crashes — leaves a ``repro-folds-*`` directory
behind.
"""

import os
import tempfile

import numpy as np
import pytest

from repro.core.config import AnalysisConfig
from repro.core.cross_validation import cross_validated_sse, fold_indices
from repro.core.regression_tree import RegressionTreeSequence
from repro.runtime import folds as folds_mod
from repro.runtime import pool as pool_mod
from repro.runtime import scheduler
from repro.runtime.cache import ArtifactStore, NullCache
from repro.runtime.folds import (
    FoldResult,
    FoldSpec,
    dataset_token,
    execute_fold,
    publish_dataset,
    run_parallel_folds,
)
from repro.runtime.jobs import JobSpec, resolve_kind
from repro.runtime.metrics import METRICS
from repro.sparse import CSRMatrix


def small_dataset(m=40, n=6, seed=0):
    rng = np.random.default_rng(seed)
    matrix = (rng.random((m, n)) < 0.5) * rng.integers(1, 10, (m, n))
    y = rng.normal(2.0, 0.5, m)
    return matrix.astype(float), y


def make_spec(token, y, fold_index=0, folds=5, seed=3, k_max=6):
    return FoldSpec(dataset_token=token, fold_index=fold_index,
                    n_points=len(y), folds=folds, seed=seed,
                    k_max=k_max, min_leaf=1)


class TestFoldSpec:
    def test_key_stable_and_distinct(self):
        a = make_spec("tok", np.zeros(40))
        b = make_spec("tok", np.zeros(40))
        c = make_spec("tok", np.zeros(40), fold_index=1)
        assert a.key == b.key
        assert a.key != c.key

    def test_round_trip(self):
        spec = make_spec("tok", np.zeros(40), fold_index=2)
        again = FoldSpec.from_dict(spec.canonical())
        assert again == spec
        assert again.key == spec.key

    def test_kind_not_part_of_identity(self):
        assert FoldSpec.kind == "cv_fold"
        assert "kind" not in make_spec("tok", np.zeros(40)).canonical()


class TestDatasetToken:
    def test_content_addressed(self):
        matrix, y = small_dataset()
        assert dataset_token(matrix, y) == dataset_token(matrix.copy(),
                                                         y.copy())
        other = matrix.copy()
        other[0, 0] += 1
        assert dataset_token(matrix, y) != dataset_token(other, y)

    def test_sparse_and_dense_tokens_differ_by_layout_not_crash(self):
        matrix, y = small_dataset()
        sparse = CSRMatrix.from_dense(matrix)
        assert dataset_token(sparse, y) == dataset_token(
            CSRMatrix.from_dense(matrix), y)


class TestExecuteFold:
    def test_matches_serial_loop_body(self):
        matrix, y = small_dataset()
        token = dataset_token(matrix, y)
        publish_dataset(token, matrix, y)
        try:
            spec = make_spec(token, y, fold_index=1)
            result = execute_fold(spec)
        finally:
            folds_mod._DATASETS.pop(token, None)
        held_out = fold_indices(len(y), spec.folds,
                                np.random.default_rng(spec.seed))[1]
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[held_out] = False
        tree = RegressionTreeSequence(k_max=spec.k_max, min_leaf=1)
        tree.fit(matrix[train_mask], y[train_mask])
        predictions = tree.predict_all_k(matrix[held_out])
        expected = ((predictions - y[held_out][:, None]) ** 2).sum(axis=0)
        np.testing.assert_array_equal(np.asarray(result.errors), expected)
        assert result.reached == tree.max_k()
        assert result.key == spec.key

    def test_unpublished_dataset_raises(self):
        spec = make_spec("no-such-token", np.zeros(40))
        with pytest.raises(RuntimeError, match="not published"):
            execute_fold(spec)

    def test_result_round_trip(self):
        result = FoldResult(key="k", errors=(1.5, 2.25), reached=2,
                            timings={"fold_s": 0.1})
        again = FoldResult.from_dict(result.to_dict())
        assert again == result


class TestRunParallelFolds:
    def test_serial_and_parallel_identical(self):
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=6, folds=5, seed=3)
        one = run_parallel_folds(matrix, y, config, jobs=1)
        four = run_parallel_folds(matrix, y, config, jobs=4)
        np.testing.assert_array_equal(one, four)

    def test_dataset_unpublished_after_run(self):
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=4, folds=4, seed=3)
        run_parallel_folds(matrix, y, config, jobs=1)
        assert dataset_token(matrix, y) not in folds_mod._DATASETS


class TestTokenMemo:
    def test_memoized_on_the_live_objects(self):
        matrix, y = small_dataset()
        token = dataset_token(matrix, y)
        assert folds_mod._TOKEN_MEMO[(id(matrix), id(y))] == token
        assert dataset_token(matrix, y) == token

    def test_memo_entry_dies_with_the_arrays(self):
        matrix, y = small_dataset()
        key = (id(matrix), id(y))
        dataset_token(matrix, y)
        assert key in folds_mod._TOKEN_MEMO
        del matrix
        assert key not in folds_mod._TOKEN_MEMO

    def test_different_objects_same_content_same_token(self):
        matrix, y = small_dataset()
        assert dataset_token(matrix.copy(), y.copy()) == dataset_token(
            matrix, y)

    def test_non_contiguous_matrix_hashes_like_contiguous(self):
        matrix, y = small_dataset(m=40, n=12)
        strided = np.asfortranarray(matrix)
        assert dataset_token(strided, y) == dataset_token(matrix, y)


@pytest.fixture
def fold_tmp(monkeypatch, tmp_path):
    """A fresh pool forked inside the test (so patches made before the
    first parallel run reach the workers), two usable CPUs (so parallel
    folds reach the pool on any box), and a private temp dir holding the
    fold datasets; yields that dir."""
    monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    pool_mod.shutdown_default()
    yield tmp_path
    pool_mod.shutdown_default()


def fold_dirs(root) -> list:
    return sorted(p.name for p in root.glob(f"{folds_mod.FOLDS_DIR_PREFIX}*"))


class TestTransportEquivalence:
    """Workers forked before a dataset exists can only see it through
    its fold artifact, so each test warms the pool on another dataset
    first."""

    def test_parallel_and_serial_identical(self, fold_tmp):
        config = AnalysisConfig(k_max=6, folds=5, seed=3)
        run_parallel_folds(*small_dataset(seed=1), config, jobs=4)
        matrix, y = small_dataset()
        serial = cross_validated_sse(matrix, y, config=config, jobs=1)
        spawns = METRICS.count("pool.spawns")
        parallel = run_parallel_folds(matrix, y, config, jobs=4)
        np.testing.assert_array_equal(serial, parallel)
        assert METRICS.count("pool.spawns") == spawns

    def test_csr_dataset_identical(self, fold_tmp):
        config = AnalysisConfig(k_max=5, folds=4, seed=7)
        run_parallel_folds(*small_dataset(seed=1), config, jobs=3)
        matrix, y = small_dataset()
        sparse = CSRMatrix.from_dense(matrix)
        serial = cross_validated_sse(sparse, y, config=config, jobs=1)
        spawns = METRICS.count("pool.spawns")
        parallel = run_parallel_folds(sparse, y, config, jobs=3)
        np.testing.assert_array_equal(serial, parallel)
        assert METRICS.count("pool.spawns") == spawns


class _ExplodingTree(RegressionTreeSequence):
    def fit(self, matrix, y):
        raise ValueError("fit exploded")


class TestFailurePaths:
    def test_fold_job_raising_in_pool_reports_its_error(self, fold_tmp):
        """A fold job that blows up inside a worker surfaces its error
        while its sibling, sharing the same mapped dataset, completes."""
        matrix, y = small_dataset()
        token = dataset_token(matrix, y)
        folds_mod._put_dataset(ArtifactStore(fold_tmp), token, matrix, y)
        setup = pool_mod.WorkerSetup(key=f"folds:{token}",
                                     fn=folds_mod._attach_dataset,
                                     args=(str(fold_tmp), token))
        publish_dataset(token, matrix, y)
        try:
            good, bad = scheduler.run_jobs(
                [make_spec(token, y, fold_index=0),
                 make_spec(token, y, fold_index=99)],
                jobs=2, cache=NullCache(), setup=setup)
        finally:
            folds_mod._DATASETS.pop(token, None)
        assert good.ok and good.worker != f"pid-{os.getpid()}"
        assert not bad.ok
        assert "IndexError" in bad.error

    def test_attach_failure_falls_back_to_parent_serial(self, fold_tmp,
                                                        monkeypatch):
        """A worker that cannot map the dataset fails its setup hook
        (WorkerSetupError); the scheduler recomputes those folds in the
        parent — without poisoning the healthy pool — and the floats stay
        identical."""
        def refuse(self, kind, key, name):
            raise OSError("artifact vanished")

        fallbacks = []
        run_serial = scheduler._run_serial

        def spy(spec, key, jobs=1, store=None, pool_error=None):
            fallbacks.append(pool_error or "")
            return run_serial(spec, key, jobs, store=store,
                              pool_error=pool_error)

        # Patched before the pool forks, so only the workers see it (the
        # parent never maps its own dataset).
        monkeypatch.setattr(ArtifactStore, "load_array", refuse)
        monkeypatch.setattr(scheduler, "_run_serial", spy)
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=6, folds=5, seed=3)
        respawns = METRICS.count("pool.respawns")
        result = run_parallel_folds(matrix, y, config, jobs=2)
        serial = cross_validated_sse(matrix, y, config=config, jobs=1)
        np.testing.assert_array_equal(serial, result)
        assert len(fallbacks) == config.folds
        assert all("WorkerSetupError" in error and "artifact vanished"
                   in error for error in fallbacks)
        assert pool_mod.default_pool().is_warm
        assert METRICS.count("pool.respawns") == respawns
        assert fold_dirs(fold_tmp) == []

    def test_unwritable_store_runs_in_process(self, fold_tmp, monkeypatch):
        """A store that cannot be written runs the folds here: same
        floats, the fallback counted, no pool spawned."""
        def full_disk(self, kind, key, meta):
            raise OSError("no space left on device")

        monkeypatch.setattr(ArtifactStore, "put", full_disk)
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=5, folds=4, seed=3)
        before = {name: METRICS.count(name)
                  for name in ("folds.store_failed", "pool.spawns")}
        result = run_parallel_folds(matrix, y, config, jobs=3)
        serial = cross_validated_sse(matrix, y, config=config, jobs=1)
        np.testing.assert_array_equal(serial, result)
        assert METRICS.count("folds.store_failed") == \
            before["folds.store_failed"] + 1
        assert METRICS.count("pool.spawns") == before["pool.spawns"]
        assert not pool_mod.default_pool().is_warm
        assert fold_dirs(fold_tmp) == []

    def test_no_fold_files_left_after_a_run(self, fold_tmp):
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=5, folds=4, seed=3)
        run_parallel_folds(matrix, y, config, jobs=2)
        assert fold_dirs(fold_tmp) == []
        assert dataset_token(matrix, y) not in folds_mod._DATASETS

    def test_failing_fold_removes_fold_files(self, fold_tmp, monkeypatch):
        monkeypatch.setattr(folds_mod, "RegressionTreeSequence",
                            _ExplodingTree)
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=5, folds=4, seed=3)
        with pytest.raises(RuntimeError,
                           match="(?s)fold 0 failed.*fit exploded"):
            run_parallel_folds(matrix, y, config, jobs=2)
        assert fold_dirs(fold_tmp) == []

    def test_scheduler_crash_removes_fold_files(self, fold_tmp,
                                                monkeypatch):
        """An abnormal scheduler exit still removes the directory."""
        def explode(*args, **kwargs):
            assert len(fold_dirs(fold_tmp)) == 1  # written before crash
            raise RuntimeError("scheduler died")

        monkeypatch.setattr(scheduler, "run_jobs", explode)
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=4, folds=4, seed=3)
        with pytest.raises(RuntimeError, match="scheduler died"):
            run_parallel_folds(matrix, y, config, jobs=4)
        assert fold_dirs(fold_tmp) == []


class TestKindRegistry:
    def test_analysis_and_cv_fold_registered(self):
        assert resolve_kind("analysis").spec_from_dict == JobSpec.from_dict
        kind = resolve_kind("cv_fold")
        assert kind.execute is execute_fold
        assert kind.result_from_dict == FoldResult.from_dict

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="no.such.kind"):
            resolve_kind("no.such.kind")

    def test_lazy_import_in_fresh_process(self):
        """A process that never imported repro.runtime.folds (a pool
        worker receiving only the kind name) still resolves cv_fold."""
        import os
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = ("import sys\n"
                "from repro.runtime.jobs import resolve_kind\n"
                "assert 'repro.runtime.folds' not in sys.modules\n"
                "print(resolve_kind('cv_fold').name)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "cv_fold"
