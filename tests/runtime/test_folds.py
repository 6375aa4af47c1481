"""Cross-validation fold jobs, their one dataset transport, and how a
fold spec travels to a worker.

The transport tests guard three invariants: parallel-fold results are
bit-identical to the serial loop whichever way each fold ran (a fold
job mapping the ``folds`` entry its spec names, the parent recomputing
a fold whose job failed, or an in-process run when the store cannot be
written); no code path — normal completion, fold errors, scheduler
crashes — leaves a ``repro-folds-*`` directory behind; and no warm
worker keeps a fold dataset mapped once its CV has returned.
"""

import os
import pickle
import tempfile

import numpy as np
import pytest

from repro.core import cross_validation as cv_mod
from repro.core.config import AnalysisConfig
from repro.core.cross_validation import cross_validated_sse, fold_indices
from repro.core.regression_tree import RegressionTreeSequence
from repro.runtime import folds as folds_mod
from repro.runtime import graph as graph_mod
from repro.runtime import pool as pool_mod
from repro.runtime import scheduler
from repro.runtime.cache import ResultCache
from repro.runtime.folds import FoldResult, FoldSpec, run_parallel_folds
from repro.runtime.metrics import METRICS
from repro.sparse import CSRMatrix


def small_dataset(m=40, n=6, seed=0):
    rng = np.random.default_rng(seed)
    matrix = (rng.random((m, n)) < 0.5) * rng.integers(1, 10, (m, n))
    y = rng.normal(2.0, 0.5, m)
    return matrix.astype(float), y


def small_csr_dataset(seed=0):
    """``small_dataset`` with its matrix in the pipeline's CSR layout,
    the only one ``run_parallel_folds`` takes."""
    matrix, y = small_dataset(seed=seed)
    return CSRMatrix.from_dense(matrix), y


def make_spec(root, y, fold_index=0, folds=5, seed=3, k_max=6):
    return FoldSpec(root=str(root), fold_index=fold_index,
                    n_points=len(y), folds=folds, seed=seed,
                    k_max=k_max, min_leaf=1)


def put_dataset(root, matrix, y) -> None:
    """Write a fold dataset the way ``run_parallel_folds`` does."""
    folds_mod._put_dataset(ResultCache(root), CSRMatrix.from_dense(matrix),
                           y)


class TestFoldSpec:
    def test_key_stable_and_distinct(self):
        a = make_spec("root", np.zeros(40))
        b = make_spec("root", np.zeros(40))
        c = make_spec("root", np.zeros(40), fold_index=1)
        assert a.key == b.key
        assert a.key != c.key

    def test_round_trip(self):
        # A pool worker receives the pickled spec itself.
        spec = make_spec("root", np.zeros(40), fold_index=2)
        again = pickle.loads(pickle.dumps(spec))
        assert again == spec
        assert again.key == spec.key

    def test_kind_not_part_of_identity(self):
        assert FoldSpec.kind == "cv_fold"
        assert "kind" not in make_spec("root", np.zeros(40)).canonical()


class TestExecuteFold:
    def test_matches_serial_loop_body(self, tmp_path):
        matrix, y = small_dataset()
        put_dataset(tmp_path, matrix, y)
        spec = make_spec(tmp_path, y, fold_index=1)
        result = spec.execute()
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

    def test_missing_dataset_raises(self, tmp_path):
        spec = make_spec(tmp_path, np.zeros(40))
        with pytest.raises(RuntimeError, match="unreadable"):
            spec.execute()

    def test_result_round_trip(self):
        # A pool worker returns the pickled result itself.
        result = FoldResult(key="k", errors=(0.1, 1 / 3), reached=2)
        again = pickle.loads(pickle.dumps(result))
        assert again == result
        assert again.key == result.key


class TestRunParallelFolds:
    def test_serial_and_parallel_identical(self):
        matrix, y = small_csr_dataset()
        config = AnalysisConfig(k_max=6, folds=5, seed=3)
        one = run_parallel_folds(matrix, y, config, jobs=1)
        four = run_parallel_folds(matrix, y, config, jobs=4)
        np.testing.assert_array_equal(one, four)


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


@pytest.fixture
def fold_outcomes(monkeypatch):
    """Every fold-job outcome ``run_parallel_folds`` gets back, in order
    (a parent recompute would otherwise hide a broken transport)."""
    seen = []
    real = graph_mod.submit_graph

    def spy(*args, **kwargs):
        outcomes = real(*args, **kwargs)
        seen.extend(outcomes)
        return outcomes

    monkeypatch.setattr(graph_mod, "submit_graph", spy)
    return seen


def fold_dirs(root) -> list:
    return sorted(p.name for p in root.glob(f"{folds_mod.FOLDS_DIR_PREFIX}*"))


def ran_in_workers(outcomes) -> bool:
    return bool(outcomes) and all(
        o.ok and o.worker != f"pid-{os.getpid()}" for o in outcomes)


class TestTransportEquivalence:
    """Fold SSEs equal the serial loop's bit for bit at jobs 2 and 4: the
    first dataset on a cold pool, the second on the pool it warmed,
    whose workers mapped another dataset before and can see this one
    only through the store its fold specs name."""

    @staticmethod
    def check_against_serial(datasets, fold_outcomes) -> None:
        config = AnalysisConfig(k_max=6, folds=5, seed=3)
        for jobs in (2, 4):
            pool_mod.shutdown_default()
            for forked, (matrix, y) in zip((1, 0), datasets):
                serial = cross_validated_sse(matrix, y, config=config,
                                             jobs=1)
                spawns = METRICS.count("pool.spawns")
                fold_outcomes.clear()
                parallel = cross_validated_sse(matrix, y, config=config,
                                               jobs=jobs)
                assert parallel.tobytes() == serial.tobytes()
                assert ran_in_workers(fold_outcomes)
                assert METRICS.count("pool.spawns") == spawns + forked

    def test_parallel_and_serial_identical(self, fold_tmp, fold_outcomes):
        self.check_against_serial(
            [small_dataset(seed=1), small_dataset()], fold_outcomes)

    def test_csr_dataset_identical(self, fold_tmp, fold_outcomes):
        self.check_against_serial(
            [small_csr_dataset(seed=1), small_csr_dataset()],
            fold_outcomes)


def mapped_fold_files() -> dict:
    """``repro-folds-*`` paths each live pool worker maps, by pid."""
    held = {}
    for pid in pool_mod.default_pool().worker_pids():
        with open(f"/proc/{pid}/maps", encoding="utf-8",
                  errors="replace") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps
                     if folds_mod.FOLDS_DIR_PREFIX in line}
        if paths:
            held[pid] = sorted(paths)
    return held


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads /proc/<pid>/maps")
class TestWorkersKeepNothing:
    def test_no_worker_maps_a_fold_file_after_a_cv(self, fold_tmp,
                                                   fold_outcomes):
        """Regression: warm workers kept every fold dataset they had
        mapped, so the files the parent deleted stayed allocated until
        the workers were recycled, reaped or shut down."""
        config = AnalysisConfig(k_max=6, folds=5, seed=3)
        for seed in (1, 2):  # the second CV runs on the warm pool
            fold_outcomes.clear()
            cross_validated_sse(*small_dataset(seed=seed), config=config,
                                jobs=2)
            assert ran_in_workers(fold_outcomes)
            assert pool_mod.default_pool().is_warm
            assert mapped_fold_files() == {}


class _ExplodingTree(RegressionTreeSequence):
    def fit(self, matrix, y):
        raise ValueError("fit exploded")


class TestFailurePaths:
    def test_fold_job_raising_in_pool_reports_its_error(self, fold_tmp):
        """A fold job that blows up inside a worker surfaces its error
        while its sibling, reading the same dataset, completes."""
        matrix, y = small_dataset()
        put_dataset(fold_tmp, matrix, y)
        good, bad = scheduler.run_jobs(
            [make_spec(fold_tmp, y, fold_index=0),
             make_spec(fold_tmp, y, fold_index=99)], jobs=2)
        assert good.ok and good.worker != f"pid-{os.getpid()}"
        assert not bad.ok
        assert "IndexError" in bad.error

    def test_attach_failure_falls_back_to_parent_serial(self, fold_tmp,
                                                        fold_outcomes,
                                                        monkeypatch):
        """A worker that cannot map the dataset fails its fold job; the
        parent recomputes those folds from its own arrays — without
        poisoning the healthy pool — and the floats stay identical."""
        def refuse(self, kind, key):
            raise OSError("artifact vanished")

        matrix, y = small_csr_dataset()
        config = AnalysisConfig(k_max=6, folds=5, seed=3)
        serial = cross_validated_sse(matrix, y, config=config, jobs=1)
        # Patched before the pool forks (the parent never maps its own
        # dataset).
        monkeypatch.setattr(ResultCache, "load_arrays", refuse)
        respawns = METRICS.count("pool.respawns")
        result = run_parallel_folds(matrix, y, config, jobs=2)
        assert serial.tobytes() == result.tobytes()
        assert len(fold_outcomes) == config.folds
        assert all(not o.ok and o.worker == "pool"
                   and "artifact vanished" in o.error
                   for o in fold_outcomes)
        assert pool_mod.default_pool().is_warm
        assert METRICS.count("pool.respawns") == respawns
        assert fold_dirs(fold_tmp) == []

    def test_unwritable_store_runs_in_process(self, fold_tmp, monkeypatch):
        """A store that cannot be written runs the folds here: same
        floats, the fallback counted, no pool spawned."""
        def full_disk(self, kind, key, meta, spec=None, arrays=()):
            raise OSError("no space left on device")

        monkeypatch.setattr(ResultCache, "publish", full_disk)
        matrix, y = small_csr_dataset()
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
        matrix, y = small_csr_dataset()
        config = AnalysisConfig(k_max=5, folds=4, seed=3)
        run_parallel_folds(matrix, y, config, jobs=2)
        assert fold_dirs(fold_tmp) == []

    def test_failing_fold_removes_fold_files(self, fold_tmp, monkeypatch):
        """A fold that fails in its job and again in the parent raises
        an error naming the fold, with the job's traceback."""
        monkeypatch.setattr(cv_mod, "RegressionTreeSequence",
                            _ExplodingTree)
        matrix, y = small_csr_dataset()
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
        matrix, y = small_csr_dataset()
        config = AnalysisConfig(k_max=4, folds=4, seed=3)
        with pytest.raises(RuntimeError, match="scheduler died"):
            run_parallel_folds(matrix, y, config, jobs=4)
        assert fold_dirs(fold_tmp) == []


class TestFreshInterpreter:
    def test_unpickled_fold_spec_executes(self, tmp_path):
        """A process that never imported repro.runtime.folds (a pool
        worker built by another start method) unpickles a FoldSpec,
        executes it and gets the parent's FoldResult: pickle imports the
        spec's module."""
        import subprocess
        import sys

        import repro

        matrix, y = small_dataset()
        put_dataset(tmp_path, matrix, y)
        spec = make_spec(tmp_path, y, fold_index=3)
        (tmp_path / "spec.pickle").write_bytes(pickle.dumps(spec))
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = ("import pickle, sys\n"
                "raw = open(sys.argv[1], 'rb').read()\n"
                "assert 'repro.runtime.folds' not in sys.modules\n"
                "sys.stdout.buffer.write(pickle.dumps("
                "pickle.loads(raw).execute()))\n")
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "spec.pickle")],
            env=env, capture_output=True, check=True)
        assert pickle.loads(out.stdout) == spec.execute()
