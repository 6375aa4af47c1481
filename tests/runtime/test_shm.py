"""The shared-memory arena: zero-copy publication and its failure paths.

Everything here guards two invariants: parallel-fold results are
bit-identical no matter which transport carried the dataset (shm views,
pickled arrays, or the in-parent serial fallback), and no code path —
normal completion, fold errors, broken workers, scheduler crashes —
leaves a segment behind in ``/dev/shm``.
"""

import numpy as np
import pytest

from repro.core.config import AnalysisConfig
from repro.core.cross_validation import cross_validated_sse
from repro.runtime import pool as pool_mod
from repro.runtime import shm
from repro.runtime.cache import NullCache
from repro.runtime.folds import (
    FoldSpec,
    _init_worker_shm,
    dataset_token,
    run_parallel_folds,
)
from repro.sparse import CSRMatrix
from tests.runtime.test_folds import small_dataset

pytestmark = pytest.mark.skipif(not shm.shm_available(),
                                reason="POSIX shared memory unavailable")


@pytest.fixture(autouse=True)
def _no_leaks(monkeypatch):
    """Every test must end with zero live segments once the warm pool's
    arena cache is torn down (the ``atexit`` contract, exercised per
    test).  Segments held by the cache *during* a test are owned, not
    leaked.  Two usable CPUs are assumed, so parallel folds reach the
    pool on any box."""
    monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 2)
    pool_mod.shutdown_default()
    assert shm.live_segments() == ()
    yield
    pool_mod.shutdown_default()
    leaked = shm.live_segments()
    shm.reap()
    shm.detach_all()
    assert leaked == ()


class TestArena:
    def test_dense_round_trip_read_only(self):
        matrix, y = small_dataset()
        token = dataset_token(matrix, y)
        with shm.SharedArena() as arena:
            handle = arena.publish(token, matrix, y)
            assert handle is not None
            assert handle.token == token
            assert not handle.sparse
            got_matrix, got_y = shm.attach_dataset(handle)
            np.testing.assert_array_equal(got_matrix, matrix)
            np.testing.assert_array_equal(got_y, y)
            assert not got_matrix.flags.writeable
            assert not got_y.flags.writeable
            with pytest.raises(ValueError):
                got_matrix[0, 0] = 99.0
        shm.detach_all()

    def test_csr_round_trip(self):
        matrix, y = small_dataset()
        sparse = CSRMatrix.from_dense(matrix)
        token = dataset_token(sparse, y)
        with shm.SharedArena() as arena:
            handle = arena.publish(token, sparse, y)
            assert handle.sparse
            got_matrix, got_y = shm.attach_dataset(handle)
            np.testing.assert_array_equal(got_matrix.toarray(), matrix)
            np.testing.assert_array_equal(got_y, y)
        shm.detach_all()

    def test_handle_is_small_and_picklable(self):
        """Only the layout descriptor crosses the process boundary."""
        import pickle

        matrix, y = small_dataset(m=200, n=40)
        with shm.SharedArena() as arena:
            handle = arena.publish(dataset_token(matrix, y), matrix, y)
            payload = pickle.dumps(handle)
            assert len(payload) < 2048
            assert pickle.loads(payload) == handle
            assert handle.nbytes == matrix.nbytes + y.nbytes

    def test_destroy_unlinks_and_is_idempotent(self):
        matrix, y = small_dataset()
        arena = shm.SharedArena()
        arena.publish(dataset_token(matrix, y), matrix, y)
        assert len(shm.live_segments()) == 1
        arena.destroy()
        assert shm.live_segments() == ()
        arena.destroy()

    def test_context_manager_unlinks_on_exception(self):
        matrix, y = small_dataset()
        with pytest.raises(RuntimeError, match="boom"):
            with shm.SharedArena() as arena:
                arena.publish(dataset_token(matrix, y), matrix, y)
                raise RuntimeError("boom")
        assert shm.live_segments() == ()

    def test_reap_catches_orphaned_segments(self):
        matrix, y = small_dataset()
        arena = shm.SharedArena()
        arena.publish(dataset_token(matrix, y), matrix, y)
        assert shm.reap() == 1
        assert shm.live_segments() == ()

    def test_publish_returns_none_when_shm_broken(self, monkeypatch):
        class Broken:
            def SharedMemory(self, *args, **kwargs):
                raise OSError("no shm here")

        monkeypatch.setattr(shm, "_shared_memory", lambda: Broken())
        matrix, y = small_dataset()
        arena = shm.SharedArena()
        assert arena.publish(dataset_token(matrix, y), matrix, y) is None
        assert shm.live_segments() == ()


class TestTokenMemo:
    def test_memoized_on_the_live_objects(self):
        from repro.runtime import folds as folds_mod
        matrix, y = small_dataset()
        token = dataset_token(matrix, y)
        assert folds_mod._TOKEN_MEMO[(id(matrix), id(y))] == token
        assert dataset_token(matrix, y) == token

    def test_memo_entry_dies_with_the_arrays(self):
        from repro.runtime import folds as folds_mod
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


class TestTransportEquivalence:
    def test_shm_pickle_and_serial_identical(self):
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=6, folds=5, seed=3)
        serial = cross_validated_sse(matrix, y, config=config, jobs=1)
        via_shm = run_parallel_folds(matrix, y, config, jobs=4, shm=True)
        via_pickle = run_parallel_folds(matrix, y, config, jobs=4,
                                        shm=False)
        np.testing.assert_array_equal(serial, via_shm)
        np.testing.assert_array_equal(serial, via_pickle)
        # The published arena stays warm in the pool's cache (owned, not
        # leaked — the fixture proves teardown clears it).
        assert len(shm.live_segments()) == len(pool_mod.arena_cache()) == 1

    def test_csr_dataset_over_shm_identical(self):
        matrix, y = small_dataset()
        sparse = CSRMatrix.from_dense(matrix)
        config = AnalysisConfig(k_max=5, folds=4, seed=7)
        serial = cross_validated_sse(sparse, y, config=config, jobs=1)
        parallel = run_parallel_folds(sparse, y, config, jobs=3, shm=True)
        np.testing.assert_array_equal(serial, parallel)
        assert len(shm.live_segments()) == len(pool_mod.arena_cache()) == 1

    def test_publish_failure_degrades_to_pickle_transport(self,
                                                          monkeypatch):
        """shm unavailable -> the pickled initializer path, same floats."""
        monkeypatch.setattr(shm.SharedArena, "publish",
                            lambda self, token, matrix, y: None)
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=5, folds=4, seed=3)
        result = run_parallel_folds(matrix, y, config, jobs=3, shm=True)
        serial = cross_validated_sse(matrix, y, config=config, jobs=1)
        np.testing.assert_array_equal(serial, result)
        assert shm.live_segments() == ()


class TestFailurePaths:
    def test_fold_job_raising_in_pool_reports_and_unlinks(self):
        """A fold job that blows up inside a worker surfaces its error
        (the sibling job still completes) and the arena still unlinks
        every segment."""
        from repro.runtime import folds as folds_mod
        from repro.runtime.scheduler import run_jobs

        matrix, y = small_dataset()
        token = dataset_token(matrix, y)
        folds_mod.publish_dataset(token, matrix, y)
        try:
            with shm.SharedArena() as arena:
                handle = arena.publish(token, matrix, y)

                def spec(fold_index):
                    return FoldSpec(dataset_token=token,
                                    fold_index=fold_index,
                                    n_points=len(y), folds=5, seed=3,
                                    k_max=6, min_leaf=1)

                good, bad = run_jobs([spec(0), spec(99)], jobs=2,
                                     cache=NullCache(),
                                     initializer=_init_worker_shm,
                                     initargs=(handle,))
                assert good.ok
                assert not bad.ok
                assert "IndexError" in bad.error
        finally:
            folds_mod._DATASETS.pop(token, None)
        assert shm.live_segments() == ()

    def test_attach_failure_falls_back_to_parent_serial(self, monkeypatch):
        """A worker that cannot attach the segment raises its setup hook
        (WorkerSetupError); the scheduler recomputes those folds in the
        parent — without poisoning the healthy pool — and results stay
        identical."""
        def refuse(handle):
            raise OSError("segment vanished")

        monkeypatch.setattr(shm, "attach_dataset", refuse)
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=6, folds=5, seed=3)
        result = run_parallel_folds(matrix, y, config, jobs=2, shm=True)
        serial = cross_validated_sse(matrix, y, config=config, jobs=1)
        np.testing.assert_array_equal(serial, result)
        assert len(shm.live_segments()) == len(pool_mod.arena_cache()) == 1

    def test_scheduler_crash_unlinks_arena(self, monkeypatch):
        """An abnormal scheduler exit still reaches the arena's finally."""
        from repro.runtime import scheduler

        def explode(*args, **kwargs):
            assert len(shm.live_segments()) == 1  # published before crash
            raise RuntimeError("scheduler died")

        monkeypatch.setattr(scheduler, "run_jobs", explode)
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=4, folds=4, seed=3)
        with pytest.raises(RuntimeError, match="scheduler died"):
            run_parallel_folds(matrix, y, config, jobs=4, shm=True)
        assert shm.live_segments() == ()

    def test_no_segment_files_left_in_dev_shm(self):
        """Belt and braces: the OS view agrees nothing outlives the
        pool shutdown."""
        import os
        from pathlib import Path

        dev_shm = Path("/dev/shm")
        if not dev_shm.is_dir():
            pytest.skip("no /dev/shm on this platform")
        pid = os.getpid()
        matrix, y = small_dataset()
        config = AnalysisConfig(k_max=5, folds=4, seed=3)
        run_parallel_folds(matrix, y, config, jobs=2, shm=True)
        # While the pool is warm the cached segment is visible — owned.
        cached = [p.name
                  for p in dev_shm.glob(f"{shm.SEGMENT_PREFIX}-{pid}-*")]
        assert len(cached) == len(pool_mod.arena_cache())
        # The atexit path (exercised eagerly) must leave the OS clean.
        pool_mod.shutdown_default()
        mine = [p.name for p in dev_shm.glob(f"{shm.SEGMENT_PREFIX}-{pid}-*")]
        assert mine == []
