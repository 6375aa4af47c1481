"""Tests for EIPV construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CSRMatrix
from repro.trace.bbv import build_bbvs
from repro.trace.eipv import (
    CHUNK_INTERVALS,
    EIPVDataset,
    build_eipvs,
    build_per_thread_eipvs,
)
from repro.trace.events import SampleTrace
from tests.trace.reference_eipvs import (
    build_eipvs_reference,
    build_per_thread_eipvs_reference,
)
from tests.trace.store_helpers import store_to_trace, trace_to_store


def synthetic_trace(n_samples, period=1_000, n_threads=2, n_eips=20,
                    seed=0):
    rng = np.random.default_rng(seed)
    cycles = rng.uniform(500, 3000, n_samples)
    return SampleTrace(
        eips=0x1000 + 16 * rng.integers(0, n_eips, n_samples),
        thread_ids=rng.integers(0, n_threads, n_samples).astype(np.int32),
        process_ids=np.zeros(n_samples, dtype=np.int16),
        instructions=np.full(n_samples, period, dtype=np.int64),
        cycles=cycles,
        work_cycles=cycles * 0.5,
        fe_cycles=cycles * 0.2,
        exe_cycles=cycles * 0.2,
        other_cycles=cycles * 0.1,
        processes=("app",),
        sample_period=period,
        frequency_mhz=900,
        workload_name="synthetic",
    )


def _assert_datasets_identical(got, expected):
    """Bit-for-bit dataset equality: same dtypes, same bytes.

    The matrices are compared dense, through ``toarray()``, and as CSR
    triplets, whose order the tree's bit-identity depends on.
    """
    assert isinstance(got.matrix, CSRMatrix)
    dense, expected_dense = got.matrix.toarray(), expected.matrix.toarray()
    assert dense.dtype == expected_dense.dtype
    np.testing.assert_array_equal(dense, expected_dense)
    for part in ("indptr", "indices", "data"):
        x, y = getattr(got.matrix, part), getattr(expected.matrix, part)
        assert x.dtype == y.dtype, part
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(got.cpis, expected.cpis)
    np.testing.assert_array_equal(got.eip_index, expected.eip_index)
    np.testing.assert_array_equal(got.thread_ids, expected.thread_ids)
    assert got.interval_instructions == expected.interval_instructions
    assert got.workload_name == expected.workload_name


class TestBuildEIPVs:
    def test_shape_and_interval_count(self):
        trace = synthetic_trace(100, period=1_000)
        dataset = build_eipvs(trace, interval_instructions=10_000)
        assert dataset.n_intervals == 10
        assert dataset.matrix.shape[0] == 10

    def test_rows_sum_to_samples_per_interval(self):
        trace = synthetic_trace(100, period=1_000)
        dataset = build_eipvs(trace, interval_instructions=10_000)
        assert (dataset.matrix.sum(axis=1) == 10).all()

    def test_trailing_partial_interval_dropped(self):
        trace = synthetic_trace(107, period=1_000)
        dataset = build_eipvs(trace, interval_instructions=10_000)
        assert dataset.n_intervals == 10

    def test_interval_cpi_matches_cycle_totals(self):
        trace = synthetic_trace(30, period=1_000)
        dataset = build_eipvs(trace, interval_instructions=10_000)
        expected = trace.cycles[:10].sum() / 10_000
        assert dataset.cpis[0] == pytest.approx(expected)

    def test_histogram_counts_correct(self):
        trace = synthetic_trace(20, period=1_000, n_eips=3)
        dataset = build_eipvs(trace, interval_instructions=10_000)
        matrix = dataset.matrix.toarray()
        for j in range(dataset.n_intervals):
            window = trace.eips[j * 10:(j + 1) * 10]
            for i, eip in enumerate(dataset.eip_index):
                assert matrix[j, i] == (window == eip).sum()

    def test_interval_shorter_than_period_rejected(self):
        trace = synthetic_trace(10, period=1_000)
        with pytest.raises(ValueError):
            build_eipvs(trace, interval_instructions=500)

    def test_too_short_trace_rejected(self):
        trace = synthetic_trace(5, period=1_000)
        with pytest.raises(ValueError):
            build_eipvs(trace, interval_instructions=10_000)

    def test_variance_and_mean(self):
        trace = synthetic_trace(100, period=1_000)
        dataset = build_eipvs(trace, interval_instructions=10_000)
        assert dataset.cpi_variance == pytest.approx(np.var(dataset.cpis))
        assert dataset.cpi_mean == pytest.approx(np.mean(dataset.cpis))


class TestPerThread:
    def test_points_tagged_by_thread(self):
        trace = synthetic_trace(400, period=1_000, n_threads=2)
        dataset = build_per_thread_eipvs(trace,
                                         interval_instructions=10_000)
        assert set(np.unique(dataset.thread_ids)) == {0, 1}
        assert (dataset.matrix.sum(axis=1) == 10).all()

    def test_threads_with_too_few_samples_dropped(self):
        trace = synthetic_trace(60, period=1_000, n_threads=1)
        # Rewrite tags: thread 0 gets 50 samples, thread 1 only 10.
        trace.thread_ids[:] = 0
        trace.thread_ids[50:] = 1
        dataset = build_per_thread_eipvs(trace,
                                         interval_instructions=20_000)
        assert set(np.unique(dataset.thread_ids)) == {0}
        assert dataset.n_intervals == 2  # 50 samples -> 2 full intervals

    def test_no_thread_long_enough_raises(self):
        trace = synthetic_trace(30, period=1_000, n_threads=6)
        with pytest.raises(ValueError):
            build_per_thread_eipvs(trace, interval_instructions=30_000)

    def test_union_feature_space(self):
        trace = synthetic_trace(400, period=1_000, n_threads=2)
        merged = build_eipvs(trace, interval_instructions=10_000)
        threaded = build_per_thread_eipvs(trace,
                                          interval_instructions=10_000)
        assert set(threaded.eip_index) >= set(merged.eip_index)

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_identical_to_whole_trace_reference(self, tmp_path, on_disk):
        """More than one chunk of intervals per thread, and a tail.

        ``on_disk`` builds from the trace read back from a
        :class:`TraceStore`; the reference is always built in memory.
        """
        trace = synthetic_trace(6_005, period=1_000, n_threads=3,
                                n_eips=300)
        assert len(trace) // 3 // 7 > CHUNK_INTERVALS
        source = (store_to_trace(trace_to_store(trace, tmp_path / "store"))
                  if on_disk else trace)
        got = build_per_thread_eipvs(source, 7_000)
        _assert_datasets_identical(
            got, build_per_thread_eipvs_reference(trace, 7_000))


class TestDataset:
    def make(self):
        trace = synthetic_trace(100, period=1_000)
        return build_eipvs(trace, interval_instructions=10_000)

    def test_subset(self):
        dataset = self.make()
        sub = dataset.subset(np.array([0, 2, 4]))
        assert sub.n_intervals == 3
        assert sub.n_eips == dataset.n_eips

    def test_prune_features_keeps_hottest(self):
        dataset = self.make()
        pruned = dataset.prune_features(5)
        assert pruned.n_eips == 5
        kept_totals = pruned.matrix.sum(axis=0)
        all_totals = np.sort(dataset.matrix.sum(axis=0))[::-1]
        assert kept_totals.sum() == all_totals[:5].sum()

    def test_prune_noop_when_smaller(self):
        dataset = self.make()
        assert dataset.prune_features(10_000) is dataset

    def test_validation(self):
        dataset = self.make()
        with pytest.raises(ValueError):
            EIPVDataset(matrix=dataset.matrix, cpis=dataset.cpis[:-1],
                        eip_index=dataset.eip_index,
                        interval_instructions=10_000)
        with pytest.raises(ValueError):
            EIPVDataset(matrix=dataset.matrix, cpis=dataset.cpis,
                        eip_index=dataset.eip_index[:-1],
                        interval_instructions=10_000)


@settings(max_examples=20, deadline=None)
@given(n_samples=st.integers(20, 300),
       samples_per_interval=st.integers(2, 20))
def test_eipv_invariants(n_samples, samples_per_interval):
    """Counts conserve samples; CPI equals cycles over instructions."""
    period = 1_000
    trace = synthetic_trace(n_samples, period=period)
    interval = samples_per_interval * period
    if n_samples < samples_per_interval:
        return
    dataset = build_eipvs(trace, interval_instructions=interval)
    assert (dataset.matrix.sum(axis=1) == samples_per_interval).all()
    assert dataset.matrix.sum() == dataset.n_intervals * samples_per_interval
    for j in range(dataset.n_intervals):
        window = slice(j * samples_per_interval,
                       (j + 1) * samples_per_interval)
        expected = trace.cycles[window].sum() / interval
        assert dataset.cpis[j] == pytest.approx(expected)


class TestSparseBuilds:
    def test_every_builder_returns_csr(self, tmp_path):
        trace = synthetic_trace(200, period=1_000, n_threads=2)
        store = trace_to_store(trace, tmp_path / "store")
        for dataset in (build_eipvs(trace, 10_000),
                        EIPVDataset.from_store(store, 10_000),
                        build_per_thread_eipvs(trace, 10_000),
                        build_bbvs(trace, 10_000)):
            assert isinstance(dataset.matrix, CSRMatrix)
            assert dataset.matrix.dtype == np.int32

    def test_sparse_build_matches_dense(self):
        trace = synthetic_trace(200, period=1_000)
        dense = build_eipvs_reference(trace, interval_instructions=10_000)
        sparse = build_eipvs(trace, interval_instructions=10_000)
        _assert_datasets_identical(sparse, dense)

    def test_sparse_per_thread_matches_dense(self):
        trace = synthetic_trace(400, period=1_000, n_threads=3)
        dense = build_per_thread_eipvs_reference(trace,
                                                 interval_instructions=10_000)
        sparse = build_per_thread_eipvs(trace, interval_instructions=10_000)
        _assert_datasets_identical(sparse, dense)

    def test_interval_cpis_match_add_at(self):
        """bincount-with-weights accumulates like the old np.add.at."""
        trace = synthetic_trace(100, period=1_000)
        dataset = build_eipvs(trace, interval_instructions=10_000)
        rows = np.repeat(np.arange(10), 10)
        cycles = np.zeros(10)
        np.add.at(cycles, rows, trace.cycles[:100])
        np.testing.assert_array_equal(dataset.cpis, cycles / 10_000)

    def test_sparse_subset_and_prune(self):
        trace = synthetic_trace(200, period=1_000)
        dataset = build_eipvs(trace, interval_instructions=10_000)
        dense = build_eipvs_reference(trace, 10_000).matrix.toarray()
        rows = np.array([1, 3, 17])
        np.testing.assert_array_equal(
            dataset.subset(rows).matrix.toarray(), dense[rows])
        totals = dense.sum(axis=0)
        hottest = np.sort(np.lexsort((np.arange(len(totals)), -totals))[:5])
        np.testing.assert_array_equal(
            dataset.prune_features(5).matrix.toarray(), dense[:, hottest])

    def test_prune_tie_break_is_lowest_column(self):
        """Equal-count columns: the earlier column index wins."""
        matrix = np.array([[2, 0, 2, 1],
                           [0, 2, 0, 1]], dtype=np.int32)  # totals 2,2,2,2
        dataset = EIPVDataset(matrix=matrix,
                              cpis=np.array([1.0, 2.0]),
                              eip_index=np.array([10, 20, 30, 40]),
                              interval_instructions=1_000)
        pruned = dataset.prune_features(2)
        np.testing.assert_array_equal(pruned.eip_index, [10, 20])
        np.testing.assert_array_equal(pruned.matrix.toarray(), matrix[:, :2])

    def test_dense_matrix_is_stored_as_csr(self):
        matrix = np.array([[0, 3, 0],
                           [1, 0, 0]], dtype=np.int32)
        dataset = EIPVDataset(matrix=matrix, cpis=np.ones(2),
                              eip_index=np.array([1, 2, 3]),
                              interval_instructions=1_000)
        expected = CSRMatrix.from_dense(matrix)
        assert isinstance(dataset.matrix, CSRMatrix)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(dataset.matrix, part),
                                          getattr(expected, part))
        assert dataset.matrix.shape == expected.shape

    def test_thread_ids_default_none_fills_untagged(self):
        dataset = EIPVDataset(matrix=np.ones((3, 2), dtype=np.int32),
                              cpis=np.ones(3),
                              eip_index=np.array([1, 2]),
                              interval_instructions=1_000)
        np.testing.assert_array_equal(dataset.thread_ids, [-1, -1, -1])
