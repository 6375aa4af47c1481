"""The out-of-core tier: TraceStore, streaming collect, streaming EIPVs.

The invariant under test everywhere: the on-disk path produces arrays
bit-identical to the in-memory path — same trace columns from
``collect_to_store`` as from ``collect``, same EIPV matrix/CPIs from
``from_store`` as from ``build_eipvs`` — at any chunk size, including
chunk sizes that split execution slices and leave a discarded tail.
"""

import json

import numpy as np
import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.stages import load_eipv_dataset, put_eipv
from repro.sparse import CSRMatrix
from repro.trace.eipv import EIPVDataset, build_eipvs
from repro.trace.sampler import SamplingDriver
from repro.trace.storage import _TRACE_COLUMNS, TraceStore
from tests.trace.test_sampler import (
    _assert_traces_identical,
    _randomized_system,
    make_system,
)


def collect_both(system_factory, total, chunk_samples, tmp_path):
    """An in-memory trace and a store-collected trace of the same system."""
    trace = SamplingDriver(system_factory()).collect(total)
    driver = SamplingDriver(system_factory())
    driver.collect_to_store(TraceStore.create(tmp_path / "store"), total,
                            chunk_samples=chunk_samples)
    return trace, TraceStore.open(tmp_path / "store")


class TestStoreLifecycle:
    def test_round_trip_from_trace(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        TraceStore.from_trace(trace, tmp_path / "store")
        store = TraceStore.open(tmp_path / "store")
        assert len(store) == len(trace)
        _assert_traces_identical(store.as_trace(), trace)

    def test_columns_are_plain_npy_memmaps(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        TraceStore.from_trace(trace, tmp_path / "store")
        store = TraceStore.open(tmp_path / "store")
        eips = store.column("eips")
        assert isinstance(eips, np.memmap)
        assert not eips.flags.writeable
        np.testing.assert_array_equal(np.asarray(eips), trace.eips)
        # and np.load reads the file without going through the store
        raw = np.load(tmp_path / "store" / "cycles.npy")
        np.testing.assert_array_equal(raw, trace.cycles)

    def test_unfinalized_store_is_not_openable(self, tmp_path):
        store = TraceStore.create(tmp_path / "partial")
        store.append({name: np.zeros(3, dtype=np.int64)
                      for name in _TRACE_COLUMNS})
        store.close()
        assert not TraceStore.is_store(tmp_path / "partial")
        with pytest.raises(FileNotFoundError, match="not a trace store"):
            TraceStore.open(tmp_path / "partial")

    def test_newer_format_refused(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        TraceStore.from_trace(trace, tmp_path / "store")
        header_path = tmp_path / "store" / "header.json"
        header = json.loads(header_path.read_text())
        header["format"] = 99
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="format 99"):
            TraceStore.open(tmp_path / "store")

    def test_unknown_column_rejected(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        TraceStore.from_trace(trace, tmp_path / "store")
        store = TraceStore.open(tmp_path / "store")
        with pytest.raises(KeyError):
            store.column("no_such_column")


class TestStreamingCollect:
    @pytest.mark.parametrize("chunk_samples", [1, 7, 64, 10_000])
    def test_identical_to_in_memory_collect(self, tmp_path, chunk_samples):
        trace, store = collect_both(make_system, 503_331, chunk_samples,
                                    tmp_path)
        _assert_traces_identical(store.as_trace(), trace)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_identical_on_randomized_systems(self, tmp_path, seed):
        """Multi-part plans, modulators, several processes, split slices."""
        trace, store = collect_both(lambda: _randomized_system(seed),
                                    1_050_000, 13, tmp_path)
        _assert_traces_identical(store.as_trace(), trace)

    def test_run_shorter_than_period_rejected(self, tmp_path):
        driver = SamplingDriver(make_system())
        with pytest.raises(ValueError, match="run too short"):
            driver.collect_to_store(TraceStore.create(tmp_path / "s"),
                                    driver.period - 1)

    def test_bad_chunk_size_rejected(self, tmp_path):
        driver = SamplingDriver(make_system())
        with pytest.raises(ValueError, match="chunk_samples"):
            driver.collect_to_store(TraceStore.create(tmp_path / "s"),
                                    500_000, chunk_samples=0)


class TestFromStore:
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("chunk_intervals", [1, 3, 1000])
    def test_identical_to_build_eipvs(self, tmp_path, sparse,
                                      chunk_intervals):
        trace, store = collect_both(lambda: _randomized_system(2),
                                    1_050_000, 37, tmp_path)
        interval = trace.sample_period * 7
        expected = build_eipvs(trace, interval, sparse=sparse)
        got = EIPVDataset.from_store(store, interval, sparse=sparse,
                                     chunk_intervals=chunk_intervals)
        if sparse:
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(
                    getattr(got.matrix, part), getattr(expected.matrix, part))
        else:
            assert got.matrix.dtype == expected.matrix.dtype
            np.testing.assert_array_equal(got.matrix, expected.matrix)
        np.testing.assert_array_equal(got.cpis, expected.cpis)
        np.testing.assert_array_equal(got.eip_index, expected.eip_index)
        assert got.interval_instructions == expected.interval_instructions
        assert got.workload_name == trace.workload_name

    def test_validation_matches_build_eipvs(self, tmp_path):
        _, store = collect_both(make_system, 500_000, 64, tmp_path)
        with pytest.raises(ValueError,
                           match="interval shorter than the sampling"):
            EIPVDataset.from_store(store, store.sample_period // 2)
        with pytest.raises(ValueError, match="too short for even one"):
            EIPVDataset.from_store(store,
                                   store.sample_period * (len(store) + 1))


class TestEipvPersistenceFormats:
    """EIPV datasets persist as stage artifacts (``put_eipv``), CSR-native
    and pickle-free."""

    def test_sparse_round_trips_as_csr(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        dataset = build_eipvs(trace, trace.sample_period * 5, sparse=True)
        store = ResultCache(tmp_path)
        put_eipv(store, "s" * 64, dataset)
        again = load_eipv_dataset(store, "s" * 64)
        assert again.is_sparse
        assert isinstance(again.matrix, CSRMatrix)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(again.matrix, part),
                                          getattr(dataset.matrix, part))
        np.testing.assert_array_equal(again.cpis, dataset.cpis)
        np.testing.assert_array_equal(again.eip_index, dataset.eip_index)
        assert again.interval_instructions == dataset.interval_instructions

    def test_sparse_file_contains_no_pickled_objects(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        dataset = build_eipvs(trace, trace.sample_period * 5, sparse=True)
        store = ResultCache(tmp_path)
        put_eipv(store, "s" * 64, dataset)
        # allow_pickle=False: loading every array proves the artifact
        # holds only plain arrays.
        files = sorted(store.entry_dir("eipv", "s" * 64).glob("*.npy"))
        for path in files:
            np.load(path, allow_pickle=False)
        assert {"matrix_indptr.npy", "matrix_indices.npy",
                "matrix_data.npy"} <= {path.name for path in files}
