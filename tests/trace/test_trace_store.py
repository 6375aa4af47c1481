"""The out-of-core tier: TraceStore, streaming collect, streaming EIPVs.

The invariant under test everywhere: every path produces the arrays of
the test suite's reference builds — the same trace columns as the
one-period-at-a-time loop (``reference_sampler.py``) from
``collect_to_store`` and from ``collect``, the same EIPV matrix/CPIs as
the whole-trace build (``reference_eipvs.py``) from ``from_store`` and
from ``build_eipvs`` — at any chunk size, including chunk sizes that
split execution slices and leave a discarded tail.
"""

import json

import numpy as np
import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.stages import load_eipv_dataset, put_eipv
from repro.trace.eipv import EIPVDataset, build_eipvs
from repro.trace.events import TRACE_COLUMNS, SampleTrace
from repro.trace.sampler import CHUNK_SAMPLES, SamplingDriver
from repro.trace.storage import TraceStore
from tests.runtime.test_artifacts import split_entry
from tests.trace.reference_eipvs import build_eipvs_reference
from tests.trace.reference_sampler import collect_reference
from tests.trace.store_helpers import store_to_trace, trace_to_store
from tests.trace.test_eipv import _assert_datasets_identical
from tests.trace.test_sampler import (
    _assert_traces_identical,
    _randomized_system,
    make_system,
)


def collect_both(system_factory, total, chunk_samples, tmp_path):
    """The reference loop's trace and a store-collected trace of the
    same system."""
    trace = collect_reference(SamplingDriver(system_factory()), total)
    driver = SamplingDriver(system_factory())
    driver.collect_to_store(TraceStore.create(tmp_path / "store"), total,
                            chunk_samples=chunk_samples)
    return trace, TraceStore.open(tmp_path / "store")


class TestStoreLifecycle:
    def test_round_trip_from_trace(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        trace_to_store(trace, tmp_path / "store")
        store = TraceStore.open(tmp_path / "store")
        assert len(store) == len(trace)
        _assert_traces_identical(store_to_trace(store), trace)

    def test_columns_are_plain_npy_memmaps(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        trace_to_store(trace, tmp_path / "store")
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
                      for name in TRACE_COLUMNS})
        store.close()
        assert not TraceStore.is_store(tmp_path / "partial")
        with pytest.raises(FileNotFoundError, match="not a trace store"):
            TraceStore.open(tmp_path / "partial")

    def test_newer_format_refused(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        trace_to_store(trace, tmp_path / "store")
        header_path = tmp_path / "store" / "header.json"
        header = json.loads(header_path.read_text())
        header["format"] = 99
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="format 99"):
            TraceStore.open(tmp_path / "store")

    def test_unknown_column_rejected(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        trace_to_store(trace, tmp_path / "store")
        store = TraceStore.open(tmp_path / "store")
        with pytest.raises(KeyError):
            store.column("no_such_column")


class TestStreamingCollect:
    @pytest.mark.parametrize("chunk_samples", [1, 7, 64, 10_000])
    def test_identical_to_in_memory_collect(self, tmp_path, chunk_samples):
        trace, store = collect_both(make_system, 503_331, chunk_samples,
                                    tmp_path)
        _assert_traces_identical(store_to_trace(store), trace)
        _assert_traces_identical(
            SamplingDriver(make_system()).collect(503_331), trace)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_identical_on_randomized_systems(self, tmp_path, seed):
        """Multi-part plans, modulators, several processes, split slices."""
        trace, store = collect_both(lambda: _randomized_system(seed),
                                    1_050_000, 13, tmp_path)
        _assert_traces_identical(store_to_trace(store), trace)

    def test_in_memory_collect_spans_chunks(self):
        """A run longer than one chunk: ``collect`` concatenates chunks."""
        total = (CHUNK_SAMPLES + 1_000) * 1_000 + 333
        trace = SamplingDriver(make_system(sample_period=1_000)).collect(
            total)
        assert len(trace) > CHUNK_SAMPLES
        _assert_traces_identical(trace, collect_reference(
            SamplingDriver(make_system(sample_period=1_000)), total))

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
    """``on_disk`` picks the source: the on-disk store, or the in-memory
    trace (which ``build_eipvs`` reads)."""

    @pytest.mark.parametrize("on_disk", [False, True])
    @pytest.mark.parametrize("chunk_intervals", [1, 3, 1000])
    def test_identical_to_build_eipvs(self, tmp_path, on_disk,
                                      chunk_intervals):
        trace, store = collect_both(lambda: _randomized_system(2),
                                    1_050_000, 37, tmp_path)
        interval = trace.sample_period * 7
        expected = build_eipvs_reference(trace, interval)
        _assert_datasets_identical(
            EIPVDataset.from_store(store if on_disk else trace, interval,
                                   chunk_intervals=chunk_intervals),
            expected)
        if not on_disk:
            _assert_datasets_identical(build_eipvs(trace, interval),
                                       expected)

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_tail_samples_stay_out_of_vocabulary(self, tmp_path, on_disk):
        """Samples past the last whole interval add no EIP column, even
        when the chunk reaches past them."""
        n = 23  # 4 intervals of 5 samples, then a 3-sample tail
        eips = np.tile([0x10, 0x20], n)[:n].astype(np.int64)
        eips[-1] = 0x999
        cycles = np.linspace(1_000.0, 3_000.0, n)
        trace = SampleTrace(
            eips=eips, thread_ids=np.zeros(n, dtype=np.int32),
            process_ids=np.zeros(n, dtype=np.int16),
            instructions=np.full(n, 1_000, dtype=np.int64),
            cycles=cycles, work_cycles=cycles, fe_cycles=0 * cycles,
            exe_cycles=0 * cycles, other_cycles=0 * cycles,
            processes=("app",), sample_period=1_000, frequency_mhz=900,
            workload_name="tail")
        source = (trace_to_store(trace, tmp_path / "store")
                  if on_disk else trace)
        expected = build_eipvs_reference(trace, 5_000)
        assert 0x999 not in expected.eip_index
        for chunk_intervals in (1, 3, 1000):
            _assert_datasets_identical(
                EIPVDataset.from_store(source, 5_000,
                                       chunk_intervals=chunk_intervals),
                expected)

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
        dataset = build_eipvs(trace, trace.sample_period * 5)
        store = ResultCache(tmp_path)
        put_eipv(store, "s" * 64, dataset)
        # thread_ids included: a merged dataset's are all -1, and the
        # entry stores none.
        _assert_datasets_identical(load_eipv_dataset(store, "s" * 64),
                                   dataset)

    def test_entry_holds_only_the_merged_dataset_arrays(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        store = ResultCache(tmp_path)
        put_eipv(store, "s" * 64,
                 build_eipvs(trace, trace.sample_period * 5))
        names = [path.name
                 for path in store.entry_dir("eipv", "s" * 64).iterdir()]
        assert names == ["entry"]
        assert set(store.header("eipv", "s" * 64)["columns"]) == {
            "cpis", "eip_index", "matrix_data", "matrix_indices",
            "matrix_indptr"}

    @pytest.mark.parametrize("column, value", [
        ("matrix_indices", 10**9),   # a column index past the last EIP
        ("matrix_indptr", -1),       # a row pointer that goes backwards
    ])
    def test_damaged_matrix_quarantines_the_entry(self, tmp_path, column,
                                                  value):
        """Arrays read from an entry are validated like a caller's: a
        triplet that breaks a CSR invariant inside a sound file reads as
        a miss and moves the entry aside."""
        trace = SamplingDriver(make_system()).collect(500_000)
        store = ResultCache(tmp_path)
        put_eipv(store, "s" * 64,
                 build_eipvs(trace, trace.sample_period * 5))
        path = store.entry_path("eipv", "s" * 64)
        header, columns = split_entry(path)
        raw = bytearray(path.read_bytes())
        at = len(raw) - len(columns) + header["columns"][column]["offset"]
        raw[at + 8:at + 16] = np.int64(value).tobytes()
        path.write_bytes(bytes(raw))
        assert load_eipv_dataset(store, "s" * 64) is None
        assert store.has("eipv", "s" * 64) is False
        assert len(store.quarantined()) == 1

    def test_sparse_file_contains_no_pickled_objects(self, tmp_path):
        trace = SamplingDriver(make_system()).collect(500_000)
        dataset = build_eipvs(trace, trace.sample_period * 5)
        store = ResultCache(tmp_path)
        put_eipv(store, "s" * 64, dataset)
        # Every column is a plain numeric array: none holds objects, so
        # none could unpickle anything.
        columns = store.header("eipv", "s" * 64)["columns"]
        for name, column in columns.items():
            assert not np.dtype(column["dtype"]).hasobject, name
        assert {"matrix_indptr", "matrix_indices",
                "matrix_data"} <= set(columns)
