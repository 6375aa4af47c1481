"""Tests for thread statistics and trace/dataset persistence."""

import numpy as np
import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.stages import (CollectSpec, load_eipv_dataset,
                                  open_trace, put_eipv, put_trace,
                                  stored_trace)
from repro.trace.eipv import build_eipvs
from repro.trace.events import COUNTER_FIELDS
from repro.trace.sampler import collect_trace
from repro.trace.storage import TraceStore
from repro.trace.threads import sample_level_stats, slice_level_stats
from repro.uarch.machine import itanium2
from repro.workloads.registry import get_workload
from repro.workloads.scale import TINY
from repro.workloads.system import SimulatedSystem

from tests.trace.store_helpers import store_to_trace, trace_to_store
from tests.trace.test_events import make_trace


class TestSampleLevelStats:
    def test_context_switch_count(self):
        trace = make_trace(10)  # thread ids cycle 0,1,2,0,1,2,...
        stats = sample_level_stats(trace)
        assert stats.context_switches == 9
        assert stats.n_threads == 3

    def test_os_share_from_kernel_process(self):
        trace = make_trace(10)  # process ids alternate app/kernel
        stats = sample_level_stats(trace)
        kernel_cycles = trace.cycles[trace.process_ids == 1].sum()
        assert stats.os_time_share == pytest.approx(
            kernel_cycles / trace.total_cycles)

    def test_thread_shares_sum_to_one(self):
        trace = make_trace(30)
        stats = sample_level_stats(trace)
        assert sum(stats.thread_sample_share.values()) == pytest.approx(1.0)

    def test_requires_two_samples(self):
        trace = make_trace(5).select(np.array([0]))
        with pytest.raises(ValueError):
            sample_level_stats(trace)


class TestSliceLevelStats:
    def test_matches_scheduler_accounting(self):
        workload = get_workload("odbc", TINY)
        system = SimulatedSystem(itanium2(), workload, seed=0)
        slices = system.run(20_000_000)
        stats = slice_level_stats(slices, 900)
        assert stats.context_switches == system.scheduler.context_switches
        assert 0 < stats.os_time_share < 0.5
        assert stats.n_threads >= 2


def _registry_trace(name: str = "spec.art"):
    workload = get_workload(name, TINY)
    system = SimulatedSystem(itanium2(), workload, seed=0)
    return collect_trace(system, 20_000_000)


class TestStorage:
    def test_trace_roundtrip(self, tmp_path):
        # Experiments read their traces back from trace artifacts
        # (``stored_trace``) and ``--trace-store`` collections from a
        # TraceStore, so both round trips must be exact: every column's
        # values and dtype, every metadata field's value *and type*.
        # The artifact's columns are read-only views of the entry; the
        # experiments get writable copies.
        trace = _registry_trace("odbc")
        spec = CollectSpec(workload="odbc", machine="itanium2", seed=0,
                           scale="tiny", total_instructions=20_000_000)
        store = ResultCache(tmp_path)
        put_trace(store, spec.key, trace)
        trace_to_store(trace, tmp_path / "trace-store")
        spilled = store_to_trace(TraceStore.open(tmp_path / "trace-store"))
        for loaded, writeable in ((open_trace(store, spec.key), False),
                                  (stored_trace(store, spec), True),
                                  (spilled, True)):
            for name in ("eips", "thread_ids", "process_ids",
                         *COUNTER_FIELDS):
                column, again = getattr(trace, name), getattr(loaded, name)
                assert again.dtype == column.dtype, name
                np.testing.assert_array_equal(again, column, err_msg=name)
                assert again.flags.writeable is writeable, name
            for name in ("processes", "sample_period", "frequency_mhz",
                         "workload_name", "metadata"):
                value, again = getattr(trace, name), getattr(loaded, name)
                assert type(again) is type(value), name
                assert again == value, name
            assert trace.metadata["paper_quadrant"] == "Q-I"
            for key, value in trace.metadata.items():
                assert type(loaded.metadata[key]) is type(value), key

    def test_eipv_roundtrip(self, tmp_path):
        dataset = build_eipvs(_registry_trace(), 2_000_000)
        dataset.workload_name = "spec.art"
        store = ResultCache(tmp_path)
        put_eipv(store, "k" * 64, dataset)
        loaded = load_eipv_dataset(store, "k" * 64)
        stored = [(name, getattr(dataset, name), getattr(loaded, name))
                  for name in ("cpis", "eip_index")]
        stored += [(f"matrix.{part}", getattr(dataset.matrix, part),
                    getattr(loaded.matrix, part))
                   for part in ("indptr", "indices", "data")]
        for name, column, again in stored:
            assert again.dtype == column.dtype, name
            np.testing.assert_array_equal(again, column, err_msg=name)
            assert not again.flags.writeable, name
        np.testing.assert_array_equal(loaded.thread_ids, dataset.thread_ids)
        assert loaded.interval_instructions == dataset.interval_instructions
        assert loaded.workload_name == "spec.art"
