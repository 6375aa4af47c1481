"""Tests for thread statistics and trace/dataset persistence."""

import numpy as np
import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.stages import load_eipv_dataset, put_eipv
from repro.trace.eipv import build_eipvs
from repro.trace.events import COUNTER_FIELDS
from repro.trace.sampler import collect_trace
from repro.trace.storage import TraceStore
from repro.trace.threads import sample_level_stats, slice_level_stats
from repro.uarch.machine import itanium2
from repro.workloads.registry import get_workload
from repro.workloads.scale import TINY
from repro.workloads.system import SimulatedSystem

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
        # Experiments read their traces back from trace artifacts, so
        # the TraceStore round trip must be exact: every column's values
        # and dtype, every metadata field's value *and type*.
        trace = _registry_trace("odbc")
        TraceStore.from_trace(trace, tmp_path / "store")
        loaded = TraceStore.open(tmp_path / "store").as_trace()
        for name in ("eips", "thread_ids", "process_ids",
                     *COUNTER_FIELDS):
            column, again = getattr(trace, name), getattr(loaded, name)
            assert again.dtype == column.dtype, name
            np.testing.assert_array_equal(again, column, err_msg=name)
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
        for name in ("matrix", "cpis", "eip_index", "thread_ids"):
            column, again = getattr(dataset, name), getattr(loaded, name)
            assert again.dtype == column.dtype, name
            np.testing.assert_array_equal(again, column, err_msg=name)
            assert not again.flags.writeable, name
        assert loaded.interval_instructions == dataset.interval_instructions
        assert loaded.workload_name == "spec.art"
