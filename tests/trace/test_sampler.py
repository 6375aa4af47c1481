"""Tests for the VTune-analogue sampling driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.events import TRACE_COLUMNS
from repro.trace.sampler import SamplingDriver, collect_trace
from repro.uarch.cpu import ExecutionProfile
from repro.uarch.machine import itanium2
from repro.workloads.os_model import SchedulerConfig
from repro.workloads.program import CyclicSchedule, FlatMixSchedule, Program
from repro.workloads.regions import CodeRegion, RandomLatencyModulator
from repro.workloads.system import SimulatedSystem, Workload
from repro.workloads.thread_model import WorkloadThread
from tests.trace.reference_sampler import collect_reference


def make_system(sample_period=10_000, n_threads=2, seed=0):
    threads = []
    for i in range(n_threads):
        region = CodeRegion(name=f"r{i}", eip_base=0x10000 * (i + 1),
                            n_eips=16, profile=ExecutionProfile())
        threads.append(WorkloadThread(
            thread_id=i, process="app",
            program=Program(f"p{i}", FlatMixSchedule([region]))))
    workload = Workload(name="t", threads=threads,
                        scheduler=SchedulerConfig(mean_quantum=7_000),
                        sample_period=sample_period)
    return SimulatedSystem(itanium2(), workload, seed=seed)


class TestSampling:
    def test_sample_count(self):
        trace = collect_trace(make_system(), 200_000)
        assert len(trace) == 20

    def test_counters_conserved(self):
        """Sampled cycle totals equal the underlying execution exactly."""
        system = make_system(seed=1)
        slices = system.run(200_000)
        total_cycles = sum(s.breakdown.cycles for s in slices)
        system.reset(seed=1)
        trace = collect_trace(system, 200_000)
        assert trace.total_cycles == pytest.approx(total_cycles)
        assert trace.total_instructions == 200_000
        components = (trace.work_cycles + trace.fe_cycles
                      + trace.exe_cycles + trace.other_cycles)
        assert components == pytest.approx(trace.cycles)

    def test_eips_belong_to_workload_regions(self):
        system = make_system()
        valid = set()
        for region in system.workload.all_regions:
            valid.update(int(e) for e in region.eips)
        trace = collect_trace(system, 200_000)
        assert set(int(e) for e in trace.eips) <= valid

    def test_thread_tags_valid(self):
        trace = collect_trace(make_system(n_threads=3), 300_000)
        assert set(np.unique(trace.thread_ids)) <= {0, 1, 2}
        assert set(trace.processes) == {"app"}

    def test_period_override(self):
        system = make_system(sample_period=10_000)
        trace = collect_trace(system, 100_000, period=20_000)
        assert len(trace) == 5
        assert trace.sample_period == 20_000

    def test_run_shorter_than_period_rejected(self):
        with pytest.raises(ValueError):
            collect_trace(make_system(sample_period=10_000), 5_000)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            SamplingDriver(make_system(), period=0)

    def test_metadata_carries_overhead(self):
        fine = collect_trace(make_system(sample_period=10_000), 100_000)
        assert fine.metadata["nominal_overhead"] == 0.05

    def test_deterministic(self):
        t1 = collect_trace(make_system(seed=9), 100_000)
        t2 = collect_trace(make_system(seed=9), 100_000)
        assert (t1.eips == t2.eips).all()
        assert t1.cycles == pytest.approx(t2.cycles)

    def test_batched_collect_matches_reference(self):
        """The vectorized engine and the loop are array-for-array equal."""
        batched = SamplingDriver(make_system(seed=3)).collect(200_000)
        reference = collect_reference(
            SamplingDriver(make_system(seed=3)), 200_000)
        _assert_traces_identical(batched, reference)

    def test_sample_cpi_reflects_phase(self):
        """Samples taken in an expensive phase show higher CPI."""
        cheap = CodeRegion(name="cheap", eip_base=0x1000, n_eips=4,
                           profile=ExecutionProfile(base_cpi=0.5,
                                                    data_footprint=4096))
        costly = CodeRegion(
            name="costly", eip_base=0x2000, n_eips=4,
            profile=ExecutionProfile(base_cpi=0.5,
                                     data_footprint=1 << 30,
                                     data_locality=0.8))
        program = Program("p", CyclicSchedule([(cheap, 100_000),
                                               (costly, 100_000)]))
        workload = Workload(
            name="phased",
            threads=[WorkloadThread(thread_id=0, process="app",
                                    program=program)],
            scheduler=SchedulerConfig(mean_quantum=20_000),
            sample_period=10_000)
        system = SimulatedSystem(itanium2(), workload, seed=0)
        trace = collect_trace(system, 400_000)
        in_costly = np.asarray(trace.eips) >= 0x2000
        assert trace.cpis[in_costly].mean() > 2 * trace.cpis[~in_costly].mean()


def _assert_traces_identical(a, b):
    """Bit-for-bit trace equality: same dtypes, same bytes, same metadata."""
    for name in TRACE_COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert a.processes == b.processes
    assert a.sample_period == b.sample_period
    assert a.metadata == b.metadata


def _randomized_system(seed):
    """A workload exercising every sampler code path: multi-part plans
    (CyclicSchedule chunks spanning slices), skewed EIP draws,
    data-dependent modulators, several processes."""
    rng = np.random.default_rng(seed)
    hot = CodeRegion(name="hot", eip_base=0x1000,
                     n_eips=int(rng.integers(2, 24)),
                     profile=ExecutionProfile(),
                     eip_concentration=float(rng.random() * 2))
    cold = CodeRegion(name="cold", eip_base=0x8000,
                      n_eips=int(rng.integers(2, 64)),
                      profile=ExecutionProfile(base_cpi=0.9),
                      modulator=RandomLatencyModulator(0.1))
    cyclic = Program("cyclic", CyclicSchedule(
        [(hot, int(rng.integers(2_000, 6_000))),
         (cold, int(rng.integers(2_000, 6_000)))]))
    flat = Program("flat", FlatMixSchedule([hot, cold]))
    workload = Workload(
        name="randomized",
        threads=[WorkloadThread(thread_id=0, process="app", program=cyclic),
                 WorkloadThread(thread_id=1, process="db", program=flat)],
        scheduler=SchedulerConfig(
            mean_quantum=int(rng.integers(5_000, 30_000))),
        sample_period=10_000)
    return SimulatedSystem(itanium2(), workload, seed=seed)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000),
       periods=st.integers(4, 30),
       period=st.integers(3_000, 20_000),
       slack=st.integers(0, 2_999))
def test_collect_equals_reference_on_randomized_workloads(
        seed, periods, period, slack):
    """Property: the batched engine reproduces the reference loop exactly
    — same EIP draws (same RNG stream consumption), same counter floats
    (same association order), same process-code assignment — for any
    workload, period and run length."""
    total = periods * period + slack
    batched = SamplingDriver(_randomized_system(seed),
                             period=period).collect(total)
    reference = collect_reference(
        SamplingDriver(_randomized_system(seed), period=period), total)
    _assert_traces_identical(batched, reference)
