"""Tests for the analytical CPU model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.cpu import (
    AnalyticalCPU,
    ExecutionProfile,
    ServedFractions,
    estimate_miss_rate,
)
from repro.uarch.machine import itanium2, pentium4

KB = 1024
MB = 1024 * KB


class TestMissRateModel:
    def test_zero_footprint(self):
        assert estimate_miss_rate(0, 1024, 0.5) == 0.0

    def test_footprint_within_cache_no_misses(self):
        assert estimate_miss_rate(1024, 4096, 0.0) == 0.0

    def test_perfect_locality_no_misses(self):
        assert estimate_miss_rate(1 << 30, 1024, 1.0) == 0.0

    def test_zero_cache_random_access(self):
        assert estimate_miss_rate(1 << 20, 0, 0.0) == 1.0

    def test_known_value(self):
        # Half the footprint covered, half the accesses uniform.
        assert estimate_miss_rate(2048, 1024, 0.5) == pytest.approx(0.25)

    @settings(max_examples=100, deadline=None)
    @given(
        footprint=st.floats(1.0, 1e12),
        cache=st.floats(1.0, 1e9),
        bigger=st.floats(1.0, 100.0),
        locality=st.floats(0.0, 1.0),
    )
    def test_monotonicity(self, footprint, cache, bigger, locality):
        """Larger caches and better locality never increase the miss rate;
        larger footprints never decrease it."""
        base = estimate_miss_rate(footprint, cache, locality)
        assert 0.0 <= base <= 1.0
        assert estimate_miss_rate(footprint, cache * bigger, locality) \
            <= base + 1e-12
        assert estimate_miss_rate(footprint * bigger, cache, locality) \
            >= base - 1e-12
        assert estimate_miss_rate(footprint, cache,
                                  min(1.0, locality + 0.1)) <= base + 1e-12


class TestServedFractions:
    def test_fractions_sum_to_one(self):
        cpu = AnalyticalCPU(itanium2())
        served = cpu.served_fractions(100 * MB, 0.8)
        total = served.l1 + served.l2 + served.l3 + served.memory
        assert total == pytest.approx(1.0)

    def test_tiny_footprint_all_l1(self):
        cpu = AnalyticalCPU(itanium2())
        served = cpu.served_fractions(4 * KB, 0.5)
        assert served.l1 == pytest.approx(1.0)

    def test_no_l3_machine_routes_to_memory(self):
        cpu = AnalyticalCPU(pentium4())
        served = cpu.served_fractions(100 * MB, 0.5)
        assert served.l3 == 0.0
        assert served.memory > 0

    def test_warmth_validation(self):
        cpu = AnalyticalCPU(itanium2())
        with pytest.raises(ValueError):
            cpu.served_fractions(1 * MB, 0.5, warmth=0.0)
        with pytest.raises(ValueError):
            cpu.served_fractions(1 * MB, 0.5, warmth=1.5)

    @settings(max_examples=80, deadline=None)
    @given(total=st.one_of(st.floats(), st.floats(1 - 2e-5, 1 + 2e-5),
                           st.sampled_from([np.nan, np.inf, -np.inf])))
    def test_accepts_what_np_isclose_accepts(self, total):
        if np.isclose(total, 1.0, atol=1e-9):
            ServedFractions(l1=total, l2=0.0, l3=0.0, memory=0.0)
        else:
            with pytest.raises(ValueError):
                ServedFractions(l1=total, l2=0.0, l3=0.0, memory=0.0)


class TestExecute:
    def test_breakdown_consistent_with_component_cpis(self):
        cpu = AnalyticalCPU(itanium2())
        profile = ExecutionProfile()
        work, fe, exe, other = cpu.component_cpis(profile)
        result = cpu.execute(profile, 1000)
        assert result.work == pytest.approx(work * 1000)
        assert result.fe == pytest.approx(fe * 1000)
        assert result.exe == pytest.approx(exe * 1000)
        assert result.other == pytest.approx(other * 1000)

    def test_zero_instructions(self):
        cpu = AnalyticalCPU(itanium2())
        assert cpu.execute(ExecutionProfile(), 0).cycles == 0.0

    def test_negative_instructions_rejected(self):
        cpu = AnalyticalCPU(itanium2())
        with pytest.raises(ValueError):
            cpu.execute(ExecutionProfile(), -1)

    def test_jitter_requires_rng(self):
        cpu = AnalyticalCPU(itanium2())
        with pytest.raises(ValueError):
            cpu.execute(ExecutionProfile(), 100, jitter=0.1)

    def test_jitter_perturbs_stalls_not_work(self):
        cpu = AnalyticalCPU(itanium2())
        profile = ExecutionProfile(data_footprint=100 * MB,
                                   data_locality=0.8)
        rng = np.random.default_rng(0)
        noisy = cpu.execute(profile, 1000, rng=rng, jitter=0.5)
        clean = cpu.execute(profile, 1000)
        assert noisy.work == pytest.approx(clean.work)
        assert noisy.exe != pytest.approx(clean.exe)

    def test_cold_caches_increase_cpi(self):
        cpu = AnalyticalCPU(itanium2())
        profile = ExecutionProfile(data_footprint=10 * MB,
                                   data_locality=0.8)
        warm = cpu.execute(profile, 1000, warmth=1.0)
        cold = cpu.execute(profile, 1000, warmth=0.3)
        assert cold.cpi > warm.cpi

    def test_memory_bound_profile_is_exe_dominated(self):
        cpu = AnalyticalCPU(itanium2())
        profile = ExecutionProfile(
            data_footprint=1 << 30, data_locality=0.9,
            memory_fraction=0.4, memory_level_parallelism=1.5)
        fractions = cpu.execute(profile, 1000).fractions()
        assert fractions["exe"] == max(fractions.values())

    def test_work_cpi_bounded_by_issue_width(self):
        cpu = AnalyticalCPU(itanium2())
        profile = ExecutionProfile(base_cpi=0.01)
        result = cpu.execute(profile, 600)
        assert result.work / 600 == pytest.approx(cpu.machine.base_cpi_floor)

    def test_steady_state_cpi_positive(self):
        cpu = AnalyticalCPU(itanium2())
        assert cpu.steady_state_cpi(ExecutionProfile()) > 0


class TestProfileValidation:
    @pytest.mark.parametrize("kwargs", [
        {"base_cpi": 0.0},
        {"memory_fraction": 1.5},
        {"branch_fraction": -0.1},
        {"mispredict_rate": 2.0},
        {"memory_level_parallelism": 0.5},
        {"dependency_stall_cpi": -1.0},
    ])
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionProfile(**kwargs)

    def test_scaled_returns_modified_copy(self):
        profile = ExecutionProfile()
        scaled = profile.scaled(base_cpi=2.0)
        assert scaled.base_cpi == 2.0
        assert profile.base_cpi != 2.0


def test_analytical_model_tracks_cache_simulator():
    """The analytical served fractions agree in rank order with a real
    trace through the cache simulator, for a random working set."""
    machine = itanium2()
    cpu = AnalyticalCPU(machine)
    footprint = 8 * MB
    rng = np.random.default_rng(7)
    hierarchy = machine.build_hierarchy()
    from repro.uarch.cache import AccessType
    served = {"L1": 0, "L2": 0, "L3": 0, "memory": 0}
    # Uniform random accesses over the footprint (locality 0).
    addresses = rng.integers(0, footprint, size=40_000)
    for address in addresses:
        served[hierarchy.access(int(address), AccessType.LOAD).level] += 1
    measured_memory = served["memory"] / len(addresses)
    predicted = cpu.served_fractions(footprint, 0.0)
    # Both should agree that a large majority of accesses go past L3.
    assert measured_memory > 0.5
    assert predicted.memory > 0.5
    assert abs(measured_memory - predicted.memory) < 0.35
