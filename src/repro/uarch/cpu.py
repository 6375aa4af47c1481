"""Analytical CPU performance model.

The paper measures CPI with hardware event counters while real software runs
on a real machine.  We have neither, so the workload substrate describes
*what the code is doing* (its execution profile: footprints, locality,
branch behaviour) and this module turns that description into cycles with a
per-component stall breakdown, exactly the quantity the paper's counters
expose.

The model is deliberately first-order — it is the standard
"CPI = work + stall sources" decomposition used by the paper itself in
Section 5.1:

``CPI = WORK + FE + EXE + OTHER``

* WORK is the profile's intrinsic execute CPI (bounded below by the
  machine's issue width).
* FE is instruction-fetch misses plus branch-misprediction refill cycles.
* EXE is data-side miss latency, weighted by where in the hierarchy the
  accesses are served and divided by the profile's memory-level parallelism.
* OTHER is residual back-end stalls (dependencies, TLB, ...).

Cache behaviour is estimated with a capacity/locality miss-rate model
(:func:`estimate_miss_rate`) whose shape is validated against the
trace-driven simulator in :mod:`repro.uarch.cache` by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.uarch.machine import MachineConfig
from repro.uarch.stalls import CPIBreakdown

#: Instruction-fetch accesses per retired instruction (fetch-group grain).
IFETCH_PER_INSTRUCTION = 0.25


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


def estimate_miss_rate(footprint_bytes: float, cache_bytes: float,
                       locality: float) -> float:
    """Estimate the global miss rate of a cache for a given working set.

    Parameters
    ----------
    footprint_bytes:
        Size of the working set streamed/reused by the code.
    cache_bytes:
        Effective capacity of the cache level (may be scaled down by cache
        "warmth" after a context switch).
    locality:
        In ``[0, 1]``: the fraction of accesses that go to a small hot set
        assumed resident in every cache level (tight-loop reuse).  The
        remaining ``1 - locality`` accesses are uniform over the footprint.

    The model: hot-set accesses always hit; uniform accesses hit with
    probability ``min(1, C/F)`` (the fraction of the footprint the cache can
    cover).  So ``miss = (1 - locality) * (1 - min(1, C/F))``.
    """
    if footprint_bytes <= 0:
        return 0.0
    locality = _clamp01(locality)
    if cache_bytes <= 0:
        return _clamp01(1.0 - locality)
    coverage = min(1.0, cache_bytes / footprint_bytes)
    miss = (1.0 - coverage) * (1.0 - locality)
    return _clamp01(miss)


@dataclass(frozen=True)
class ExecutionProfile:
    """Microarchitecture-relevant description of a chunk of execution.

    Produced by the workload substrate (each
    :class:`repro.workloads.regions.CodeRegion` owns one) and consumed by
    :class:`AnalyticalCPU`.
    """

    base_cpi: float = 0.8
    code_footprint: int = 16 * 1024
    data_footprint: int = 64 * 1024
    code_locality: float = 0.9
    data_locality: float = 0.7
    memory_fraction: float = 0.35
    branch_fraction: float = 0.12
    mispredict_rate: float = 0.03
    dependency_stall_cpi: float = 0.1
    memory_level_parallelism: float = 1.5

    def __post_init__(self) -> None:
        if self.base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        if not 0 <= self.memory_fraction <= 1:
            raise ValueError("memory_fraction must be in [0, 1]")
        if not 0 <= self.branch_fraction <= 1:
            raise ValueError("branch_fraction must be in [0, 1]")
        if not 0 <= self.mispredict_rate <= 1:
            raise ValueError("mispredict_rate must be in [0, 1]")
        if self.memory_level_parallelism < 1:
            raise ValueError("memory_level_parallelism must be >= 1")
        if self.dependency_stall_cpi < 0:
            raise ValueError("dependency_stall_cpi must be non-negative")

    def scaled(self, **overrides) -> "ExecutionProfile":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class ServedFractions:
    """Fraction of accesses served by each hierarchy level."""

    l1: float
    l2: float
    l3: float
    memory: float

    def __post_init__(self) -> None:
        total = self.l1 + self.l2 + self.l3 + self.memory
        # np.isclose(total, 1.0, atol=1e-9) on one scalar, without its
        # array machinery (NaN and infinities fail alike).
        if not abs(total - 1.0) <= 1e-9 + 1e-5:
            raise ValueError(f"served fractions must sum to 1, got {total}")


class AnalyticalCPU:
    """Turns execution profiles into cycle counts on a given machine."""

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine

    def served_fractions(self, footprint: float, locality: float,
                         warmth: float = 1.0,
                         instruction_side: bool = False) -> ServedFractions:
        """Where accesses to a working set are served in the hierarchy.

        ``warmth`` in ``(0, 1]`` scales effective cache capacity; a freshly
        context-switched-in thread sees cold caches (low warmth).
        """
        if not 0 < warmth <= 1:
            raise ValueError("warmth must be in (0, 1]")
        l1_size = self.machine.cache_size(
            "L1I" if instruction_side else "L1D") * warmth
        l2_size = self.machine.cache_size("L2") * warmth
        l3_size = self.machine.cache_size("L3") * warmth
        miss_l1 = estimate_miss_rate(footprint, l1_size, locality)
        miss_l2 = min(miss_l1, estimate_miss_rate(footprint, l2_size, locality))
        if l3_size > 0:
            miss_l3 = min(miss_l2,
                          estimate_miss_rate(footprint, l3_size, locality))
        else:
            miss_l3 = miss_l2
        return ServedFractions(
            l1=1.0 - miss_l1,
            l2=miss_l1 - miss_l2,
            l3=miss_l2 - miss_l3,
            memory=miss_l3,
        )

    def _beyond_l1_latency(self, served: ServedFractions) -> float:
        """Average extra cycles per access beyond an L1 hit."""
        latencies = self.machine.latencies
        l3_latency = latencies.get("L3", latencies["memory"])
        return (served.l2 * latencies["L2"]
                + served.l3 * l3_latency
                + served.memory * latencies["memory"])

    def component_cpis(self, profile: ExecutionProfile,
                       warmth: float = 1.0) -> tuple[float, float, float, float]:
        """Deterministic per-instruction cycles as (work, fe, exe, other).

        This is the noise-free core of :meth:`execute`; callers that execute
        the same profile many times (the system simulator) cache its result.
        """
        work_cpi = max(profile.base_cpi, self.machine.base_cpi_floor)

        data_served = self.served_fractions(
            profile.data_footprint, profile.data_locality, warmth=warmth)
        exe_cpi = (profile.memory_fraction
                   * self._beyond_l1_latency(data_served)
                   / profile.memory_level_parallelism)

        code_served = self.served_fractions(
            profile.code_footprint, profile.code_locality, warmth=warmth,
            instruction_side=True)
        ifetch_cpi = (IFETCH_PER_INSTRUCTION
                      * self._beyond_l1_latency(code_served))
        mispredict_cpi = (profile.branch_fraction * profile.mispredict_rate
                          * self.machine.mispredict_penalty)
        fe_cpi = ifetch_cpi + mispredict_cpi

        other_cpi = profile.dependency_stall_cpi
        return work_cpi, fe_cpi, exe_cpi, other_cpi

    def execute(self, profile: ExecutionProfile, instructions: int,
                warmth: float = 1.0, rng: np.random.Generator | None = None,
                jitter: float = 0.0) -> CPIBreakdown:
        """Execute ``instructions`` under ``profile``; return the breakdown.

        ``jitter`` adds multiplicative lognormal noise (sigma = ``jitter``)
        independently to the FE/EXE/OTHER stall components, modelling
        micro-level variation the profile does not capture.  ``rng`` is
        required when ``jitter > 0``.
        """
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        if instructions == 0:
            return CPIBreakdown.zero()
        if jitter > 0 and rng is None:
            raise ValueError("rng is required when jitter > 0")

        work_cpi, fe_cpi, exe_cpi, other_cpi = self.component_cpis(
            profile, warmth=warmth)

        if jitter > 0:
            fe_cpi *= float(rng.lognormal(0.0, jitter))
            exe_cpi *= float(rng.lognormal(0.0, jitter))
            other_cpi *= float(rng.lognormal(0.0, jitter))

        return CPIBreakdown(
            instructions=instructions,
            work=work_cpi * instructions,
            fe=fe_cpi * instructions,
            exe=exe_cpi * instructions,
            other=other_cpi * instructions,
        )

    def steady_state_cpi(self, profile: ExecutionProfile) -> float:
        """Deterministic CPI of a profile at full cache warmth."""
        return self.execute(profile, instructions=1_000_000).cpi
