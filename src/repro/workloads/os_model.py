"""Operating-system model: scheduler, context switches, kernel code.

The paper stresses that server workloads differ from SPEC partly through
their OS behaviour: ODB-C spends ~15% of its time in the kernel and context
switches ~2600 times a second; SPEC spends <1% and switches ~25 times a
second (Section 5.2).  This module provides:

* :func:`make_kernel_thread` — a kernel pseudo-thread whose program is a
  flat mixture of scheduler / I/O / interrupt-handling regions;
* :class:`Scheduler` — a weighted random scheduler with geometric quanta,
  context-switch accounting and cache-warmth management.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.uarch.cpu import ExecutionProfile
from repro.workloads.program import FlatMixSchedule, Program
from repro.workloads.regions import CodeRegion, choice_cdf, layout_regions
from repro.workloads.thread_model import WorkloadThread

#: Address where kernel text is laid out, far from user code.
KERNEL_TEXT_BASE = 0xC0000000

#: Warmth a thread resumes with right after being switched in.
COLD_WARMTH = 0.55

#: Per-chunk multiplicative warmth recovery while a thread keeps running.
WARMTH_RECOVERY = 0.25


def make_kernel_thread(thread_id: int, n_eips: int = 600,
                       os_cpi: float = 1.2) -> WorkloadThread:
    """Build the OS pseudo-thread.

    Kernel code is a flat mixture of three region groups (scheduling, block
    I/O, network/interrupts) with a moderately large footprint and poor
    locality — OS activity looks like more "server code" to the sampler.
    """
    if n_eips < 3:
        raise ValueError("kernel needs at least 3 EIPs")
    per_region = n_eips // 3
    profile = ExecutionProfile(
        base_cpi=os_cpi,
        code_footprint=2 * 1024 * 1024,
        data_footprint=32 * 1024 * 1024,
        code_locality=0.985,
        data_locality=0.97,
        memory_fraction=0.3,
        branch_fraction=0.2,
        mispredict_rate=0.05,
        dependency_stall_cpi=0.15,
    )
    names = ("kernel.sched", "kernel.blockio", "kernel.net")
    counts = (per_region, per_region, n_eips - 2 * per_region)
    specs = [
        (lambda base, name=name, count=count: CodeRegion(
            name=name, eip_base=base, n_eips=count, profile=profile,
            jitter=0.15))
        for name, count in zip(names, counts)
    ]
    regions = layout_regions(specs, start=KERNEL_TEXT_BASE)
    program = Program("kernel", FlatMixSchedule(regions))
    return WorkloadThread(thread_id=thread_id, process="kernel",
                          program=program)


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduling behaviour of a workload.

    ``mean_quantum`` is the geometric-mean slice length in instructions
    before a context switch; ``os_share`` is the fraction of slices given to
    the kernel thread.  Context-switch *rates* per wall-clock second emerge
    from quantum length and CPI (see analysis.threading_stats).
    """

    mean_quantum: int
    os_share: float = 0.0
    cold_warmth: float = COLD_WARMTH
    #: Kernel slices are this many times shorter than user slices
    #: (interrupt/syscall service is brief compared to user quanta).
    kernel_quantum_divisor: int = 8

    def __post_init__(self) -> None:
        if self.mean_quantum <= 0:
            raise ValueError("mean_quantum must be positive")
        if not 0 <= self.os_share < 1:
            raise ValueError("os_share must be in [0, 1)")
        if not 0 < self.cold_warmth <= 1:
            raise ValueError("cold_warmth must be in (0, 1]")
        if self.kernel_quantum_divisor < 1:
            raise ValueError("kernel_quantum_divisor must be >= 1")


class Scheduler:
    """Weighted random scheduler with geometric quanta.

    Each pick selects the kernel thread with probability ``os_share``,
    otherwise a user thread proportionally to its weight, and grants it a
    geometrically distributed quantum around ``mean_quantum`` instructions.
    Re-picking the same thread extends the quantum without a context
    switch.  Switched-in threads lose cache warmth.
    """

    def __init__(self, threads, config: SchedulerConfig,
                 kernel_thread: WorkloadThread | None = None) -> None:
        self.user_threads = list(threads)
        if not self.user_threads:
            raise ValueError("scheduler needs at least one user thread")
        self.config = config
        self.kernel_thread = kernel_thread
        if config.os_share > 0 and kernel_thread is None:
            raise ValueError("os_share > 0 requires a kernel thread")
        weights = np.array([t.weight for t in self.user_threads])
        self._thread_cdf = choice_cdf(weights / weights.sum())
        self.current: WorkloadThread | None = None
        self.context_switches = 0

    @property
    def all_threads(self) -> list[WorkloadThread]:
        threads = list(self.user_threads)
        if self.kernel_thread is not None:
            threads.append(self.kernel_thread)
        return threads

    def next_slice(self, rng: np.random.Generator) -> tuple[WorkloadThread, int]:
        """Pick the next thread and its slice length in instructions."""
        if (self.kernel_thread is not None
                and rng.random() < self.config.os_share):
            thread = self.kernel_thread
        else:
            index = int(self._thread_cdf.searchsorted(rng.random(),
                                                      side="right"))
            thread = self.user_threads[index]

        if thread is not self.current:
            if self.current is not None:
                self.context_switches += 1
            thread.warmth = self.config.cold_warmth
            self.current = thread
        else:
            thread.warmth = min(
                1.0, thread.warmth + WARMTH_RECOVERY * (1.0 - thread.warmth))

        # Geometric slice length with the configured mean, at least 1.
        mean = self.config.mean_quantum
        if thread.is_kernel:
            mean = max(1, mean // self.config.kernel_quantum_divisor)
        length = 1 + int(rng.exponential(mean))
        return thread, length

    def reset(self) -> None:
        """Restart scheduling state and all threads."""
        self.current = None
        self.context_switches = 0
        for thread in self.all_threads:
            thread.reset()
