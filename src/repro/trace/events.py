"""Sample records and event counters.

The VTune driver interrupts execution every N retired instructions and
records the EIP at the interruption point plus event-counter totals
(Section 3.1).  :class:`Sample` is one such record; :class:`SampleTrace` is
a whole run's worth, stored columnar (numpy arrays) for fast aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Counter columns carried by every sample, in storage order.
COUNTER_FIELDS = (
    "instructions",   # retired instructions in the sample period
    "cycles",         # clockticks in the sample period
    "work_cycles",    # CPI-breakdown components (Itanium 2 stall counters)
    "fe_cycles",
    "exe_cycles",
    "other_cycles",
)

#: Every column of a trace, in storage order.
TRACE_COLUMNS = ("eips", "thread_ids", "process_ids") + COUNTER_FIELDS

#: Stored dtypes of the trace columns (little-endian, matching what the
#: sampling driver produces in memory).
TRACE_DTYPES = {
    "eips": "<i8",
    "thread_ids": "<i4",
    "process_ids": "<i2",
    "instructions": "<i8",
    "cycles": "<f8",
    "work_cycles": "<f8",
    "fe_cycles": "<f8",
    "exe_cycles": "<f8",
    "other_cycles": "<f8",
}


@dataclass(frozen=True)
class Sample:
    """One VTune-style sample.

    ``eip`` is the instruction pointer observed at the interrupt;
    ``thread_id``/``process`` tag who was running (Section 5.2 uses these
    for per-thread separation); the counter fields are deltas over the
    sample period.
    """

    index: int
    eip: int
    thread_id: int
    process: str
    instructions: int
    cycles: float
    work_cycles: float
    fe_cycles: float
    exe_cycles: float
    other_cycles: float

    @property
    def cpi(self) -> float:
        """Instantaneous CPI of this sample period."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions


@dataclass
class SampleTrace:
    """A complete sampled run, stored columnar.

    Attributes mirror :class:`Sample` fields; ``processes`` maps the
    integer codes in ``process_ids`` back to process names.  ``frequency_mhz``
    and ``sample_period`` let analyses convert between instructions, cycles
    and wall-clock seconds.
    """

    eips: np.ndarray
    thread_ids: np.ndarray
    process_ids: np.ndarray
    instructions: np.ndarray
    cycles: np.ndarray
    work_cycles: np.ndarray
    fe_cycles: np.ndarray
    exe_cycles: np.ndarray
    other_cycles: np.ndarray
    processes: tuple
    sample_period: int
    frequency_mhz: int
    workload_name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.eips)
        for name in TRACE_COLUMNS[1:]:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if self.frequency_mhz <= 0:
            raise ValueError("frequency_mhz must be positive")

    def __len__(self) -> int:
        return len(self.eips)

    def column(self, name: str) -> np.ndarray:
        """One column by name: the column protocol a
        :class:`~repro.trace.storage.TraceStore` shares, so EIPV builds
        read a trace in memory and on disk alike."""
        if name not in TRACE_COLUMNS:
            raise KeyError(f"unknown trace column {name!r}")
        return getattr(self, name)

    @property
    def cpis(self) -> np.ndarray:
        """Per-sample instantaneous CPI."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.instructions > 0,
                            self.cycles / self.instructions, 0.0)

    @property
    def total_instructions(self) -> int:
        return int(self.instructions.sum())

    @property
    def total_cycles(self) -> float:
        return float(self.cycles.sum())

    @property
    def duration_seconds(self) -> float:
        """Wall-clock duration implied by cycles and clock frequency."""
        return self.total_cycles / (self.frequency_mhz * 1e6)

    def unique_eips(self) -> np.ndarray:
        """Sorted unique EIPs observed in the trace."""
        return np.unique(self.eips)

    def sample(self, index: int) -> Sample:
        """Materialize one sample as a :class:`Sample` record."""
        return Sample(
            index=index,
            eip=int(self.eips[index]),
            thread_id=int(self.thread_ids[index]),
            process=self.processes[int(self.process_ids[index])],
            instructions=int(self.instructions[index]),
            cycles=float(self.cycles[index]),
            work_cycles=float(self.work_cycles[index]),
            fe_cycles=float(self.fe_cycles[index]),
            exe_cycles=float(self.exe_cycles[index]),
            other_cycles=float(self.other_cycles[index]),
        )

    def select(self, mask: np.ndarray) -> "SampleTrace":
        """A new trace containing only the samples where ``mask`` is true."""
        return SampleTrace(
            eips=self.eips[mask],
            thread_ids=self.thread_ids[mask],
            process_ids=self.process_ids[mask],
            instructions=self.instructions[mask],
            cycles=self.cycles[mask],
            work_cycles=self.work_cycles[mask],
            fe_cycles=self.fe_cycles[mask],
            exe_cycles=self.exe_cycles[mask],
            other_cycles=self.other_cycles[mask],
            processes=self.processes,
            sample_period=self.sample_period,
            frequency_mhz=self.frequency_mhz,
            workload_name=self.workload_name,
            metadata=dict(self.metadata),
        )

    def by_thread(self) -> dict:
        """Split the trace per thread id (Section 5.2 separation)."""
        return {int(tid): self.select(self.thread_ids == tid)
                for tid in np.unique(self.thread_ids)}
