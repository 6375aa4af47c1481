"""The one-period-at-a-time sampling loop: the equality oracle.

:class:`repro.trace.sampler.SamplingDriver` samples in chunks of batched
array work.  This module keeps the original loop it replaced, which walks
the slice stream, fires at every ``period`` retired instructions and
draws each EIP with ``rng.choice``.  Both consume the driver's RNG stream
identically, so the property tests in ``test_sampler.py`` and
``test_trace_store.py`` (and the collect benchmark in
``benchmarks/test_bench_pipeline.py``) require their traces to be equal
array for array, in memory and on disk, at any chunk size.
"""

from __future__ import annotations

import numpy as np

from repro.trace.events import SampleTrace
from repro.trace.sampler import SamplingDriver


def draw_eip(plan, rng: np.random.Generator) -> int:
    """The EIP an interrupt would observe for a slice's plan."""
    parts = plan.parts
    if len(parts) == 1:
        region = parts[0][0]
    else:
        weights = np.fromiter((weight for _, weight in parts),
                              dtype=np.float64, count=len(parts))
        index = int(rng.choice(len(parts), p=weights / weights.sum()))
        region = parts[index][0]
    return int(region.sample_eips(rng, 1)[0])


def collect_reference(driver: SamplingDriver,
                      total_instructions: int) -> SampleTrace:
    """Sample ``driver``'s system one period at a time."""
    if total_instructions < driver.period:
        raise ValueError(
            "run too short: need at least one sampling period")
    period = driver.period
    rng = driver.rng

    eips: list[int] = []
    thread_ids: list[int] = []
    process_codes: list[int] = []
    instructions: list[int] = []
    cycles: list[float] = []
    work: list[float] = []
    fe: list[float] = []
    exe: list[float] = []
    other: list[float] = []

    process_index: dict[str, int] = {}

    # Accumulators since the last sample boundary.
    acc = {"cycles": 0.0, "work": 0.0, "fe": 0.0, "exe": 0.0,
           "other": 0.0}
    instructions_into_period = 0

    for piece in driver.system.slices(total_instructions):
        remaining = piece.instructions
        breakdown = piece.breakdown
        per_instr = {
            "cycles": breakdown.cycles / piece.instructions,
            "work": breakdown.work / piece.instructions,
            "fe": breakdown.fe / piece.instructions,
            "exe": breakdown.exe / piece.instructions,
            "other": breakdown.other / piece.instructions,
        }
        while remaining > 0:
            step = min(remaining, period - instructions_into_period)
            for key, value in per_instr.items():
                acc[key] += value * step
            instructions_into_period += step
            remaining -= step
            if instructions_into_period == period:
                # Fire: the interrupt lands in this slice.
                eips.append(draw_eip(piece.plan, rng))
                thread_ids.append(piece.thread_id)
                code = process_index.setdefault(piece.process,
                                                len(process_index))
                process_codes.append(code)
                instructions.append(period)
                cycles.append(acc["cycles"])
                work.append(acc["work"])
                fe.append(acc["fe"])
                exe.append(acc["exe"])
                other.append(acc["other"])
                acc = dict.fromkeys(acc, 0.0)
                instructions_into_period = 0

    return SampleTrace(
        eips=np.asarray(eips, dtype=np.int64),
        thread_ids=np.asarray(thread_ids, dtype=np.int32),
        process_ids=np.asarray(process_codes, dtype=np.int16),
        instructions=np.asarray(instructions, dtype=np.int64),
        cycles=np.asarray(cycles, dtype=np.float64),
        work_cycles=np.asarray(work, dtype=np.float64),
        fe_cycles=np.asarray(fe, dtype=np.float64),
        exe_cycles=np.asarray(exe, dtype=np.float64),
        other_cycles=np.asarray(other, dtype=np.float64),
        processes=tuple(sorted(process_index, key=process_index.get)),
        **driver._header(),
    )
