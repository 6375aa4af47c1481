"""The VTune-analogue sampling driver.

VTune "interrupts execution at regular intervals (as measured by the number
of retired instructions) and records the EIP at the point of interruption
and event counter totals" (Section 3.1).  :class:`SamplingDriver` does the
same against a :class:`~repro.workloads.system.SimulatedSystem`: it walks
the system's execution-slice stream, fires at every ``period`` retired
instructions, draws the EIP the interrupted code would show, and snapshots
counter deltas.

The paper samples every 1M instructions (100K for SjAS, to catch JIT code
churn) with a measured overhead of ~2% (5% worst case for SjAS); overhead
does not change the analysis, so it is recorded as metadata only.

:meth:`SamplingDriver._stream` is the one sampling engine.  It walks the
execution once and buffers its slices toward a chunk of samples; at each
flush it derives every sample boundary from cumulative instruction
counts, accumulates counter deltas with segmented prefix sums, and draws
all EIPs from pre-drawn uniforms routed through each region's CDF.
:meth:`~SamplingDriver.collect` concatenates the chunks in memory and
:meth:`~SamplingDriver.collect_to_store` appends them to an on-disk
:class:`~repro.trace.storage.TraceStore`.  The test suite keeps the
original one-period-at-a-time loop as its reference
(``tests/trace/reference_sampler.py``); both consume the RNG stream
identically, so their traces are bit-for-bit equal at any chunk size (a
property the tests assert on randomized workloads).
"""

from __future__ import annotations

import numpy as np

from repro.obs import span
from repro.trace.events import COUNTER_FIELDS, SampleTrace
from repro.workloads.regions import choice_cdf
from repro.workloads.system import SimulatedSystem

#: The trace columns of the five counter deltas snapshotted at every
#: sample, in the order :meth:`SamplingDriver._stream` buffers them.
_COUNTERS = COUNTER_FIELDS[1:]

#: Samples per chunk of the sampling engine: what ``collect``
#: concatenates and what ``collect_to_store`` writes by default.
CHUNK_SAMPLES = 8192


def _segmented_sequential_sums(columns: list,
                               starts: np.ndarray) -> list:
    """Per-segment sums of each column with strict left-to-right association.

    ``np.add.reduceat`` switches to pairwise summation for long segments,
    which perturbs the last ulp relative to a sequential accumulator.  To
    stay bit-identical to the reference loop, group segments by length and
    accumulate each group column by column — every add happens in the same
    order as ``acc += value`` in a Python loop.
    """
    n_groups = len(starts)
    ends = np.concatenate((starts[1:], [len(columns[0])]))
    counts = ends - starts
    outs = [np.empty(n_groups, dtype=values.dtype) for values in columns]
    for m in np.unique(counts):
        sel = np.flatnonzero(counts == m)
        cols = starts[sel][:, None] + np.arange(m)
        for values, out in zip(columns, outs):
            block = values[cols]
            acc = block[:, 0].copy()
            for j in range(1, int(m)):
                acc += block[:, j]
            out[sel] = acc
    return outs


class SamplingDriver:
    """Samples a simulated system every ``period`` retired instructions."""

    def __init__(self, system: SimulatedSystem,
                 period: int | None = None) -> None:
        self.system = system
        self.period = (system.workload.sample_period if period is None
                       else period)
        if self.period <= 0:
            raise ValueError("sampling period must be positive")
        # The driver observes without perturbing: its EIP draws come from a
        # spawned child stream, so a sampled run executes identically to an
        # unsampled one (spawning does not consume parent draws).
        self.rng = system.rng.spawn(1)[0]

    def collect(self, total_instructions: int) -> SampleTrace:
        """Run the system and collect the sampled trace in memory.

        ``total_instructions`` is the length of the run; the trace holds
        ``total_instructions // period`` samples: the chunks of
        :meth:`_stream`, concatenated.
        """
        processes: list[str] = []
        chunks = list(self._stream(total_instructions, CHUNK_SAMPLES,
                                   processes))
        columns = {name: np.concatenate([chunk[name] for chunk in chunks])
                   for name in chunks[0]}
        return SampleTrace(**columns, processes=tuple(processes),
                           **self._header())

    def collect_to_store(self, store, total_instructions: int,
                         chunk_samples: int = CHUNK_SAMPLES) -> None:
        """Stream a collection into a :class:`~repro.trace.storage.TraceStore`.

        Samples leave for disk in chunks of ``chunk_samples``, so peak
        memory is bounded by the chunk size (plus the slices spanning it)
        regardless of run length.  The stored columns are the ones
        :meth:`collect` returns, at any chunk size.

        ``store`` must be fresh from ``TraceStore.create``; this method
        appends every chunk and finalizes it (or closes it unfinalized
        on error).
        """
        processes: list[str] = []
        try:
            for chunk in self._stream(total_instructions, chunk_samples,
                                      processes):
                store.append(chunk)
        except BaseException:
            store.close()
            raise
        store.finalize(processes=tuple(processes), **self._header())

    def _header(self) -> dict:
        """The trace's header fields other than its process table."""
        metadata = dict(self.system.workload.metadata)
        metadata["nominal_overhead"] = (0.05 if self.period < 1_000_000
                                        else 0.02)
        return {"sample_period": self.period,
                "frequency_mhz": self.system.machine.frequency_mhz,
                "workload_name": self.system.workload.name,
                "metadata": metadata}

    def _stream(self, total_instructions: int, chunk_samples: int,
                processes: list):
        """Yield the trace's columns in chunks of ``chunk_samples`` samples.

        Each chunk is a dict of :class:`SampleTrace` columns for the next
        run of samples.  ``processes`` accumulates the process table in
        first-appearance-among-samples order across all chunks (the
        caller reads it after exhaustion).  Chunks end exactly on sample
        boundaries and the EIP draws consume the RNG stream in sample
        order, so the concatenated columns are the same at any chunk
        size.
        """
        if total_instructions < self.period:
            raise ValueError(
                "run too short: need at least one sampling period")
        if chunk_samples < 1:
            raise ValueError("chunk_samples must be positive")
        period = self.period
        n_samples = total_instructions // period
        proc_index: dict[str, int] = {}

        # One entry per slice piece buffered toward the current chunk.
        # A slice spanning a chunk boundary is split, and every piece
        # keeps the whole slice's instruction count and counters, so its
        # per-instruction rates, divided at flush, are the whole slice's.
        takes: list[int] = []
        instructions: list[int] = []
        counters = ([], [], [], [], [])  # one list per name in _COUNTERS
        cycles, work, fe, exe, other = counters
        threads: list[int] = []
        procs: list[str] = []
        plans: list = []

        def flush(k: int) -> dict:
            cum_end = np.cumsum(np.asarray(takes, dtype=np.int64))
            boundaries = period * np.arange(1, k + 1, dtype=np.int64)
            # The firing slice of sample i is the one containing
            # instruction boundary i*period (slices cover (start, end]
            # instruction counts).
            fire = np.searchsorted(cum_end, boundaries, side="left")

            # Segment the chunk at every slice edge and every sample
            # boundary; within a segment the per-instruction counter
            # rates are constant.  The chunk ends on its last boundary.
            cuts = np.union1d(cum_end, boundaries)
            seg_len = np.diff(np.concatenate(([0], cuts)))
            seg_slice = np.searchsorted(cum_end, cuts, side="left")
            seg_sample = np.searchsorted(boundaries, cuts, side="left")
            starts = np.searchsorted(seg_sample, np.arange(k), side="left")
            slice_instructions = np.asarray(instructions, dtype=np.float64)
            sums = _segmented_sequential_sums(
                [(np.asarray(values, dtype=np.float64)
                  / slice_instructions)[seg_slice] * seg_len
                 for values in counters], starts)

            eips = self._draw_eips(plans, fire)

            # Register processes in first-appearance order among this
            # chunk's samples; the rolling proc_index carries the code
            # assignment across chunks.
            local = {}
            local_codes = np.fromiter(
                (local.setdefault(name, len(local)) for name in procs),
                dtype=np.int64, count=len(procs))
            local_names = list(local)
            sample_local = local_codes[fire]
            uniq, first_pos = np.unique(sample_local, return_index=True)
            appearance = uniq[np.argsort(first_pos, kind="stable")]
            remap = np.empty(len(local_names), dtype=np.int64)
            for code in appearance:
                name = local_names[code]
                global_code = proc_index.get(name)
                if global_code is None:
                    global_code = proc_index[name] = len(proc_index)
                    processes.append(name)
                remap[code] = global_code

            return {
                "eips": eips,
                "thread_ids": np.asarray(threads, dtype=np.int32)[fire],
                "process_ids": remap[sample_local].astype(np.int16),
                "instructions": np.full(k, period, dtype=np.int64),
                **dict(zip(_COUNTERS, sums)),
            }

        emitted = 0
        chunk_k = min(chunk_samples, n_samples)
        room = chunk_k * period  # instructions left in the current chunk
        for piece in self.system.slices(total_instructions):
            breakdown = piece.breakdown
            remaining = piece.instructions
            while remaining:
                take = min(remaining, room)
                takes.append(take)
                instructions.append(piece.instructions)
                cycles.append(breakdown.cycles)
                work.append(breakdown.work)
                fe.append(breakdown.fe)
                exe.append(breakdown.exe)
                other.append(breakdown.other)
                threads.append(piece.thread_id)
                procs.append(piece.process)
                plans.append(piece.plan)
                remaining -= take
                room -= take
                if room:
                    continue
                yield flush(chunk_k)
                emitted += chunk_k
                if emitted == n_samples:
                    # The trailing partial period (if any) is discarded.
                    return
                for buffer in (takes, instructions, *counters, threads,
                               procs, plans):
                    buffer.clear()
                chunk_k = min(chunk_samples, n_samples - emitted)
                room = chunk_k * period

    def _draw_eips(self, plans: list, fire: np.ndarray) -> np.ndarray:
        """Vectorized EIP draws for every firing slice's plan.

        Consumes the RNG stream exactly like per-sample ``rng.choice``
        calls: one uniform double per part choice (multi-part plans only)
        plus one per EIP draw, in sample order.
        """
        rng = self.rng
        n_samples = len(fire)

        # Distinct plan objects are few (one per slice at most, shared
        # across samples), so dedupe them once and route every per-sample
        # decision through vectorized group operations.
        slice_group = np.empty(len(plans), dtype=np.int64)
        group_plans: list = []
        seen: dict[int, int] = {}
        for i, plan in enumerate(plans):
            g = seen.get(id(plan))
            if g is None:
                g = seen[id(plan)] = len(group_plans)
                group_plans.append(plan)
            slice_group[i] = g
        sample_group = slice_group[fire]

        group_multi = np.fromiter((len(p.parts) > 1 for p in group_plans),
                                  dtype=bool, count=len(group_plans))
        multi = group_multi[sample_group]
        draws_per_sample = 1 + multi.astype(np.int64)
        first = np.zeros(n_samples, dtype=np.int64)
        np.cumsum(draws_per_sample[:-1], out=first[1:])
        u = rng.random(int(draws_per_sample.sum()))
        eip_u = u[first + multi]

        # Resolve each sample's region: single-part plans directly, multi-
        # part plans through one vectorized search per distinct plan of
        # the CDF Generator.choice would build for it.
        region_members: dict[int, tuple[object, list]] = {}

        def _route(region, members: np.ndarray) -> None:
            entry = region_members.get(id(region))
            if entry is None:
                region_members[id(region)] = (region, [members])
            else:
                entry[1].append(members)

        for g, plan in enumerate(group_plans):
            members = np.flatnonzero(sample_group == g)
            if len(members) == 0:
                continue
            parts = plan.parts
            if not group_multi[g]:
                _route(parts[0][0], members)
                continue
            weights = np.fromiter((weight for _, weight in parts),
                                  dtype=np.float64, count=len(parts))
            cdf = choice_cdf(weights / weights.sum())
            indices = cdf.searchsorted(u[first[members]], side="right")
            for p in range(len(parts)):
                chosen = members[indices == p]
                if len(chosen):
                    _route(parts[p][0], chosen)

        # One vectorized EIP mapping per distinct region.
        eips = np.empty(n_samples, dtype=np.int64)
        for region, member_lists in region_members.values():
            members = (member_lists[0] if len(member_lists) == 1
                       else np.concatenate(member_lists))
            eips[members] = region.eips_from_uniform(eip_u[members])
        return eips


def collect_trace(system: SimulatedSystem, total_instructions: int,
                  period: int | None = None) -> SampleTrace:
    """Convenience wrapper: sample ``system`` for ``total_instructions``."""
    with span("trace.sample",
              workload=system.workload.name) as sample_span:
        trace = SamplingDriver(system, period=period).collect(
            total_instructions)
        sample_span.inc("samples", len(trace))
    return trace
