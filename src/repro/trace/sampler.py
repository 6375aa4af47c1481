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

:meth:`SamplingDriver.collect` is the batched engine: it streams the
execution once into per-slice arrays, derives every sample boundary from
cumulative instruction counts, accumulates counter deltas with segmented
prefix sums, and draws all EIPs from pre-drawn uniforms routed through
each region's CDF.  The test suite keeps the original one-period-at-a-time
loop as its reference (``tests/trace/reference_sampler.py``); both consume
the RNG stream identically, so their traces are bit-for-bit equal (a
property the tests assert on randomized workloads).
"""

from __future__ import annotations

import numpy as np

from repro.obs import span
from repro.trace.events import SampleTrace
from repro.workloads.regions import choice_cdf
from repro.workloads.system import SimulatedSystem

#: The five counter deltas snapshotted at every sample.
_COUNTERS = ("cycles", "work", "fe", "exe", "other")


def _segmented_sequential_sum(values: np.ndarray,
                              starts: np.ndarray) -> np.ndarray:
    """Per-segment sums with strict left-to-right association.

    ``np.add.reduceat`` switches to pairwise summation for long segments,
    which perturbs the last ulp relative to a sequential accumulator.  To
    stay bit-identical to the reference loop, group segments by length and
    accumulate each group column by column — every add happens in the same
    order as ``acc += value`` in a Python loop.
    """
    n_groups = len(starts)
    ends = np.concatenate((starts[1:], [len(values)]))
    counts = ends - starts
    out = np.empty(n_groups, dtype=values.dtype)
    for m in np.unique(counts):
        sel = np.flatnonzero(counts == m)
        cols = starts[sel][:, None] + np.arange(m)
        block = values[cols]
        acc = block[:, 0].copy()
        for j in range(1, int(m)):
            acc += block[:, j]
        out[sel] = acc
    return out


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
        """Run the system and collect the sampled trace (batched engine).

        ``total_instructions`` is the length of the run; the trace holds
        ``total_instructions // period`` samples.
        """
        if total_instructions < self.period:
            raise ValueError(
                "run too short: need at least one sampling period")
        period = self.period

        # One streaming pass over the execution: per-slice extents, rates
        # and metadata.  The slice stream itself is inherently sequential
        # (the scheduler and programs are stateful); everything after this
        # loop is array work.
        slice_instr: list[int] = []
        comps: dict[str, list[float]] = {name: [] for name in _COUNTERS}
        slice_threads: list[int] = []
        slice_proc_codes: list[int] = []
        proc_names: list[str] = []
        proc_index: dict[str, int] = {}
        plans: list = []
        for piece in self.system.slices(total_instructions):
            slice_instr.append(piece.instructions)
            breakdown = piece.breakdown
            comps["cycles"].append(breakdown.cycles)
            comps["work"].append(breakdown.work)
            comps["fe"].append(breakdown.fe)
            comps["exe"].append(breakdown.exe)
            comps["other"].append(breakdown.other)
            slice_threads.append(piece.thread_id)
            code = proc_index.get(piece.process)
            if code is None:
                code = proc_index[piece.process] = len(proc_index)
                proc_names.append(piece.process)
            slice_proc_codes.append(code)
            plans.append(piece.plan)

        instr = np.asarray(slice_instr, dtype=np.int64)
        cum_end = np.cumsum(instr)
        n_samples = total_instructions // period
        boundaries = period * np.arange(1, n_samples + 1, dtype=np.int64)

        # The firing slice of sample k is the one containing instruction
        # boundary k*period (slices cover (start, end] instruction counts).
        fire = np.searchsorted(cum_end, boundaries, side="left")

        # Segment the run at every slice edge and every sample boundary;
        # within a segment the per-instruction counter rates are constant.
        # Segments past the last boundary form the discarded partial period.
        cuts = np.union1d(cum_end, boundaries)
        cuts = cuts[cuts <= boundaries[-1]]
        seg_len = np.diff(np.concatenate(([0], cuts)))
        seg_slice = np.searchsorted(cum_end, cuts, side="left")
        seg_sample = np.searchsorted(boundaries, cuts, side="left")
        starts = np.searchsorted(seg_sample, np.arange(n_samples),
                                 side="left")

        counters = {}
        for name in _COUNTERS:
            per_instr = np.asarray(comps[name], dtype=np.float64) / instr
            counters[name] = _segmented_sequential_sum(
                per_instr[seg_slice] * seg_len, starts)

        eips = self._draw_eips(plans, fire)

        # Process codes are assigned in first-appearance order *among
        # samples* (not slices), matching the reference accumulator.
        sample_slice_codes = np.asarray(slice_proc_codes,
                                        dtype=np.int64)[fire]
        uniq, first_pos = np.unique(sample_slice_codes, return_index=True)
        appearance = uniq[np.argsort(first_pos, kind="stable")]
        remap = np.empty(len(proc_names), dtype=np.int64)
        remap[appearance] = np.arange(len(appearance))
        process_codes = remap[sample_slice_codes]
        processes = tuple(proc_names[code] for code in appearance)

        thread_ids = np.asarray(slice_threads, dtype=np.int32)[fire]
        return self._finalize(
            eips=eips,
            thread_ids=thread_ids,
            process_codes=process_codes.astype(np.int16),
            instructions=np.full(n_samples, period, dtype=np.int64),
            counters=counters,
            processes=processes,
        )

    def collect_to_store(self, store, total_instructions: int,
                         chunk_samples: int = 8192) -> None:
        """Stream a collection into a :class:`~repro.trace.storage.TraceStore`.

        The out-of-core twin of :meth:`collect`: the execution is
        consumed incrementally and samples leave for disk in chunks of
        ``chunk_samples``, so peak memory is bounded by the chunk size
        (plus the slices spanning it) regardless of run length.  The
        stored columns are bit-identical to an in-memory
        :meth:`collect` of the same system — chunk boundaries land
        exactly on sample boundaries, per-slice counter rates are
        computed once from the whole slice before it is split, and the
        batched EIP draws consume the RNG stream in the same order.

        ``store`` must be fresh from ``TraceStore.create``; this method
        appends every chunk and finalizes it (or closes it unfinalized
        on error).
        """
        if total_instructions < self.period:
            raise ValueError(
                "run too short: need at least one sampling period")
        if chunk_samples < 1:
            raise ValueError("chunk_samples must be positive")
        proc_names: list[str] = []
        try:
            for chunk in self._stream(total_instructions, chunk_samples,
                                      proc_names):
                store.append(chunk)
        except BaseException:
            store.close()
            raise
        metadata = dict(self.system.workload.metadata)
        metadata["nominal_overhead"] = (0.05 if self.period < 1_000_000
                                        else 0.02)
        store.finalize(
            processes=tuple(proc_names),
            sample_period=self.period,
            frequency_mhz=self.system.machine.frequency_mhz,
            workload_name=self.system.workload.name,
            metadata=metadata,
        )

    def _stream(self, total_instructions: int, chunk_samples: int,
                proc_names: list):
        """Yield trace columns in chunks of ``chunk_samples`` samples.

        Each yielded dict holds the same arrays :meth:`collect` would
        produce for that sample range.  ``proc_names`` accumulates the
        process table in first-appearance-among-samples order across all
        chunks (the caller reads it after exhaustion).
        """
        period = self.period
        n_samples = total_instructions // period
        proc_index: dict[str, int] = {}

        # Buffered slice records for the chunk under construction.  A
        # slice spanning a chunk boundary is split, but its counter
        # rates stay the ones computed from the full slice — the same
        # floats collect() applies to the same segment lengths.
        buf_instr: list[int] = []
        buf_rates: dict[str, list[float]] = {n: [] for n in _COUNTERS}
        buf_threads: list[int] = []
        buf_procs: list[str] = []
        buf_plans: list = []

        emitted = 0
        chunk_k = min(chunk_samples, n_samples)
        buffered = 0  # instructions buffered toward the current chunk

        def flush(k: int) -> dict:
            instr = np.asarray(buf_instr, dtype=np.int64)
            cum_end = np.cumsum(instr)
            boundaries = period * np.arange(1, k + 1, dtype=np.int64)
            fire = np.searchsorted(cum_end, boundaries, side="left")
            cuts = np.union1d(cum_end, boundaries)
            cuts = cuts[cuts <= boundaries[-1]]
            seg_len = np.diff(np.concatenate(([0], cuts)))
            seg_slice = np.searchsorted(cum_end, cuts, side="left")
            seg_sample = np.searchsorted(boundaries, cuts, side="left")
            starts = np.searchsorted(seg_sample, np.arange(k), side="left")

            counters = {}
            for name in _COUNTERS:
                rate = np.asarray(buf_rates[name], dtype=np.float64)
                counters[name] = _segmented_sequential_sum(
                    rate[seg_slice] * seg_len, starts)

            eips = self._draw_eips(buf_plans, fire)

            # Register processes in first-appearance order among this
            # chunk's samples; the rolling proc_index makes the global
            # code assignment identical to collect()'s whole-run remap.
            local = {}
            local_codes = np.fromiter(
                (local.setdefault(name, len(local)) for name in buf_procs),
                dtype=np.int64, count=len(buf_procs))
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
                    proc_names.append(name)
                remap[code] = global_code
            process_codes = remap[sample_local]

            thread_ids = np.asarray(buf_threads, dtype=np.int32)[fire]
            return {
                "eips": eips,
                "thread_ids": thread_ids,
                "process_ids": process_codes.astype(np.int16),
                "instructions": np.full(k, period, dtype=np.int64),
                "cycles": counters["cycles"],
                "work_cycles": counters["work"],
                "fe_cycles": counters["fe"],
                "exe_cycles": counters["exe"],
                "other_cycles": counters["other"],
            }

        for piece in self.system.slices(total_instructions):
            breakdown = piece.breakdown
            rates = {
                "cycles": breakdown.cycles / piece.instructions,
                "work": breakdown.work / piece.instructions,
                "fe": breakdown.fe / piece.instructions,
                "exe": breakdown.exe / piece.instructions,
                "other": breakdown.other / piece.instructions,
            }
            remaining = piece.instructions
            while remaining > 0:
                take = min(remaining, chunk_k * period - buffered)
                buf_instr.append(take)
                for name in _COUNTERS:
                    buf_rates[name].append(rates[name])
                buf_threads.append(piece.thread_id)
                buf_procs.append(piece.process)
                buf_plans.append(piece.plan)
                buffered += take
                remaining -= take
                if buffered == chunk_k * period:
                    yield flush(chunk_k)
                    emitted += chunk_k
                    buf_instr.clear()
                    for name in _COUNTERS:
                        buf_rates[name].clear()
                    buf_threads.clear()
                    buf_procs.clear()
                    buf_plans.clear()
                    buffered = 0
                    if emitted == n_samples:
                        # The trailing partial period (if any) is
                        # discarded, exactly as collect() discards it.
                        return
                    chunk_k = min(chunk_samples, n_samples - emitted)

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

    def _finalize(self, eips, thread_ids, process_codes, instructions,
                  counters, processes) -> SampleTrace:
        metadata = dict(self.system.workload.metadata)
        metadata["nominal_overhead"] = (0.05 if self.period < 1_000_000
                                        else 0.02)
        return SampleTrace(
            eips=eips,
            thread_ids=thread_ids,
            process_ids=process_codes,
            instructions=instructions,
            cycles=counters["cycles"],
            work_cycles=counters["work"],
            fe_cycles=counters["fe"],
            exe_cycles=counters["exe"],
            other_cycles=counters["other"],
            processes=processes,
            sample_period=self.period,
            frequency_mhz=self.system.machine.frequency_mhz,
            workload_name=self.system.workload.name,
            metadata=metadata,
        )


def collect_trace(system: SimulatedSystem, total_instructions: int,
                  period: int | None = None) -> SampleTrace:
    """Convenience wrapper: sample ``system`` for ``total_instructions``."""
    with span("trace.sample",
              workload=system.workload.name) as sample_span:
        trace = SamplingDriver(system, period=period).collect(
            total_instructions)
        sample_span.inc("samples", len(trace))
    return trace
