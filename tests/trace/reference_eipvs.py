"""The whole-trace EIPV build: the equality oracle.

:func:`repro.trace.eipv.build_eipvs`, :meth:`EIPVDataset.from_store
<repro.trace.eipv.EIPVDataset.from_store>` and
:func:`~repro.trace.eipv.build_per_thread_eipvs` aggregate a chunk of
intervals at a time.  This module keeps the build they replaced, which
codes every used sample at once (``np.unique(return_inverse=True)``, or
``searchsorted`` into the union vocabulary per thread) and counts the
whole trace with one dense ``bincount``.  :class:`EIPVDataset` stores
that matrix as CSR (``CSRMatrix.from_dense``); the tests in
``test_eipv.py`` and ``test_trace_store.py`` require the chunked CSR
builds to equal it array for array, through ``toarray()`` and triplet
for triplet, at any chunk size.
"""

from __future__ import annotations

import numpy as np

from repro.trace.eipv import DEFAULT_INTERVAL, EIPVDataset
from repro.trace.events import SampleTrace


def _interval_cpis(trace: SampleTrace, interval_rows: np.ndarray,
                   n_intervals: int) -> np.ndarray:
    """Per-interval CPI: cycle delta over instructions retired."""
    cycles = np.bincount(interval_rows, weights=trace.cycles,
                         minlength=n_intervals)
    instructions = np.bincount(interval_rows,
                               weights=trace.instructions.astype(np.float64),
                               minlength=n_intervals)
    return cycles / np.maximum(instructions, 1)


def _aggregate(trace: SampleTrace, interval_rows: np.ndarray,
               n_intervals: int, eip_codes: np.ndarray, n_eips: int):
    """Dense histogram matrix and CPI per interval from coded samples."""
    flat = np.bincount(interval_rows * n_eips + eip_codes,
                       minlength=n_intervals * n_eips)
    matrix = flat.reshape(n_intervals, n_eips).astype(np.int32)
    return matrix, _interval_cpis(trace, interval_rows, n_intervals)


def build_eipvs_reference(trace: SampleTrace,
                          interval_instructions: int = DEFAULT_INTERVAL
                          ) -> EIPVDataset:
    """Merged EIPVs of ``trace``, built over the whole trace at once."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    samples_per_interval = interval_instructions // trace.sample_period
    if samples_per_interval < 1:
        raise ValueError("interval shorter than the sampling period")
    n_intervals = len(trace) // samples_per_interval
    if n_intervals < 1:
        raise ValueError("trace too short for even one interval")
    used = n_intervals * samples_per_interval
    unique_eips, codes = np.unique(trace.eips[:used], return_inverse=True)
    rows = np.repeat(np.arange(n_intervals), samples_per_interval)
    matrix, cpis = _aggregate(trace.select(np.arange(used)), rows,
                              n_intervals, codes, len(unique_eips))
    return EIPVDataset(
        matrix=matrix,
        cpis=cpis,
        eip_index=unique_eips,
        interval_instructions=interval_instructions,
        workload_name=trace.workload_name,
    )


def build_per_thread_eipvs_reference(
        trace: SampleTrace,
        interval_instructions: int = DEFAULT_INTERVAL) -> EIPVDataset:
    """Per-thread EIPVs of ``trace``, each thread built at once."""
    samples_per_interval = interval_instructions // trace.sample_period
    if samples_per_interval < 1:
        raise ValueError("interval shorter than the sampling period")
    union_eips = np.unique(trace.eips)
    matrices, cpi_parts, owners = [], [], []
    for thread_id, sub in sorted(trace.by_thread().items()):
        n_intervals = len(sub) // samples_per_interval
        if n_intervals < 1:
            continue
        used = n_intervals * samples_per_interval
        codes = np.searchsorted(union_eips, sub.eips[:used])
        rows = np.repeat(np.arange(n_intervals), samples_per_interval)
        matrix, cpis = _aggregate(sub.select(np.arange(used)), rows,
                                  n_intervals, codes, len(union_eips))
        matrices.append(matrix)
        cpi_parts.append(cpis)
        owners.append(np.full(n_intervals, thread_id, dtype=np.int32))
    if not matrices:
        raise ValueError("no thread has enough samples for one interval")
    return EIPVDataset(
        matrix=np.vstack(matrices),
        cpis=np.concatenate(cpi_parts),
        eip_index=union_eips,
        interval_instructions=interval_instructions,
        workload_name=trace.workload_name,
        thread_ids=np.concatenate(owners),
    )
