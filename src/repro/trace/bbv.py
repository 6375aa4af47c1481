"""Basic-block vectors (BBVs) from sampled EIPs.

The paper uses EIP vectors because VTune tags samples with instruction
pointers, not basic blocks, and flags the comparison against Sherwood's
BBVs as future work ("It would be an interesting future research topic to
compare regression tree analysis using EIPVs and BBVs").  This module
provides that comparison's other half: samples aggregated at basic-block
granularity.

A "basic block" here is a fixed-size span of ``block_bytes`` of code — a
faithful stand-in given our synthetic EIP layout, where a region's EIPs
are laid out contiguously.  Aggregating EIPs into blocks trades spatial
resolution for denser, less noisy per-feature counts.
"""

from __future__ import annotations

import numpy as np

from repro.sparse import CSRMatrix
from repro.trace.eipv import EIPVDataset
from repro.trace.events import SampleTrace

#: Default basic-block size: 8 bundles of 16 bytes.
DEFAULT_BLOCK_BYTES = 128


def build_bbvs(trace: SampleTrace,
               interval_instructions: int = 100_000_000,
               block_bytes: int = DEFAULT_BLOCK_BYTES) -> EIPVDataset:
    """Build basic-block vectors instead of EIP vectors.

    Same pipeline as :func:`repro.trace.eipv.build_eipvs`, but every
    sampled EIP is first mapped to its enclosing block; the returned
    dataset's ``eip_index`` holds block base addresses.
    """
    if block_bytes <= 0:
        raise ValueError("block_bytes must be positive")
    samples_per_interval = interval_instructions // trace.sample_period
    if samples_per_interval < 1:
        raise ValueError("interval shorter than the sampling period")
    n_intervals = len(trace) // samples_per_interval
    if n_intervals < 1:
        raise ValueError("trace too short for even one interval")
    used = n_intervals * samples_per_interval

    blocks = (trace.eips[:used] // block_bytes) * block_bytes
    unique_blocks, codes = np.unique(blocks, return_inverse=True)
    rows = np.repeat(np.arange(n_intervals), samples_per_interval)

    matrix = CSRMatrix.from_codes(rows, codes,
                                  shape=(n_intervals, len(unique_blocks)))
    cycles = np.zeros(n_intervals)
    instructions = np.zeros(n_intervals)
    np.add.at(cycles, rows, trace.cycles[:used])
    np.add.at(instructions, rows, trace.instructions[:used])
    return EIPVDataset(
        matrix=matrix,
        cpis=cycles / np.maximum(instructions, 1),
        eip_index=unique_blocks,
        interval_instructions=interval_instructions,
        workload_name=trace.workload_name,
    )
