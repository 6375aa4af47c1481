"""EIP vector (EIPV) construction.

Section 3.2: the execution is divided into equal intervals of 100M
instructions; each interval j is represented by the histogram vector
``x_j`` of per-unique-EIP sample counts, plus the interval's instantaneous
CPI (cycle delta / instructions retired).  With the default 1M-instruction
sampling period an EIPV aggregates 100 consecutive samples.

:class:`EIPVDataset` is the (EIPV matrix, CPI vector) pair every analysis
in the paper consumes — the regression tree, k-means, and the quadrant
classifier all start here.  The matrix is always a
:class:`~repro.sparse.CSRMatrix`: an interval holds at most
``samples_per_interval`` non-zero counts, so huge-footprint workloads
(ODB-C-style, ~10^4 unique EIPs) are overwhelmingly zeros, and CSR keeps
the memory at O(nnz) instead of O(intervals × eips).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import span
from repro.sparse import CSRMatrix, as_csr
from repro.trace.events import SampleTrace

#: The paper's interval size in retired instructions.
DEFAULT_INTERVAL = 100_000_000

#: Intervals aggregated per chunk when building EIPVs.
CHUNK_INTERVALS = 256


@dataclass
class EIPVDataset:
    """EIPVs plus per-interval CPI for one run.

    Entry ``(j, i)`` of ``matrix`` is how many times unique EIP
    ``eip_index[i]`` was sampled during interval ``j``; ``cpis[j]`` is
    that interval's instantaneous CPI.  ``thread_ids[j]`` is the owning
    thread for per-thread datasets (-1 when intervals mix threads).
    ``matrix`` is a :class:`~repro.sparse.CSRMatrix`; a dense array
    passed in is stored as :func:`~repro.sparse.as_csr` of it.
    """

    matrix: CSRMatrix
    cpis: np.ndarray
    eip_index: np.ndarray
    interval_instructions: int
    workload_name: str = ""
    thread_ids: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.matrix = as_csr(self.matrix)
        m, n = self.matrix.shape
        if len(self.cpis) != m:
            raise ValueError("cpis length must match interval count")
        if len(self.eip_index) != n:
            raise ValueError("eip_index length must match EIP count")
        if self.interval_instructions <= 0:
            raise ValueError("interval_instructions must be positive")
        if self.thread_ids is None:
            self.thread_ids = np.full(m, -1, dtype=np.int32)
        elif len(self.thread_ids) != m:
            raise ValueError("thread_ids length must match interval count")

    @property
    def n_intervals(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_eips(self) -> int:
        return self.matrix.shape[1]

    @property
    def cpi_variance(self) -> float:
        """Population variance of interval CPI — the paper's key statistic."""
        return float(np.var(self.cpis))

    @property
    def cpi_mean(self) -> float:
        return float(np.mean(self.cpis))

    def subset(self, rows: np.ndarray) -> "EIPVDataset":
        """Dataset restricted to the given interval rows."""
        return EIPVDataset(
            matrix=self.matrix[rows],
            cpis=self.cpis[rows],
            eip_index=self.eip_index,
            interval_instructions=self.interval_instructions,
            workload_name=self.workload_name,
            thread_ids=self.thread_ids[rows],
        )

    def prune_features(self, max_features: int) -> "EIPVDataset":
        """Keep only the ``max_features`` most-sampled EIP columns.

        Useful to bound tree-build cost for huge-footprint workloads; the
        paper keeps all EIPs, so analyses default to no pruning.  Ties are
        broken deterministically: stable sort by (count desc, column asc).
        """
        if max_features >= self.n_eips:
            return self
        totals = np.asarray(self.matrix.sum(axis=0), dtype=np.int64)
        order = np.lexsort((np.arange(len(totals)), -totals))
        keep = np.sort(order[:max_features])
        return EIPVDataset(
            matrix=self.matrix[:, keep],
            cpis=self.cpis,
            eip_index=self.eip_index[keep],
            interval_instructions=self.interval_instructions,
            workload_name=self.workload_name,
            thread_ids=self.thread_ids,
        )

    @classmethod
    def from_store(cls, store,
                   interval_instructions: int = DEFAULT_INTERVAL,
                   chunk_intervals: int = CHUNK_INTERVALS) -> "EIPVDataset":
        """Build merged (all-thread) EIPVs a chunk of intervals at a time.

        ``store`` is an in-memory :class:`~repro.trace.events.SampleTrace`
        or an on-disk :class:`~repro.trace.storage.TraceStore` (any
        object with ``__len__``, ``sample_period``, ``workload_name``
        and ``column(name)`` works).  Its columns are consumed in chunks
        of ``chunk_intervals`` whole intervals, so a memmapped store is
        never resident; the dataset is the same at any chunk size.
        Samples past the last whole interval are ignored.
        """
        n = len(store)
        if n == 0:
            raise ValueError("empty trace")
        samples_per_interval = interval_instructions // store.sample_period
        if samples_per_interval < 1:
            raise ValueError("interval shorter than the sampling period")
        n_intervals = n // samples_per_interval
        if n_intervals < 1:
            raise ValueError("trace too short for even one interval")
        if chunk_intervals < 1:
            raise ValueError("chunk_intervals must be positive")

        eips = store.column("eips")
        with span("trace.build_eipvs") as build_span:
            # The sorted unique-EIP vocabulary: the union of per-chunk
            # uniques equals the unique of every sample used.
            vocabulary = np.empty(0, dtype=np.int64)
            for start, stop in _chunks(n_intervals, samples_per_interval,
                                       chunk_intervals):
                vocabulary = np.union1d(vocabulary,
                                        np.asarray(eips[start:stop]))
            matrix, cpis = _histograms(store, vocabulary, n_intervals,
                                       samples_per_interval, chunk_intervals)
            build_span.inc("intervals", n_intervals)
            build_span.inc("eips", len(vocabulary))
        return cls(
            matrix=matrix,
            cpis=cpis,
            eip_index=vocabulary,
            interval_instructions=interval_instructions,
            workload_name=store.workload_name,
        )


def _chunks(n_intervals: int, samples_per_interval: int,
            chunk_intervals: int):
    """``(start, stop)`` sample ranges of whole intervals, at most
    ``chunk_intervals`` of them per range, over the first
    ``n_intervals`` intervals."""
    used = n_intervals * samples_per_interval
    step = chunk_intervals * samples_per_interval
    for start in range(0, used, step):
        yield start, min(start + step, used)


def _histograms(trace, vocabulary: np.ndarray, n_intervals: int,
                samples_per_interval: int,
                chunk_intervals: int = CHUNK_INTERVALS):
    """Per-interval EIP histograms over ``vocabulary``, and interval CPIs.

    Covers ``trace``'s first ``n_intervals`` intervals, aggregated
    ``chunk_intervals`` at a time; every EIP must be in ``vocabulary``.
    Chunks end on interval boundaries and ``bincount`` adds each
    interval's weights in sample order, so every CPI is the same float
    at any chunk size.  Returns ``(matrix, cpis)``: the matrix is a
    :class:`~repro.sparse.CSRMatrix` counted straight from the sample
    codes, never densified.
    """
    n_eips = len(vocabulary)
    eips = trace.column("eips")
    cycles = trace.column("cycles")
    instructions = trace.column("instructions")
    cpis = np.empty(n_intervals, dtype=np.float64)
    parts = []
    for start, stop in _chunks(n_intervals, samples_per_interval,
                               chunk_intervals):
        k = (stop - start) // samples_per_interval
        first_row = start // samples_per_interval
        rows = np.repeat(np.arange(k), samples_per_interval)
        codes = np.searchsorted(vocabulary, np.asarray(eips[start:stop]))
        parts.append(CSRMatrix.from_codes(rows, codes, shape=(k, n_eips)))
        interval_cycles = np.bincount(
            rows, weights=np.asarray(cycles[start:stop]), minlength=k)
        interval_instructions = np.bincount(
            rows,
            weights=np.asarray(instructions[start:stop]).astype(np.float64),
            minlength=k)
        cpis[first_row:first_row + k] = (
            interval_cycles / np.maximum(interval_instructions, 1))
    return CSRMatrix.vstack(parts), cpis


def build_eipvs(trace: SampleTrace,
                interval_instructions: int = DEFAULT_INTERVAL) -> EIPVDataset:
    """Build merged (all-thread) EIPVs, the paper's default pipeline.

    :meth:`EIPVDataset.from_store` over the trace's columns.
    """
    return EIPVDataset.from_store(trace, interval_instructions)


def build_per_thread_eipvs(
        trace: SampleTrace,
        interval_instructions: int = DEFAULT_INTERVAL) -> EIPVDataset:
    """Per-thread EIPVs (Section 5.2's thread-separated analysis).

    Samples are first split by thread tag; each thread's sample stream is
    cut into its own intervals.  The returned dataset stacks all threads'
    intervals as data points over the union EIP space, with
    ``thread_ids`` recording ownership.  Threads too short for one full
    interval are dropped.
    """
    samples_per_interval = interval_instructions // trace.sample_period
    if samples_per_interval < 1:
        raise ValueError("interval shorter than the sampling period")

    union_eips = np.unique(trace.eips)
    matrices = []
    cpi_parts = []
    owners = []
    for thread_id, sub in sorted(trace.by_thread().items()):
        n_intervals = len(sub) // samples_per_interval
        if n_intervals < 1:
            continue
        matrix, cpis = _histograms(sub, union_eips, n_intervals,
                                   samples_per_interval)
        matrices.append(matrix)
        cpi_parts.append(cpis)
        owners.append(np.full(n_intervals, thread_id, dtype=np.int32))
    if not matrices:
        raise ValueError("no thread has enough samples for one interval")
    return EIPVDataset(
        matrix=CSRMatrix.vstack(matrices),
        cpis=np.concatenate(cpi_parts),
        eip_index=union_eips,
        interval_instructions=interval_instructions,
        workload_name=trace.workload_name,
        thread_ids=np.concatenate(owners),
    )
