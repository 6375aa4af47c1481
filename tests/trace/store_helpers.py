"""Round trips between an in-memory trace and a :class:`TraceStore`.

The program streams collections into a store and reads them back column
by column; the tests also spill a finished trace into one and
materialize one whole, to compare every column, dtype and header field.
"""

import numpy as np

from repro.trace.events import TRACE_COLUMNS, SampleTrace
from repro.trace.storage import TraceStore


def trace_to_store(trace: SampleTrace, path) -> TraceStore:
    """Spill an in-memory trace to a finalized store at ``path``."""
    store = TraceStore.create(path)
    try:
        store.append({name: trace.column(name) for name in TRACE_COLUMNS})
    except BaseException:
        store.close()
        raise
    return store.finalize(
        processes=trace.processes, sample_period=trace.sample_period,
        frequency_mhz=trace.frequency_mhz,
        workload_name=trace.workload_name, metadata=trace.metadata)


def store_to_trace(store: TraceStore) -> SampleTrace:
    """Materialize a whole store as an in-memory trace."""
    return SampleTrace(
        **{name: np.array(store.column(name)) for name in TRACE_COLUMNS},
        processes=store.processes, sample_period=store.sample_period,
        frequency_mhz=store.frequency_mhz,
        workload_name=store.workload_name, metadata=store.metadata)
