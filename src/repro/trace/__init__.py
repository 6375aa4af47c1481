"""Trace substrate: VTune-analogue sampling and EIPV construction."""

from repro.trace.bbv import build_bbvs
from repro.trace.eipv import DEFAULT_INTERVAL, EIPVDataset, build_eipvs, build_per_thread_eipvs
from repro.trace.events import COUNTER_FIELDS, Sample, SampleTrace
from repro.trace.sampler import SamplingDriver, collect_trace
from repro.trace.threads import ThreadingStats, sample_level_stats, slice_level_stats

__all__ = [
    "COUNTER_FIELDS",
    "DEFAULT_INTERVAL",
    "EIPVDataset",
    "Sample",
    "SampleTrace",
    "SamplingDriver",
    "ThreadingStats",
    "build_bbvs",
    "build_eipvs",
    "build_per_thread_eipvs",
    "collect_trace",
    "sample_level_stats",
    "slice_level_stats",
]
