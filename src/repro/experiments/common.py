"""Shared plumbing for experiment modules.

Every experiment needs the same pipeline: build workload -> simulate ->
sample -> EIPVs -> analysis.  :func:`collect` gets one run's trace and
EIPV dataset through the pipeline's collect and eipv stages
(:mod:`repro.runtime.stages`), so experiments that share an artifact
store share their simulations: a store that already holds a run's
artifacts simulates nothing.

:meth:`RunConfig.fingerprint` is the canonical identity the runtime's
content-addressed job cache hashes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.eipv import EIPVDataset
from repro.trace.events import SampleTrace
from repro.workloads.scale import DEFAULT, WorkloadScale

#: Instructions per EIPV interval (the paper's 100M).
INTERVAL = 100_000_000


@dataclass(frozen=True)
class RunConfig:
    """Reproducible description of one simulated, sampled run."""

    workload: str
    n_intervals: int = 60
    seed: int = 11
    machine: str = "itanium2"
    scale: WorkloadScale = DEFAULT
    interval_instructions: int = INTERVAL

    def __post_init__(self) -> None:
        if self.n_intervals < 1:
            raise ValueError(
                f"n_intervals must be at least 1, got {self.n_intervals}")

    def total_instructions(self) -> int:
        return self.n_intervals * self.interval_instructions

    def fingerprint(self) -> dict:
        """JSON-safe identity dict (what the runtime job hash covers)."""
        return {
            "workload": self.workload,
            "n_intervals": self.n_intervals,
            "seed": self.seed,
            "machine": self.machine,
            "scale": self.scale.name,
            "interval_instructions": self.interval_instructions,
        }


def collect(config: RunConfig,
            store=None) -> tuple[SampleTrace, EIPVDataset]:
    """One run's ``(trace, dataset)`` through ``store``'s artifacts.

    The trace is the trace artifact materialized in memory and the
    dataset the EIPV artifact's read-only views; whichever is missing
    is computed, published and returned as built, so a second call on
    the same store simulates nothing.  Without a store the call gets a
    temporary one of its own.
    """
    # Imported lazily: repro.runtime.jobs imports this module at its top
    # level, so a top-level import of the stages would be circular.
    from repro.runtime import stages
    from repro.runtime.cache import store_scope

    if store is None:
        with store_scope(None) as scoped:
            return collect(config, store=scoped)
    spec = stages.EipvSpec(
        workload=config.workload, machine=config.machine, seed=config.seed,
        scale=config.scale.name,
        total_instructions=config.total_instructions(),
        interval_instructions=config.interval_instructions)
    trace = stages.stored_trace(store, spec.collect_spec())
    return trace, stages.eipv_dataset(store, spec)


def default_intervals(workload: str) -> int:
    """Experiment-appropriate run length per workload class.

    DSS queries need many plan passes for the tree to generalize across
    phase-boundary mixture intervals; servers and SPEC settle faster.
    """
    if workload.startswith("odbh."):
        return 132
    return 60
