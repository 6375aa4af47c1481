"""Deterministic workload-space generation for fleet-scale sweeps.

A :class:`SweepSpace` describes a cross product of sweep axes — workload
mixes × uarch configs (machines) × EIPV interval sizes × simulation
seeds — plus the analysis knobs shared by every point.  The space is
*generated*, never enumerated by hand: :meth:`SweepSpace.specs` expands
the axes in a fixed ``itertools.product`` order into content-hashed
:class:`~repro.runtime.jobs.JobSpec`s, so the same space always yields
the same points in the same order, on any machine, in any process.

Large spaces can be subsampled deterministically: ``limit`` keeps a
seeded random subset of the full product, chosen by index permutation
and re-sorted, so the subsample is reproducible and still in canonical
point order.

Identity: :attr:`SweepSpace.key` hashes the canonical description (axes,
knobs, limit, sample seed, pipeline code version) with the same SHA-256
canonical-JSON scheme job specs use.  The sweep manifest stores this key
and refuses to resume a sweep directory against a different space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from repro.core.config import AnalysisConfig
from repro.runtime.jobs import CODE_VERSION, JobSpec, spec_key
from repro.uarch.machine import MACHINES
from repro.workloads.registry import workload_names
from repro.workloads.scale import SCALES

#: Interval sizes (instructions per EIPV interval) the stock sweep uses
#: at tiny scale — small enough that a thousand-point space finishes in
#: minutes, spread enough that interval-size sensitivity is visible.
DEFAULT_INTERVALS = (2_000_000, 5_000_000, 10_000_000)


@dataclass(frozen=True)
class SweepSpace:
    """Frozen description of a generated sweep's parameter space."""

    workloads: tuple = ()
    machines: tuple = ("itanium2",)
    interval_instructions: tuple = DEFAULT_INTERVALS
    seeds: tuple = (11,)
    scale: str = "tiny"
    #: Intervals per point *at the largest interval size*.  Every point
    #: of one (workload, machine, seed) cell analyzes the same
    #: ``n_intervals * max(interval_instructions)`` instruction
    #: execution, re-cut at each interval size (see :meth:`specs`) — so
    #: the interval axis varies the EIPV granularity of one measured
    #: run, exactly the paper's interval-size sensitivity question, and
    #: all variants share a single collect stage.
    n_intervals: int = 12
    k_max: int = 5
    folds: int = 4
    min_leaf: int = 1
    #: Deterministic subsample: keep this many points of the full
    #: product (seeded index permutation, re-sorted).  None = all.
    limit: int | None = None
    sample_seed: int = 0
    code_version: str = CODE_VERSION

    def __post_init__(self):
        if not self.workloads:
            raise ValueError("a sweep space needs at least one workload")
        for name, axis in (("machines", self.machines),
                           ("interval_instructions",
                            self.interval_instructions),
                           ("seeds", self.seeds)):
            if not axis:
                raise ValueError(f"sweep axis {name!r} is empty")
        unknown = sorted(set(self.machines) - set(MACHINES))
        if unknown:
            raise ValueError(f"unknown machines in sweep space: {unknown}")
        if self.scale not in SCALES:
            raise ValueError(f"unknown scale {self.scale!r}")
        # Refuses k_max < 1, folds < 2 and min_leaf < 1 before any point
        # runs.
        AnalysisConfig(k_max=self.k_max, folds=self.folds,
                       min_leaf=self.min_leaf)
        if self.folds > self.n_intervals:
            raise ValueError(
                f"folds ({self.folds}) cannot exceed n_intervals "
                f"({self.n_intervals}): every fold needs an interval")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be positive (or None for all)")

    @property
    def full_size(self) -> int:
        """Points in the full cross product, before any ``limit``."""
        return (len(self.workloads) * len(self.machines)
                * len(self.interval_instructions) * len(self.seeds))

    @property
    def size(self) -> int:
        """Points this space actually generates."""
        if self.limit is None:
            return self.full_size
        return min(self.limit, self.full_size)

    def canonical(self) -> dict:
        """JSON-safe identity dict (what :attr:`key` hashes)."""
        return {
            "kind": "sweep-space",
            "workloads": list(self.workloads),
            "machines": list(self.machines),
            "interval_instructions": list(self.interval_instructions),
            "seeds": list(self.seeds),
            "scale": self.scale,
            "n_intervals": self.n_intervals,
            "k_max": self.k_max,
            "folds": self.folds,
            "min_leaf": self.min_leaf,
            "limit": self.limit,
            "sample_seed": self.sample_seed,
            "code_version": self.code_version,
        }

    @cached_property
    def key(self) -> str:
        """Content hash of the space (same scheme as job-spec keys)."""
        return spec_key(self.canonical())

    def _selected(self) -> list[int]:
        """Indices into the full product this space keeps, ascending.

        The subsample is a seeded permutation prefix, re-sorted so the
        kept points stay in canonical product order — resumability and
        report determinism depend on point order being a pure function
        of the space.
        """
        total = self.full_size
        if self.limit is None or self.limit >= total:
            return list(range(total))
        rng = np.random.default_rng(self.sample_seed)
        kept = rng.permutation(total)[: self.limit]
        return sorted(int(i) for i in kept)

    def total_instructions(self) -> int:
        """Instructions simulated per (workload, machine, seed) cell."""
        return self.n_intervals * max(self.interval_instructions)

    def point_intervals(self, interval: int) -> int:
        """Interval count for one point at the given interval size.

        The run length is held constant across the interval axis
        (:meth:`total_instructions`), so smaller intervals yield
        proportionally more of them; a size that doesn't divide the
        total floors down (its trailing partial interval is dropped by
        the EIPV builder anyway).  Never below ``n_intervals``, so the
        ``folds <= n_intervals`` validation covers every point.
        """
        return max(self.n_intervals, self.total_instructions() // interval)

    def specs(self) -> list[JobSpec]:
        """Every point of the space as a content-hashed job spec.

        Fixed expansion order: ``product(workloads, machines,
        interval_instructions, seeds)``, the slowest-varying axis first.
        Point ``i`` of a space is the same job everywhere, forever.

        All interval-size variants of one (workload, machine, seed)
        cell describe the *same* simulated execution — identical
        ``n_intervals * interval_instructions`` products — so their
        collect stages share one content key and a staged sweep
        simulates each cell once.
        """
        grid = list(product(self.workloads, self.machines,
                            self.interval_instructions, self.seeds))
        out = []
        for index in self._selected():
            workload, machine, interval, seed = grid[index]
            out.append(JobSpec(
                workload=workload,
                n_intervals=self.point_intervals(interval),
                seed=seed,
                machine=machine,
                scale=self.scale,
                k_max=self.k_max,
                folds=self.folds,
                min_leaf=self.min_leaf,
                interval_instructions=interval,
                code_version=self.code_version,
            ))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpace":
        """Inverse of :meth:`canonical` (``kind`` tag tolerated)."""
        data = dict(data)
        data.pop("kind", None)
        for axis in ("workloads", "machines", "interval_instructions",
                     "seeds"):
            if axis in data:
                data[axis] = tuple(data[axis])
        return cls(**data)


def default_space(limit: int | None = None,
                  seeds: tuple = (11, 12, 13)) -> SweepSpace:
    """The stock sweep: every workload × every machine × three interval
    sizes × three seeds at tiny scale — 1350 points before ``limit``."""
    return SweepSpace(workloads=tuple(workload_names()),
                      machines=tuple(sorted(MACHINES)),
                      seeds=tuple(seeds),
                      limit=limit)
