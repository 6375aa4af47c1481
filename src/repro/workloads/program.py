"""Programs: regions plus a phase schedule.

A :class:`Program` decides *which code runs next*.  Three schedule shapes
cover the behaviours the paper observes:

* :class:`CyclicSchedule` — loopy scientific/database-operator code that
  marches through phases and repeats (SPEC loops, ODB-H query plans).
* :class:`MarkovSchedule` — irregular control flow hopping between regions
  with no long-term pattern (gcc-like codes).
* :class:`FlatMixSchedule` — every chunk touches a broad mixture of regions
  (server code with a huge flat footprint: ODB-C, SjAS).

Each ``advance(rng, instructions)`` call returns a :class:`ChunkPlan` — a
weighted set of regions to execute for the next chunk — and moves the
schedule forward by the chunk length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.regions import CodeRegion, choice_cdf


@dataclass(frozen=True)
class ChunkPlan:
    """What a program executes for one chunk: weighted regions.

    ``parts`` is a list of ``(region, weight)`` pairs; weights are positive
    and sum to 1.
    """

    parts: tuple

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a chunk plan needs at least one region")
        total = sum(weight for _, weight in self.parts)
        # np.isclose(total, 1.0, atol=1e-9) on one scalar, without its
        # array machinery (NaN and infinities fail alike).
        if not abs(total - 1.0) <= 1e-9 + 1e-5:
            raise ValueError(f"chunk plan weights must sum to 1, got {total}")
        for _, weight in self.parts:
            if weight <= 0:
                raise ValueError("chunk plan weights must be positive")

    @staticmethod
    def single(region: CodeRegion) -> "ChunkPlan":
        """A chunk spent entirely in one region."""
        return ChunkPlan(parts=((region, 1.0),))

    @property
    def regions(self):
        return [region for region, _ in self.parts]


class Schedule:
    """Base class for phase schedules."""

    def advance(self, rng: np.random.Generator,
                instructions: int) -> ChunkPlan:
        """Plan the next ``instructions``-long chunk and move time forward."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the start of the schedule."""


class CyclicSchedule(Schedule):
    """Deterministic repeating phases.

    ``phases`` is a list of ``(region, duration_instructions)``; execution
    marches through them in order and wraps around.  A chunk that spans a
    phase boundary is split proportionally in the returned plan.
    """

    def __init__(self, phases) -> None:
        self.phases = [(region, int(duration)) for region, duration in phases]
        if not self.phases:
            raise ValueError("cyclic schedule needs at least one phase")
        for region, duration in self.phases:
            if duration <= 0:
                raise ValueError(
                    f"phase duration for {region.name!r} must be positive")
        self.total = sum(duration for _, duration in self.phases)
        self._position = 0

    def advance(self, rng: np.random.Generator,
                instructions: int) -> ChunkPlan:
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        weights: dict[int, float] = {}
        position = self._position
        remaining = instructions
        while remaining > 0:
            index, offset = self._locate(position)
            region, duration = self.phases[index]
            available = duration - offset
            step = min(available, remaining)
            weights[index] = weights.get(index, 0.0) + step
            position += step
            remaining -= step
        self._position = position % self.total
        parts = tuple(
            (self.phases[index][0], weight / instructions)
            for index, weight in sorted(weights.items())
        )
        return ChunkPlan(parts=parts)

    def _locate(self, position: int) -> tuple[int, int]:
        """Map an absolute instruction position to (phase index, offset)."""
        offset = position % self.total
        for index, (_, duration) in enumerate(self.phases):
            if offset < duration:
                return index, offset
            offset -= duration
        raise AssertionError("unreachable: offset within total")

    def reset(self) -> None:
        self._position = 0


class MarkovSchedule(Schedule):
    """Irregular phase behaviour: a Markov chain over regions.

    ``transition`` is a row-stochastic matrix; ``mean_durations[i]`` is the
    geometric-mean number of *chunks* spent in region ``i`` per visit.
    """

    def __init__(self, regions, transition, mean_durations) -> None:
        self.regions = list(regions)
        self.transition = np.asarray(transition, dtype=np.float64)
        self.mean_durations = np.asarray(mean_durations, dtype=np.float64)
        n = len(self.regions)
        if self.transition.shape != (n, n):
            raise ValueError("transition matrix shape must match regions")
        self._transition_cdf = choice_cdf(self.transition)
        if (self.mean_durations <= 0).any():
            raise ValueError("mean durations must be positive")
        self._state = 0
        self._chunks_left = 0

    def advance(self, rng: np.random.Generator,
                instructions: int) -> ChunkPlan:
        if self._chunks_left <= 0:
            self._state = int(self._transition_cdf[self._state].searchsorted(
                rng.random(), side="right"))
            mean = self.mean_durations[self._state]
            self._chunks_left = 1 + int(rng.geometric(min(1.0, 1.0 / mean)))
        self._chunks_left -= 1
        return ChunkPlan.single(self.regions[self._state])

    def reset(self) -> None:
        self._state = 0
        self._chunks_left = 0


class FlatMixSchedule(Schedule):
    """Every chunk executes a broad, noisy mixture of regions.

    Models server code whose instruction stream interleaves thousands of
    functions: each chunk draws Dirichlet-perturbed weights around the base
    mixture, so consecutive EIPVs look near-identical (the paper's "rather
    uniformly distributed" EIP spread for ODB-C/SjAS).
    """

    def __init__(self, regions, weights=None,
                 dirichlet_concentration: float = 200.0) -> None:
        self.regions = list(regions)
        if not self.regions:
            raise ValueError("flat mix needs at least one region")
        if weights is None:
            weights = np.ones(len(self.regions))
        weights = np.asarray(weights, dtype=np.float64)
        if (weights <= 0).any():
            raise ValueError("mixture weights must be positive")
        self.weights = weights / weights.sum()
        if dirichlet_concentration <= 0:
            raise ValueError("dirichlet_concentration must be positive")
        self.dirichlet_concentration = dirichlet_concentration

    def advance(self, rng: np.random.Generator,
                instructions: int) -> ChunkPlan:
        alpha = self.weights * self.dirichlet_concentration
        drawn = rng.dirichlet(alpha)
        # Guard against zero weights from extreme draws.
        drawn = np.maximum(drawn, 1e-12)
        drawn = drawn / drawn.sum()
        parts = tuple(zip(self.regions, drawn.tolist()))
        return ChunkPlan(parts=parts)


class CyclicMixSchedule(Schedule):
    """Cyclic phases over a *shared* region set with per-phase weights.

    Real programs rarely switch between disjoint code: a phase shifts how
    much time each (shared) routine gets.  Each phase is a mixture-weight
    vector over the same regions; chunks spanning phase boundaries blend
    the adjacent phases' weights proportionally.  Per-chunk Dirichlet
    noise models short-term scheduling jitter.
    """

    def __init__(self, regions, phases,
                 dirichlet_concentration: float = 300.0) -> None:
        self.regions = list(regions)
        if not self.regions:
            raise ValueError("need at least one region")
        self.phases = []
        for weights, duration in phases:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.size != len(self.regions):
                raise ValueError("phase weights must match regions")
            if (weights < 0).any() or weights.sum() <= 0:
                raise ValueError("phase weights must be non-negative "
                                 "with positive sum")
            if duration <= 0:
                raise ValueError("phase duration must be positive")
            self.phases.append((weights / weights.sum(), int(duration)))
        if not self.phases:
            raise ValueError("need at least one phase")
        if dirichlet_concentration <= 0:
            raise ValueError("dirichlet_concentration must be positive")
        self.dirichlet_concentration = dirichlet_concentration
        self.total = sum(duration for _, duration in self.phases)
        self._position = 0

    def _weights_for_span(self, start: int, length: int) -> np.ndarray:
        """Duration-weighted blend of phase weights over a span."""
        blended = np.zeros(len(self.regions))
        position = start
        remaining = length
        while remaining > 0:
            offset = position % self.total
            for weights, duration in self.phases:
                if offset < duration:
                    step = min(duration - offset, remaining)
                    blended += weights * step
                    position += step
                    remaining -= step
                    break
                offset -= duration
        return blended / length

    def advance(self, rng: np.random.Generator,
                instructions: int) -> ChunkPlan:
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        weights = self._weights_for_span(self._position, instructions)
        self._position = (self._position + instructions) % self.total
        alpha = np.maximum(weights, 1e-6) * self.dirichlet_concentration
        drawn = np.maximum(rng.dirichlet(alpha), 1e-12)
        drawn /= drawn.sum()
        return ChunkPlan(parts=tuple(zip(self.regions, drawn.tolist())))

    def reset(self) -> None:
        self._position = 0


class DriftMixSchedule(Schedule):
    """A flat mixture whose weights drift linearly over a horizon.

    Models JIT-compiled code churn in the SjAS application server: early in
    the run the interpreter/JIT regions dominate, later the compiled-code
    regions take over, so new EIPs keep appearing in the sample stream.
    After ``horizon`` instructions the end-state weights hold.
    """

    def __init__(self, regions, start_weights, end_weights, horizon: int,
                 dirichlet_concentration: float = 200.0) -> None:
        self.regions = list(regions)
        start = np.asarray(start_weights, dtype=np.float64)
        end = np.asarray(end_weights, dtype=np.float64)
        if len(self.regions) != start.size or start.size != end.size:
            raise ValueError("weights must match regions")
        if (start < 0).any() or (end < 0).any():
            raise ValueError("weights must be non-negative")
        if start.sum() <= 0 or end.sum() <= 0:
            raise ValueError("weights must have positive sum")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.start_weights = start / start.sum()
        self.end_weights = end / end.sum()
        self.horizon = horizon
        self.dirichlet_concentration = dirichlet_concentration
        self._position = 0

    def advance(self, rng: np.random.Generator,
                instructions: int) -> ChunkPlan:
        progress = min(1.0, self._position / self.horizon)
        weights = ((1.0 - progress) * self.start_weights
                   + progress * self.end_weights)
        weights = np.maximum(weights, 1e-9)
        alpha = weights / weights.sum() * self.dirichlet_concentration
        drawn = np.maximum(rng.dirichlet(alpha), 1e-12)
        drawn = drawn / drawn.sum()
        self._position += instructions
        return ChunkPlan(parts=tuple(zip(self.regions, drawn.tolist())))

    def reset(self) -> None:
        self._position = 0


class EpisodeState:
    """Shared on/off episode process (e.g. stop-the-world GC).

    Each ``step`` advances the process by one chunk: with probability
    ``rate`` an episode begins and lasts a geometric number of chunks
    (mean ``mean_length``).  Several schedules may share one state —
    that is how a JVM's stop-the-world collector pauses *every* worker
    thread at once.
    """

    def __init__(self, rate: float, mean_length: float) -> None:
        if not 0 <= rate <= 1:
            raise ValueError("rate must be in [0, 1]")
        if mean_length < 1:
            raise ValueError("mean_length must be >= 1")
        self.rate = rate
        self.mean_length = mean_length
        self._chunks_left = 0

    def step(self, rng: np.random.Generator) -> bool:
        """Advance one chunk; return whether an episode is active."""
        if self._chunks_left <= 0:
            if rng.random() < self.rate:
                self._chunks_left = 1 + int(
                    rng.geometric(min(1.0, 1.0 / self.mean_length)))
        if self._chunks_left <= 0:
            return False
        self._chunks_left -= 1
        return True

    def reset(self) -> None:
        self._chunks_left = 0


class EpisodicSchedule(Schedule):
    """A base schedule interrupted by episodes in a special region.

    While the :class:`EpisodeState` is active, the plan blends in
    ``episode_region`` at ``episode_weight``.  Models garbage-collection
    pauses in the SjAS JVM: distinct GC code runs with distinctly worse
    CPI, giving EIPVs *some* power to explain CPI (the paper's ~20%).
    Pass the same ``state`` to every worker thread's schedule for
    stop-the-world semantics.
    """

    def __init__(self, base: Schedule, episode_region: CodeRegion,
                 rate: float, mean_length: float,
                 episode_weight: float = 0.85,
                 state: EpisodeState | None = None) -> None:
        if not 0 < episode_weight < 1:
            raise ValueError("episode_weight must be in (0, 1)")
        self.base = base
        self.episode_region = episode_region
        self.episode_weight = episode_weight
        self.state = state if state is not None else EpisodeState(
            rate, mean_length)

    @property
    def regions(self):
        return list(self.base.regions) + [self.episode_region]

    def advance(self, rng: np.random.Generator,
                instructions: int) -> ChunkPlan:
        base_plan = self.base.advance(rng, instructions)
        if not self.state.step(rng):
            return base_plan
        residual = 1.0 - self.episode_weight
        parts = tuple((region, weight * residual)
                      for region, weight in base_plan.parts)
        return ChunkPlan(parts=parts
                         + ((self.episode_region, self.episode_weight),))

    def reset(self) -> None:
        self.base.reset()
        self.state.reset()


class BlendedSchedule(Schedule):
    """A base schedule blended with an always-on background region.

    Every chunk's plan gets ``weight`` of ``background`` mixed in.  Models
    runtime/infrastructure code (e.g. the Oracle executor) that runs
    throughout a query regardless of which operator phase is active.
    """

    def __init__(self, base: Schedule, background: CodeRegion,
                 weight: float) -> None:
        if not 0 < weight < 1:
            raise ValueError("weight must be in (0, 1)")
        self.base = base
        self.background = background
        self.weight = weight

    @property
    def regions(self):
        if isinstance(self.base, CyclicSchedule):
            base_regions = [region for region, _ in self.base.phases]
        else:
            base_regions = list(self.base.regions)
        return base_regions + [self.background]

    def advance(self, rng: np.random.Generator,
                instructions: int) -> ChunkPlan:
        base_plan = self.base.advance(rng, instructions)
        residual = 1.0 - self.weight
        parts = tuple((region, weight * residual)
                      for region, weight in base_plan.parts)
        return ChunkPlan(parts=parts + ((self.background, self.weight),))

    def reset(self) -> None:
        self.base.reset()


class Program:
    """A runnable unit: named schedule over regions."""

    def __init__(self, name: str, schedule: Schedule) -> None:
        self.name = name
        self.schedule = schedule

    @property
    def regions(self) -> list[CodeRegion]:
        """All regions the program can execute (deduplicated, ordered)."""
        seen: dict[int, CodeRegion] = {}
        for region in self._schedule_regions():
            seen.setdefault(id(region), region)
        return list(seen.values())

    def _schedule_regions(self):
        schedule = self.schedule
        if isinstance(schedule, CyclicSchedule):
            return [region for region, _ in schedule.phases]
        if isinstance(schedule,
                      (MarkovSchedule, FlatMixSchedule, DriftMixSchedule,
                       EpisodicSchedule, BlendedSchedule)):
            return list(schedule.regions)
        raise TypeError(f"unknown schedule type {type(schedule).__name__}")

    def advance(self, rng: np.random.Generator,
                instructions: int) -> ChunkPlan:
        """Plan the next chunk of ``instructions``."""
        return self.schedule.advance(rng, instructions)

    def reset(self) -> None:
        """Rewind the program to its start."""
        self.schedule.reset()
        for region in self.regions:
            region.reset()
