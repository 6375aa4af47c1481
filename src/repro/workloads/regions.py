"""Code regions: the unit of control-flow identity.

A :class:`CodeRegion` is a contiguous stretch of program text — a set of
unique EIPs — together with the microarchitectural behaviour
(:class:`~repro.uarch.cpu.ExecutionProfile`) of the code living there.
Regions are what the VTune-analogue sampler observes: when execution is
inside a region, a sample records one of the region's EIPs.

Regions can be *data-dependent*: a modulator perturbs the region's profile
chunk by chunk.  This is how ODB-H Q18's B-tree index scan produces large
CPI swings from a tiny, repeatedly executed code footprint (paper Sec 6.2),
and how gcc-like irregular codes land in quadrant Q-III.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.uarch.cpu import ExecutionProfile

#: Synthetic instruction encoding width: EIPs within a region are spaced
#: this many bytes apart (Itanium 2 bundles are 16 bytes).
EIP_STRIDE = 16

#: The tolerance Generator.choice allows on the sum of float64 ``p``.
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def choice_cdf(p) -> np.ndarray:
    """The CDF ``Generator.choice(len(p), p=p)`` draws through, built once.

    ``cdf.searchsorted(rng.random(), side="right")`` picks the index that
    ``choice`` picks from the same stream position, consuming the same one
    double, without choice's per-call validation and CDF build.  ``p`` may
    be a matrix of distributions, one per row (last axis).  The checks are
    the ones ``choice`` makes: no negative or NaN entry, and each row sums
    to 1 within sqrt(eps).
    """
    p = np.asarray(p, dtype=np.float64)
    if not (p >= 0).all():
        raise ValueError("probabilities must be non-negative numbers")
    rows = p.reshape(-1, p.shape[-1])
    if not all(abs(math.fsum(row) - 1.0) <= _CHOICE_ATOL for row in rows):
        raise ValueError("probabilities must sum to 1")
    # Generator.choice's own construction, so the bits match.
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


class ProfileModulator:
    """Base class: perturbs a region's profile for one execution chunk.

    The default implementation returns the profile unchanged (static
    regions).  Subclasses override :meth:`modulate`.
    """

    def modulate(self, profile: ExecutionProfile,
                 rng: np.random.Generator) -> ExecutionProfile:
        """Return the profile to use for the next chunk."""
        return profile

    def reset(self) -> None:
        """Forget any internal state (start of a fresh run)."""


class RandomLatencyModulator(ProfileModulator):
    """Data-dependent memory behaviour: locality jitters chunk to chunk.

    ``locality_sigma`` is the standard deviation of a (clamped) Gaussian
    perturbation applied to ``data_locality``.  Large sigma means the same
    code can be cheap or expensive depending on the data it touches — the
    paper's explanation for Q18 and for several Q-III benchmarks.
    """

    def __init__(self, locality_sigma: float,
                 mispredict_sigma: float = 0.0) -> None:
        if locality_sigma < 0 or mispredict_sigma < 0:
            raise ValueError("sigmas must be non-negative")
        self.locality_sigma = locality_sigma
        self.mispredict_sigma = mispredict_sigma

    def modulate(self, profile: ExecutionProfile,
                 rng: np.random.Generator) -> ExecutionProfile:
        locality = profile.data_locality
        if self.locality_sigma > 0:
            locality += float(rng.normal(0.0, self.locality_sigma))
            locality = min(1.0, max(0.0, locality))
        mispredict = profile.mispredict_rate
        if self.mispredict_sigma > 0:
            mispredict += float(rng.normal(0.0, self.mispredict_sigma))
            mispredict = min(1.0, max(0.0, mispredict))
        return profile.scaled(data_locality=locality,
                              mispredict_rate=mispredict)


class RandomWalkModulator(ProfileModulator):
    """Slowly drifting behaviour: locality follows a bounded random walk.

    Produces CPI that is auto-correlated in time but uncorrelated with the
    code being executed — visible "phases" in the CPI curve that EIPVs
    cannot explain (the paper notes Q18's CPI shows apparent phases that do
    not correlate with EIPs).
    """

    def __init__(self, step_sigma: float, low: float = 0.3,
                 high: float = 0.99) -> None:
        if step_sigma < 0:
            raise ValueError("step_sigma must be non-negative")
        if not low < high:
            raise ValueError("low must be < high")
        self.step_sigma = step_sigma
        self.low = low
        self.high = high
        self._offset = 0.0

    def modulate(self, profile: ExecutionProfile,
                 rng: np.random.Generator) -> ExecutionProfile:
        self._offset += float(rng.normal(0.0, self.step_sigma))
        span = self.high - self.low
        # Reflect the walk back into [-span/2, span/2] to keep it bounded.
        half = span / 2.0
        offset = self._offset
        if abs(offset) > half:
            offset = np.sign(offset) * (half - (abs(offset) - half) % half)
        locality = min(self.high, max(self.low,
                                      profile.data_locality + offset))
        return profile.scaled(data_locality=float(locality))

    def reset(self) -> None:
        self._offset = 0.0


@dataclass(eq=False)  # identity semantics: a region is a unique code range
class CodeRegion:
    """A named code segment with its EIP footprint and behaviour.

    Parameters
    ----------
    name:
        Human-readable label (e.g. ``"oracle.sort"`` or ``"kernel.sched"``).
    eip_base:
        Address of the region's first EIP.
    n_eips:
        Number of unique EIPs the sampler can observe in this region.
    profile:
        Steady-state microarchitectural behaviour of the region's code.
    jitter:
        Lognormal sigma applied to the stall components of each chunk —
        micro-level variation not captured by the profile.
    eip_concentration:
        Zipf-like skew of samples across the region's EIPs.  ``0`` gives a
        uniform spread (server code); larger values concentrate samples on
        a few hot EIPs (loopy code).
    modulator:
        Optional data-dependence model (see :class:`ProfileModulator`).
    """

    name: str
    eip_base: int
    n_eips: int
    profile: ExecutionProfile
    jitter: float = 0.0
    eip_concentration: float = 0.0
    modulator: ProfileModulator | None = None
    _eip_cdf: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.n_eips <= 0:
            raise ValueError(f"region {self.name!r} needs n_eips > 0")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.eip_concentration < 0:
            raise ValueError("eip_concentration must be non-negative")
        ranks = np.arange(1, self.n_eips + 1, dtype=np.float64)
        weights = ranks ** (-self.eip_concentration)
        self._eip_cdf = choice_cdf(weights / weights.sum())

    @property
    def eips(self) -> np.ndarray:
        """All unique EIP addresses in this region."""
        return self.eip_base + EIP_STRIDE * np.arange(self.n_eips)

    @property
    def eip_end(self) -> int:
        """One past the last EIP address (for laying out address spaces)."""
        return self.eip_base + EIP_STRIDE * self.n_eips

    def sample_eips(self, rng: np.random.Generator,
                    count: int) -> np.ndarray:
        """Draw ``count`` observed EIPs according to the region's skew.

        Equivalent to ``rng.choice(n_eips, size=count, p=weights)`` but
        skips choice's per-call validation; both consume exactly one
        uniform double per draw, so traces stay bit-identical.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        return self.eips_from_uniform(rng.random(count))

    def eips_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Map uniform [0, 1) draws to EIPs, one per draw.

        This is the batched core of :meth:`sample_eips`: callers that
        pre-draw uniforms (the vectorized sampling engine) can route them
        through the region's CDF in bulk.
        """
        indices = self._eip_cdf.searchsorted(np.asarray(u), side="right")
        return self.eip_base + EIP_STRIDE * indices

    def chunk_profile(self, rng: np.random.Generator) -> ExecutionProfile:
        """Profile to use for the next execution chunk."""
        if self.modulator is None:
            return self.profile
        return self.modulator.modulate(self.profile, rng)

    def reset(self) -> None:
        """Reset any data-dependent state."""
        if self.modulator is not None:
            self.modulator.reset()


def layout_regions(specs, start: int = 0x40000000):
    """Assign non-overlapping EIP ranges to a sequence of region factories.

    ``specs`` is an iterable of callables taking the assigned ``eip_base``
    and returning a :class:`CodeRegion`.  Returns the list of regions laid
    out consecutively starting at ``start``.
    """
    regions = []
    base = start
    for make in specs:
        region = make(base)
        if region.eip_base != base:
            raise ValueError(
                f"region {region.name!r} ignored its assigned base address")
        regions.append(region)
        base = region.eip_end
    return regions


class OUModulator(ProfileModulator):
    """Mean-reverting (Ornstein-Uhlenbeck) drift of memory locality.

    Unlike a reflected random walk, an OU process is stationary: its
    realized variance over a finite run is stable run to run, which keeps
    data-dependent benchmarks (mcf-like pointer chasing) reliably on the
    high-variance side of the quadrant threshold.  ``sigma`` is the
    stationary standard deviation of the locality offset; ``rho`` the
    per-chunk autocorrelation.
    """

    def __init__(self, sigma: float, rho: float = 0.95) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not 0 <= rho < 1:
            raise ValueError("rho must be in [0, 1)")
        self.sigma = sigma
        self.rho = rho
        self._innovation = sigma * np.sqrt(1.0 - rho * rho)
        self._x = 0.0

    def modulate(self, profile: ExecutionProfile,
                 rng: np.random.Generator) -> ExecutionProfile:
        self._x = self.rho * self._x + float(
            rng.normal(0.0, self._innovation))
        locality = min(1.0, max(0.0, profile.data_locality + self._x))
        return profile.scaled(data_locality=float(locality))

    def reset(self) -> None:
        self._x = 0.0
