"""Tests for code regions and profile modulators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.cpu import ExecutionProfile
from repro.workloads.regions import (
    EIP_STRIDE,
    CodeRegion,
    RandomLatencyModulator,
    RandomWalkModulator,
    choice_cdf,
    layout_regions,
)


def region(n_eips=10, base=0x1000, **kwargs):
    return CodeRegion(name="r", eip_base=base, n_eips=n_eips,
                      profile=ExecutionProfile(), **kwargs)


class TestCodeRegion:
    def test_eips_are_spaced_by_stride(self):
        r = region(n_eips=4, base=0x1000)
        assert list(r.eips) == [0x1000, 0x1000 + EIP_STRIDE,
                                0x1000 + 2 * EIP_STRIDE,
                                0x1000 + 3 * EIP_STRIDE]
        assert r.eip_end == 0x1000 + 4 * EIP_STRIDE

    def test_sample_eips_within_region(self):
        r = region(n_eips=16)
        rng = np.random.default_rng(0)
        samples = r.sample_eips(rng, 200)
        assert samples.min() >= r.eip_base
        assert samples.max() < r.eip_end
        assert ((samples - r.eip_base) % EIP_STRIDE == 0).all()

    def test_concentration_skews_samples(self):
        rng = np.random.default_rng(0)
        flat = region(n_eips=100, eip_concentration=0.0)
        skewed = region(n_eips=100, eip_concentration=2.0)
        flat_counts = np.bincount(
            (flat.sample_eips(rng, 5000) - flat.eip_base) // EIP_STRIDE,
            minlength=100)
        skewed_counts = np.bincount(
            (skewed.sample_eips(rng, 5000) - skewed.eip_base) // EIP_STRIDE,
            minlength=100)
        # The hottest EIP should dominate much more under skew.
        assert skewed_counts.max() > 2 * flat_counts.max()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            region().sample_eips(np.random.default_rng(0), -1)

    @pytest.mark.parametrize("kwargs", [
        {"n_eips": 0}, {"jitter": -0.1}, {"eip_concentration": -1.0},
    ])
    def test_invalid_regions_rejected(self, kwargs):
        with pytest.raises(ValueError):
            region(**{"n_eips": 10, **kwargs})

    def test_static_region_profile_unchanged(self):
        r = region()
        rng = np.random.default_rng(0)
        assert r.chunk_profile(rng) is r.profile


class TestModulators:
    def test_random_latency_bounds(self):
        modulator = RandomLatencyModulator(locality_sigma=0.5,
                                           mispredict_sigma=0.5)
        profile = ExecutionProfile(data_locality=0.5, mispredict_rate=0.5)
        rng = np.random.default_rng(1)
        for _ in range(200):
            modulated = modulator.modulate(profile, rng)
            assert 0.0 <= modulated.data_locality <= 1.0
            assert 0.0 <= modulated.mispredict_rate <= 1.0

    def test_random_walk_stays_in_band(self):
        modulator = RandomWalkModulator(step_sigma=0.05, low=0.4, high=0.9)
        profile = ExecutionProfile(data_locality=0.65)
        rng = np.random.default_rng(2)
        values = [modulator.modulate(profile, rng).data_locality
                  for _ in range(500)]
        assert min(values) >= 0.4
        assert max(values) <= 0.9

    def test_random_walk_is_autocorrelated(self):
        modulator = RandomWalkModulator(step_sigma=0.01, low=0.1, high=0.99)
        profile = ExecutionProfile(data_locality=0.5)
        rng = np.random.default_rng(3)
        values = np.array([modulator.modulate(profile, rng).data_locality
                           for _ in range(400)])
        lag1 = np.corrcoef(values[:-1], values[1:])[0, 1]
        assert lag1 > 0.8

    def test_random_walk_reset(self):
        modulator = RandomWalkModulator(step_sigma=0.1)
        profile = ExecutionProfile(data_locality=0.5)
        rng = np.random.default_rng(4)
        for _ in range(50):
            modulator.modulate(profile, rng)
        modulator.reset()
        assert modulator._offset == 0.0

    @pytest.mark.parametrize("factory", [
        lambda: RandomLatencyModulator(locality_sigma=-1),
        lambda: RandomWalkModulator(step_sigma=-1),
        lambda: RandomWalkModulator(step_sigma=0.1, low=0.9, high=0.1),
    ])
    def test_invalid_modulators_rejected(self, factory):
        with pytest.raises(ValueError):
            factory()


class TestLayout:
    def test_regions_are_disjoint_and_consecutive(self):
        specs = [
            lambda base: region(n_eips=8, base=base),
            lambda base: region(n_eips=4, base=base),
            lambda base: region(n_eips=16, base=base),
        ]
        regions = layout_regions(specs, start=0x1000)
        for first, second in zip(regions, regions[1:]):
            assert second.eip_base == first.eip_end

    def test_factory_must_honour_base(self):
        with pytest.raises(ValueError):
            layout_regions([lambda base: region(base=0xDEAD)], start=0x1000)


@settings(max_examples=30, deadline=None)
@given(n_eips=st.integers(1, 200), concentration=st.floats(0.0, 3.0),
       count=st.integers(0, 100))
def test_sample_eips_properties(n_eips, concentration, count):
    r = region(n_eips=n_eips, eip_concentration=concentration)
    samples = r.sample_eips(np.random.default_rng(0), count)
    assert len(samples) == count
    if count:
        assert set(samples) <= set(r.eips)


class TestChoiceCdf:
    @settings(max_examples=50, deadline=None)
    @given(weights=st.lists(st.floats(0, 1e3), min_size=1, max_size=40)
           .filter(lambda w: sum(w) > 0),
           seed=st.integers(0, 2**32 - 1))
    def test_draws_what_generator_choice_draws(self, weights, seed):
        """A numpy whose ``choice`` draws differently fails here instead of
        silently changing every simulated trace."""
        p = np.asarray(weights) / np.sum(weights)
        cdf = choice_cdf(p)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(40):
            assert (int(cdf.searchsorted(ours.random(), side="right"))
                    == int(theirs.choice(len(p), p=p)))
        rows = choice_cdf(np.stack([p[::-1], p]))
        assert np.array_equal(rows[1], cdf)

    @pytest.mark.parametrize("p", [[0.5, -0.1, 0.6], [np.nan, 1.0],
                                   [0.5, 0.4], [0.5, 0.5 + 1e-6],
                                   [np.inf, 0.0], [0.0, 0.0]])
    def test_rejects_what_generator_choice_rejects(self, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(p), p=p)
        with pytest.raises(ValueError):
            choice_cdf(p)
        with pytest.raises(ValueError):
            choice_cdf([[1.0] + [0.0] * (len(p) - 1), p])
