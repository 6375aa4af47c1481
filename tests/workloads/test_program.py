"""Tests for programs and schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.cpu import ExecutionProfile
from repro.workloads.program import (
    BlendedSchedule,
    ChunkPlan,
    CyclicSchedule,
    DriftMixSchedule,
    EpisodicSchedule,
    FlatMixSchedule,
    MarkovSchedule,
    Program,
)
from repro.workloads.regions import CodeRegion


def make_regions(n, prefix="r"):
    return [CodeRegion(name=f"{prefix}{i}", eip_base=0x1000 * (i + 1),
                       n_eips=4, profile=ExecutionProfile())
            for i in range(n)]


RNG = np.random.default_rng(0)

#: Sums on both sides of np.isclose(total, 1.0, atol=1e-9)'s edge, NaN,
#: the infinities and everything else hypothesis draws.
SUMS_AROUND_ONE = st.one_of(
    st.floats(), st.floats(1 - 2e-5, 1 + 2e-5),
    st.sampled_from([np.nan, np.inf, -np.inf]
                    + [float(edge + ulps * np.spacing(edge))
                       for edge in (1 - 1.0001e-5, 1 + 1.0001e-5)
                       for ulps in range(-3, 4)]))


class TestChunkPlan:
    def test_single(self):
        r = make_regions(1)[0]
        plan = ChunkPlan.single(r)
        assert plan.parts == ((r, 1.0),)
        assert plan.regions == [r]

    def test_weights_must_sum_to_one(self):
        r1, r2 = make_regions(2)
        with pytest.raises(ValueError):
            ChunkPlan(parts=((r1, 0.5), (r2, 0.6)))

    def test_weights_must_be_positive(self):
        r1, r2 = make_regions(2)
        with pytest.raises(ValueError):
            ChunkPlan(parts=((r1, 1.2), (r2, -0.2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChunkPlan(parts=())

    @settings(max_examples=80, deadline=None)
    @given(total=SUMS_AROUND_ONE)
    def test_accepts_what_np_isclose_accepts(self, total):
        region = make_regions(1)[0]
        if np.isclose(total, 1.0, atol=1e-9):
            ChunkPlan(parts=((region, total),))
        else:
            with pytest.raises(ValueError):
                ChunkPlan(parts=((region, total),))


class TestCyclicSchedule:
    def test_pure_chunk_within_phase(self):
        r1, r2 = make_regions(2)
        schedule = CyclicSchedule([(r1, 100), (r2, 100)])
        plan = schedule.advance(RNG, 50)
        assert plan.parts == ((r1, 1.0),)

    def test_chunk_spanning_boundary_split_proportionally(self):
        r1, r2 = make_regions(2)
        schedule = CyclicSchedule([(r1, 100), (r2, 100)])
        schedule.advance(RNG, 80)
        plan = schedule.advance(RNG, 40)  # 20 in each phase
        weights = dict((region.name, weight)
                       for region, weight in plan.parts)
        assert weights["r0"] == pytest.approx(0.5)
        assert weights["r1"] == pytest.approx(0.5)

    def test_wraps_around(self):
        r1, r2 = make_regions(2)
        schedule = CyclicSchedule([(r1, 100), (r2, 100)])
        schedule.advance(RNG, 150)
        plan = schedule.advance(RNG, 100)  # 50 in each (wrapped)
        weights = dict((region.name, weight)
                       for region, weight in plan.parts)
        assert weights["r0"] == pytest.approx(0.5)
        assert weights["r1"] == pytest.approx(0.5)

    def test_chunk_longer_than_cycle(self):
        r1, r2 = make_regions(2)
        schedule = CyclicSchedule([(r1, 100), (r2, 300)])
        plan = schedule.advance(RNG, 800)  # two full cycles
        weights = dict((r.name, w) for r, w in plan.parts)
        assert weights["r0"] == pytest.approx(0.25)
        assert weights["r1"] == pytest.approx(0.75)

    def test_reset(self):
        r1, r2 = make_regions(2)
        schedule = CyclicSchedule([(r1, 100), (r2, 100)])
        schedule.advance(RNG, 130)
        schedule.reset()
        assert schedule.advance(RNG, 50).parts[0][0] is r1

    def test_validation(self):
        r1 = make_regions(1)[0]
        with pytest.raises(ValueError):
            CyclicSchedule([])
        with pytest.raises(ValueError):
            CyclicSchedule([(r1, 0)])
        with pytest.raises(ValueError):
            CyclicSchedule([(r1, 10)]).advance(RNG, 0)

    @settings(max_examples=30, deadline=None)
    @given(durations=st.lists(st.integers(1, 500), min_size=1, max_size=5),
           chunks=st.lists(st.integers(1, 700), min_size=1, max_size=10))
    def test_weights_always_sum_to_one(self, durations, chunks):
        regions = make_regions(len(durations))
        schedule = CyclicSchedule(list(zip(regions, durations)))
        for chunk in chunks:
            plan = schedule.advance(RNG, chunk)
            assert sum(w for _, w in plan.parts) == pytest.approx(1.0)


class TestMarkovSchedule:
    def test_single_region_per_chunk(self):
        regions = make_regions(3)
        transition = np.full((3, 3), 1 / 3)
        schedule = MarkovSchedule(regions, transition, [5, 5, 5])
        plan = schedule.advance(RNG, 100)
        assert len(plan.parts) == 1

    def test_visits_all_states(self):
        regions = make_regions(3)
        transition = np.full((3, 3), 1 / 3)
        schedule = MarkovSchedule(regions, transition, [2, 2, 2])
        seen = {schedule.advance(RNG, 10).parts[0][0].name
                for _ in range(300)}
        assert seen == {"r0", "r1", "r2"}

    def test_validation(self):
        regions = make_regions(2)
        with pytest.raises(ValueError):
            MarkovSchedule(regions, [[1.0]], [1])
        with pytest.raises(ValueError):
            MarkovSchedule(regions, [[0.5, 0.4], [0.5, 0.5]], [1, 1])
        with pytest.raises(ValueError):
            MarkovSchedule(regions, np.full((2, 2), 0.5), [0, 1])


class TestFlatMixSchedule:
    def test_every_chunk_touches_many_regions(self):
        regions = make_regions(10)
        schedule = FlatMixSchedule(regions)
        plan = schedule.advance(RNG, 100)
        assert len(plan.parts) == 10

    def test_weights_track_base_mixture(self):
        regions = make_regions(2)
        schedule = FlatMixSchedule(regions, weights=[3.0, 1.0],
                                   dirichlet_concentration=5000.0)
        draws = [dict((r.name, w) for r, w in
                      schedule.advance(RNG, 10).parts)
                 for _ in range(100)]
        mean_r0 = np.mean([d["r0"] for d in draws])
        assert mean_r0 == pytest.approx(0.75, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlatMixSchedule([])
        with pytest.raises(ValueError):
            FlatMixSchedule(make_regions(2), weights=[1.0, 0.0])


class TestDriftMixSchedule:
    def test_weights_drift_toward_end_state(self):
        regions = make_regions(2)
        schedule = DriftMixSchedule(regions, [1.0, 0.0001], [0.0001, 1.0],
                                    horizon=1000,
                                    dirichlet_concentration=10000.0)
        early = dict((r.name, w)
                     for r, w in schedule.advance(RNG, 10).parts)
        for _ in range(200):
            schedule.advance(RNG, 10)
        late = dict((r.name, w)
                    for r, w in schedule.advance(RNG, 10).parts)
        assert early["r0"] > 0.9
        assert late["r1"] > 0.9

    def test_reset_restores_start(self):
        regions = make_regions(2)
        schedule = DriftMixSchedule(regions, [1.0, 0.001], [0.001, 1.0],
                                    horizon=100,
                                    dirichlet_concentration=10000.0)
        for _ in range(50):
            schedule.advance(RNG, 10)
        schedule.reset()
        plan = dict((r.name, w) for r, w in schedule.advance(RNG, 1).parts)
        assert plan["r0"] > 0.9


class TestEpisodicSchedule:
    def test_episode_dominated_by_episode_region(self):
        regions = make_regions(2)
        episode = make_regions(1, prefix="gc")[0]
        schedule = EpisodicSchedule(FlatMixSchedule(regions), episode,
                                    rate=1.0, mean_length=1000,
                                    episode_weight=0.9)
        plan = schedule.advance(RNG, 10)
        weights = dict((r.name, w) for r, w in plan.parts)
        assert weights["r0"] < 0.1
        assert weights[episode.name] == pytest.approx(0.9)

    def test_zero_rate_never_enters_episode(self):
        regions = make_regions(2)
        episode = make_regions(1, prefix="gc")[0]
        schedule = EpisodicSchedule(FlatMixSchedule(regions), episode,
                                    rate=0.0, mean_length=10)
        for _ in range(50):
            plan = schedule.advance(RNG, 10)
            assert episode not in plan.regions

    def test_regions_include_episode(self):
        regions = make_regions(2)
        episode = make_regions(1, prefix="gc")[0]
        schedule = EpisodicSchedule(FlatMixSchedule(regions), episode,
                                    rate=0.5, mean_length=2)
        assert episode in schedule.regions


class TestBlendedSchedule:
    def test_background_always_present(self):
        regions = make_regions(2)
        background = make_regions(1, prefix="bg")[0]
        schedule = BlendedSchedule(
            CyclicSchedule([(regions[0], 50), (regions[1], 50)]),
            background, weight=0.25)
        plan = schedule.advance(RNG, 10)
        weights = dict((r.name, w) for r, w in plan.parts)
        assert weights[background.name] == pytest.approx(0.25)
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_regions_include_background(self):
        regions = make_regions(2)
        background = make_regions(1, prefix="bg")[0]
        schedule = BlendedSchedule(
            CyclicSchedule([(regions[0], 50), (regions[1], 50)]),
            background, weight=0.3)
        assert background in schedule.regions


class TestProgram:
    def test_regions_deduplicated(self):
        r1, r2 = make_regions(2)
        program = Program("p", CyclicSchedule([(r1, 10), (r2, 10),
                                               (r1, 10)]))
        assert program.regions == [r1, r2]

    def test_reset_resets_schedule_and_regions(self):
        r1, r2 = make_regions(2)
        program = Program("p", CyclicSchedule([(r1, 100), (r2, 100)]))
        program.advance(RNG, 150)
        program.reset()
        assert program.advance(RNG, 10).parts[0][0] is r1
