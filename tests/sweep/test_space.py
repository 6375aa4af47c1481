"""Sweep-space generation: determinism, subsampling, identity."""

import pytest

from repro.sweep import DEFAULT_INTERVALS, SweepSpace, default_space
from repro.workloads.registry import workload_names

WORKLOADS = ("spec.gzip", "spec.art", "spec.mcf")


class TestGeneration:
    def test_same_space_same_specs(self):
        one = SweepSpace(workloads=WORKLOADS, seeds=(7, 8))
        two = SweepSpace(workloads=WORKLOADS, seeds=(7, 8))
        assert one.key == two.key
        assert [s.key for s in one.specs()] == [s.key for s in two.specs()]

    def test_product_order_and_size(self):
        space = SweepSpace(workloads=WORKLOADS,
                           machines=("itanium2", "pentium4"),
                           interval_instructions=(2_000_000,),
                           seeds=(7,))
        specs = space.specs()
        assert space.full_size == space.size == len(specs) == 6
        # Slowest-varying axis first: workload, then machine.
        assert [s.workload for s in specs[:2]] == ["spec.gzip"] * 2
        assert [s.machine for s in specs[:2]] == ["itanium2", "pentium4"]

    def test_specs_carry_every_axis_value(self):
        space = SweepSpace(workloads=WORKLOADS, seeds=(7, 8),
                           interval_instructions=(2_000_000, 5_000_000))
        specs = space.specs()
        assert {s.seed for s in specs} == {7, 8}
        assert {s.interval_instructions for s in specs} == \
            {2_000_000, 5_000_000}
        assert {s.workload for s in specs} == set(WORKLOADS)

    def test_key_covers_every_knob(self):
        base = SweepSpace(workloads=WORKLOADS)
        assert base.key != SweepSpace(workloads=WORKLOADS, k_max=4).key
        assert base.key != SweepSpace(workloads=WORKLOADS, limit=2).key
        assert base.key != SweepSpace(workloads=WORKLOADS[:2]).key


class TestSubsample:
    def test_limit_is_deterministic_subset(self):
        full = SweepSpace(workloads=WORKLOADS, seeds=(1, 2, 3, 4))
        limited = SweepSpace(workloads=WORKLOADS, seeds=(1, 2, 3, 4),
                             limit=5)
        full_keys = [s.key for s in full.specs()]
        limited_keys = [s.key for s in limited.specs()]
        assert len(limited_keys) == limited.size == 5
        assert set(limited_keys) <= set(full_keys)
        # Kept points stay in canonical product order.
        positions = [full_keys.index(k) for k in limited_keys]
        assert positions == sorted(positions)
        assert limited_keys == [s.key for s in limited.specs()]

    def test_sample_seed_changes_the_subset(self):
        kwargs = dict(workloads=WORKLOADS, seeds=(1, 2, 3, 4), limit=4)
        one = SweepSpace(sample_seed=0, **kwargs)
        two = SweepSpace(sample_seed=1, **kwargs)
        assert one.key != two.key
        assert [s.key for s in one.specs()] != [s.key for s in two.specs()]

    def test_limit_at_or_above_full_size_keeps_everything(self):
        space = SweepSpace(workloads=WORKLOADS, limit=1000)
        assert space.size == space.full_size
        assert len(space.specs()) == space.full_size


class TestValidation:
    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError, match="workload"):
            SweepSpace(workloads=())
        with pytest.raises(ValueError, match="seeds"):
            SweepSpace(workloads=WORKLOADS, seeds=())

    def test_rejects_unknown_machine_and_scale(self):
        with pytest.raises(ValueError, match="machines"):
            SweepSpace(workloads=WORKLOADS, machines=("cray-1",))
        with pytest.raises(ValueError, match="scale"):
            SweepSpace(workloads=WORKLOADS, scale="huge")

    def test_rejects_folds_beyond_intervals(self):
        with pytest.raises(ValueError, match="folds"):
            SweepSpace(workloads=WORKLOADS, n_intervals=3, folds=4)

    @pytest.mark.parametrize("knobs, match", [
        ({"folds": 1}, "two folds"),
        ({"k_max": 0}, "k_max"),
    ])
    def test_rejects_knobs_the_analysis_cannot_use(self, knobs, match):
        with pytest.raises(ValueError, match=match):
            SweepSpace(workloads=WORKLOADS, **knobs)

    def test_round_trips_through_canonical(self):
        space = SweepSpace(workloads=WORKLOADS, seeds=(7, 8), limit=3)
        assert SweepSpace.from_dict(space.canonical()) == space


class TestDefaultSpace:
    def test_covers_the_whole_registry(self):
        space = default_space()
        assert space.full_size == len(workload_names()) * 3 * 3 * 3
        assert space.interval_instructions == DEFAULT_INTERVALS
        assert space.full_size >= 1000  # the fleet-scale floor
