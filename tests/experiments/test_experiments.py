"""Tests for the experiment modules (fast variants of each)."""

import numpy as np
import pytest

from repro.experiments import (
    example_tree,
    fig2_odbc_sjas,
    robustness,
    table2_quadrants,
)
from repro.experiments.common import RunConfig, collect
from repro.experiments.paper_targets import (
    ALL_TARGETS,
    TABLE2_COUNTS,
    targets_for,
)
from repro.experiments.runner import EXPERIMENTS, run_all, run_experiment
from repro.workloads.scale import TINY


class TestWorkedExample:
    def test_matches_figure1(self):
        result = example_tree.run_example()
        assert result.matches_figure1
        assert result.root_feature == 0
        assert result.root_threshold == 20.0

    def test_render_mentions_status(self):
        assert "MATCHES Figure 1" in example_tree.render()


class TestCommon:
    def test_collect_produces_consistent_dataset(self):
        trace, dataset = collect(RunConfig("spec.gzip", n_intervals=10,
                                           seed=0, scale=TINY))
        assert dataset.n_intervals == 10
        assert dataset.workload_name == "spec.gzip"
        assert len(trace) == 1000  # 10 intervals x 100 samples

    def test_second_collect_on_one_store_simulates_nothing(
            self, tmp_path, monkeypatch):
        from repro.runtime import stages
        from repro.runtime.cache import ResultCache
        config = RunConfig("spec.gzip", n_intervals=5, seed=1, scale=TINY)
        store = ResultCache(tmp_path)
        first = collect(config, store=store)
        assert store.stats().by_kind == {"eipv": 1, "trace": 1}

        def no_simulation(spec):
            raise AssertionError("simulated a stored run")

        monkeypatch.setattr(stages, "_simulate", no_simulation)
        second = collect(config, store=store)
        for name in ("eips", "cycles", "instructions"):
            np.testing.assert_array_equal(getattr(second[0], name),
                                          getattr(first[0], name))
        np.testing.assert_array_equal(second[1].matrix.toarray(),
                                      first[1].matrix.toarray())
        np.testing.assert_array_equal(second[1].cpis, first[1].cpis)
        assert not second[1].cpis.flags.writeable

    def test_unknown_machine_rejected(self):
        with pytest.raises(KeyError):
            collect(RunConfig("spec.gzip", machine="cray", scale=TINY))


class TestPaperTargets:
    def test_targets_are_indexed(self):
        assert targets_for("fig2")
        assert targets_for("table2")
        assert not targets_for("nonexistent")

    def test_table2_counts_cover_fifty_workloads(self):
        total = sum(spec_count + dss_count + len(servers)
                    for spec_count, dss_count, servers
                    in TABLE2_COUNTS.values())
        assert total == 50

    def test_every_target_has_a_shape_check(self):
        for target in ALL_TARGETS:
            assert target.shape_check
            assert target.paper_value


class TestRunner:
    def test_registry_covers_all_experiments(self):
        assert set(EXPERIMENTS) == {"e1", "e2", "e3", "e4", "e5", "e6",
                                    "e7", "e8", "e9", "e10", "e13",
                                    "e14"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("e99")

    def test_run_e1_via_runner(self):
        output = run_all(["e1"])
        assert "E1" in output
        assert "MATCHES" in output


class TestFastExperimentVariants:
    """Cheap-scale runs of the heavier experiments (shape checks only)."""

    def test_census_on_subset(self):
        result = table2_quadrants.run(
            workloads=["spec.art", "spec.gzip"], seed=7, k_max=15,
            n_intervals=60)
        assert result.total == 2
        by_name = {e.workload: e for e in result.entries}
        assert by_name["spec.art"].result.quadrant.value == "Q-IV"
        assert by_name["spec.gzip"].result.quadrant.value == "Q-I"
        text = table2_quadrants.render(result)
        assert "quadrant" in text

    def test_eipv_size_sweep_shape(self):
        result = robustness.eipv_size_sweep(workload="spec.art", seed=7,
                                            k_max=10)
        assert len(result.rows) == 3
        sizes = [row.interval_instructions for row in result.rows]
        assert sizes == [100_000_000, 50_000_000, 10_000_000]

    def test_fig2_result_fields(self):
        result = fig2_odbc_sjas.run(n_intervals=20, seed=7, k_max=10)
        assert len(result.odbc.re) == 10
        assert len(result.sjas.re) == 10
        text = fig2_odbc_sjas.render(result)
        assert "ODB-C" in text and "SjAS" in text
