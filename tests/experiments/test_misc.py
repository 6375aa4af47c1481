"""Small coverage tests: runner CLI, threading rows, registry helpers."""

import pytest

from repro.analysis.threading_stats import threading_row
from repro.experiments.runner import main as runner_main
from repro.trace.threads import ThreadingStats
from repro.workloads.registry import (get_workload, paper_quadrant,
                                      workload_names)
from repro.workloads.scale import TINY


class TestRunnerMain:
    def test_main_runs_e1(self, capsys):
        assert runner_main(["e1"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out
        assert "worked example" in out

    def test_main_unknown_id_raises(self):
        with pytest.raises(KeyError):
            runner_main(["e99"])


class TestThreadingRow:
    def stats(self):
        return ThreadingStats(
            context_switches=100,
            context_switches_per_second=2567.4,
            os_time_share=0.146,
            n_threads=7,
            thread_sample_share={0: 0.5, 1: 0.5},
        )

    def test_row_without_paper_value(self):
        row = threading_row("odbc", self.stats())
        assert row == ["odbc", 2567, "14.6%", 7]

    def test_row_with_paper_value(self):
        row = threading_row("odbc", self.stats(), paper_switch_rate=2600)
        assert row[-1] == 2600

    def test_stats_str(self):
        text = str(self.stats())
        assert "ctx-switches/s" in text
        assert "OS time" in text


class TestRegistryHelpers:
    def test_paper_quadrant(self):
        assert paper_quadrant("odbc") == "Q-I"
        assert paper_quadrant("sjas") == "Q-III"

    def test_all_metadata_has_quadrants(self):
        # The census reads each label by name; it must be the label the
        # workload's factory puts in its metadata, for all 50.
        names = workload_names()
        assert len(names) == 50
        for name in names:
            assert paper_quadrant(name) == \
                get_workload(name, TINY).metadata["paper_quadrant"]
        assert {paper_quadrant(name) for name in names} == \
            {"Q-I", "Q-II", "Q-III", "Q-IV"}

    def test_unknown_name_raises_like_get_workload(self):
        for name in ("nope", "spec.nope", "odbh.q99"):
            with pytest.raises(KeyError):
                get_workload(name, TINY)
            with pytest.raises(KeyError):
                paper_quadrant(name)
