"""End-to-end integration tests: workload -> sampler -> EIPVs -> quadrant.

One representative workload per quadrant runs through the entire paper
pipeline and must land where the paper puts it.  Server workloads run at
TINY scale to keep the suite fast; Q13 needs the DEFAULT scale and a
longer run for its phase structure to be learnable (as in the paper,
where Q13 runs for 538 s).
"""

import numpy as np
import pytest

from repro.core import Quadrant, analyze_predictability
from repro.experiments.common import RunConfig, collect
from repro.sampling import select_technique
from repro.trace import build_per_thread_eipvs
from repro.workloads.scale import DEFAULT, TINY


def analyze(name, n_intervals, scale=TINY, seed=7, k_max=30):
    trace, dataset = collect(RunConfig(name, n_intervals=n_intervals,
                                       seed=seed, scale=scale))
    return trace, dataset, analyze_predictability(dataset, k_max=k_max,
                                                  seed=seed)


class TestQuadrantPlacement:
    def test_odbc_lands_in_q1(self):
        _, dataset, result = analyze("odbc", 40)
        assert result.quadrant is Quadrant.Q1
        assert result.cpi_variance <= 0.01
        assert result.re_kopt > 0.15

    def test_art_lands_in_q4(self):
        _, _, result = analyze("spec.art", 40)
        assert result.quadrant is Quadrant.Q4
        assert result.explained_fraction > 0.9

    def test_equake_lands_in_q2(self):
        _, _, result = analyze("spec.equake", 40)
        assert result.quadrant is Quadrant.Q2

    def test_q18_lands_in_q3(self):
        _, _, result = analyze("odbh.q18", 60)
        assert result.quadrant is Quadrant.Q3
        assert result.cpi_variance > 0.01

    @pytest.mark.slow
    def test_q13_lands_in_q4_at_default_scale(self):
        _, _, result = analyze("odbh.q13", 90, scale=DEFAULT, seed=11,
                               k_max=50)
        assert result.quadrant is Quadrant.Q4
        assert result.re_kopt <= 0.15


class TestPipelineCoherence:
    def test_trace_and_dataset_agree(self):
        trace, dataset, _ = analyze("spec.gzip", 30)
        samples_per_interval = (dataset.interval_instructions
                                // trace.sample_period)
        used = dataset.n_intervals * samples_per_interval
        assert used <= len(trace)
        # Interval CPI averages bound the sample CPI range.
        assert dataset.cpis.min() >= trace.cpis.min() - 1e-9
        assert dataset.cpis.max() <= trace.cpis.max() + 1e-9

    def test_per_thread_separation_runs_on_server_workload(self):
        trace, dataset, merged = analyze("odbc", 40)
        per_thread = build_per_thread_eipvs(trace,
                                            dataset.interval_instructions)
        assert per_thread.n_intervals >= dataset.n_intervals // 2
        threaded = analyze_predictability(per_thread, k_max=20, seed=7)
        # Paper: separation helps only minimally; stays unpredictable.
        assert threaded.re_kopt > 0.5

    def test_selector_recommends_phase_based_for_art(self):
        _, dataset, _ = analyze("spec.art", 40)
        recommendation = select_technique(dataset, k_max=20, seed=7)
        assert recommendation.technique == "phase_based"

    def test_seeded_pipeline_is_reproducible(self):
        _, d1, r1 = analyze("spec.gcc", 30, seed=13)
        _, d2, r2 = analyze("spec.gcc", 30, seed=13)
        assert np.array_equal(d1.matrix.toarray(), d2.matrix.toarray())
        assert r1.re_kopt == pytest.approx(r2.re_kopt)
