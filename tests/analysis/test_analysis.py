"""Tests for the analysis helpers: variance, spread, breakdown, report."""

import numpy as np
import pytest

from repro.analysis.breakdown import breakdown_series
from repro.analysis.report import (
    format_breakdown,
    format_curve,
    format_table,
    sparkline,
)
from repro.analysis.spread import spread_series
from repro.analysis.variance import (
    CodeFootprintSummary,
    CPISummary,
    interval_cpi_summary,
    sample_cpi_summary,
)
from repro.trace.eipv import build_eipvs

from tests.trace.test_eipv import synthetic_trace


class TestVariance:
    def test_cpi_summary(self):
        values = np.array([1.0, 2.0, 3.0])
        summary = CPISummary.from_values(values)
        assert summary.mean == pytest.approx(2.0)
        assert summary.variance == pytest.approx(np.var(values))
        assert summary.minimum == 1.0 and summary.maximum == 3.0
        assert summary.n == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CPISummary.from_values(np.array([]))

    def test_interval_and_sample_summaries(self):
        trace = synthetic_trace(100)
        dataset = build_eipvs(trace, 10_000)
        interval = interval_cpi_summary(dataset)
        sample = sample_cpi_summary(trace)
        # Averaging reduces variance.
        assert interval.variance < sample.variance

    def test_footprint_summary(self):
        trace = synthetic_trace(200, n_eips=30)
        summary = CodeFootprintSummary.from_trace(trace)
        assert summary.unique_eips <= 30
        assert summary.samples == 200
        assert 0.0 <= summary.top10_share <= 1.0
        assert -0.1 <= summary.gini <= 1.0

    def test_gini_higher_for_skewed_distribution(self):
        flat = synthetic_trace(300, n_eips=20, seed=1)
        skewed = synthetic_trace(300, n_eips=20, seed=1)
        skewed.eips[:250] = skewed.eips[0]  # concentrate most samples
        assert CodeFootprintSummary.from_trace(skewed).gini \
            > CodeFootprintSummary.from_trace(flat).gini


class TestSpread:
    def test_series_shape(self):
        trace = synthetic_trace(200, n_eips=25)
        series = spread_series(trace)
        assert len(series.times) == 200
        assert series.unique_eips <= 25
        assert series.duration_seconds > 0

    def test_window_truncation(self):
        trace = synthetic_trace(200)
        full = spread_series(trace)
        half = spread_series(trace,
                             window_seconds=full.duration_seconds / 2)
        assert len(half.times) < len(full.times)

    def test_window_too_small_rejected(self):
        trace = synthetic_trace(50)
        with pytest.raises(ValueError):
            spread_series(trace, window_seconds=1e-12)

    def test_cpi_timeline_covers_values(self):
        trace = synthetic_trace(200)
        series = spread_series(trace)
        _, means = series.cpi_timeline(bins=20)
        finite = means[np.isfinite(means)]
        assert finite.min() >= trace.cpis.min() - 1e-9
        assert finite.max() <= trace.cpis.max() + 1e-9

    def test_eips_touched_bounded(self):
        trace = synthetic_trace(200, n_eips=15)
        series = spread_series(trace)
        touched = series.eips_touched_per_bin(bins=10)
        assert touched.max() <= 15
        assert touched.sum() >= series.unique_eips


class TestBreakdown:
    def test_components_sum_to_total(self):
        trace = synthetic_trace(150)
        series = breakdown_series(trace, bins=15)
        summed = sum(series.component_cpis.values())
        assert summed == pytest.approx(series.total_cpi)

    def test_shares_sum_to_one(self):
        trace = synthetic_trace(150)
        series = breakdown_series(trace, bins=15)
        total = sum(series.component_share(c)
                    for c in ("work", "fe", "exe", "other"))
        assert total == pytest.approx(1.0)

    def test_dominant_component(self):
        trace = synthetic_trace(150)
        series = breakdown_series(trace, bins=10)
        # synthetic_trace sets work = 0.5 * cycles: always dominant.
        assert series.dominant_component() == "work"

    def test_unknown_component_rejected(self):
        trace = synthetic_trace(100)
        series = breakdown_series(trace, bins=5)
        with pytest.raises(KeyError):
            series.component_share("l3")
        with pytest.raises(KeyError):
            series.share_timeline("l3")

    def test_bins_clamped_to_samples(self):
        trace = synthetic_trace(10)
        series = breakdown_series(trace, bins=100)
        assert len(series.times) == 10


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 0.001]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_sparkline_range(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == " " and line[-1] == "@"

    def test_sparkline_constant(self):
        assert sparkline([5, 5, 5]) == "   "

    def test_sparkline_empty_and_nan(self):
        assert sparkline([]) == ""
        assert sparkline([np.nan, 1.0])[0] == " "

    def test_format_curve_marks_kopt(self):
        text = format_curve(range(1, 11), [1.0 - 0.05 * k
                                           for k in range(10)],
                            "curve", mark_k=7)
        assert "<- k_opt" in text
        assert "k=  7" in text

    def test_format_curve_shorter_than_three(self):
        # A k_max=1 or 2 curve used to index past its end.
        assert format_curve([1], [1.0], "c", mark_k=1).splitlines()[2:] \
            == ["  k=  1  RE=1.0000  <- k_opt"]
        assert format_curve([1, 2], [1.0, 0.5], "c").splitlines()[2:] \
            == ["  k=  1  RE=1.0000", "  k=  2  RE=0.5000"]

    def test_format_breakdown_runs(self):
        trace = synthetic_trace(100)
        series = breakdown_series(trace, bins=10)
        text = format_breakdown(series, "test")
        assert "WORK" in text and "EXE" in text
