"""Profile aggregation and rendering over synthetic span forests.

Fixed wall times make the expected output exact: these are golden tests
for the ``repro profile`` report machinery, independent of the pipeline.
"""

from repro.obs import aggregate_spans, render_profile, slowest_spans

#: Two "job" roots, the shape a two-workload profile run produces.
FOREST = [
    {"name": "job", "wall_s": 1.0, "attrs": {"workload": "spec.gzip"},
     "children": [
         {"name": "collect", "wall_s": 0.25,
          "counters": {"samples": 100}},
         {"name": "analyze", "wall_s": 0.5, "children": [
             {"name": "cv.fold", "wall_s": 0.2},
             {"name": "cv.fold", "wall_s": 0.2},
         ]},
     ]},
    {"name": "job", "wall_s": 2.0, "attrs": {"workload": "spec.art"},
     "children": [
         {"name": "collect", "wall_s": 0.5,
          "counters": {"samples": 300}},
         {"name": "analyze", "wall_s": 1.0, "children": [
             {"name": "cv.fold", "wall_s": 0.5},
         ]},
     ]},
]


class TestAggregateSpans:
    def test_paths_in_first_visit_order(self):
        stages = aggregate_spans(FOREST)
        assert [s.path for s in stages] == [
            "job", "job/collect", "job/analyze", "job/analyze/cv.fold"]
        assert [s.depth for s in stages] == [0, 1, 1, 2]
        assert [s.name for s in stages] == [
            "job", "collect", "analyze", "cv.fold"]

    def test_calls_total_and_self_time(self):
        by_path = {s.path: s for s in aggregate_spans(FOREST)}
        job = by_path["job"]
        assert job.calls == 2
        assert job.total_s == 3.0
        # self = total - direct children: (1.0-0.75) + (2.0-1.5)
        assert abs(job.self_s - 0.75) < 1e-12
        folds = by_path["job/analyze/cv.fold"]
        assert folds.calls == 3
        assert abs(folds.total_s - 0.9) < 1e-12
        assert abs(folds.self_s - 0.9) < 1e-12  # leaves: self == total

    def test_self_time_floored_at_zero(self):
        """Concurrent children (folds run on the pool) can outlast their
        parent; its self time reads 0, never negative."""
        forest = [{"name": "cv", "wall_s": 1.0,
                   "children": [{"name": "cv.fold", "wall_s": 0.8},
                                {"name": "cv.fold", "wall_s": 0.8}]}]
        by_path = {s.path: s for s in aggregate_spans(forest)}
        assert by_path["cv"].self_s == 0.0
        assert by_path["cv"].total_s == 1.0

    def test_counters_sum_across_spans(self):
        by_path = {s.path: s for s in aggregate_spans(FOREST)}
        assert by_path["job/collect"].counters == {"samples": 400}

    def test_empty_and_none_roots(self):
        assert aggregate_spans([]) == []
        assert aggregate_spans([None, {}]) == []


class TestSlowestSpans:
    def test_ordering_and_top_cutoff(self):
        top = slowest_spans(FOREST, top=3)
        assert [(path, wall) for path, wall, _ in top] == [
            ("job", 2.0), ("job", 1.0), ("job/analyze", 1.0)]
        assert top[0][2] == {"workload": "spec.art"}

    def test_ties_break_on_path_then_order(self):
        forest = [{"name": "b", "wall_s": 1.0},
                  {"name": "a", "wall_s": 1.0},
                  {"name": "a", "wall_s": 1.0}]
        paths = [path for path, _, _ in slowest_spans(forest, top=3)]
        assert paths == ["a", "a", "b"]

    def test_deterministic_across_calls(self):
        assert slowest_spans(FOREST) == slowest_spans(FOREST)


class TestRenderProfile:
    def test_golden_structure(self):
        report = render_profile(FOREST, top=3)
        assert report == render_profile(FOREST, top=3)  # deterministic
        lines = report.splitlines()
        assert any("per-stage breakdown" in line for line in lines)
        assert any("top 3 slowest spans" in line for line in lines)
        # Stage rows keep first-visit order, indented by depth.
        stage_rows = [line for line in lines if "job" in line
                      or "collect" in line or "analyze" in line
                      or "cv.fold" in line]
        assert "job" in stage_rows[0]
        assert any(line.lstrip().startswith("cv.fold") for line in lines)
        # Shares: job roots are 100% of the run; analyze is 1.5/3.0.
        assert any("100.0%" in line for line in lines)
        assert any("50.0%" in line for line in lines)
        assert "workload=spec.art" in report

    def test_no_spans_message(self):
        assert "no spans recorded" in render_profile([])
