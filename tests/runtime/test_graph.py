"""JobGraph structure and submit_graph dispatch semantics."""

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.graph import GraphError, JobGraph, submit_graph
from repro.runtime.jobs import JobSpec
from repro.runtime.metrics import MetricsRegistry

SPEC_A = JobSpec(workload="spec.gzip", n_intervals=12, seed=7,
                 scale="tiny", k_max=5)
SPEC_B = JobSpec(workload="spec.art", n_intervals=12, seed=7,
                 scale="tiny", k_max=5)
SPEC_C = JobSpec(workload="spec.mcf", n_intervals=12, seed=7,
                 scale="tiny", k_max=5)


class TestGraphStructure:
    def test_insertion_order_is_topological(self):
        graph = JobGraph()
        a = graph.add(SPEC_A)
        b = graph.add(SPEC_B, deps=[a])
        c = graph.add(SPEC_C, deps=[b])
        assert graph.keys() == [a, b, c]
        assert graph.node(c).depth == 2
        assert graph.waves() == [[a], [b], [c]]

    def test_duplicate_spec_is_single_node(self):
        graph = JobGraph()
        first = graph.add(SPEC_A)
        second = graph.add(SPEC_A)
        assert first == second
        assert len(graph) == 1

    def test_duplicate_with_different_deps_is_error(self):
        graph = JobGraph()
        a = graph.add(SPEC_A)
        graph.add(SPEC_B, deps=[a])
        with pytest.raises(GraphError, match="different"):
            graph.add(SPEC_B)

    def test_unknown_dependency_is_error(self):
        graph = JobGraph()
        with pytest.raises(GraphError, match="not in the graph"):
            graph.add(SPEC_B, deps=[SPEC_A])

    def test_deps_accept_specs_or_keys(self):
        graph = JobGraph()
        graph.add(SPEC_A)
        key = graph.add(SPEC_B, deps=[SPEC_A])
        assert graph.node(key).deps == (SPEC_A.key,)

    def test_waves_group_independent_nodes(self):
        graph = JobGraph()
        a = graph.add(SPEC_A)
        b = graph.add(SPEC_B)
        c = graph.add(SPEC_C, deps=[a, b])
        assert graph.waves() == [[a, b], [c]]


class TestSubmitGraph:
    def test_outcomes_in_insertion_order(self):
        graph = JobGraph()
        graph.add(SPEC_B)
        graph.add(SPEC_A)
        outcomes = submit_graph(graph)
        assert [o.spec for o in outcomes] == [SPEC_B, SPEC_A]
        assert all(o.ok for o in outcomes)

    def test_matches_flat_run_jobs(self):
        from repro.runtime.scheduler import run_jobs
        graph = JobGraph()
        for spec in (SPEC_A, SPEC_B):
            graph.add(spec)
        flat = run_jobs([SPEC_A, SPEC_B])
        graphed = submit_graph(graph)
        for f, g in zip(flat, graphed):
            assert f.key == g.key
            assert f.result.re == g.result.re

    def test_dependent_of_failed_node_is_skipped(self):
        metrics = MetricsRegistry()
        bad = JobSpec(workload="no.such.workload", n_intervals=12, seed=7,
                      scale="tiny", k_max=5)  # unknown workload: fails
        graph = JobGraph()
        bad_key = graph.add(bad)
        dep_key = graph.add(SPEC_A, deps=[bad_key])
        outcomes = submit_graph(graph, metrics=metrics)
        assert not outcomes[0].ok
        skipped = outcomes[1]
        assert not skipped.ok
        assert skipped.worker == "skipped"
        assert "dependency" in skipped.error
        assert skipped.key == dep_key
        assert metrics.snapshot()["counters"]["graph.dep_skipped"] == 1

    def test_on_outcome_streams_every_node(self, tmp_path):
        cache = ResultCache(tmp_path)
        graph = JobGraph()
        graph.add(SPEC_A)
        graph.add(SPEC_B)
        seen = []
        submit_graph(graph, store=cache, on_outcome=seen.append)
        assert sorted(o.key for o in seen) == sorted(graph.keys())
        # Warm rerun streams cache hits through the same hook.
        warm = []
        submit_graph(graph, store=cache, on_outcome=warm.append)
        assert all(o.cache_hit for o in warm)
        assert len(warm) == 2
