"""The sweep engine's contract: resume with zero recomputation, merge
byte-identically, steal work across skewed shards."""

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.graph import JobGraph, submit_graph
from repro.runtime.jobs import JobSpec
from repro.runtime.metrics import MetricsRegistry
from repro.sweep import (SweepError, SweepInterrupted, SweepSpace,
                         SweepStateError, SweepTable, run_sweep)

SPACE = SweepSpace(workloads=("spec.gzip", "spec.art", "spec.mcf"),
                   interval_instructions=(2_000_000, 5_000_000),
                   seeds=(7, 8))  # 3 x 1 x 2 x 2 = 12 points


def report_of(tmp_path, name, **kwargs):
    outcome = run_sweep(SPACE, tmp_path / name, **kwargs)
    assert outcome.n_points == 12
    return outcome


class TestByteIdentity:
    def test_sharded_parallel_equals_serial(self, tmp_path):
        serial = report_of(tmp_path, "serial", jobs=1, shards=1)
        sharded = report_of(tmp_path, "sharded", jobs=2, shards=4)
        assert sharded.report == serial.report
        assert sharded.n_shards == 4 and serial.n_shards == 1
        # The persisted artifacts agree with the returned report.
        assert (tmp_path / "serial" / "report.txt").read_bytes() == \
            (tmp_path / "sharded" / "report.txt").read_bytes()
        table = SweepTable.open(sharded.table_path)
        assert len(table) == 12
        assert table.space_key == SPACE.key

    def test_report_is_pure_text_with_no_timings(self, tmp_path):
        outcome = report_of(tmp_path, "pure", shards=2)
        assert outcome.report.endswith("\n")
        assert SPACE.key in outcome.report
        assert "points        : 12" in outcome.report
        lowered = outcome.report.lower()
        for token in ("wall", "elapsed", "seconds", "time"):
            assert token not in lowered


class TestResume:
    def test_killed_sweep_resumes_with_zero_recomputation(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_dir = tmp_path / "sweep"
        # Kill after 5 computed points: shard 0 (3 points) completes and
        # persists its partial; shard 1 dies 2 points in.
        with pytest.raises(SweepInterrupted, match="rerun to resume"):
            run_sweep(SPACE, sweep_dir, shards=4, store=cache, stop_after=5)

        metrics = MetricsRegistry()
        resumed = run_sweep(SPACE, sweep_dir, shards=4, store=cache,
                            metrics=metrics)
        counters = metrics.snapshot()["counters"]
        # Completed shards never touch the scheduler again...
        assert counters["sweep.shard_resumed"] >= 1
        assert resumed.n_shards_resumed == counters["sweep.shard_resumed"]
        # ...and the killed shard's finished points come back from cache,
        # so across both runs every point computed exactly once.
        assert resumed.n_cached == 2
        # 9 pending points in shards 1-3, two already cached.
        assert resumed.n_executed == 7
        assert counters["sweep.point_cached"] == 2

        serial = run_sweep(SPACE, tmp_path / "baseline", jobs=1, shards=1)
        assert resumed.report == serial.report

    def test_finished_sweep_reruns_for_free(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        run_sweep(SPACE, sweep_dir, shards=3)
        metrics = MetricsRegistry()
        again = run_sweep(SPACE, sweep_dir, shards=3, metrics=metrics)
        assert again.n_shards_resumed == 3
        assert again.n_executed == again.n_cached == 0
        assert "sweep.point_executed" not in metrics.snapshot()["counters"]

    def test_resume_keeps_the_manifest_shard_layout(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_dir = tmp_path / "sweep"
        with pytest.raises(SweepInterrupted):
            run_sweep(SPACE, sweep_dir, shards=4, store=cache, stop_after=3)
        resumed = run_sweep(SPACE, sweep_dir, shards=2, store=cache)
        assert resumed.n_shards == 4  # layout pinned by the manifest
        assert any("4 shards" in note for note in resumed.notes)

    def test_wrong_space_refused(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        run_sweep(SPACE, sweep_dir, shards=2)
        other = SweepSpace(workloads=("spec.gzip",), seeds=(7,))
        with pytest.raises(SweepStateError, match="belongs to space"):
            run_sweep(other, sweep_dir)


class TestFailures:
    def test_failed_point_fails_the_sweep_but_persists_the_rest(
            self, tmp_path):
        # Workload names are not validated by the space, so an unknown
        # one builds a spec that fails at execution time.
        bad_space = SweepSpace(workloads=("spec.gzip", "no.such.workload"),
                               seeds=(7, 8))
        cache = ResultCache(tmp_path / "cache")
        sweep_dir = tmp_path / "sweep"
        with pytest.raises(SweepError, match="rerun\n?.*to resume"):
            run_sweep(bad_space, sweep_dir, shards=2, store=cache)
        # The healthy shard's partial survived; no merged report exists.
        assert not (sweep_dir / "report.txt").exists()
        metrics = MetricsRegistry()
        with pytest.raises(SweepError):
            run_sweep(bad_space, sweep_dir, shards=2, store=cache,
                      metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters.get("sweep.shard_resumed", 0) >= 1


class TestWorkStealing:
    def test_workers_steal_across_skewed_shards(self):
        # Shard 0 holds points ~5x the cost of shard 1's (more intervals
        # to simulate and regress).  Global-order dispatch through the
        # pool's shared queue means the worker that drains the cheap
        # shard must pull from the expensive one instead of idling.
        expensive = [JobSpec(workload=w, n_intervals=36, seed=9,
                             scale="tiny", k_max=5)
                     for w in ("spec.gzip", "spec.art", "spec.mcf",
                               "spec.gcc")]
        cheap = [JobSpec(workload=w, n_intervals=6, seed=9, scale="tiny",
                         k_max=3, folds=3)
                 for w in ("odbc", "sjas", "odbh.q1", "odbh.q2")]
        graph = JobGraph()
        for spec in expensive + cheap:
            graph.add(spec)
        outcomes = submit_graph(graph, jobs=2)
        assert all(o.ok for o in outcomes)
        workers = {o.worker for o in outcomes}
        assert len(workers) >= 2, f"one worker did everything: {workers}"
        assert all(w.startswith("pid-") for w in workers)
        # Submission order is preserved regardless of who ran what.
        assert [o.spec for o in outcomes] == expensive + cheap
