"""Tests for the command-line interface."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.runtime.jobs import JobSpec


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze", "odbc"])
        assert args.workload == "odbc"
        assert args.seed == 11
        assert args.scale == "default"

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "odbc", "--scale",
                                       "huge"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_runtime_flags(self):
        args = build_parser().parse_args(
            ["census", "odbc", "--jobs", "4", "--cache-dir", "/tmp/c",
             "--no-cache", "--timeout", "30"])
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache is True
        assert args.timeout == 30.0

    def test_runtime_flag_defaults(self):
        args = build_parser().parse_args(["analyze", "odbc"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.no_cache is False
        assert args.timeout is None
        assert args.trace_store is None

    def test_trace_store_flag(self):
        args = build_parser().parse_args(
            ["analyze", "odbc", "--trace-store", "/tmp/store"])
        assert args.trace_store == "/tmp/store"

    def test_experiment_help_lists_registry_ids(self):
        from repro.experiments.runner import EXPERIMENTS, experiment_ids
        ids = experiment_ids()
        assert set(ids) == set(EXPERIMENTS)
        # The help is derived from the registry, so absent ids (e11, e12)
        # must not be advertised.
        sub = [a for a in build_parser()._actions
               if getattr(a, "choices", None)
               and "experiment" in a.choices]
        text = sub[0].choices["experiment"].format_help()
        for exp_id in ids:
            assert exp_id in text
        assert "e11" not in text
        assert "e12" not in text

    def test_experiment_unknown_id_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "e11"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment id(s): e11" in err
        assert "e10" in err  # the real registry is listed

    def test_experiment_ids_are_case_insensitive(self):
        args = build_parser().parse_args(["experiment", "E1", "e8"])
        assert args.ids == ["e1", "e8"]


class TestCommands:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "odbc" in out
        assert "spec.mcf" in out

    def test_analyze_runs_tiny(self, capsys):
        code = main(["analyze", "spec.gzip", "--intervals", "12",
                     "--k-max", "5", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended sampling" in out
        assert "Q-" in out

    def test_census_subset(self, capsys):
        code = main(["census", "spec.gzip", "--k-max", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "quadrant" in out

    def test_experiment_e1(self, capsys):
        assert main(["experiment", "e1"]) == 0
        out = capsys.readouterr().out
        assert "MATCHES Figure 1" in out


class TestRuntimeCommands:
    def test_census_serial_parallel_and_warm_cache_identical(
            self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["census", "spec.gzip", "spec.art", "--k-max", "5"]
        assert main(argv + ["--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2", "--cache-dir", cache_dir]) == 0
        parallel = capsys.readouterr().out
        assert main(argv + ["--jobs", "2", "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert serial == parallel == captured.out
        assert "2 cache hits (100%)" in captured.err

    def test_analyze_warm_cache_identical(self, capsys, tmp_path):
        argv = ["analyze", "spec.gzip", "--intervals", "12", "--k-max", "5",
                "--scale", "tiny", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert cold == captured.out
        assert "1 cache hits (100%)" in captured.err

    def test_cold_runs_store_identical_result_bytes(self, capsys, tmp_path):
        """A stored entry is a function of its spec: two cold runs into
        two caches write the same bytes (no wall-clock field)."""
        argv = ["analyze", "spec.gzip", "--intervals", "12", "--k-max", "5",
                "--scale", "tiny"]
        headers = []
        for name in ("one", "two"):
            assert main(argv + ["--cache-dir", str(tmp_path / name)]) == 0
            store = tmp_path / name / "store"
            headers.append({path.relative_to(store).as_posix():
                            path.read_bytes()
                            for path in store.glob("*/*/entry")})
        capsys.readouterr()
        # One entry per product: the trace, the EIPV dataset and the
        # analysis result.
        assert sorted(path.split("/")[0] for path in headers[0]) \
            == ["eipv", "result", "trace"]
        assert headers[0] == headers[1]

    def test_analyze_jobs_output_identical(self, capsys):
        """--jobs fans out the CV folds; stdout stays byte-identical."""
        argv = ["analyze", "spec.gzip", "--intervals", "12", "--k-max", "5",
                "--scale", "tiny", "--no-cache"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        fanned = capsys.readouterr().out
        assert serial == fanned

    def test_analyze_shm_output_identical(self, capsys, monkeypatch):
        """At jobs=4 the folds reach pool workers, which map the dataset
        from a temporary fold artifact, and no output byte changes."""
        from repro.runtime import pool as pool_mod
        from repro.runtime.metrics import METRICS
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 4)

        argv = ["analyze", "spec.gzip", "--intervals", "12", "--k-max", "5",
                "--scale", "tiny", "--no-cache"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        before = METRICS.count("dispatch.parallel_chosen")
        assert main(argv + ["--jobs", "4"]) == 0
        fanned = capsys.readouterr().out
        assert serial == fanned
        assert METRICS.count("dispatch.parallel_chosen") > before

    def test_census_shm_output_identical(self, capsys):
        argv = ["census", "spec.gzip", "spec.art", "--k-max", "5",
                "--no-cache"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        pooled = capsys.readouterr().out
        assert serial == pooled

    def test_analyze_trace_store_output_identical(self, capsys, tmp_path):
        """--trace-store streams collection to disk; the analysis output
        is byte-identical, both when collecting and when reusing."""
        store = str(tmp_path / "store")
        argv = ["analyze", "spec.gzip", "--intervals", "12", "--k-max", "5",
                "--scale", "tiny", "--no-cache"]
        assert main(argv) == 0
        in_memory = capsys.readouterr().out
        assert main(argv + ["--trace-store", store]) == 0
        collected = capsys.readouterr()
        assert "collected" in collected.err
        assert main(argv + ["--trace-store", store, "--jobs", "4"]) == 0
        reused = capsys.readouterr()
        assert "reused" in reused.err
        assert in_memory == collected.out == reused.out
        assert (tmp_path / "store" / "header.json").is_file()

    @pytest.mark.parametrize("change", [
        ["spec.gzip", "--seed", "12"],  # another seed
        ["odbc"],                        # another workload
    ])
    def test_analyze_trace_store_refuses_another_collection(
            self, capsys, tmp_path, change):
        """Regression: DIR was reused whatever collection it held, so
        the report named one workload and carried another's numbers."""
        store = str(tmp_path / "store")
        argv = ["analyze", "--intervals", "12", "--k-max", "5", "--scale",
                "tiny", "--no-cache", "--trace-store", store]
        assert main(argv + ["spec.gzip"]) == 0
        capsys.readouterr()
        assert main(argv + change) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        line, = captured.err.splitlines()
        assert line.count('"workload"') == 2  # both identities named
        assert '"spec.gzip"' in line

    def test_analyze_trace_store_without_identity_is_refused(
            self, capsys, tmp_path):
        from repro.runtime import stages
        from tests.trace.store_helpers import trace_to_store
        spec = stages.collect_spec_for(
            JobSpec(workload="spec.gzip", n_intervals=12, scale="tiny"))
        trace_to_store(stages._simulate(spec), tmp_path / "store")
        assert main(["analyze", "spec.gzip", "--intervals", "12",
                     "--scale", "tiny", "--k-max", "5", "--trace-store",
                     str(tmp_path / "store")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no recorded collection" in captured.err

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        argv = ["analyze", "spec.gzip", "--intervals", "12", "--k-max", "5",
                "--scale", "tiny", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and str(tmp_path) in out
        # One table for the one store: the analysis result, the trace
        # and the EIPV dataset.
        assert out.count("store at") == 1
        assert "kind result" in out and "kind trace" in out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out == f"removed 3 entries from {tmp_path}\n"

    def test_no_cache_creates_no_directories(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["analyze", "spec.gzip", "--intervals", "12",
                     "--k-max", "5", "--scale", "tiny", "--no-cache",
                     "--cache-dir", str(cache_dir)]) == 0
        assert "manifest:" not in capsys.readouterr().err
        assert not cache_dir.exists()


ANALYZE_TINY = ["analyze", "spec.gzip", "--intervals", "12", "--k-max", "5",
                "--scale", "tiny", "--no-cache"]


class TestRefusedBeforeRunning:
    """Values the analysis cannot use are usage errors: exit 2, nothing
    on stdout, and nothing simulated."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "spec.gzip", "--k-max", "0"],
        ["analyze", "spec.gzip", "--intervals", "5", "--scale", "tiny"],
        ["analyze", "spec.gzip", "--intervals", "0"],
        ["analyze", "spec.gzip", "--intervals", "-5"],
        ["analyze", "nosuch"],
        ["profile", "spec.gzip", "--k-max", "0"],
        ["profile", "spec.gzip", "--intervals", "0"],
        ["census", "spec.gzip", "--k-max", "0"],
        ["sweep", "spec.gzip", "--k-max", "0"],
        ["sweep", "spec.gzip", "--folds", "1"],
    ])
    def test_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        from repro.runtime import stages

        def refuse(spec):
            raise AssertionError("a refused request reached simulation")

        monkeypatch.setattr(stages, "_simulate", refuse)
        extra = ["--sweep-dir", str(tmp_path)] if argv[0] == "sweep" else []
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--no-cache"] + extra)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestObservabilityCommands:
    def test_profile_prints_per_stage_breakdown(self, capsys):
        code = main(["profile", "spec.gzip", "--intervals", "12",
                     "--k-max", "5", "--scale", "tiny", "--top", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert "per-stage breakdown" in captured.out
        assert "stage.eipv" in captured.out
        assert "cv.fold" in captured.out
        assert "top 3 slowest spans" in captured.out
        assert captured.err == ""

    def test_profile_rejects_unknown_workload(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "no.such.workload"])
        assert excinfo.value.code == 2
        assert "unknown workload(s)" in capsys.readouterr().err

    def test_profile_writes_trace(self, capsys, tmp_path):
        from repro.obs import read_trace
        trace = tmp_path / "profile.jsonl"
        assert main(["profile", "spec.gzip", "--intervals", "12",
                     "--k-max", "5", "--scale", "tiny",
                     "--trace-out", str(trace)]) == 0
        assert f"trace: {trace}" in capsys.readouterr().err
        events = read_trace(trace)
        assert events[0]["type"] == "trace_meta"
        assert events[0]["command"] == "profile"
        assert any(e.get("path") == "job/analyze" for e in events)

    def test_analyze_stdout_identical_with_tracing(self, capsys, tmp_path):
        from repro import obs
        from repro.obs import read_trace
        assert main(ANALYZE_TINY) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "analyze.jsonl"
        assert main(ANALYZE_TINY + ["--trace-out", str(trace)]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # observability never touches stdout
        assert "trace:" in captured.err
        assert not obs.tracing_enabled()  # trace state never leaks
        events = read_trace(trace)
        assert events[0] == {"type": "trace_meta", "schema_version": 1,
                             "command": "analyze"}
        roots = [e for e in events if e.get("depth") == 0]
        assert [r["path"] for r in roots] == \
            ["stage.collect", "stage.eipv", "job"]

    def test_census_parallel_stdout_identical_with_tracing(
            self, capsys, tmp_path):
        from repro.obs import read_trace
        argv = ["census", "spec.gzip", "spec.art", "--k-max", "5",
                "--no-cache", "--jobs", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "census.jsonl"
        assert main(argv + ["--trace-out", str(trace)]) == 0
        assert capsys.readouterr().out == plain
        roots = [e for e in read_trace(trace) if e.get("depth") == 0]
        # One merged job tree per workload, in submission order, after
        # the stage trees the jobs depend on.
        assert [r["attrs"]["workload"] for r in roots
                if r["path"] == "job"] == ["spec.gzip", "spec.art"]


class TestSharedRuntimeSurface:
    """One parent parser feeds every work-running subcommand."""

    WORK_COMMANDS = ("analyze", "census", "experiment", "profile", "sweep")

    @staticmethod
    def _runtime_section(parser) -> str:
        blocks = parser.format_help().split("\n\n")
        sections = [b.strip() for b in blocks
                    if b.lstrip().startswith("runtime:")]
        assert len(sections) == 1
        # argparse wraps columns per-subparser (the widest flag differs,
        # and wrapping can split on hyphens), so compare the surface with
        # all whitespace stripped.
        return "".join(sections[0].split())

    def _subparsers(self):
        action = next(a for a in build_parser()._actions
                      if getattr(a, "choices", None)
                      and "analyze" in a.choices)
        return action.choices

    def test_runtime_help_identical_across_subcommands(self):
        choices = self._subparsers()
        sections = {name: self._runtime_section(choices[name])
                    for name in self.WORK_COMMANDS}
        reference = sections["analyze"]
        for name, section in sections.items():
            assert section == reference, f"{name} drifted from analyze"

    def test_runtime_defaults_identical_across_subcommands(self):
        flags = ("jobs", "cache_dir", "no_cache", "timeout", "trace_out")
        positional = {"analyze": ["odbc"], "census": [],
                      "experiment": ["e1"], "profile": ["odbc"],
                      "sweep": []}
        seen = {}
        for name in self.WORK_COMMANDS:
            args = build_parser().parse_args([name] + positional[name])
            seen[name] = {flag: getattr(args, flag) for flag in flags}
        assert all(values == seen["analyze"] for values in seen.values())


#: One fresh interpreter runs every argv through ``repro.cli.main``.
_ONE_PROCESS = """
import sys
from repro.cli import main
for argv in {argvs!r}:
    if main(argv) != 0:
        sys.exit(1)
"""


def _main_in_one_process(*argvs, timeout: float = 120.0) -> str:
    """Run several ``main`` calls in one subprocess; return its stdout.

    The subprocess gets its own process group, killed on timeout with
    every pool worker it forked, so a hang fails the test instead of
    stalling the suite.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_PROCESS.format(argvs=list(argvs))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{len(argvs)} main() calls hung past {timeout}s "
                    "in one process")
    assert proc.returncode == 0, err
    return out


class TestLongLivedProcess:
    """Commands run one after another in one process, as in the daemon
    and the test suite: workers forked by one command must not carry
    its parallelism into the next."""

    ANALYZE = ["analyze", "spec.gzip", "--intervals", "12", "--k-max", "5",
               "--scale", "tiny", "--no-cache", "--jobs", "4"]
    CENSUS = ["census", "spec.gzip", "spec.art", "--k-max", "5",
              "--no-cache"]

    def test_analyze_jobs4_then_census_jobs4(self):
        out = _main_in_one_process(self.ANALYZE,
                                   self.CENSUS + ["--jobs", "4"])
        assert "Table 2: quadrant classification" in out

    def test_analyze_jobs4_then_traced_census_jobs2(self, tmp_path):
        trace = tmp_path / "census.jsonl"
        out = _main_in_one_process(
            self.ANALYZE,
            self.CENSUS + ["--jobs", "2", "--trace-out", str(trace)])
        assert "Table 2: quadrant classification" in out
        assert trace.is_file()


class TestSweepCommand:
    SWEEP_ARGS = ["sweep", "spec.gzip", "spec.art",
                  "--seeds", "7", "--interval-sizes", "10000000",
                  "--machines", "itanium2"]

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workloads == []
        assert args.seeds == [11, 12, 13]
        assert args.scale == "tiny"
        assert args.jobs == 1  # shared runtime surface

    def test_unknown_workload_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "no.such.workload"])
        assert excinfo.value.code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_sweep_runs_and_resumes(self, capsys, tmp_path):
        argv = self.SWEEP_ARGS + ["--shards", "2",
                                  "--sweep-dir", str(tmp_path / "sweep"),
                                  "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert first.out.startswith("sweep report\n")
        assert "2 points" in first.err
        # Rerun: both shards replay from their partials, same stdout.
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "2 shards (2 resumed), 0 cached, 0 executed" in second.err

    def test_stop_after_exits_3_then_resumes(self, capsys, tmp_path):
        argv = self.SWEEP_ARGS + ["--shards", "2",
                                  "--sweep-dir", str(tmp_path / "sweep"),
                                  "--cache-dir", str(tmp_path / "cache")]
        assert main(argv + ["--stop-after", "1"]) == 3
        killed = capsys.readouterr()
        assert killed.out == ""
        assert "rerun to resume" in killed.err
        assert main(argv) == 0
        resumed = capsys.readouterr()
        assert resumed.out.startswith("sweep report\n")
