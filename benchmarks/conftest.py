"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables or figures.  The
rendered text goes to ``benchmarks/results/<name>.txt`` (and the pytest
captured output), so `pytest benchmarks/ --benchmark-only` leaves behind a
complete reproduction report alongside the timing table.

Machine-readable timings additionally accumulate in
``benchmarks/results/BENCH_<name>.json`` files (one entry per measured
stage: wall seconds, throughput, speedup over the reference
implementation), so the perf trajectory is trackable across PRs and CI
can upload them as artifacts.  ``BENCH_pipeline.json`` holds the
pipeline-stage timings; ``BENCH_shm.json`` the out-of-core collection
numbers.
"""

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_pipeline.json"


@pytest.fixture(scope="session")
def record():
    """Write one experiment's rendering to the results directory."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _record


def json_recorder(path: Path):
    """A writer that appends stage timings to one ``BENCH_*.json`` file.

    The file holds a list of ``{"stage", "wall_s", ...}`` entries keyed
    by stage name; re-recording a stage replaces its entry, so repeated
    runs keep exactly one row per stage.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(stage: str, wall_s: float, **extra) -> dict:
        entries: dict[str, dict] = {}
        if path.exists():
            entries = {e["stage"]: e
                       for e in json.loads(path.read_text())}
        entry = {"stage": stage, "wall_s": round(wall_s, 4), **extra}
        entries[stage] = entry
        path.write_text(
            json.dumps(list(entries.values()), indent=1) + "\n")
        print(f"\n{json.dumps(entry)}\n")
        return entry

    return _record


@pytest.fixture(scope="session")
def bench_json():
    """Record pipeline-stage timings into ``BENCH_pipeline.json``."""
    return json_recorder(BENCH_JSON)


@pytest.fixture(scope="session")
def bench_shm_json():
    """Record out-of-core collection timings into ``BENCH_shm.json``."""
    return json_recorder(RESULTS_DIR / "BENCH_shm.json")


@pytest.fixture(scope="session")
def bench_serve_json():
    """Record analysis-daemon timings into ``BENCH_serve.json``."""
    return json_recorder(RESULTS_DIR / "BENCH_serve.json")


@pytest.fixture(scope="session")
def bench_lint_json():
    """Record lint-engine timings into ``BENCH_lint.json``."""
    return json_recorder(RESULTS_DIR / "BENCH_lint.json")


@pytest.fixture(scope="session")
def store():
    """One store shared by the session's benchmarks, so those
    over the same run (ODB-C at 60 intervals, seed 11, feeds five of
    them) simulate it once.  A temporary store, removed at the end."""
    from repro.runtime.cache import store_scope
    with store_scope(None) as shared:
        yield shared
