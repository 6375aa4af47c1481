"""Structured run manifests for observability.

Every scheduled run can leave behind a manifest: which jobs ran, which
were warm-cache hits, how long each took, which worker executed it, and
the full traceback of any failure.  Manifests are serialized as JSON
next to the cached results (``<cache-root>/manifests/``) so a run's
provenance survives the process, and :meth:`RunManifest.summary` gives
the one-screen account the CLI prints after a census.

Manifests are observability only — nothing downstream reads them back
into the pipeline, so timestamps and wall times in here never affect
rendered experiment output.  A manifest keeps each job's status, not
its spans: those live in the tracer, and so in the ``--trace-out``
trace.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path


@dataclass(frozen=True)
class JobRecord:
    """One job's accounting line inside a manifest."""

    key: str
    workload: str
    status: str  # "cache_hit" | "executed" | "failed" | "timeout"
    cache_hit: bool
    wall_time_s: float
    worker: str
    error: str | None = None

    @classmethod
    def from_outcome(cls, outcome) -> "JobRecord":
        if outcome.timed_out:
            status = "timeout"
        elif outcome.error is not None:
            status = "failed"
        elif outcome.cache_hit:
            status = "cache_hit"
        else:
            status = "executed"
        return cls(key=outcome.key, workload=outcome.spec.workload,
                   status=status, cache_hit=outcome.cache_hit,
                   wall_time_s=round(outcome.wall_time, 6),
                   worker=outcome.worker, error=outcome.error)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record of one scheduled run."""

    run_id: str
    command: str
    jobs: int
    cache_root: str | None
    started_at: str
    finished_at: str
    records: tuple = field(default_factory=tuple)

    @classmethod
    def from_outcomes(cls, outcomes, command: str = "", jobs: int = 1,
                      cache_root: str | None = None,
                      started_at: str | None = None) -> "RunManifest":
        finished = _utc_now()
        started = started_at or finished
        digest = hashlib.sha256(
            (started + "".join(o.key for o in outcomes)).encode("utf-8"))
        return cls(
            run_id=digest.hexdigest()[:16],
            command=command,
            jobs=jobs,
            cache_root=str(cache_root) if cache_root else None,
            started_at=started,
            finished_at=finished,
            records=tuple(JobRecord.from_outcome(o) for o in outcomes),
        )

    # -- aggregates -------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return len(self.records)

    @property
    def n_cache_hits(self) -> int:
        return sum(record.cache_hit for record in self.records)

    @property
    def n_failed(self) -> int:
        return sum(record.status in ("failed", "timeout")
                   for record in self.records)

    @property
    def hit_rate(self) -> float:
        return self.n_cache_hits / self.n_jobs if self.records else 0.0

    @property
    def total_wall_s(self) -> float:
        return sum(record.wall_time_s for record in self.records)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self) | {"records": [asdict(r) for r in self.records]}

    def save(self, directory: Path | str) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.run_id}.json"
        path.write_text(json.dumps(self.to_dict(), sort_keys=True, indent=1),
                        encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Path | str) -> "RunManifest":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        records = tuple(JobRecord(**r) for r in data.pop("records", []))
        return cls(records=records, **data)

    def summary(self) -> str:
        """One line per aggregate, for the CLI's post-run report."""
        executed = self.n_jobs - self.n_cache_hits - self.n_failed
        return (f"run {self.run_id}: {self.n_jobs} jobs, "
                f"{self.n_cache_hits} cache hits "
                f"({self.hit_rate:.0%}), {executed} executed, "
                f"{self.n_failed} failed, "
                f"{self.total_wall_s:.2f}s total job time, "
                f"jobs={self.jobs}")


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")
