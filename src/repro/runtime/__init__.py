"""``repro.runtime`` — schedulable, cacheable pipeline jobs.

The analysis pipeline (simulate -> sample -> EIPVs -> cross-validated
regression trees) is a pure function of a small set of knobs.  This
package turns one such run into a first-class *job* that can be hashed,
cached on disk, fanned out across worker processes, and accounted for in
a run manifest:

- :mod:`repro.runtime.jobs` — :class:`JobSpec` (frozen, content-hashed)
  and :class:`JobResult` (JSON-serializable analysis output);
- :mod:`repro.runtime.cache` — the one disk-backed, content-addressed
  store: job results and stage artifacts (traces, EIPV and fold
  datasets) as ``(kind, key)`` entries with atomic publication,
  corrupted-entry quarantine and one sorted walk for stats, prune and
  clear.  Every run holds exactly one store: the disk cache, or under
  ``--no-cache`` a temporary one removed when the run ends
  (:func:`~repro.runtime.cache.store_scope`);
- :mod:`repro.runtime.scheduler` — process-pool fan-out with per-job
  timeout and graceful in-process fallback;
- :mod:`repro.runtime.graph` — :class:`JobGraph`/:func:`submit_graph`,
  the general job DAG every fan-out (census, cv folds, profile, sweeps)
  dispatches through: ready sets run as scheduler waves, dependents of
  failed nodes are skipped, outcomes stream back per node;
- :mod:`repro.runtime.manifest` — structured per-run observability
  record (wall times, cache hits, worker ids, failure tracebacks);
- :mod:`repro.runtime.metrics` — lightweight counters/timers aggregated
  across workers;
- :mod:`repro.runtime.coalesce` — in-flight dedup of identical jobs
  (a thundering herd of equal specs computes once), keyed by the same
  ``spec.key`` the cache and manifests use.

Determinism is the core contract: a job's result is identical whether it
was computed serially, in a worker process, or loaded from a warm cache.
There are no process-wide runtime settings: parallelism, store and
timeout are arguments, and pool workers run their jobs with ``jobs=1``.
"""

from repro.runtime.cache import CacheStats, ResultCache, store_scope
from repro.runtime.coalesce import (CoalescedFailure, CoalesceTimeout,
                                    JobCoalescer)
from repro.runtime.graph import GraphError, JobGraph, JobNode, submit_graph
from repro.runtime.jobs import CODE_VERSION, JobResult, JobSpec, execute_job
from repro.runtime.manifest import JobRecord, RunManifest
from repro.runtime.metrics import METRICS, MetricsRegistry
from repro.runtime.scheduler import JobOutcome, run_jobs

__all__ = [
    "CODE_VERSION",
    "CacheStats",
    "CoalesceTimeout",
    "CoalescedFailure",
    "GraphError",
    "JobCoalescer",
    "JobGraph",
    "JobNode",
    "JobOutcome",
    "JobRecord",
    "JobResult",
    "JobSpec",
    "METRICS",
    "MetricsRegistry",
    "ResultCache",
    "RunManifest",
    "execute_job",
    "run_jobs",
    "store_scope",
    "submit_graph",
]
