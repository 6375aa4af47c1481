"""Sweep manifests and shard partials: resumability on disk.

A sweep directory holds three kinds of state, all JSON or columnar:

* ``manifest.json`` — the space's canonical description + key and the
  shard layout.  Written once, atomically (tmp + ``os.replace``), when
  the sweep directory is created.
* ``shards/shard-NNNN.json`` — one completed shard's rows, written
  atomically exactly once, when the shard's last point finishes.  A
  valid partial is the one record that its shard is complete; a shard
  with any failed point is never written, so resuming retries it (its
  succeeded points come back as cache hits — zero recomputation).
* ``table/`` + ``report.txt`` — the merged outputs (see the engine).

Resume contract: a sweep directory belongs to exactly one space.
:func:`load_manifest` is validated against the space key by the engine;
a mismatch is an error, never a silent recompute.  The shard *count*,
by contrast, is a performance knob — resuming with a different
``--shards`` keeps the manifest's layout, because completed partials
are only valid against the bounds they were written under.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

MANIFEST_SCHEMA = 1
MANIFEST_NAME = "manifest.json"
SHARD_DIR = "shards"

#: Column order of each row in a shard partial (and the merged table).
ROW_FIELDS = ("point_index", "cpi_variance", "cpi_mean", "re_kopt",
              "re_inf", "k_opt", "n_intervals", "n_eips", "quadrant")


class SweepStateError(ValueError):
    """Sweep directory state that cannot be resumed against this space."""


def shard_bounds(total: int, shards: int) -> list:
    """Contiguous ``[lo, hi)`` point ranges, as equal as possible.

    The first ``total % shards`` shards take the extra point, so bounds
    are a pure function of ``(total, shards)`` — every process computes
    the same layout.
    """
    if total < 0:
        raise ValueError("total cannot be negative")
    shards = max(1, min(int(shards), total or 1))
    base, extra = divmod(total, shards)
    bounds = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` under a temporary name, then rename it
    into place: a reader sees the old file or the whole new one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


@dataclass
class SweepManifest:
    """On-disk record of a sweep's space and shard layout."""

    space: dict
    space_key: str
    n_points: int
    bounds: list

    @property
    def n_shards(self) -> int:
        return len(self.bounds)

    @staticmethod
    def partial_name(shard: int) -> str:
        return f"{SHARD_DIR}/shard-{shard:04d}.json"

    def to_dict(self) -> dict:
        return {
            "kind": "sweep-manifest",
            "schema": MANIFEST_SCHEMA,
            "space": self.space,
            "space_key": self.space_key,
            "n_points": self.n_points,
            "bounds": [list(b) for b in self.bounds],
        }

    def save(self, sweep_dir: Path) -> Path:
        path = Path(sweep_dir) / MANIFEST_NAME
        atomic_write(path, json.dumps(self.to_dict(), sort_keys=True,
                                       indent=1))
        return path

    @classmethod
    def from_dict(cls, data: dict) -> "SweepManifest":
        """The manifest ``data`` describes; an older ``completed`` map
        is ignored, because the partials say which shards are done."""
        if data.get("kind") != "sweep-manifest":
            raise SweepStateError("not a sweep manifest")
        schema = int(data.get("schema", 0))
        if schema > MANIFEST_SCHEMA:
            raise SweepStateError(
                f"manifest schema {schema} is newer than this build "
                f"(reads up to {MANIFEST_SCHEMA})")
        return cls(space=dict(data["space"]),
                   space_key=str(data["space_key"]),
                   n_points=int(data["n_points"]),
                   bounds=[tuple(b) for b in data["bounds"]])


def load_manifest(sweep_dir: Path) -> SweepManifest | None:
    """The manifest in ``sweep_dir``, or None if the dir is fresh."""
    path = Path(sweep_dir) / MANIFEST_NAME
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SweepStateError(f"unreadable sweep manifest {path}: {exc}")
    return SweepManifest.from_dict(data)


def write_partial(sweep_dir: Path, shard: int, lo: int, hi: int,
                  rows: list) -> str:
    """Atomically persist one completed shard; returns the relative name.

    ``rows`` are ``ROW_FIELDS``-ordered lists, one per point, already in
    point-index order.  JSON round-trips finite floats exactly, so the
    merged table built from partials is byte-identical to one built from
    live results.
    """
    if len(rows) != hi - lo:
        raise ValueError(
            f"shard {shard} has {len(rows)} rows, expected {hi - lo}")
    name = SweepManifest.partial_name(shard)
    path = Path(sweep_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, json.dumps({
        "kind": "sweep-shard",
        "schema": MANIFEST_SCHEMA,
        "shard": shard,
        "lo": lo,
        "hi": hi,
        "rows": rows,
    }, sort_keys=True))
    return name


def read_partial(sweep_dir: Path, name: str, shard: int,
                 lo: int, hi: int) -> list | None:
    """One shard's rows, or None if the partial is missing/invalid.

    Validation is structural (kind, shard id, bounds, row count): a
    torn or stale partial reads as "not done", so the engine recomputes
    the shard rather than merging garbage.
    """
    path = Path(sweep_dir) / name
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if (data.get("kind") != "sweep-shard" or data.get("shard") != shard
            or data.get("lo") != lo or data.get("hi") != hi):
        return None
    rows = data.get("rows")
    if not isinstance(rows, list) or len(rows) != hi - lo:
        return None
    return rows
