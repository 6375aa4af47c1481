"""Disk-backed, content-addressed result store.

Layout under the cache root (``--cache-dir``, ``$REPRO_CACHE_DIR``, or
``~/.cache/repro``)::

    <root>/objects/<key[:2]>/<key>.json   one envelope per job result
    <root>/quarantine/                    corrupted entries, moved aside
    <root>/manifests/                     run manifests (see manifest.py)

Each envelope records a ``schema_version`` alongside the spec and the
payload.  Reads are defensive by construction: a truncated file, garbage
JSON, a wrong-shape envelope, or a stale schema version is *quarantined*
(moved into ``quarantine/`` for post-mortems) and reported as a miss, so
a damaged cache can never crash or corrupt a run — the job is simply
recomputed and the entry rewritten.  Writes go through a temp file in
the same directory plus :func:`os.replace`, so readers never observe a
half-written entry even with concurrent runs.

Beside the JSON objects lives a second, binary tier — the **artifact
store** (``<root>/artifacts/``, :class:`ArtifactStore`) — holding the
pipeline's intermediate products (trace columns, EIPV matrices) as raw
``.npy`` files that load zero-copy via ``np.load(mmap_mode="r")``::

    <root>/artifacts/<kind>/<key[:2]>/<key>/   one directory per artifact
        *.npy                                   memmappable arrays
        meta.json                               schema + kind + key + meta

It mirrors the result cache's guarantees at directory granularity:
publication is a temp directory renamed into place (readers never see a
partial artifact), damaged artifacts are quarantined and silently
recomputed, and eviction is bounded and deterministic (sorted path
order).  ``meta.json`` is written last inside the temp directory, so its
presence certifies a complete artifact.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.runtime.metrics import METRICS

#: Envelope schema version; bump on incompatible layout changes.
SCHEMA_VERSION = 1

#: Artifact ``meta.json`` schema version; bump on layout changes.
ARTIFACT_SCHEMA = 1

#: Environment override for the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time summary of one cache directory."""

    root: str
    entries: int
    total_bytes: int
    quarantined: int
    manifests: int

    def render(self) -> str:
        from repro.analysis.report import format_table
        rows = [["entries", self.entries],
                ["total bytes", self.total_bytes],
                ["quarantined", self.quarantined],
                ["manifests", self.manifests]]
        return format_table(["", ""], rows,
                            title=f"result cache at {self.root}")


@dataclass(frozen=True)
class ArtifactStats:
    """A point-in-time summary of one artifact store."""

    root: str
    entries: int
    total_bytes: int
    quarantined: int
    by_kind: dict = field(default_factory=dict)

    def render(self) -> str:
        from repro.analysis.report import format_table
        rows = [["artifacts", self.entries],
                ["total bytes", self.total_bytes],
                ["quarantined", self.quarantined]]
        for kind in sorted(self.by_kind):
            rows.append([f"kind {kind}", self.by_kind[kind]])
        return format_table(["", ""], rows,
                            title=f"artifact store at {self.root}")


class ArtifactStore:
    """Content-addressed store of memmappable stage artifacts.

    An artifact is a *directory* of raw ``.npy`` arrays plus a
    ``meta.json`` certificate, keyed by ``(kind, key)`` where ``key`` is
    the producing stage spec's content hash.  Publication is atomic at
    directory granularity: arrays are written into a hidden temp
    directory, ``meta.json`` goes in last, and one ``os.rename`` makes
    the artifact visible — a reader either sees a complete artifact or
    none.  Concurrent same-key publishers race benignly: the loser
    detects the winner's directory and discards its own temp tree.

    Reads are defensive like :class:`ResultCache`: a missing or
    malformed ``meta.json``, a kind/key mismatch, or an unloadable array
    quarantines the whole artifact directory and reports a miss, so the
    stage silently recomputes.
    """

    def __init__(self, root: Path | str, metrics=METRICS) -> None:
        self.root = Path(root)
        self.metrics = metrics

    # -- layout -----------------------------------------------------------
    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def entry_dir(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / key

    # -- read -------------------------------------------------------------
    def has(self, kind: str, key: str) -> bool:
        """Cheap completeness probe (``meta.json`` certifies the rename)."""
        return (self.entry_dir(kind, key) / "meta.json").is_file()

    def open_meta(self, kind: str, key: str) -> dict | None:
        """The artifact's ``meta`` mapping, or ``None`` on miss.

        A present-but-invalid artifact is quarantined and reported as a
        miss, exactly like a damaged result-cache envelope.
        """
        path = self.entry_dir(kind, key) / "meta.json"
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.metrics.inc("artifact.miss")
            return None
        try:
            envelope = json.loads(raw)
            if not isinstance(envelope, dict):
                raise ValueError("meta is not an object")
            if envelope.get("schema_version") != ARTIFACT_SCHEMA:
                raise ValueError(
                    f"schema {envelope.get('schema_version')!r} != "
                    f"{ARTIFACT_SCHEMA}")
            if envelope.get("kind") != kind or envelope.get("key") != key:
                raise ValueError("artifact kind/key mismatch")
            meta = envelope["meta"]
            if not isinstance(meta, dict):
                raise ValueError("meta payload is not an object")
        except (ValueError, KeyError, TypeError):
            self.quarantine(kind, key)
            self.metrics.inc("artifact.miss")
            return None
        self.metrics.inc("artifact.hit")
        return meta

    def load_array(self, kind: str, key: str, name: str):
        """One array of the artifact as a read-only memmap, or ``None``.

        The view is explicitly frozen before escaping (RL004): artifact
        bytes are shared state — a mutated view would poison every
        later zero-copy consumer of the same mapping.
        """
        import numpy as np

        path = self.entry_dir(kind, key) / f"{name}.npy"
        try:
            view = np.load(path, mmap_mode="r")
        except (OSError, ValueError, EOFError):
            self.quarantine(kind, key)
            return None
        view.flags.writeable = False
        return view

    # -- write ------------------------------------------------------------
    @contextlib.contextmanager
    def put(self, kind: str, key: str, meta: dict):
        """Atomically publish one artifact; yields the staging directory.

        The caller writes its ``.npy`` files into the yielded directory;
        on clean exit ``meta.json`` is written last and the directory is
        renamed into place.  If a concurrent publisher won the rename
        race, this publisher's tree is discarded — either way exactly
        one complete artifact remains and no temp litter survives.
        """
        final = self.entry_dir(kind, key)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{key[:8]}-", suffix=".tmp",
                                    dir=final.parent))
        try:
            yield tmp
            envelope = {"schema_version": ARTIFACT_SCHEMA, "kind": kind,
                        "key": key, "meta": meta}
            (tmp / "meta.json").write_text(
                json.dumps(envelope, sort_keys=True, indent=1),
                encoding="utf-8")
            try:
                os.rename(tmp, final)
            except OSError:
                if not self.has(kind, key):
                    raise
            else:
                self.metrics.inc("artifact.store")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def quarantine(self, kind: str, key: str) -> None:
        """Move a damaged artifact directory aside; never raises."""
        source = self.entry_dir(kind, key)
        try:
            if not source.is_dir():
                return
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / source.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = self.quarantine_dir / f"{source.name}.{suffix}"
            os.rename(source, target)
            self.metrics.inc("artifact.quarantined")
        except OSError:
            shutil.rmtree(source, ignore_errors=True)

    # -- maintenance ------------------------------------------------------
    # Enumeration is sorted (RL001) for the same reason as the result
    # cache: these listings drive stats output and eviction order.
    def entries(self) -> list[Path]:
        """Every published artifact directory, in sorted order."""
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.glob("*/*/*")
            if p.is_dir() and not p.name.startswith(".")
            and p.relative_to(self.root).parts[0] != "quarantine")

    def quarantined(self) -> list[Path]:
        """Every quarantined artifact, in sorted order."""
        return sorted(self.quarantine_dir.iterdir()) \
            if self.quarantine_dir.is_dir() else []

    def stats(self) -> ArtifactStats:
        entries = self.entries()
        by_kind: dict[str, int] = {}
        total = 0
        for entry in entries:
            kind = entry.relative_to(self.root).parts[0]
            by_kind[kind] = by_kind.get(kind, 0) + 1
            for item in sorted(entry.iterdir()):
                try:
                    total += item.stat().st_size
                except OSError:
                    pass
        return ArtifactStats(
            root=str(self.root),
            entries=len(entries),
            total_bytes=total,
            quarantined=len(self.quarantined()),
            by_kind=by_kind,
        )

    def prune(self, max_entries: int) -> int:
        """Evict artifacts until at most ``max_entries`` remain.

        Same contract as :meth:`ResultCache.prune`: earliest entries in
        sorted path order go first, deterministically.
        """
        entries = self.entries()
        removed = 0
        excess = len(entries) - max(0, int(max_entries))
        for path in entries[:max(0, excess)]:
            shutil.rmtree(path, ignore_errors=True)
            if not path.exists():
                removed += 1
        if removed:
            self.metrics.inc("artifact.pruned", removed)
        return removed

    def clear(self) -> int:
        """Delete every artifact (and quarantined ones); returns count."""
        removed = 0
        for path in self.entries():
            shutil.rmtree(path, ignore_errors=True)
            if not path.exists():
                removed += 1
        for path in self.quarantined():
            shutil.rmtree(path, ignore_errors=True)
        return removed


class ResultCache:
    """Content-addressed JSON store keyed by :meth:`JobSpec.key`."""

    def __init__(self, root: Path | str | None = None,
                 metrics=METRICS) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.metrics = metrics

    # -- layout -----------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @property
    def manifest_dir(self) -> Path:
        return self.root / "manifests"

    def entry_path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.json"

    @cached_property
    def artifacts(self) -> ArtifactStore:
        """The sibling artifact tier under ``<root>/artifacts/``."""
        return ArtifactStore(self.root / "artifacts", metrics=self.metrics)

    # -- read -------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Cheap existence probe — no read, no validation, no metrics.

        Used by graph builders deciding whether a final job still needs
        its upstream stage nodes; a stale or corrupt entry just means
        the job rebuilds its dataset inside itself, which is still
        correct.
        """
        return self.entry_path(key).is_file()

    def get(self, key: str) -> dict | None:
        """Payload for ``key``, or ``None`` on miss/quarantine."""
        path = self.entry_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.metrics.inc("cache.miss")
            return None
        try:
            envelope = json.loads(raw)
            if not isinstance(envelope, dict):
                raise ValueError("envelope is not an object")
            if envelope.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(
                    f"schema {envelope.get('schema_version')!r} != "
                    f"{SCHEMA_VERSION}")
            if envelope.get("key") != key:
                raise ValueError("envelope key mismatch")
            payload = envelope["payload"]
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.metrics.inc("cache.miss")
            self.metrics.inc("cache.quarantined")
            return None
        self.metrics.inc("cache.hit")
        return payload

    # -- write ------------------------------------------------------------
    def put(self, key: str, payload: dict, spec: dict | None = None) -> Path:
        """Atomically store ``payload`` under ``key``; returns the path."""
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"schema_version": SCHEMA_VERSION, "key": key,
                    "spec": spec, "payload": payload}
        text = json.dumps(envelope, sort_keys=True, indent=1)
        fd, tmp = tempfile.mkstemp(prefix=f".{key[:8]}-", suffix=".tmp",
                                   dir=path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.metrics.inc("cache.store")
        return path

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside; never raises."""
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / path.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = self.quarantine_dir / f"{path.name}.{suffix}"
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    # -- maintenance ------------------------------------------------------
    # Directory enumeration is always sorted (RL001): glob/iterdir yield
    # filesystem order, which differs across machines and filesystems,
    # and these listings drive stats output and eviction order.
    def entries(self) -> list[Path]:
        """Every cached object file, in sorted (deterministic) order."""
        return sorted(self.objects_dir.glob("*/*.json")) \
            if self.objects_dir.is_dir() else []

    def quarantined(self) -> list[Path]:
        """Every quarantined file, in sorted (deterministic) order."""
        return sorted(self.quarantine_dir.iterdir()) \
            if self.quarantine_dir.is_dir() else []

    def manifests(self) -> list[Path]:
        """Every saved manifest, in sorted (deterministic) order."""
        return sorted(self.manifest_dir.glob("*.json")) \
            if self.manifest_dir.is_dir() else []

    def stats(self) -> CacheStats:
        entries = self.entries()
        return CacheStats(
            root=str(self.root),
            entries=len(entries),
            total_bytes=sum(p.stat().st_size for p in entries),
            quarantined=len(self.quarantined()),
            manifests=len(self.manifests()),
        )

    def prune(self, max_entries: int) -> int:
        """Evict entries until at most ``max_entries`` remain.

        The daemon's bounded-growth knob: called after stores, it keeps
        a long-lived process's cache directory from growing without
        limit.  Eviction removes the *earliest* entries in sorted path
        order — not LRU, but deterministic: two daemons serving the same
        request stream keep the same entries.  Entries that vanish
        underneath us (a concurrent prune) just don't count.

        The artifact tier is bounded together with the objects: the same
        ``max_entries`` caps the artifact count, with the same sorted
        eviction order.  The return value counts both tiers.
        """
        entries = self.entries()
        removed = 0
        excess = len(entries) - max(0, int(max_entries))
        for path in entries[:max(0, excess)]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if removed:
            self.metrics.inc("cache.pruned", removed)
        removed += self.artifacts.prune(max_entries)
        return removed

    def clear(self) -> int:
        """Delete all cached objects and artifacts (not manifests).

        Removal happens in sorted path order, so a partial clear (e.g.
        interrupted, or racing another process) leaves the same prefix
        of entries behind on every machine.  Returns the combined count
        of removed objects and artifacts.
        """
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.quarantined():
            try:
                path.unlink()
            except OSError:
                pass
        return removed + self.artifacts.clear()


class NullCache:
    """Cache stand-in that never hits and never stores (``--no-cache``)."""

    root = None
    artifacts = None

    def contains(self, key: str) -> bool:
        return False

    def get(self, key: str) -> None:
        return None

    def put(self, key: str, payload: dict, spec: dict | None = None) -> None:
        return None

    def stats(self) -> CacheStats:
        return CacheStats(root="(disabled)", entries=0, total_bytes=0,
                          quarantined=0, manifests=0)

    def prune(self, max_entries: int) -> int:
        return 0

    def clear(self) -> int:
        return 0
