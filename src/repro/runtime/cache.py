"""The one content-addressed store: job results and stage artifacts.

Layout under the cache root (``--cache-dir``, ``$REPRO_CACHE_DIR``, or
``~/.cache/repro``)::

    <root>/store/<kind>/<key>/    one directory per entry
        *.npy                     zero or more memmappable arrays
        meta.json                 the header, written last
    <root>/store/.quarantine/     damaged entries, moved aside
    <root>/manifests/             run manifests (see manifest.py)

Every entry is addressed by ``(kind, key)``, where ``key`` is the
producing spec's content hash: an analysis result (kind ``result``: no
arrays, the payload in its header next to the spec), a trace, an EIPV
dataset or a fold dataset (raw ``.npy`` arrays that load zero-copy via
``np.load(mmap_mode="r")``).  One set of rules serves every kind:

* **Publication is atomic.**  An entry is written into a hidden staging
  directory, ``meta.json`` goes in last, and one ``os.rename`` makes it
  visible, so a reader sees a complete entry or none.  A rename never
  replaces a published entry: a same-key publisher that lost the race
  discards its own tree.  It never creates the store's root, so a job
  that outlives its run's temporary store cannot bring it back.
* **Reads are defensive.**  A garbage, torn or stale-schema header, a
  kind/key mismatch or an unloadable array quarantines the entry (moves
  it into ``.quarantine/`` for post-mortems) and reads as a miss, so
  damage costs a recompute, never a crash or a wrong result.
* **Maintenance is one sorted walk.**  Listing, prune, clear and stats
  walk ``(kind, key)`` in sorted order (RL001) with ``os.scandir``,
  which tells directories apart without a stat per entry; an entry that
  vanishes mid-walk (a concurrent prune) is skipped.

Names starting with ``.`` are never entries, which keeps staging
directories and the quarantine out of every walk.  Nothing outside
``<root>/store/`` is read, listed, pruned or cleared: manifests, a sweep
directory or a nested cache under the same root, and the ``objects/``
and ``artifacts/`` directories of the older two-tier layout.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.metrics import METRICS

#: Entry header schema version; bump on incompatible layout changes.
SCHEMA_VERSION = 2

#: Kind of a job-result entry (its payload is the header's ``meta``).
RESULT = "result"

#: Environment override for the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Prefix of the temporary directory that holds the store of a run
#: without a usable disk cache (removed when its :func:`store_scope`
#: exits).
STAGES_DIR_PREFIX = "repro-stages-"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time summary of one store."""

    root: str
    entries: int
    total_bytes: int
    quarantined: int
    manifests: int
    by_kind: dict = field(default_factory=dict)

    def render(self) -> str:
        from repro.analysis.report import format_table
        rows = [["entries", self.entries]]
        rows += [[f"kind {kind}", count]
                 for kind, count in sorted(self.by_kind.items())]
        rows += [["total bytes", self.total_bytes],
                 ["quarantined", self.quarantined],
                 ["manifests", self.manifests]]
        return format_table(["", ""], rows, title=f"store at {self.root}")


def _subdirs(path: Path) -> list[str]:
    """Sorted names of ``path``'s visible subdirectories (none when it
    is gone); ``d_type`` answers ``is_dir`` without a stat."""
    try:
        return sorted(item.name for item in os.scandir(path)
                      if not item.name.startswith(".")
                      and item.is_dir(follow_symlinks=False))
    except OSError:
        return []


class ResultCache:
    """The content-addressed store of job results and stage artifacts.

    Results go through :meth:`get`/:meth:`put`, keyed by
    :attr:`JobSpec.key`; array entries through :meth:`publish`,
    :meth:`open_meta` and :meth:`load_array`.  Both are entries of one
    format, validated by :meth:`header` and maintained by one walk.
    """

    def __init__(self, root: Path | str | None = None,
                 metrics=METRICS) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.metrics = metrics

    # -- layout -----------------------------------------------------------
    @property
    def store_dir(self) -> Path:
        return self.root / "store"

    @property
    def quarantine_dir(self) -> Path:
        return self.store_dir / ".quarantine"

    @property
    def manifest_dir(self) -> Path:
        return self.root / "manifests"

    def entry_dir(self, kind: str, key: str) -> Path:
        return self.store_dir / kind / key

    def _count(self, kind: str, event: str) -> None:
        """Result events count as ``cache.*``, array entries' as
        ``artifact.*`` (the two sections of ``/v1/stats``)."""
        prefix = "cache" if kind == RESULT else "artifact"
        self.metrics.inc(f"{prefix}.{event}")

    # -- read -------------------------------------------------------------
    def has(self, kind: str, key: str) -> bool:
        """Cheap existence probe — no read, no validation, no metrics
        (``meta.json`` certifies the rename)."""
        return (self.entry_dir(kind, key) / "meta.json").is_file()

    def header(self, kind: str, key: str) -> dict | None:
        """The entry's validated header, or ``None`` on a miss.

        The one validator: a header that is not a JSON object (garbage,
        torn), carries another schema version, names another kind or key,
        or holds no ``meta`` mapping quarantines the entry and reads as
        a miss.
        """
        try:
            raw = (self.entry_dir(kind, key) / "meta.json").read_bytes()
        except OSError:
            self._count(kind, "miss")
            return None
        try:
            header = json.loads(raw)
            if not isinstance(header, dict):
                raise ValueError("header is not an object")
            if header.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(
                    f"schema {header.get('schema_version')!r} != "
                    f"{SCHEMA_VERSION}")
            if header.get("kind") != kind or header.get("key") != key:
                raise ValueError("entry kind/key mismatch")
            if not isinstance(header.get("meta"), dict):
                raise ValueError("meta is not an object")
        except ValueError:
            self.quarantine(kind, key)
            self._count(kind, "miss")
            return None
        self._count(kind, "hit")
        return header

    def open_meta(self, kind: str, key: str) -> dict | None:
        """The entry's ``meta`` mapping, or ``None`` on a miss."""
        header = self.header(kind, key)
        return None if header is None else header["meta"]

    def get(self, key: str) -> dict | None:
        """The result payload stored under ``key``, or ``None``."""
        return self.open_meta(RESULT, key)

    def load_array(self, kind: str, key: str, name: str):
        """One array of the entry as a read-only memmap, or ``None``
        (quarantining the entry).

        The view is explicitly frozen before escaping (RL004): stored
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
    def publish(self, kind: str, key: str, meta: dict,
                spec: dict | None = None):
        """Atomically publish one entry; yields its staging directory.

        The caller writes its ``.npy`` files into the yielded directory;
        on clean exit ``meta.json`` is written last and the directory is
        renamed into place.  The rename never replaces a published
        entry: when a concurrent publisher won, this tree is discarded,
        and a directory without a header in the way (a removal cut
        short) is quarantined first.  Either way exactly one complete
        entry remains and no staging litter survives.  A gone root
        raises ``OSError``: only ``store/`` and ``store/<kind>/`` are made.
        """
        final = self.entry_dir(kind, key)
        self.store_dir.mkdir(exist_ok=True)
        final.parent.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{key[:8]}-", suffix=".tmp",
                                    dir=final.parent))
        try:
            yield tmp
            header = {"schema_version": SCHEMA_VERSION, "kind": kind,
                      "key": key, "meta": meta, "spec": spec}
            (tmp / "meta.json").write_text(
                json.dumps(header, sort_keys=True, indent=1),
                encoding="utf-8")
            try:
                os.rename(tmp, final)
            except OSError:
                if self.has(kind, key):
                    return
                self.quarantine(kind, key)
                os.rename(tmp, final)
            self._count(kind, "store")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def put(self, key: str, payload: dict, spec: dict | None = None) -> Path:
        """Atomically store the result ``payload`` under ``key``; returns
        the entry's directory.  A published entry stands: equal keys
        hold equal results."""
        with self.publish(RESULT, key, payload, spec=spec):
            pass
        return self.entry_dir(RESULT, key)

    def quarantine(self, kind: str, key: str) -> None:
        """Move a damaged entry aside; never raises."""
        source = self.entry_dir(kind, key)
        try:
            if not source.is_dir():
                return
            self.quarantine_dir.mkdir(exist_ok=True)
            target = self.quarantine_dir / f"{kind}-{key}"
            suffix = 0
            while target.exists():
                suffix += 1
                target = self.quarantine_dir / f"{kind}-{key}.{suffix}"
            os.rename(source, target)
            self._count(kind, "quarantined")
        except OSError:
            shutil.rmtree(source, ignore_errors=True)

    # -- maintenance ------------------------------------------------------
    def entries(self) -> list[tuple[str, str]]:
        """Every published entry as ``(kind, key)``, in sorted order."""
        return [(kind, key) for kind in _subdirs(self.store_dir)
                for key in _subdirs(self.store_dir / kind)]

    def quarantined(self) -> list[Path]:
        """Every quarantined entry, in sorted order."""
        return sorted(self.quarantine_dir.iterdir()) \
            if self.quarantine_dir.is_dir() else []

    def manifests(self) -> list[Path]:
        """Every saved manifest, in sorted order."""
        return sorted(self.manifest_dir.glob("*.json")) \
            if self.manifest_dir.is_dir() else []

    def stats(self) -> CacheStats:
        """Entries per kind and their bytes; an entry removed since the
        listing (a concurrent prune) is left out, never an error."""
        by_kind: dict[str, int] = {}
        total = 0
        for kind, key in self.entries():
            try:
                size = sum(item.stat().st_size for item in sorted(
                    os.scandir(self.entry_dir(kind, key)),
                    key=lambda item: item.name))
            except OSError:
                continue
            by_kind[kind] = by_kind.get(kind, 0) + 1
            total += size
        return CacheStats(root=str(self.root),
                          entries=sum(by_kind.values()), total_bytes=total,
                          quarantined=len(self.quarantined()),
                          manifests=len(self.manifests()), by_kind=by_kind)

    def prune(self, max_entries: int) -> int:
        """Evict entries until at most ``max_entries`` remain.

        The daemon's bounded-growth knob: called after stores, it keeps
        a long-lived process's store from growing without limit.  One
        rule over one walk: the bound counts entries of every kind
        together, and the *earliest* in sorted ``(kind, key)`` order go
        first — not LRU, but deterministic: two daemons serving the same
        request stream keep the same entries.
        """
        entries = self.entries()
        excess = len(entries) - max(0, int(max_entries))
        return self._remove(entries[:max(0, excess)], "pruned")

    def clear(self) -> int:
        """Delete every entry and the quarantine (not manifests); returns
        the number of entries removed.

        Removal happens in sorted order, so a partial clear (interrupted,
        or racing another process) leaves the same suffix of entries
        behind on every machine.
        """
        removed = self._remove(self.entries())
        for path in self.quarantined():
            shutil.rmtree(path, ignore_errors=True)
        return removed

    def _remove(self, entries, event: str | None = None) -> int:
        """Delete ``entries`` in order; returns how many are gone.  An
        entry that vanished underneath us (a concurrent prune) counts
        for whoever sees it gone."""
        removed = 0
        for kind, key in entries:
            path = self.entry_dir(kind, key)
            shutil.rmtree(path, ignore_errors=True)
            if path.exists():
                continue
            removed += 1
            if event is not None:
                self._count(kind, event)
        return removed


@contextlib.contextmanager
def store_scope(store: ResultCache | None = None, metrics=METRICS):
    """The one store a run holds, for the duration.

    ``store`` itself when its directory can be created.  Otherwise —
    ``None`` (``--no-cache``) or a root that cannot be created (the
    cache dir is a regular file, permissions, a full disk) — a store in
    a fresh temporary directory, removed on exit whatever happens,
    counting into ``metrics``.  The store is a performance tier, never a
    correctness dependency, so which store a run gets never changes a
    result.
    """
    if store is not None:
        try:
            store.store_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass
        else:
            yield store
            return
    with tempfile.TemporaryDirectory(prefix=STAGES_DIR_PREFIX,
                                     ignore_cleanup_errors=True) as root:
        yield ResultCache(root, metrics=metrics)
