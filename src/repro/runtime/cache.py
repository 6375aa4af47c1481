"""The one content-addressed store: job results and stage artifacts.

Layout under the cache root (``--cache-dir``, ``$REPRO_CACHE_DIR``, or
``~/.cache/repro``)::

    <root>/store/<kind>/<key>/entry   one file per entry
    <root>/store/.quarantine/         damaged entries, moved aside
    <root>/manifests/                 run manifests (see manifest.py)

Every entry is addressed by ``(kind, key)``, where ``key`` is the
producing spec's content hash: an analysis result (kind ``result``: no
columns, the payload in its header next to the spec), a trace, an EIPV
dataset or a fold dataset (named array columns).  An entry is one file:

* a 16-byte prefix: the 8-byte magic :data:`MAGIC` and the header's
  length as a little-endian ``uint64``;
* the JSON header: ``schema_version``, ``kind``, ``key``, ``meta``,
  ``spec`` and ``columns``, a table mapping each column's name to its
  ``dtype``, ``shape`` and ``offset``;
* each column's raw bytes, 64-byte aligned.  A column's ``offset``
  counts from the first 64-byte boundary after the header.

The header is read from the prefix alone, and every column of an entry
is a read-only view of one ``np.memmap`` of its file.  One set of rules
serves every kind:

* **Publication is atomic.**  An entry file is written into a hidden
  staging directory, and one ``os.rename`` of that directory makes it
  visible, so a reader sees a complete entry or none.  A rename never
  replaces a published entry: a same-key publisher that lost the race
  discards its own tree.  It never creates the store's root, so a job
  that outlives its run's temporary store cannot bring it back.
  Nothing is fsynced: the store is a cache, and a torn entry reads as
  damage.
* **Reads are defensive.**  A garbage, torn or stale-schema header, a
  kind/key mismatch, a short file, or a column that lies outside the
  file or has an unparsable or object dtype quarantines the entry
  (moves it into ``.quarantine/`` for post-mortems) and reads as a
  miss, so damage costs a recompute, never a crash or a wrong result.
  A directory of an older layout has no ``entry`` file, so it reads as
  a miss, and publishing its key moves it aside.
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
import math
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.runtime.metrics import METRICS

#: Entry header schema version; bump on incompatible layout changes.
SCHEMA_VERSION = 3

#: Name of the one file in an entry's directory.
ENTRY_FILE = "entry"

#: First bytes of every entry file.
MAGIC = b"REPROENT"

#: The entry file's prefix: the magic and the header's length.
_PREFIX = struct.Struct("<8sQ")

#: Alignment of every column's first byte in an entry file.
ALIGN = 64

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


def _aligned(offset: int) -> int:
    """``offset`` rounded up to the next multiple of :data:`ALIGN`."""
    return -(-offset // ALIGN) * ALIGN


def _write_entry(path: Path, header: dict, arrays: dict) -> None:
    """Write one entry file: the prefix, ``header`` with the column
    table of ``arrays`` added, then each array from its own buffer."""
    columns, end = {}, 0
    for name, array in arrays.items():
        columns[name] = {"dtype": array.dtype.str,
                         "shape": list(array.shape),
                         "offset": _aligned(end)}
        end = columns[name]["offset"] + array.nbytes
    text = json.dumps({**header, "columns": columns}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    position = _PREFIX.size + len(text)
    start = _aligned(position)
    with open(path, "wb") as handle:
        handle.write(_PREFIX.pack(MAGIC, len(text)))
        handle.write(text)
        for name, array in arrays.items():
            target = start + columns[name]["offset"]
            handle.write(bytes(target - position))
            handle.write(array.data)
            position = target + array.nbytes


def _read_header(handle, kind: str, key: str) -> tuple[dict, int, int]:
    """The validated header of an open entry file, the file offset its
    columns count from, and the file's size.

    The one validator: a short file, a wrong magic, a header that is
    not a JSON object (garbage, torn), carries another schema version,
    names another kind or key, or holds no ``meta`` or ``columns``
    mapping raises ``ValueError``.
    """
    size = os.fstat(handle.fileno()).st_size
    prefix = handle.read(_PREFIX.size)
    if len(prefix) < _PREFIX.size:
        raise ValueError("file is shorter than its prefix")
    magic, length = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise ValueError("not an entry file")
    if _PREFIX.size + length > size:
        raise ValueError("file is shorter than its header")
    header = json.loads(handle.read(length))
    if not isinstance(header, dict):
        raise ValueError("header is not an object")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"schema {header.get('schema_version')!r} != {SCHEMA_VERSION}")
    if header.get("kind") != kind or header.get("key") != key:
        raise ValueError("entry kind/key mismatch")
    if not isinstance(header.get("meta"), dict):
        raise ValueError("meta is not an object")
    if not isinstance(header.get("columns"), dict):
        raise ValueError("columns is not an object")
    return header, _aligned(_PREFIX.size + length), size


def _map_columns(handle, columns: dict, start: int, size: int) -> dict:
    """Every column of an open entry file as a frozen view of one
    read-only ``np.memmap``; a column whose dtype is unparsable or holds
    objects, or that lies outside the file, raises ``ValueError``."""
    if not columns:
        return {}
    mapped = np.memmap(handle, dtype=np.uint8, mode="r")
    views = {}
    for name, column in columns.items():
        try:
            dtype = np.dtype(column["dtype"])
            shape = tuple(column["shape"])
            offset = start + column["offset"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"column {name!r} is malformed") from exc
        if not isinstance(column["dtype"], str) or dtype.hasobject:
            raise ValueError(f"column {name!r} has dtype {dtype}")
        if not all(type(n) is int and n >= 0
                   for n in (*shape, column["offset"])) \
                or offset + dtype.itemsize * math.prod(shape) > size:
            raise ValueError(f"column {name!r} lies outside the file")
        view = np.ndarray(shape, dtype=dtype, buffer=mapped, offset=offset)
        # The pages are shared by every process that maps the entry: a
        # view must say it is read-only before it escapes (RL004).
        view.flags.writeable = False
        views[name] = view
    return views


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
    :meth:`open_meta` and :meth:`load_arrays`.  Both are entries of one
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

    def entry_path(self, kind: str, key: str) -> Path:
        """The entry's one file."""
        return self.store_dir / kind / key / ENTRY_FILE

    def _count(self, kind: str, event: str) -> None:
        """Result events count as ``cache.*``, array entries' as
        ``artifact.*`` (the two sections of ``/v1/stats``)."""
        prefix = "cache" if kind == RESULT else "artifact"
        self.metrics.inc(f"{prefix}.{event}")

    # -- read -------------------------------------------------------------
    def has(self, kind: str, key: str) -> bool:
        """Cheap existence probe — no read, no validation, no metrics
        (the entry file certifies the rename)."""
        return self.entry_path(kind, key).is_file()

    def _read(self, kind: str, key: str, mapped: bool):
        """``(header, views)`` of the entry, its columns mapped when
        ``mapped``, or ``None`` on a miss (quarantining a damaged
        entry)."""
        try:
            handle = open(self.entry_path(kind, key), "rb")
        except OSError:
            self._count(kind, "miss")
            return None
        try:
            with handle:
                header, start, size = _read_header(handle, kind, key)
                views = (_map_columns(handle, header["columns"], start, size)
                         if mapped else {})
        except (OSError, ValueError):
            self.quarantine(kind, key)
            self._count(kind, "miss")
            return None
        self._count(kind, "hit")
        return header, views

    def header(self, kind: str, key: str) -> dict | None:
        """The entry's validated header, or ``None`` on a miss.

        A damaged header quarantines the entry and reads as a miss; the
        columns are not touched.
        """
        read = self._read(kind, key, mapped=False)
        return None if read is None else read[0]

    def open_meta(self, kind: str, key: str) -> dict | None:
        """The entry's ``meta`` mapping, or ``None`` on a miss."""
        header = self.header(kind, key)
        return None if header is None else header["meta"]

    def get(self, key: str) -> dict | None:
        """The result payload stored under ``key``, or ``None``."""
        return self.open_meta(RESULT, key)

    def load_arrays(self, kind: str, key: str):
        """``(meta, {name: view})`` of the entry, or ``None`` on a miss.

        Every view is bounds-checked against the file and frozen before
        it escapes (RL004): stored bytes are shared state — a mutated
        view would poison every later zero-copy consumer of the same
        mapping.  A damaged header or column quarantines the entry.
        """
        read = self._read(kind, key, mapped=True)
        return None if read is None else (read[0]["meta"], read[1])

    # -- write ------------------------------------------------------------
    def publish(self, kind: str, key: str, meta: dict,
                spec: dict | None = None, arrays=()) -> None:
        """Atomically publish one entry: ``meta``, ``spec`` and the
        columns ``arrays`` maps by name.

        Each array is written straight from its buffer into the entry
        file inside a staging directory, which is then renamed into
        place.  The rename never replaces a published entry: when a
        concurrent publisher won, this tree is discarded, and a
        directory without an entry file in the way (an older layout, a
        removal cut short) is quarantined first.  Either way exactly one
        complete entry remains and no staging litter survives.  An
        object array raises ``ValueError``; a gone root raises
        ``OSError``: only ``store/`` and ``store/<kind>/`` are made.
        """
        arrays = {name: np.ascontiguousarray(array)
                  for name, array in dict(arrays).items()}
        for name, array in arrays.items():
            if array.dtype.hasobject:
                raise ValueError(f"column {name!r} holds objects")
        final = self.entry_dir(kind, key)
        self.store_dir.mkdir(exist_ok=True)
        final.parent.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{key[:8]}-", suffix=".tmp",
                                    dir=final.parent))
        try:
            _write_entry(tmp / ENTRY_FILE,
                         {"schema_version": SCHEMA_VERSION, "kind": kind,
                          "key": key, "meta": meta, "spec": spec}, arrays)
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
        self.publish(RESULT, key, payload, spec=spec)
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
        """Entries per kind and their bytes, one ``stat`` per entry.

        Every directory :meth:`entries` lists counts, as it does for
        :meth:`prune`: one without an entry file (an older layout) with
        0 bytes.  An entry removed since the listing (a concurrent
        prune) is left out, never an error.
        """
        by_kind: dict[str, int] = {}
        total = 0
        for kind, key in self.entries():
            try:
                size = os.stat(self.entry_path(kind, key)).st_size
            except OSError:
                if not self.entry_dir(kind, key).is_dir():
                    continue
                size = 0
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
