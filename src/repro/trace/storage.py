"""Columnar on-disk trace storage.

Collected traces are expensive relative to the analyses run on them, so
they persist as a :class:`TraceStore`: a columnar on-disk layout (one
``.npy`` file per trace column plus a ``header.json``) written
incrementally by
:meth:`~repro.trace.sampler.SamplingDriver.collect_to_store` and read
back as ``np.memmap`` views, so a multi-billion-instruction trace is
consumed chunk-by-chunk without ever being resident.  The column files
are plain ``.npy`` (readable by ``np.load``); the store reserves a
fixed-size header in each so the final sample count can be patched in
when the stream ends.  A trace artifact of the stage pipeline
(:mod:`repro.runtime.stages`) is one such directory.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from repro.trace.events import TRACE_COLUMNS, SampleTrace

#: On-disk dtypes of the trace columns (little-endian, matching what the
#: sampling driver produces in memory).
_COLUMN_DTYPES = {
    "eips": "<i8",
    "thread_ids": "<i4",
    "process_ids": "<i2",
    "instructions": "<i8",
    "cycles": "<f8",
    "work_cycles": "<f8",
    "fe_cycles": "<f8",
    "exe_cycles": "<f8",
    "other_cycles": "<f8",
}

#: Version of the :class:`TraceStore` directory layout.
STORE_FORMAT = 1

_STORE_HEADER = "header.json"

#: Every column file starts with exactly this many preamble bytes (magic
#: + npy v1 header padded with spaces), so the shape can be rewritten in
#: place once the final length is known.
_NPY_PREAMBLE = 128


def _npy_preamble(dtype: str, n: int) -> bytes:
    """A fixed-width npy v1 preamble for a 1-D array of ``n`` items.

    Standard ``np.save`` output, except the header dict is space-padded
    to a constant :data:`_NPY_PREAMBLE` bytes so the shape written at
    create time (0 items) can be overwritten in place at finalize.
    """
    body = ("{'descr': '%s', 'fortran_order': False, 'shape': (%d,), }"
            % (dtype, n)).encode("latin1")
    header_len = _NPY_PREAMBLE - 10  # magic (6) + version (2) + length (2)
    if len(body) >= header_len:
        raise ValueError("npy header does not fit the reserved preamble")
    body += b" " * (header_len - len(body) - 1) + b"\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", header_len) + body


class ColumnStore:
    """Columnar, memmap-backed on-disk table (one ``.npy`` per column).

    The generic machinery under :class:`TraceStore`, reusable for any
    fixed column schema (the sweep engine's merged result table is the
    other instance).  Subclasses define ``KIND`` (the header tag that
    keeps store types from being confused for one another), ``COLUMNS``
    and ``DTYPES``.

    Two lifecycles share the class:

    * **writing** — :meth:`create` opens the column files with a
      zero-length reserved header, :meth:`append` streams row chunks to
      the ends, a finalize step patches the true lengths in and writes
      ``header.json``.  Until finalize the directory is not a valid
      store (:meth:`open` refuses it), so a crashed write can never be
      mistaken for a complete one.
    * **reading** — :meth:`open` parses ``header.json``;
      :meth:`column` hands out read-only ``np.memmap`` views, so
      consumers touch only the pages they slice.
    """

    KIND = "column-store"
    FORMAT = 1
    COLUMNS: tuple = ()
    DTYPES: dict = {}

    def __init__(self, root: Path, header: dict | None,
                 n_samples: int) -> None:
        self.root = Path(root)
        self._header = header
        self._n = n_samples
        self._files: dict = {}

    # -- writing ---------------------------------------------------------

    @classmethod
    def create(cls, path) -> "ColumnStore":
        """Start a new (empty, unfinalized) store at ``path``."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        store = cls(root, None, 0)
        for name in cls.COLUMNS:
            handle = open(root / f"{name}.npy", "wb")
            handle.write(_npy_preamble(cls.DTYPES[name], 0))
            store._files[name] = handle
        return store

    def append(self, chunk: dict) -> None:
        """Append one chunk of rows (a dict of equal-length columns)."""
        if not self._files:
            raise RuntimeError("store is not open for writing")
        n = len(chunk[self.COLUMNS[0]])
        for name in self.COLUMNS:
            arr = np.ascontiguousarray(chunk[name],
                                       dtype=self.DTYPES[name])
            if len(arr) != n:
                raise ValueError(
                    f"column {name!r} has {len(arr)} samples, expected {n}")
            self._files[name].write(arr.data)
        self._n += n

    def _finalize(self, meta: dict) -> "ColumnStore":
        """Patch final lengths into the column files; write the header."""
        for name, handle in self._files.items():
            handle.seek(0)
            handle.write(_npy_preamble(self.DTYPES[name], self._n))
            handle.close()
        self._files.clear()
        self._header = {
            "kind": self.KIND,
            "format": self.FORMAT,
            "n_samples": self._n,
            "columns": dict(self.DTYPES),
            **meta,
        }
        (self.root / _STORE_HEADER).write_text(
            json.dumps(self._header, indent=2, sort_keys=True))
        return self

    def close(self) -> None:
        """Abandon an unfinalized write (close file handles, keep files)."""
        while self._files:
            _, handle = self._files.popitem()
            handle.close()

    # -- reading ---------------------------------------------------------

    @classmethod
    def open(cls, path) -> "ColumnStore":
        """Open a finalized store for reading."""
        root = Path(path)
        header_path = root / _STORE_HEADER
        label = cls.KIND.replace("-", " ")
        if not header_path.is_file():
            raise FileNotFoundError(
                f"{root} is not a {label} (no {_STORE_HEADER})")
        header = json.loads(header_path.read_text())
        if header.get("kind") != cls.KIND:
            raise ValueError(f"{header_path} is not a {cls.KIND} header")
        version = int(header.get("format", 0))
        if version > cls.FORMAT:
            raise ValueError(
                f"{label} {root} uses format {version}; this build "
                f"reads up to format {cls.FORMAT}")
        return cls(root, header, int(header["n_samples"]))

    @classmethod
    def is_store(cls, path) -> bool:
        """True when ``path`` holds a finalized store of this kind."""
        header_path = Path(path) / _STORE_HEADER
        if not header_path.is_file():
            return False
        try:
            header = json.loads(header_path.read_text())
        except (OSError, ValueError):
            return False
        return header.get("kind") == cls.KIND

    def __len__(self) -> int:
        return self._n

    @property
    def n_samples(self) -> int:
        return self._n

    def _meta(self, key: str):
        if self._header is None:
            raise RuntimeError("store is being written; finalize it first")
        return self._header[key]

    def column(self, name: str) -> np.ndarray:
        """A read-only memmap of one column (pages load on demand)."""
        if name not in self.COLUMNS:
            raise KeyError(f"unknown {self.KIND} column {name!r}")
        view = np.load(self.root / f"{name}.npy", mmap_mode="r")
        # mmap_mode="r" already maps the pages read-only, but the
        # escaping ndarray must say so too (RL004): a writable-looking
        # view over shared bytes invites in-place edits that would
        # either crash (SIGSEGV on a read-only map) or corrupt every
        # other reader of the artifact.
        view.flags.writeable = False
        return view


class TraceStore(ColumnStore):
    """The trace instance of :class:`ColumnStore`.

    The columns, dtypes and metadata mirror
    :class:`~repro.trace.events.SampleTrace` exactly, and both read a
    column as ``column(name)``, so
    :meth:`~repro.trace.eipv.EIPVDataset.from_store` builds EIPVs from
    either.  :meth:`as_trace` materializes one (small stores only) and
    :meth:`from_trace` spills one to disk, an exact round trip of every
    column, dtype and metadata field.
    """

    KIND = "trace-store"
    FORMAT = STORE_FORMAT
    COLUMNS = TRACE_COLUMNS
    DTYPES = _COLUMN_DTYPES

    @classmethod
    def create(cls, path, identity: dict | None = None) -> "TraceStore":
        """Start a new store at ``path``; ``identity``, the canonical
        spec of the collection about to be written, goes into the header
        at finalize (no header field when ``None``)."""
        store = super().create(path)
        store._identity = identity
        return store

    def finalize(self, *, processes, sample_period: int,
                 frequency_mhz: int, workload_name: str,
                 metadata: dict) -> "TraceStore":
        """Patch final lengths into the column files; write the header."""
        meta = {
            "processes": list(processes),
            "sample_period": sample_period,
            "frequency_mhz": frequency_mhz,
            "workload_name": workload_name,
            "metadata": metadata,
        }
        if self._identity is not None:
            meta["identity"] = self._identity
        return self._finalize(meta)

    @property
    def identity(self) -> dict | None:
        """The collection's canonical spec, when its writer recorded one."""
        return self._header.get("identity") if self._header else None

    @property
    def processes(self) -> tuple:
        return tuple(self._meta("processes"))

    @property
    def sample_period(self) -> int:
        return int(self._meta("sample_period"))

    @property
    def frequency_mhz(self) -> int:
        return int(self._meta("frequency_mhz"))

    @property
    def workload_name(self) -> str:
        return str(self._meta("workload_name"))

    @property
    def metadata(self) -> dict:
        return dict(self._meta("metadata"))

    # -- conversions -----------------------------------------------------

    def as_trace(self) -> SampleTrace:
        """Materialize the whole store as an in-memory trace."""
        columns = {name: np.array(self.column(name))
                   for name in TRACE_COLUMNS}
        return SampleTrace(
            processes=self.processes,
            sample_period=self.sample_period,
            frequency_mhz=self.frequency_mhz,
            workload_name=self.workload_name,
            metadata=self.metadata,
            **columns,
        )

    @classmethod
    def from_trace(cls, trace: SampleTrace, path) -> "TraceStore":
        """Spill an in-memory trace to a store at ``path``."""
        store = cls.create(path)
        try:
            store.append({name: getattr(trace, name)
                          for name in TRACE_COLUMNS})
        except BaseException:
            store.close()
            raise
        return store.finalize(
            processes=trace.processes,
            sample_period=trace.sample_period,
            frequency_mhz=trace.frequency_mhz,
            workload_name=trace.workload_name,
            metadata=trace.metadata,
        )
