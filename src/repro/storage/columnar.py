"""Columnar, memory-mapped snapshot store — the one on-disk format.

An index persists as the flat structured arrays of
:func:`~repro.storage.serialize.index_to_arrays` — trajectories plus an
offsets table, node attributes, sketch rows, background tables — each
a raw column that ``numpy`` memory-maps read-only in place, so

- *cold open* is O(1): ``open_database()`` reads one small log of JSON
  records and stats the segment files; trajectory bytes stay on disk
  until a query faults them in;
- multiple shard *processes* map the same file and share page cache,
  with zero-copy views instead of per-process copies;
- *commits are log-structured*: each ``append()`` writes one delta
  segment file and appends one O(1)-byte record to the manifest log,
  and a background merge folds segments back into a fresh base only
  once the dead-row fraction crosses a threshold (amortized, LSM-style).

Layout — one directory per store, conventionally ``<name>.strg/``::

    corpus.strg/
      manifest.jsonl     <- the commit log: one checksummed JSON record
                            per line — the base, then one per append
      seg-000000.seg     <- base segment: a full tree snapshot
      seg-000001.seg     <- delta segment: ordered op log + payload rows

    seg-NNNNNN.seg = b"STRGSEG2" | u64 header length | header JSON |
                     column | column | ...     (each column 64-aligned)
      header: {"kind", "rows", "meta", "columns": [{"name", "dtype",
               "shape", "offset", "sha256"}, ...]}
      meta:   base  -> index config, clip refs, sketch meta
              delta -> {"ops": [["i", bg] | ["d", row], ...], "refs"}

    sharded.strg/
      manifest.jsonl     <- one base record: shard names, serving config
      seg-000000.seg     <- the placement pivots
      shard-0/  shard-1/ <- one monolithic store each

Log records.  The first record is the base (format, version, kind and
its segment); every append adds ``{"seg", "rows", "bytes", "hsum",
"dead"}`` — the delta's segment, its size, the SHA-256 prefix of its
header and the rows its ``["d", row]`` ops kill, so the dead-row set is
derived from the log.  Each record carries ``sum``, a SHA-256 prefix
chained over the previous record's, and the last ``sum`` is the store's
committed :meth:`ColumnarStore.version`.  Framing is the ingest
journal's (:mod:`repro.resilience.journal`): one JSON object per line,
flushed and fsynced per record.

Commit protocol.  An append writes its segment file and fsyncs it,
fsyncs the store directory (the new file's entry), then appends and
fsyncs the log record — 3 fsyncs, one new file, O(1) log bytes.  A full
write or a merge writes the base segment (file, then directory fsync),
writes the one-record log to a temp file (fsync), renames it over the
log and fsyncs the directory again; unreferenced segments are then
garbage-collected.  A crash before the log record leaves an orphan
segment the next write overwrites; a final log line without its newline
is a torn tail — readers ignore it and the next writer truncates it.
Any other bad record, and a segment whose size differs from its record
(O(#segments) stats at open), raises ``IndexCorruptionError``; every
column's SHA-256 is checked by :meth:`ColumnarStore.verify`.  The
writer keeps the committed state in memory and only ``os.stat``s the
log before appending.  A 9.x store (format version 1: ``manifest.json``
plus a directory of ``.npy`` files per segment) is refused everywhere
except :func:`repro.storage.store.convert`.

Replay model.  The base segment is a full tree snapshot
(:func:`~repro.storage.serialize.index_to_arrays`); each delta is the
ordered write batch of one ``LiveIndex.compact()`` — inserts carrying
their payload rows and background ordinal, deletes naming the global
row ordinal they kill.  Loading materializes the base and replays the
deltas through the same deterministic ``insert()``/``delete()`` code
path a live index evolved through, so a reopened store answers
knn/range queries bit-identically to the process that wrote it.

Row ordinals.  Every insert — base rows in leaf-iteration order, then
delta inserts in op order — gets the next global ordinal.  og_ids are
*not* stable across processes (fresh ids are minted on load), so the
on-disk log never mentions them; the store keeps an in-process
``og_id -> ordinal`` map, rebuilt on every ``write_index``/``load_index``.
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import hashlib
import json
import logging
import os
import shutil
import struct
import tempfile
import threading
from types import SimpleNamespace
from typing import Any, Sequence

import numpy as np

from repro.errors import (
    IndexCorruptionError,
    IndexStateError,
    InvalidParameterError,
    StorageError,
)
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS
from repro.resilience.faults import maybe_fail, maybe_truncate
from repro.resilience.journal import IngestJournal, parse_record, split_records
from repro.storage.serialize import (
    SKETCH_COLUMNS,
    SKETCH_PAYLOAD_ERRORS,
    _pack_backgrounds,
    _pack_ragged,
    _unpack_backgrounds,
    _unpack_ragged,
    index_from_arrays,
    index_to_arrays,
    leaf_ogs,
    read_sketch,
)

logger = logging.getLogger(__name__)

COLUMNAR_FORMAT = "strg-columnar"
COLUMNAR_VERSION = 2
LOG_NAME = "manifest.jsonl"
SEGMENT_SUFFIX = ".seg"
STORE_SUFFIX = ".strg"
#: The commit point of a 9.x (format version 1) store; only
#: :func:`repro.storage.store.convert` reads what it names.
V1_MANIFEST = "manifest.json"

_KIND_INDEX = "index"
_KIND_SHARDED = "sharded"
_MAGIC = b"STRGSEG2"
_PREFIX = len(_MAGIC) + 8          # magic + u64 header length
_ALIGN = 64                        # column offsets, as .npy aligns data
_SUM_HEX = 16                      # hex digits of a record / header sum
_BASE_KEYS = ("format", "format_version", "kind", "seg", "rows", "bytes",
              "hsum")
_SHARDED_KEYS = ("num_shards", "shards", "serving_config", "has_pivots")
_DELTA_KEYS = ("seg", "rows", "bytes", "hsum", "dead")


def columnar_path(path: str | os.PathLike) -> str:
    """Normalize a store path: a suffix-less path means ``<path>.strg``.

    Appends ``.strg`` unless the path already carries the suffix or
    already names a store directory (has a manifest log, or a 9.x
    manifest), so suffix-less ``save(path)`` / ``load(path)`` round-trips
    keep working.
    """
    p = os.fspath(path)
    if p.endswith(STORE_SUFFIX):
        return p
    if any(os.path.isfile(os.path.join(p, name))
           for name in (LOG_NAME, V1_MANIFEST)):
        return p
    return p + STORE_SUFFIX


def is_columnar_store(path: str | os.PathLike) -> bool:
    """True when ``path`` (after normalization) holds a store log."""
    return os.path.isfile(os.path.join(columnar_path(path), LOG_NAME))


def is_v1_store(path: str | os.PathLike) -> bool:
    """True when ``path`` holds a 9.x store that ``convert`` must
    transcode (a v1 manifest and no log)."""
    p = columnar_path(path)
    return (os.path.isfile(os.path.join(p, V1_MANIFEST))
            and not os.path.isfile(os.path.join(p, LOG_NAME)))


def v1_refusal(path: str | os.PathLike) -> StorageError:
    """The error every entry point but ``convert`` raises on a 9.x store."""
    return StorageError(
        f"{os.fspath(path)} is a 9.x store (columnar format version 1), "
        f"which this version only converts: run `strg-index convert "
        f"{os.fspath(path)}`")


def _short_sum(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:_SUM_HEX]


def _record_sum(previous: str, record: dict[str, Any]) -> str:
    """The chained checksum of one log record (its ``sum`` excluded)."""
    body = json.dumps({k: v for k, v in record.items() if k != "sum"},
                      sort_keys=True, separators=(",", ":"), default=str)
    return _short_sum(previous + body)


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _raw(array: np.ndarray) -> np.ndarray:
    """The C-order bytes of ``array`` as a flat ``uint8`` view."""
    return np.ascontiguousarray(array).reshape(-1).view(np.uint8)


def _fsync_dir(path: str) -> None:
    """Make the directory entries created or renamed in ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _column_bytes(spec: dict[str, Any]) -> int:
    return int(np.prod(spec["shape"], dtype=np.int64)) \
        * np.dtype(spec["dtype"]).itemsize


class _Committed:
    """The committed state of one store, folded from its manifest log.

    The writer publishes a new one per commit (:meth:`appended`), so
    readers on other threads never see a half-applied append.
    """

    def __init__(self, records: list[dict[str, Any]], size: int,
                 file_size: int, ino: int):
        base = records[0]
        self.base = base
        self.kind = base["kind"]
        self.size = size              # bytes of complete records
        self.file_size = file_size    # ... plus a torn tail, if any
        self.ino = ino
        self.version = records[-1]["sum"]
        self.shards: list[str] = list(base.get("shards", ()))
        if self.kind == _KIND_SHARDED and len(records) > 1:
            raise ValueError("a sharded root log holds one record")
        self.segments = [dict(_entry(base), kind="base")]
        self.rows_total = int(base["rows"])
        dead: set[int] = set()
        for record in records[1:]:
            self.segments.append(dict(_entry(record), kind="delta"))
            self.rows_total += int(record["rows"])
            for row in map(int, record["dead"]):
                if not 0 <= row < self.rows_total or row in dead:
                    raise ValueError(f"record kills bad row {row}")
                dead.add(row)
        self.dead = frozenset(dead)

    def appended(self, record: dict[str, Any], written: int
                 ) -> "_Committed":
        """The state after ``record`` (``written`` bytes) is appended."""
        clone = copy.copy(self)
        clone.size = clone.file_size = self.size + written
        clone.version = record["sum"]
        clone.segments = self.segments + [dict(_entry(record),
                                               kind="delta")]
        clone.rows_total = self.rows_total + int(record["rows"])
        clone.dead = self.dead | frozenset(record["dead"])
        return clone

    def next_ordinal(self) -> int:
        return int(self.segments[-1]["seg"][len("seg-"):]) + 1

    def live_rows(self) -> int:
        return self.rows_total - len(self.dead)


def _entry(record: dict[str, Any]) -> dict[str, Any]:
    return {key: record[key] for key in ("seg", "rows", "bytes", "hsum")}


class ColumnarStore:
    """One columnar store directory (monolithic index or sharded).

    Thread-safe for writers: ``write_index``/``append``/``merge``
    serialize on an internal lock.  Readers (``load_index``) are
    lock-free — they only ever see committed log records.
    """

    #: Fold segments into a fresh base once this fraction of rows is dead.
    merge_dead_fraction = 0.25
    #: ... or once this many segments accumulate (keeps replay bounded).
    merge_max_segments = 64

    def __init__(self, path: str | os.PathLike, *, normalize: bool = True):
        self.path = columnar_path(path) if normalize else os.fspath(path)
        self._mutate_lock = threading.RLock()
        self._merge_thread: threading.Thread | None = None
        self._state: _Committed | None = None
        #: The append handle, and the inode of the log it was opened on.
        self._log: IngestJournal | None = None
        self._log_ino = -1
        self._reset_rows()

    def _reset_rows(self) -> None:
        self._row_of: dict[int, int] = {}   # live og_id -> global ordinal
        #: Version of the committed state the row map describes; ``None``
        #: when the row map does not reflect the disk.
        self._bound_version: str | None = None

    @property
    def _bound(self) -> bool:
        return self._bound_version is not None

    # -- manifest log ------------------------------------------------------

    @property
    def _log_path(self) -> str:
        return os.path.join(self.path, LOG_NAME)

    def _segment_path(self, name: str) -> str:
        return os.path.join(self.path, name + SEGMENT_SUFFIX)

    def exists(self) -> bool:
        """Whether a committed manifest log is present."""
        return os.path.isfile(self._log_path)

    def _committed(self) -> _Committed:
        """The committed state: the cached one while the log's size and
        inode are unchanged (one ``os.stat``), else a fresh parse."""
        state = self._state
        if state is not None:
            try:
                st = os.stat(self._log_path)
            except OSError:
                st = None
            if st is not None and st.st_size == state.file_size \
                    and st.st_ino == state.ino:
                return state
        state = self._read_log()
        self._state = state
        return state

    def _read_log(self) -> _Committed:
        path = self._log_path
        maybe_fail("storage.read", path=path)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
                ino = os.fstat(fh.fileno()).st_ino
        except FileNotFoundError as exc:
            if os.path.isfile(os.path.join(self.path, V1_MANIFEST)):
                raise v1_refusal(self.path) from exc
            if os.path.isdir(self.path):
                # The store directory exists but never reached its commit
                # point: an interrupted first write (or a stray empty
                # directory).  Data loss, not a missing store.
                raise IndexCorruptionError(
                    f"store directory {self.path} has no committed "
                    "manifest log (empty or partially written)",
                    details={"path": self.path, "missing": LOG_NAME,
                             "contents": sorted(os.listdir(self.path))[:16]},
                ) from exc
            raise StorageError(f"cannot read {path}: {exc}") from exc
        except OSError as exc:
            raise IndexCorruptionError(
                f"cannot read store log {path}: {exc}",
                details={"path": path, "cause": type(exc).__name__},
            ) from exc
        lines, size = split_records(blob)
        records: list[dict[str, Any]] = []
        previous = ""
        for number, line in enumerate(lines, 1):
            try:
                record = parse_record(line)
            except ValueError as exc:
                raise IndexCorruptionError(
                    f"corrupt record {number} of store log {path}: {exc}",
                    details={"path": path, "record": number,
                             "cause": type(exc).__name__},
                ) from exc
            if record.get("sum") != _record_sum(previous, record):
                raise IndexCorruptionError(
                    f"checksum mismatch in record {number} of store log "
                    f"{path}",
                    details={"path": path, "record": number},
                )
            self._check_record(record, number)
            previous = record["sum"]
            records.append(record)
        if not records:
            raise IndexCorruptionError(
                f"store log {path} holds no committed record",
                details={"path": path, "bytes": len(blob)},
            )
        try:
            return _Committed(records, size, len(blob), ino)
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexCorruptionError(
                f"malformed store log {path}: {exc}",
                details={"path": path, "cause": type(exc).__name__},
            ) from exc

    def _check_record(self, record: dict[str, Any], number: int) -> None:
        path = self._log_path
        if number == 1:
            if record.get("format") != COLUMNAR_FORMAT:
                raise IndexCorruptionError(
                    f"{path} is not a columnar store log "
                    f"(format={record.get('format')!r})",
                    details={"path": path, "format": record.get("format")},
                )
            version = record.get("format_version")
            if version != COLUMNAR_VERSION:
                raise IndexCorruptionError(
                    f"unsupported columnar format version {version} in "
                    f"{path} (supported: {COLUMNAR_VERSION})",
                    details={"path": path, "version": version,
                             "supported": COLUMNAR_VERSION},
                )
            required = _BASE_KEYS + (
                _SHARDED_KEYS if record.get("kind") == _KIND_SHARDED else ())
        else:
            required = _DELTA_KEYS
        missing = [key for key in required if key not in record]
        if missing:
            raise IndexCorruptionError(
                f"incomplete record {number} of store log {path}: "
                f"missing keys {missing} (partially written?)",
                details={"path": path, "record": number,
                         "kind": record.get("kind"), "missing": missing},
            )

    def manifest(self) -> dict[str, Any]:
        """The committed state as a plain dict (a fresh copy per call).

        ``kind`` is ``"index"`` (``segments``, ``rows_total``,
        ``rows_dead``) or ``"sharded"`` (``num_shards``, ``shards``,
        ``serving_config``, ``has_pivots``); ``version`` is
        :meth:`version`'s value for this log alone.
        """
        state = self._committed()
        info = {"format": COLUMNAR_FORMAT,
                "format_version": COLUMNAR_VERSION,
                "kind": state.kind, "version": state.version,
                "segments": [dict(entry) for entry in state.segments]}
        if state.kind == _KIND_SHARDED:
            info.update((key, state.base[key]) for key in _SHARDED_KEYS)
            info["serving_config"] = dict(info["serving_config"])
            info["shards"] = list(info["shards"])
        else:
            info.update(rows_total=state.rows_total,
                        rows_dead=len(state.dead))
        return info

    def version(self) -> str:
        """The committed version: a digest that changes with every commit
        (the chained sum of the last log record; a sharded root folds in
        every shard's)."""
        state = self._committed()
        if state.kind != _KIND_SHARDED:
            return state.version
        return _short_sum(state.version + "".join(
            self._shard(name).version() for name in state.shards))

    def _shard(self, name: str) -> "ColumnarStore":
        return ColumnarStore(os.path.join(self.path, name), normalize=False)

    def _check_sizes(self, state: _Committed) -> None:
        """O(#segments) truncation check: stat sizes against the log."""
        for entry in state.segments:
            target = self._segment_path(entry["seg"])
            try:
                actual = os.path.getsize(target)
            except OSError as exc:
                raise IndexCorruptionError(
                    f"store file missing: {target}: {exc}",
                    details={"path": target, "cause": type(exc).__name__},
                ) from exc
            if actual != entry["bytes"]:
                raise IndexCorruptionError(
                    f"truncated store file {target}: "
                    f"{actual} bytes on disk, log says {entry['bytes']}",
                    details={"path": target, "actual": actual,
                             "expected": entry["bytes"]},
                )

    def _open_checked(self) -> _Committed:
        state = self._committed()
        self._check_sizes(state)
        return state

    def _replace_log(self, records: list[dict[str, Any]],
                     fault_point: str) -> _Committed:
        """Atomically replace the log (temp + fsync, rename, directory
        fsync) — the commit point of a full write."""
        previous = ""
        for record in records:
            record["sum"] = previous = _record_sum(previous, record)
        fd, tmp = tempfile.mkstemp(dir=self.path, prefix=LOG_NAME + ".",
                                   suffix=".tmp")
        os.close(fd)
        writer = IngestJournal(tmp)
        try:
            size = sum(writer.append(record) for record in records)
            writer.close()
            maybe_fail(fault_point, path=self._log_path)
            os.replace(tmp, self._log_path)
        except BaseException:
            writer.close()
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        _fsync_dir(self.path)
        if self._log is not None:       # release the replaced file
            self._log.close()
            self._log, self._log_ino = None, -1
        state = _Committed(records, size, size,
                           os.stat(self._log_path).st_ino)
        self._state = state
        return state

    def _append_record(self, state: _Committed, record: dict[str, Any]
                       ) -> _Committed:
        """Durably append one record to the log — the commit point of an
        append."""
        record["sum"] = _record_sum(state.version, record)
        maybe_fail("storage.append", path=self._log_path)
        if self._log_ino != state.ino:
            # The log was replaced (a full write, here or elsewhere)
            # since the handle was opened: append to the file there now.
            if self._log is not None:
                self._log.close()
            self._log = IngestJournal(self._log_path)
            self._log_ino = state.ino
        start = state.size
        state = state.appended(record, self._log.append(record))
        self._state = state
        maybe_truncate("storage.log", self._log_path, start=start)
        maybe_fail("storage.log", path=self._log_path)
        return state

    # -- segment I/O ------------------------------------------------------

    def _write_segment(self, ordinal: int, kind: str, rows: int,
                       meta: dict[str, Any],
                       arrays: dict[str, np.ndarray]) -> dict[str, Any]:
        """Write one segment file, fsync it and the directory entry;
        return its log fields (``seg``, ``rows``, ``bytes``, ``hsum``).

        A file of the same name is an orphan from a crashed write — by
        definition unreferenced — and is overwritten.
        """
        columns, raws, offset = [], [], 0
        for name, array in arrays.items():
            raw = _raw(array)
            offset = _aligned(offset)
            columns.append({
                "name": name, "dtype": array.dtype.str,
                "shape": list(np.shape(array)), "offset": offset,
                "sha256": hashlib.sha256(raw).hexdigest()})
            raws.append((offset, raw))
            offset += raw.nbytes
        header = json.dumps({"kind": kind, "rows": rows, "meta": meta,
                             "columns": columns},
                            sort_keys=True, default=str).encode("utf-8")
        data = _aligned(_PREFIX + len(header))
        name = f"seg-{ordinal:06d}"
        target = self._segment_path(name)
        with open(target, "wb") as fh:
            fh.write(_MAGIC + struct.pack("<Q", len(header)) + header)
            for column_offset, raw in raws:
                fh.write(b"\0" * (data + column_offset - fh.tell()))
                fh.write(raw)
            fh.flush()
            size = fh.tell()
            maybe_truncate("storage.segment", target)
            os.fsync(fh.fileno())
        _fsync_dir(self.path)
        return {"seg": name, "rows": rows, "bytes": size,
                "hsum": _short_sum(header)}

    def _header(self, entry: dict[str, Any]) -> dict[str, Any]:
        """One segment's header, checked against its log record."""
        target = self._segment_path(entry["seg"])
        try:
            with open(target, "rb") as fh:
                prefix = fh.read(_PREFIX)
                if len(prefix) != _PREFIX or prefix[:len(_MAGIC)] != _MAGIC:
                    raise ValueError("not a segment file (bad magic)")
                (length,) = struct.unpack("<Q", prefix[len(_MAGIC):])
                raw = fh.read(length)
            if _short_sum(raw) != entry["hsum"]:
                raise ValueError("header checksum mismatch")
            header = json.loads(raw)
            header["data"] = _aligned(_PREFIX + length)
            header["index"] = {spec["name"]: spec
                               for spec in header["columns"]}
        except (OSError, ValueError, KeyError, TypeError,
                struct.error) as exc:
            raise IndexCorruptionError(
                f"corrupt segment header {target}: {exc}",
                details={"path": target, "segment": entry["seg"],
                         "cause": type(exc).__name__},
            ) from exc
        return header

    def _columns(self, entry: dict[str, Any], header: dict[str, Any],
                 names: Sequence[str] | None, mmap: bool
                 ) -> dict[str, np.ndarray]:
        """Columns of one segment (``names=None``: all of them).

        With ``mmap=True`` each column is a read-only ``np.memmap`` at
        its offset — zero-copy, pages fault in on touch; with
        ``mmap=False`` only the named columns are read into RAM.
        """
        target = self._segment_path(entry["seg"])
        wanted = list(header["index"]) if names is None else names
        out: dict[str, np.ndarray] = {}
        try:
            with contextlib.ExitStack() as stack:
                fh = None if mmap else stack.enter_context(
                    open(target, "rb"))
                for name in wanted:
                    spec = header["index"].get(name)
                    if spec is None:
                        raise IndexCorruptionError(
                            f"segment {entry['seg']} of {self.path} has no "
                            f"column {name}",
                            details={"path": target, "column": name})
                    dtype, shape = np.dtype(spec["dtype"]), \
                        tuple(spec["shape"])
                    offset = header["data"] + spec["offset"]
                    nbytes = _column_bytes(spec)
                    if nbytes == 0:
                        out[name] = np.zeros(shape, dtype=dtype)
                    elif mmap:
                        out[name] = np.memmap(target, dtype=dtype, mode="r",
                                              offset=offset, shape=shape)
                    else:
                        buf = bytearray(nbytes)
                        fh.seek(offset)
                        if fh.readinto(buf) != nbytes:
                            raise ValueError(f"column {name} is cut short")
                        out[name] = np.frombuffer(buf, dtype=dtype
                                                  ).reshape(shape)
        except (OSError, ValueError, TypeError) as exc:
            raise IndexCorruptionError(
                f"corrupt store file {target}: {exc}",
                details={"path": target, "segment": entry["seg"],
                         "cause": type(exc).__name__},
            ) from exc
        return out

    def _collect_garbage(self, state: _Committed) -> None:
        """Drop files/directories the committed log no longer names."""
        keep = {entry["seg"] + SEGMENT_SUFFIX for entry in state.segments}
        keep.update(state.shards)
        keep.add(LOG_NAME)
        try:
            entries = os.listdir(self.path)
        except OSError:  # pragma: no cover - store dir vanished
            return
        for entry in entries:
            if entry in keep or entry.endswith(".tmp"):
                continue
            target = os.path.join(self.path, entry)
            try:
                if os.path.isdir(target):
                    shutil.rmtree(target)
                else:
                    os.unlink(target)
            except OSError:  # pragma: no cover - best-effort cleanup
                logger.warning("could not collect garbage %s", target)

    # -- full write (base segment) ---------------------------------------

    def write_index(self, index: Any) -> str:
        """Write ``index`` as a fresh store (one base segment, no deltas).

        Handles both monolithic ``STRGIndex`` and ``ShardedIndex`` (the
        latter becomes a root log plus one nested store per shard,
        shards written first, root log last).  Also serves as the
        *merge* target: rewriting an existing store folds all segments
        into a new base and garbage-collects the old ones.  Returns the
        store path; an I/O failure raises ``StorageError`` and leaves
        the previously committed snapshot (if any) intact — and this
        store unbound, so the next :meth:`checkpoint` writes in full.
        """
        with self._mutate_lock, OBS.span("storage.columnar.write"), \
                self._unbind_on_error():
            try:
                os.makedirs(self.path, exist_ok=True)
                ordinal = self._next_base_ordinal()
                if getattr(index, "shards", None) is not None:
                    return self._write_sharded(index, ordinal)
                return self._write_base(index, ordinal)
            except OSError as exc:
                raise StorageError(
                    f"cannot write index to {self.path}: {exc}") from exc

    @contextlib.contextmanager
    def _unbind_on_error(self):
        """A write that raises may have left the disk anywhere between
        the old state and the new: drop the row binding."""
        try:
            yield
        except BaseException:
            self._bound_version = None
            raise

    def _next_base_ordinal(self) -> int:
        """A segment ordinal no committed record names."""
        if not self.exists():
            if os.path.isfile(os.path.join(self.path, V1_MANIFEST)):
                raise v1_refusal(self.path)
            return 0
        try:
            return self._committed().next_ordinal()
        except IndexCorruptionError:
            # An unreadable log commits nothing worth protecting; a full
            # write must be able to replace it (crash recovery).
            return 0

    def _write_base(self, index: Any, ordinal: int) -> str:
        arrays, meta = index_to_arrays(index)
        rows = len(meta["refs"])
        entry = self._write_segment(ordinal, "base", rows, meta, arrays)
        state = self._replace_log([self._base_record(_KIND_INDEX, entry)],
                                  "storage.write")
        self._collect_garbage(state)
        if maybe_truncate("storage.write", self._segment_path(entry["seg"])):
            logger.warning("injected truncation in segment %s", entry["seg"])
        self._row_of = {og.og_id: i
                        for i, (og, _) in enumerate(leaf_ogs(index))}
        self._bound_version = state.version
        OBS.count("storage.columnar.writes")
        return self.path

    @staticmethod
    def _base_record(kind: str, entry: dict[str, Any], **extra: Any
                     ) -> dict[str, Any]:
        return dict(format=COLUMNAR_FORMAT, format_version=COLUMNAR_VERSION,
                    kind=kind, **entry, **extra)

    def _write_sharded(self, index: Any, ordinal: int) -> str:
        shard_names = []
        for number, shard in enumerate(index.shards):
            name = f"shard-{number}"
            self._shard(name).write_index(shard)
            shard_names.append(name)
        pivots = index.pivots if index.pivots is not None else []
        pivot_flat, pivot_offsets = _pack_ragged(list(pivots))
        entry = self._write_segment(
            ordinal, "root", 0, {},
            {"pivot_values": pivot_flat, "pivot_offsets": pivot_offsets})
        state = self._replace_log([self._base_record(
            _KIND_SHARDED, entry, num_shards=len(index.shards),
            has_pivots=index.pivots is not None,
            serving_config=index.serving_config(), shards=shard_names)],
            "storage.write")
        self._collect_garbage(state)
        self._reset_rows()
        OBS.count("storage.columnar.writes")
        return self.path

    # -- load -------------------------------------------------------------

    def load_index(self, mmap: bool = False) -> Any:
        """Materialize the index: base snapshot + deterministic replay.

        With ``mmap=True`` trajectory/centroid/sketch columns stay on
        disk as read-only memory-mapped views — the tree holds zero-copy
        slices and pages fault in per query.  The replayed tree answers
        queries bit-identically to the live index that wrote the store.
        """
        with OBS.span("storage.columnar.load", mmap=mmap):
            state = self._open_checked()
            if state.kind == _KIND_SHARDED:
                return self._load_sharded(state, mmap)
            index, row_ogs = self._materialize_base(state.segments[0], mmap)
            dead: set[int] = set()
            for entry in state.segments[1:]:
                self._replay_delta(index, entry, row_ogs, dead, mmap)
            if dead != state.dead:
                raise IndexCorruptionError(
                    f"dead rows of {self.path} disagree between the log "
                    f"and the delta ops ({len(state.dead)} logged vs "
                    f"{len(dead)} replayed)",
                    details={"path": self.path, "logged": len(state.dead),
                             "replayed": len(dead)},
                )
            if len(row_ogs) != state.rows_total:
                raise IndexCorruptionError(
                    f"row count mismatch in {self.path}: replay produced "
                    f"{len(row_ogs)} rows, the log says {state.rows_total}",
                    details={"path": self.path, "replayed": len(row_ogs),
                             "logged": state.rows_total},
                )
            self._row_of = {og.og_id: row for row, og in enumerate(row_ogs)}
            self._bound_version = state.version
            OBS.count("storage.columnar.loads")
            return index

    def row_ordinals(self) -> dict[int, int]:
        """Live ``og_id -> global row ordinal`` map of the bound index.

        og_ids are minted per process and never stable across loads;
        the row ordinal *is* stable — it names the record's position in
        the on-disk column order, so it is the identity that crosses
        process (and network) boundaries.  Only valid after
        ``load_index``/``write_index`` bound this store to an index.
        """
        if not self._bound:
            raise IndexStateError(
                f"store {self.path} is not bound to an index "
                "(call load_index() or write_index() first)")
        return dict(self._row_of)

    def _materialize_base(self, entry: dict[str, Any], mmap: bool):
        header = self._header(entry)
        arrays = self._columns(entry, header, None, mmap)
        try:
            index = index_from_arrays(arrays, header["meta"],
                                      source=self._segment_path(entry["seg"]))
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            raise IndexCorruptionError(
                f"cannot materialize base segment of {self.path}: {exc}",
                details={"path": self.path, "segment": entry["seg"],
                         "cause": type(exc).__name__},
            ) from exc
        return index, [og for og, _ in leaf_ogs(index)]

    def _delta_ops(self, entry: dict[str, Any], header: dict[str, Any]
                   ) -> list[tuple[str, int]]:
        """A delta's op log, validated: ``[(code, operand), ...]``."""
        try:
            ops = [(op[0], int(op[1])) for op in header["meta"]["ops"]]
            for code, _ in ops:
                if code not in ("i", "d"):
                    raise ValueError(f"unknown op code {code!r}")
            return ops
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            raise IndexCorruptionError(
                f"cannot replay delta segment {entry['seg']} of "
                f"{self.path}: {exc}",
                details={"path": self.path, "segment": entry["seg"],
                         "cause": type(exc).__name__},
            ) from exc

    def _replay_delta(self, index: Any, entry: dict[str, Any],
                      row_ogs: list, dead: set[int], mmap: bool) -> None:
        header = self._header(entry)
        ops = self._delta_ops(entry, header)
        arrays = self._columns(entry, header, None, mmap)
        try:
            refs = header["meta"]["refs"]
            values = _unpack_ragged(arrays["og_values"],
                                    arrays["og_offsets"])
            frames = _unpack_ragged(arrays["og_frames"],
                                    arrays["og_offsets"])
            labels = arrays["og_labels"]
            backgrounds = (_unpack_backgrounds(arrays)
                           if "bg_frames" in arrays else [])
            inserted = 0
            for code, operand in ops:
                if code == "i":
                    og = ObjectGraph(
                        values=values[inserted],
                        frames=frames[inserted],
                        label=(None if labels[inserted] < 0
                               else int(labels[inserted])),
                    )
                    background = (backgrounds[operand]
                                  if operand >= 0 else None)
                    index.insert(og, background, refs[inserted])
                    row_ogs.append(og)
                    inserted += 1
                else:
                    index.delete(row_ogs[operand].og_id)
                    dead.add(operand)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            raise IndexCorruptionError(
                f"cannot replay delta segment {entry['seg']} of "
                f"{self.path}: {exc}",
                details={"path": self.path, "segment": entry["seg"],
                         "cause": type(exc).__name__},
            ) from exc

    def read_sharding(self, mmap: bool = False
                      ) -> tuple[dict[str, Any], list[np.ndarray] | None]:
        """``(serving_config, pivots)`` of a sharded root store — what
        :meth:`ShardedIndex.from_shards` needs besides the shards."""
        state = self._committed()
        try:
            serving = dict(state.base["serving_config"])
            if not state.base["has_pivots"]:
                return serving, None
            entry = state.segments[0]
            columns = self._columns(entry, self._header(entry),
                                    ("pivot_values", "pivot_offsets"), mmap)
            return serving, _unpack_ragged(columns["pivot_values"],
                                           columns["pivot_offsets"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexCorruptionError(
                f"cannot read sharded store {self.path}: {exc}",
                details={"path": self.path, "cause": type(exc).__name__},
            ) from exc

    def _load_sharded(self, state: _Committed, mmap: bool) -> Any:
        from repro.serving.sharding import ShardedIndex

        shards = [self._shard(name).load_index(mmap=mmap)
                  for name in state.shards]
        if not shards:
            raise IndexCorruptionError(
                f"sharded store {self.path} lists no shards",
                details={"path": self.path},
            )
        serving, pivots = self.read_sharding(mmap)
        try:
            index = ShardedIndex.from_shards(shards, serving, pivots)
        except (TypeError, InvalidParameterError) as exc:
            raise IndexCorruptionError(
                f"cannot read sharded store {self.path}: {exc}",
                details={"path": self.path, "cause": type(exc).__name__},
            ) from exc
        self._reset_rows()
        return index

    # -- row-addressed reads + out-of-core sketch --------------------------

    def row_reader(self, mmap: bool = True) -> "ColumnarRowReader":
        """Row-addressed reads over the committed store (no tree load).

        Resolves global row ordinals to zero-copy offsets-table slices
        of the (optionally mmap'd) segment columns — see
        :class:`ColumnarRowReader`.  Sharded stores have no global row
        space (raises ``StorageError``); open the shard stores
        individually, as :meth:`load_sketch` does.
        """
        return ColumnarRowReader(self, self._open_checked(), mmap)

    def load_sketch(self, distance: Any = None, mmap: bool = True) -> Any:
        """Attach the persisted sketch tier straight from store columns.

        The out-of-core approximate search entry point: returns a list
        of store-attached ``SketchIndex`` parts — the one part of a
        monolithic store, or one per non-empty shard of a sharded root,
        in shard order.  Each part's base arrays are zero-copy
        (optionally mmap) views of its base segment's ``sketch_*``
        columns, with ``(og, clip_ref)`` records materialized lazily
        through the row-addressed read path — no tree, no O(corpus)
        resident memory.  Row ordinals double as og_ids, which keeps
        rerank tie-breaking bit-identical to the materialized index
        (fresh og_ids there are minted in the same row order).

        Delta segments replay through ``sketch.add``/``sketch.remove``
        (recomputing pivot distances with ``distance`` — default: the
        stored config's ``MetricEGED``) into the sketch's in-RAM tail,
        and the result is cross-checked against the log's dead rows.

        Shard ``s`` numbers its og_ids from the row count of the shards
        before it, so ids are unique across the list and ``(distance,
        og_id)`` ties resolve shard-then-row — the order the
        materialized ``ShardedIndex`` gets by minting ids in load order.

        Returns ``None`` when a part holds no persisted sketch; callers
        fall back to materializing the index.
        """
        with OBS.span("storage.columnar.load_sketch", mmap=mmap):
            state = self._open_checked()
            if state.kind == _KIND_INDEX:
                sketch = self._attach_sketch(state, distance, mmap, 0)
                return None if sketch is None else [sketch]
            sketches = []
            id_base = 0
            for name in state.shards:
                shard = self._shard(name)
                shard_state = shard._open_checked()
                if shard_state.live_rows() > 0:
                    sketch = shard._attach_sketch(shard_state, distance,
                                                  mmap, id_base)
                    if sketch is None:
                        return None
                    sketches.append(sketch)
                id_base += shard_state.rows_total
            return sketches

    def _attach_sketch(self, state: _Committed, distance: Any,
                       mmap: bool, id_base: int) -> Any:
        """The store-attached sketch of one index store, its og_ids
        numbered from ``id_base`` (see :meth:`load_sketch`)."""
        from repro.distance.eged import MetricEGED
        from repro.search.sketch import SketchRows

        base = state.segments[0]
        header = self._header(base)
        meta = header["meta"]
        sketch_meta = meta.get("sketch_meta")
        if sketch_meta is None:
            return None
        base_rows = int(base["rows"])
        reader = ColumnarRowReader(self, state, mmap, id_base)
        # The pivots are a few series: read them, map the per-row columns.
        columns = self._columns(base, header, SKETCH_COLUMNS[:2], mmap=False)
        columns.update(self._columns(base, header, SKETCH_COLUMNS[2:], mmap))
        try:
            sketch = read_sketch(
                columns, sketch_meta,
                np.arange(id_base, id_base + base_rows, dtype=np.int64),
                SketchRows(reader=reader, n_attached=base_rows))
        except SKETCH_PAYLOAD_ERRORS as exc:
            raise IndexCorruptionError(
                f"corrupt sketch tier in {self.path}: {exc}",
                details={"path": self.path, "rows": base_rows,
                         "cause": type(exc).__name__},
            ) from exc
        if distance is None:
            distance = MetricEGED(meta["config"]["metric_gap"])
        next_row = base_rows
        for entry in state.segments[1:]:
            ins_rows: list[int] = []
            dels: list[int] = []
            for code, operand in self._delta_ops(entry, self._header(entry)):
                if code == "i":
                    ins_rows.append(next_row)
                    next_row += 1
                else:
                    dels.append(operand)
            if ins_rows:
                # Same-batch inserts land before the batch's deletes;
                # a delete can only name an already-appended row, so
                # batching per segment preserves the op-order state.
                pairs = [reader.record(row) for row in ins_rows]
                sketch.add(distance, [og for og, _ in pairs],
                           [ref for _, ref in pairs])
            for row in dels:
                if not sketch.remove(id_base + row):
                    raise IndexCorruptionError(
                        f"delta segment {entry['seg']} of "
                        f"{self.path} deletes unknown row {row}",
                        details={"path": self.path,
                                 "segment": entry["seg"], "row": row},
                    )
        live = state.live_rows()
        if next_row != state.rows_total or len(sketch) != live:
            raise IndexCorruptionError(
                f"sketch replay of {self.path} disagrees with the "
                f"log ({len(sketch)} live rows vs {live})",
                details={"path": self.path, "live": len(sketch),
                         "logged": live, "rows": next_row,
                         "rows_total": state.rows_total},
            )
        sketch.replay_distance = distance
        OBS.count("storage.columnar.sketch_loads")
        return sketch

    # -- incremental append -----------------------------------------------

    def append(self, writes: Sequence[Any]) -> str | None:
        """Persist one ordered write batch as a delta segment — O(delta).

        ``writes`` is a sequence of objects with the ``_BufferedWrite``
        shape (``op`` of ``"insert"``/``"delete"``, plus ``og``,
        ``background``, ``clip_ref`` or ``og_id``) — exactly what one
        ``LiveIndex.compact()`` applied.  Deletes of og_ids the store
        does not know (never persisted, or already dead) are no-ops,
        matching ``index.delete()`` returning ``False``.  Returns the
        new segment name, or ``None`` when the batch was all no-ops.
        Raising unbinds the store: the caller drops the batch, so only
        a full write can bring the disk back in line.
        """
        with self._mutate_lock, self._unbind_on_error():
            if not self.exists():
                raise StorageError(
                    f"cannot append to {self.path}: store does not exist "
                    "(write_index() first)")
            state = self._committed()
            if state.kind != _KIND_INDEX:
                raise StorageError(
                    f"cannot append to {self.path}: sharded columnar "
                    "stores are write/load-only — append to the shard "
                    "stores or rewrite with write_index()")
            if not self._bound:
                raise StorageError(
                    f"cannot append to {self.path}: store rows are not "
                    "bound to this process (call load_index() or "
                    "write_index() first)")
            if state.version != self._bound_version:
                raise StorageError(
                    f"cannot append to {self.path}: the committed log "
                    "moved since this process bound its rows (a failed "
                    "or foreign commit); write the index in full")
            if state.file_size != state.size:
                # A torn tail from a crashed append: cut it off so the
                # record lands on a line of its own.
                os.truncate(self._log_path, state.size)
                state.file_size = state.size
            with OBS.span("storage.columnar.append", writes=len(writes)):
                return self._append_locked(state, writes)

    def _append_locked(self, state: _Committed,
                       writes: Sequence[Any]) -> str | None:
        ops: list[list] = []
        insert_ogs: list[Any] = []
        insert_refs: list[Any] = []
        delta_backgrounds: list[Any] = []
        bg_ordinal: dict[int, int] = {}
        overlay: dict[int, int] = {}
        rows = state.rows_total
        new_dead: list[int] = []
        for write in writes:
            if write.op == "insert":
                background = write.background
                if background is None:
                    ordinal = -1
                else:
                    ordinal = bg_ordinal.get(id(background), -2)
                    if ordinal == -2:
                        ordinal = len(delta_backgrounds)
                        bg_ordinal[id(background)] = ordinal
                        delta_backgrounds.append(background)
                ops.append(["i", ordinal])
                insert_ogs.append(write.og)
                insert_refs.append(write.clip_ref)
                overlay[write.og.og_id] = rows
                rows += 1
            elif write.op == "delete":
                row = overlay.get(write.og_id,
                                  self._row_of.get(write.og_id))
                if row is None or row in state.dead or row in new_dead:
                    continue
                ops.append(["d", int(row)])
                new_dead.append(int(row))
            else:
                raise InvalidParameterError(
                    f"unknown write op {write.op!r}")
        if not ops:
            return None
        og_flat, og_offsets = _pack_ragged([og.values for og in insert_ogs])
        frames_flat = (
            np.concatenate([np.asarray(og.frames, dtype=np.int64)
                            for og in insert_ogs])
            if insert_ogs else np.zeros(0, dtype=np.int64)
        )
        labels = np.array(
            [-1 if og.label is None else og.label for og in insert_ogs],
            dtype=np.int64,
        )
        arrays = dict(og_values=og_flat, og_offsets=og_offsets,
                      og_frames=frames_flat, og_labels=labels)
        if delta_backgrounds:
            arrays.update(_pack_backgrounds([
                SimpleNamespace(background=bg) for bg in delta_backgrounds
            ]))
        entry = self._write_segment(
            state.next_ordinal(), "delta", len(insert_ogs),
            {"ops": ops, "refs": insert_refs}, arrays)
        state = self._append_record(state, dict(entry, dead=new_dead))
        if maybe_truncate("storage.append", self._segment_path(entry["seg"])):
            logger.warning("injected truncation in segment %s", entry["seg"])
        self._row_of.update(overlay)
        self._bound_version = state.version
        OBS.count("storage.columnar.appends")
        OBS.gauge("storage.columnar.segments", len(state.segments))
        return entry["seg"]

    def checkpoint(self, index: Any, writes: Sequence[Any] | None = None
                   ) -> str | None:
        """Durability hook with the cheapest valid persistence step.

        With ``writes`` (the batch applied since the last checkpoint)
        and a bound existing store, appends one O(delta) segment;
        otherwise falls back to a full ``write_index`` (first
        checkpoint, a sharded index, a store this process has not
        loaded, or one whose last append or write failed).
        """
        with self._mutate_lock:
            if writes is not None and self._bound and self.exists() \
                    and getattr(index, "shards", None) is None:
                return self.append(writes)
            self.write_index(index)
            return None

    # -- merge ------------------------------------------------------------

    def needs_merge(self) -> bool:
        """Whether segment count / dead-row fraction crossed the policy."""
        if not self.exists():
            return False
        state = self._committed()
        if state.kind != _KIND_INDEX:
            return False
        if len(state.segments) > self.merge_max_segments:
            return True
        return len(state.dead) / max(state.rows_total, 1) \
            > self.merge_dead_fraction

    def merge(self, index: Any = None) -> bool:
        """Fold every segment into a fresh base (O(corpus), amortized).

        ``index`` — when the caller holds the live index the store state
        replays to (e.g. the snapshot just published by
        ``LiveIndex.compact``) — is written directly, keeping the
        process-local og_id row bindings.  Without it the store
        materializes itself from disk first (offline compaction).
        """
        with self._mutate_lock:
            if not self.exists():
                return False
            with OBS.span("storage.columnar.merge"):
                if index is not None:
                    self.write_index(index)
                    OBS.count("storage.columnar.merges")
                    return True
                # Offline fold: materialize committed state, rewrite it
                # as the new base, then translate any live og_id
                # bindings through (old ordinal -> fresh og -> new
                # ordinal) so an attached writer can keep appending.
                live = dict(self._row_of) if self._bound else None
                materialized = self.load_index(mmap=False)
                old_of_fresh = dict(self._row_of)
                self.write_index(materialized)
                if live is not None:
                    new_of_old = {
                        old: self._row_of[fresh]
                        for fresh, old in old_of_fresh.items()
                        if fresh in self._row_of
                    }
                    self._row_of = {
                        og_id: new_of_old[old]
                        for og_id, old in live.items()
                        if old in new_of_old
                    }
                OBS.count("storage.columnar.merges")
                return True

    def maybe_merge(self, index: Any = None,
                    background: bool = False) -> bool:
        """Merge if the policy says so; optionally in a daemon thread.

        Returns whether a merge ran (foreground) or was scheduled
        (background).  Background merges serialize on the store's write
        lock, so concurrent appends simply wait their turn.
        """
        if not self.needs_merge():
            return False
        if not background:
            return self.merge(index)
        with self._mutate_lock:
            if self._merge_thread is not None \
                    and self._merge_thread.is_alive():
                return False
            worker = threading.Thread(
                target=self._background_merge, args=(index,),
                name="columnar-merge", daemon=True)
            self._merge_thread = worker
            worker.start()
        return True

    def _background_merge(self, index: Any) -> None:
        try:
            if self.needs_merge():
                self.merge(index)
        except Exception:  # pragma: no cover - logged, never propagates
            logger.exception("background merge of %s failed", self.path)

    def join_merges(self, timeout: float | None = None) -> None:
        """Wait for an in-flight background merge (tests, clean shutdown)."""
        worker = self._merge_thread
        if worker is not None:
            worker.join(timeout)

    # -- integrity / introspection ----------------------------------------

    def verify(self) -> dict[str, Any]:
        """Full integrity pass: re-hash every column against its header.

        This is the O(corpus) deep check that the O(1) open deliberately
        skips; ``convert`` runs it after every import and crash recovery
        before trusting a snapshot.  A mismatch raises
        ``IndexCorruptionError`` naming the segment and the column.
        Returns ``{"files": n, "columns": n, "bytes": n}`` (the log
        counts as a file).
        """
        state = self._open_checked()
        files, columns, total = 1, 0, state.size
        for entry in state.segments:
            header = self._header(entry)
            target = self._segment_path(entry["seg"])
            with open(target, "rb") as fh:
                for spec in header["columns"]:
                    fh.seek(header["data"] + spec["offset"])
                    digest = hashlib.sha256()
                    left = _column_bytes(spec)
                    while left > 0:
                        chunk = fh.read(min(left, 1 << 20))
                        if not chunk:
                            break
                        digest.update(chunk)
                        left -= len(chunk)
                    if digest.hexdigest() != spec["sha256"]:
                        raise IndexCorruptionError(
                            f"checksum mismatch in column {spec['name']} "
                            f"of segment {entry['seg']} ({target}): "
                            "payload was altered on disk",
                            details={"path": target,
                                     "segment": entry["seg"],
                                     "column": spec["name"],
                                     "expected": spec["sha256"],
                                     "actual": digest.hexdigest()},
                        )
                    columns += 1
            files += 1
            total += entry["bytes"]
        for name in state.shards:
            report = self._shard(name).verify()
            files += report["files"]
            columns += report["columns"]
            total += report["bytes"]
        return {"files": files, "columns": columns, "bytes": total}

    def describe(self) -> dict[str, Any]:
        """Small stats dict for CLI/status output."""
        state = self._committed()
        info: dict[str, Any] = {
            "path": self.path,
            "kind": state.kind,
            "version": self.version(),
        }
        if state.kind == _KIND_SHARDED:
            info["num_shards"] = len(state.shards)
            return info
        info.update(
            segments=len(state.segments),
            rows_total=state.rows_total,
            rows_dead=len(state.dead),
            bytes=state.size + sum(entry["bytes"]
                                   for entry in state.segments),
        )
        return info

    def __repr__(self) -> str:
        return f"ColumnarStore({self.path!r})"


class ColumnarRowReader:
    """Row-addressed reads over a committed index store.

    Global row ordinals — base rows in leaf-iteration order, then delta
    inserts in op order, the same numbering ``row_ordinals()`` exposes —
    resolve to ``(segment, local row)`` via a prefix-sum binary search.
    Series and frames come out as zero-copy offsets-table slices of the
    (optionally mmap'd) ``og_*`` columns: touching one row faults in
    that row's pages, never a whole segment.  Segment columns and
    headers load lazily on first touch, so a reader over a million-row
    store costs one log read until a row is actually read.

    Records are ``ObjectGraph``s minted with ``og_id = id_base + row
    ordinal`` — the one identity that is stable across processes —
    which is what keeps out-of-core rerank tie-breaking bit-identical
    to the materialized index (whose fresh og_ids are minted in the
    same row order).  ``id_base`` is 0 for a store read on its own; a
    shard of a sharded store gets the row count of the shards before
    it, so og_ids (``ObjectGraph`` equality and hashing are by og_id)
    stay unique across the shards' readers.
    """

    def __init__(self, store: ColumnarStore, state: _Committed,
                 mmap: bool = True, id_base: int = 0):
        if state.kind != _KIND_INDEX:
            raise StorageError(
                f"sharded store {store.path} has no global row space; "
                "open the shard stores individually")
        self._store = store
        self._mmap = bool(mmap)
        self._id_base = int(id_base)
        self._segments = list(state.segments)
        self._columns: list[tuple | None] = [None] * len(self._segments)
        self._refs: list[list | None] = [None] * len(self._segments)
        starts = [0]
        for entry in self._segments:
            starts.append(starts[-1] + int(entry["rows"]))
        self._starts = starts
        self._rows_total = state.rows_total
        self._dead = state.dead

    def __len__(self) -> int:
        return self._rows_total

    def alive_mask(self) -> np.ndarray:
        """Boolean live-row mask over all global row ordinals."""
        alive = np.ones(self._rows_total, dtype=bool)
        if self._dead:
            alive[np.fromiter(self._dead, dtype=np.int64)] = False
        return alive

    def is_alive(self, row: int) -> bool:
        return int(row) not in self._dead

    def _locate(self, row: int) -> tuple[int, int]:
        if not 0 <= row < self._rows_total:
            raise InvalidParameterError(
                f"row {row} out of range [0, {self._rows_total})")
        part = bisect.bisect_right(self._starts, row) - 1
        return part, row - self._starts[part]

    def _load_part(self, part: int) -> None:
        """Map ``(values, offsets, frames, labels)`` and read the refs of
        one segment.

        Columns are held as base-class ``ndarray`` views of the maps:
        still zero-copy, but a slice skips ``np.memmap``'s
        per-``__getitem__`` subclass bookkeeping (3x the cost of the
        slice itself).
        """
        entry = self._segments[part]
        header = self._store._header(entry)
        names = ("og_values", "og_offsets", "og_frames", "og_labels")
        loaded = self._store._columns(entry, header, names, self._mmap)
        self._refs[part] = header["meta"].get("refs") or []
        self._columns[part] = tuple(loaded[name].view(np.ndarray)
                                    for name in names)

    def _part_columns(self, part: int) -> tuple:
        if self._columns[part] is None:
            self._load_part(part)
        return self._columns[part]

    def series(self, row: int) -> np.ndarray:
        """Zero-copy ``(n, d)`` float64 trajectory slice of one row."""
        part, local = self._locate(int(row))
        values, offsets, _, _ = self._part_columns(part)
        return values[offsets[local]:offsets[local + 1]]

    def record(self, row: int) -> tuple[Any, Any]:
        """``(og, clip_ref)`` of one row, ``og_id = id_base + row``."""
        row = int(row)
        part, local = self._locate(row)
        values, offsets, frames_flat, labels = self._part_columns(part)
        lo, hi = offsets[local], offsets[local + 1]
        frames = None
        if frames_flat.shape[0] == offsets[-1]:
            frames = frames_flat[lo:hi]
        label = int(labels[local])
        refs = self._refs[part]
        og = ObjectGraph(
            values=values[lo:hi],
            frames=frames,
            label=None if label < 0 else label,
            og_id=self._id_base + row,
        )
        return og, (refs[local] if local < len(refs) else None)


__all__ = [
    "COLUMNAR_FORMAT",
    "COLUMNAR_VERSION",
    "ColumnarRowReader",
    "ColumnarStore",
    "columnar_path",
    "is_columnar_store",
    "is_v1_store",
]
