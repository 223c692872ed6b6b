"""Columnar, memory-mapped snapshot store — the one on-disk format.

An index persists as the flat structured arrays of
:func:`~repro.storage.serialize.index_to_arrays` — trajectories plus an
offsets table, node attributes, sketch rows, background tables — each
a raw ``.npy`` file that ``numpy`` can memory-map read-only, so

- *cold open* is O(1): ``open_database()`` reads one small JSON manifest
  and stats the data files; trajectory bytes stay on disk until a query
  faults them in;
- multiple shard *processes* map the same file and share page cache,
  with zero-copy views instead of per-process copies;
- *compaction is incremental*: each ``append()`` writes one new delta
  segment plus a tombstone bitmap — O(delta) bytes — and a background
  merge folds segments back into a fresh base only once the dead-row
  fraction crosses a threshold (amortized, LSM-style).

Layout — one directory per store, conventionally ``<name>.strg/``::

    corpus.strg/
      manifest.json          <- commit point (atomically replaced last)
      tombstones-000002.npy  <- packed-bit dead-row bitmap (versioned)
      seg-000000/            <- base segment: full tree snapshot
        meta.json            <- index config, clip refs, sketch meta
        og_values.npy        <- (sum n_i, d) trajectory rows
        og_offsets.npy       <- int64 offsets table into og_values
        og_frames.npy  og_labels.npy  keys.npy  leaf_of_og.npy
        centroid_values.npy  centroid_offsets.npy  cluster_root.npy
        bg_*.npy  sketch_*.npy
      seg-000001/            <- delta segment: ordered op log + payloads
        meta.json            <- {"ops": [["i", bg] | ["d", row], ...]}
        og_values.npy  og_offsets.npy  ...  bg_*.npy

Commit protocol.  A segment directory is written completely (every file
fsynced) *before* the manifest is atomically replaced (temp + fsync +
rename) to reference it.  A crash mid-write leaves an orphan segment
directory and the previous manifest: the store opens at its last
committed state and the orphan is garbage-collected by the next write.  The manifest records byte size and SHA-256 per file; opening
verifies sizes (catching truncation in O(#files) stats — full hashing
would defeat the O(1) open and is available via :meth:`verify`).

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
import hashlib
import json
import logging
import os
import shutil
import tempfile
import threading
from types import SimpleNamespace
from typing import Any, Iterable, Sequence

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
COLUMNAR_VERSION = 1
MANIFEST_NAME = "manifest.json"
STORE_SUFFIX = ".strg"

_KIND_INDEX = "index"
_KIND_SHARDED = "sharded"


def columnar_path(path: str | os.PathLike) -> str:
    """Normalize a store path: a suffix-less path means ``<path>.strg``.

    Appends ``.strg`` unless the path already carries the suffix or
    already names a store directory (has a manifest), so suffix-less
    ``save(path)`` / ``load(path)`` round-trips keep working.
    """
    p = os.fspath(path)
    if p.endswith(STORE_SUFFIX):
        return p
    if os.path.isfile(os.path.join(p, MANIFEST_NAME)):
        return p
    return p + STORE_SUFFIX


def is_columnar_store(path: str | os.PathLike) -> bool:
    """True when ``path`` (after normalization) holds a store manifest."""
    return os.path.isfile(os.path.join(columnar_path(path), MANIFEST_NAME))


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fsync_write(path: str, writer) -> None:
    """Write ``path`` via ``writer(fh)`` and fsync before closing."""
    with open(path, "wb") as fh:
        writer(fh)
        fh.flush()
        os.fsync(fh.fileno())


def _file_entry(path: str) -> dict[str, Any]:
    return {"bytes": os.path.getsize(path), "sha256": _sha256_file(path)}


class ColumnarStore:
    """One columnar store directory (monolithic index or sharded).

    Thread-safe for writers: ``write_index``/``append``/``merge``
    serialize on an internal lock.  Readers (``load_index``) are
    lock-free — they only ever see committed manifests.
    """

    #: Fold segments into a fresh base once this fraction of rows is dead.
    merge_dead_fraction = 0.25
    #: ... or once this many segments accumulate (keeps replay bounded).
    merge_max_segments = 64

    def __init__(self, path: str | os.PathLike, *, normalize: bool = True):
        self.path = columnar_path(path) if normalize else os.fspath(path)
        self._mutate_lock = threading.RLock()
        self._merge_thread: threading.Thread | None = None
        self._reset_rows()

    def _reset_rows(self) -> None:
        self._row_of: dict[int, int] = {}   # live og_id -> global ordinal
        self._rows = 0                       # rows ever appended
        self._dead: set[int] = set()         # tombstoned ordinals
        self._bound = False                  # row map reflects disk state

    # -- manifest ---------------------------------------------------------

    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.path, MANIFEST_NAME)

    def exists(self) -> bool:
        """Whether a committed manifest is present."""
        return os.path.isfile(self._manifest_path)

    def _read_manifest(self) -> dict[str, Any]:
        maybe_fail("storage.read", path=self._manifest_path)
        try:
            with open(self._manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError as exc:
            if os.path.isdir(self.path):
                # The store directory exists but never reached its commit
                # point: an interrupted first write (or a stray empty
                # directory).  Data loss, not a missing store.
                raise IndexCorruptionError(
                    f"store directory {self.path} has no committed "
                    "manifest (empty or partially written)",
                    details={"path": self.path,
                             "missing": MANIFEST_NAME,
                             "contents": sorted(os.listdir(self.path))[:16]},
                ) from exc
            raise StorageError(
                f"cannot read {self._manifest_path}: {exc}") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise IndexCorruptionError(
                f"corrupt store manifest {self._manifest_path}: {exc}",
                details={"path": self._manifest_path,
                         "cause": type(exc).__name__},
            ) from exc
        if manifest.get("format") != COLUMNAR_FORMAT:
            raise IndexCorruptionError(
                f"{self._manifest_path} is not a columnar store manifest "
                f"(format={manifest.get('format')!r})",
                details={"path": self._manifest_path,
                         "format": manifest.get("format")},
            )
        version = manifest.get("format_version")
        if version != COLUMNAR_VERSION:
            raise IndexCorruptionError(
                f"unsupported columnar format version {version} in "
                f"{self._manifest_path} (supported: {COLUMNAR_VERSION})",
                details={"path": self._manifest_path, "version": version,
                         "supported": COLUMNAR_VERSION},
            )
        kind = manifest.get("kind")
        if kind == _KIND_SHARDED:
            required = ("num_shards", "shards", "files")
        else:
            required = ("kind", "segments", "next_segment",
                        "rows_total", "rows_dead")
        missing = [key for key in required if key not in manifest]
        if missing:
            raise IndexCorruptionError(
                f"incomplete store manifest {self._manifest_path}: "
                f"missing keys {missing} (partially written?)",
                details={"path": self._manifest_path, "kind": kind,
                         "missing": missing},
            )
        return manifest

    def manifest(self) -> dict[str, Any]:
        """The committed manifest, validated (a fresh copy per call)."""
        return self._read_manifest()

    def _check_sizes(self, manifest: dict[str, Any]) -> None:
        """O(#files) truncation check: stat sizes against the manifest."""
        for rel, entry in self._iter_file_entries(manifest):
            target = os.path.join(self.path, rel)
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
                    f"{actual} bytes on disk, manifest says {entry['bytes']}",
                    details={"path": target, "actual": actual,
                             "expected": entry["bytes"]},
                )

    def _iter_file_entries(self, manifest: dict[str, Any]
                           ) -> Iterable[tuple[str, dict[str, Any]]]:
        for segment in manifest.get("segments", []):
            for name, entry in segment["files"].items():
                yield os.path.join(segment["name"], name), entry
        for name, entry in manifest.get("files", {}).items():
            yield name, entry
        tomb = manifest.get("tombstones")
        if tomb:
            yield tomb["name"], tomb

    def _commit_manifest(self, manifest: dict[str, Any],
                         fault_point: str) -> None:
        """Atomically replace the manifest — the single commit point."""
        os.makedirs(self.path, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path, prefix=MANIFEST_NAME + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=1, sort_keys=True,
                          default=str)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            maybe_fail(fault_point, path=self._manifest_path)
            os.replace(tmp, self._manifest_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise

    # -- segment I/O ------------------------------------------------------

    def _write_segment(self, name: str, arrays: dict[str, np.ndarray],
                       meta: dict[str, Any]) -> dict[str, Any]:
        """Write one complete segment directory; return its manifest entry.

        The directory is fully written and fsynced before the caller
        commits a manifest referencing it.  A pre-existing directory of
        the same name is an orphan from a crashed append — by definition
        unreferenced — and is removed first.
        """
        directory = os.path.join(self.path, name)
        if os.path.isdir(directory):
            logger.info("removing orphan segment %s", directory)
            shutil.rmtree(directory)
        os.makedirs(directory)
        files: dict[str, dict[str, Any]] = {}
        for column, array in arrays.items():
            filename = f"{column}.npy"
            target = os.path.join(directory, filename)
            _fsync_write(target,
                         lambda fh, a=array: np.save(fh, np.ascontiguousarray(a)))
            files[filename] = _file_entry(target)
        meta_target = os.path.join(directory, "meta.json")
        payload = json.dumps(meta, sort_keys=True, default=str)
        _fsync_write(meta_target, lambda fh: fh.write(payload.encode()))
        files["meta.json"] = _file_entry(meta_target)
        return {"name": name, "files": files}

    def _load_segment_arrays(self, segment: dict[str, Any],
                             mmap: bool) -> dict[str, np.ndarray]:
        directory = os.path.join(self.path, segment["name"])
        arrays: dict[str, np.ndarray] = {}
        mode = "r" if mmap else None
        for filename in segment["files"]:
            if not filename.endswith(".npy"):
                continue
            target = os.path.join(directory, filename)
            try:
                arrays[filename[:-len(".npy")]] = np.load(
                    target, mmap_mode=mode, allow_pickle=False)
            except (OSError, ValueError, EOFError) as exc:
                raise IndexCorruptionError(
                    f"corrupt store file {target}: {exc}",
                    details={"path": target, "cause": type(exc).__name__},
                ) from exc
        return arrays

    def _load_columns(self, segment: dict[str, Any],
                      names: Sequence[str], mmap: bool
                      ) -> dict[str, np.ndarray]:
        """Load specific columns of one segment (not the whole directory).

        The row-addressed read path uses this so touching one row never
        materializes unrelated columns: with ``mmap=True`` each file is
        opened as a read-only view, with ``mmap=False`` only the named
        columns are copied into RAM.
        """
        directory = os.path.join(self.path, segment["name"])
        mode = "r" if mmap else None
        out: dict[str, np.ndarray] = {}
        for name in names:
            filename = f"{name}.npy"
            if filename not in segment["files"]:
                raise IndexCorruptionError(
                    f"segment {segment['name']} of {self.path} has no "
                    f"column {filename}",
                    details={"path": directory, "column": filename},
                )
            target = os.path.join(directory, filename)
            try:
                out[name] = np.load(target, mmap_mode=mode,
                                    allow_pickle=False)
            except (OSError, ValueError, EOFError) as exc:
                raise IndexCorruptionError(
                    f"corrupt store file {target}: {exc}",
                    details={"path": target, "cause": type(exc).__name__},
                ) from exc
        return out

    def _read_segment_meta(self, segment: dict[str, Any]) -> dict[str, Any]:
        target = os.path.join(self.path, segment["name"], "meta.json")
        try:
            with open(target, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise IndexCorruptionError(
                f"corrupt segment meta {target}: {exc}",
                details={"path": target, "cause": type(exc).__name__},
            ) from exc

    # -- tombstones -------------------------------------------------------

    def _write_tombstones(self, ordinal: int, rows: int,
                          dead: set[int]) -> dict[str, Any]:
        name = f"tombstones-{ordinal:06d}.npy"
        bits = np.zeros(rows, dtype=bool)
        if dead:
            bits[np.fromiter(dead, dtype=np.int64)] = True
        target = os.path.join(self.path, name)
        _fsync_write(target, lambda fh: np.save(fh, np.packbits(bits)))
        entry = _file_entry(target)
        entry["name"] = name
        entry["rows"] = rows
        return entry

    def _load_tombstones(self, manifest: dict[str, Any]) -> set[int]:
        tomb = manifest.get("tombstones")
        if not tomb:
            return set()
        target = os.path.join(self.path, tomb["name"])
        try:
            packed = np.load(target, allow_pickle=False)
        except (OSError, ValueError, EOFError) as exc:
            raise IndexCorruptionError(
                f"corrupt tombstone bitmap {target}: {exc}",
                details={"path": target, "cause": type(exc).__name__},
            ) from exc
        bits = np.unpackbits(packed, count=int(tomb["rows"]))
        return {int(i) for i in np.flatnonzero(bits)}

    def _collect_garbage(self, manifest: dict[str, Any]) -> None:
        """Drop files/directories the committed manifest no longer names."""
        keep = {segment["name"] for segment in manifest.get("segments", [])}
        keep.update(manifest.get("shards", []))
        tomb = manifest.get("tombstones")
        if tomb:
            keep.add(tomb["name"])
        keep.update(manifest.get("files", {}))
        keep.add(MANIFEST_NAME)
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
        latter becomes a top-level manifest plus one nested store per
        shard, shards written first, manifest last).  Also serves as the
        *merge* target: rewriting an existing store folds all segments
        into a new base and garbage-collects the old ones.  Returns the
        store path; an I/O failure raises ``StorageError`` and leaves
        the previously committed snapshot (if any) intact — and this
        store unbound, so the next :meth:`checkpoint` writes in full.
        """
        with self._mutate_lock, OBS.span("storage.columnar.write"), \
                self._unbind_on_error():
            try:
                if getattr(index, "shards", None) is not None:
                    return self._write_sharded(index)
                return self._write_base(index)
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
            self._bound = False
            raise

    def _write_base(self, index: Any) -> str:
        arrays, meta = index_to_arrays(index)
        try:
            manifest = self._read_manifest() if self.exists() else None
        except IndexCorruptionError:
            # An unreadable manifest commits nothing worth protecting;
            # a full write must be able to replace it (crash recovery).
            manifest = None
        if manifest is not None and manifest["kind"] != _KIND_INDEX:
            ordinal = 0
        else:
            ordinal = manifest["next_segment"] if manifest else 0
        os.makedirs(self.path, exist_ok=True)
        name = f"seg-{ordinal:06d}"
        rows = len(meta["refs"])
        segment = self._write_segment(name, arrays, dict(meta, kind="base",
                                                         rows=rows))
        segment.update(kind="base", rows=rows)
        self._commit_manifest({
            "format": COLUMNAR_FORMAT,
            "format_version": COLUMNAR_VERSION,
            "kind": _KIND_INDEX,
            "next_segment": ordinal + 1,
            "rows_total": rows,
            "rows_dead": 0,
            "segments": [segment],
            "tombstones": None,
        }, "storage.write")
        self._collect_garbage(self._read_manifest())
        if maybe_truncate("storage.write",
                          os.path.join(self.path, name, "og_values.npy")):
            logger.warning("injected truncation in segment %s", name)
        self._row_of = {og.og_id: i
                        for i, (og, _) in enumerate(leaf_ogs(index))}
        self._rows = rows
        self._dead = set()
        self._bound = True
        OBS.count("storage.columnar.writes")
        return self.path

    def _write_sharded(self, index: Any) -> str:
        os.makedirs(self.path, exist_ok=True)
        shard_names = []
        for ordinal, shard in enumerate(index.shards):
            name = f"shard-{ordinal}"
            shard_store = ColumnarStore(os.path.join(self.path, name),
                                        normalize=False)
            shard_store.write_index(shard)
            shard_names.append(name)
        pivots = index.pivots if index.pivots is not None else []
        pivot_flat, pivot_offsets = _pack_ragged(list(pivots))
        files = {}
        for column, array in (("pivot_values", pivot_flat),
                              ("pivot_offsets", pivot_offsets)):
            target = os.path.join(self.path, f"{column}.npy")
            _fsync_write(target,
                         lambda fh, a=array: np.save(fh, np.ascontiguousarray(a)))
            files[f"{column}.npy"] = _file_entry(target)
        self._commit_manifest({
            "format": COLUMNAR_FORMAT,
            "format_version": COLUMNAR_VERSION,
            "kind": _KIND_SHARDED,
            "num_shards": len(index.shards),
            "has_pivots": index.pivots is not None,
            "serving_config": index.serving_config(),
            "shards": shard_names,
            "files": files,
        }, "storage.write")
        self._collect_garbage(self._read_manifest())
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
            manifest = self._read_manifest()
            self._check_sizes(manifest)
            if manifest["kind"] == _KIND_SHARDED:
                return self._load_sharded(manifest, mmap)
            segments = manifest["segments"]
            if not segments or segments[0]["kind"] != "base":
                raise IndexCorruptionError(
                    f"store {self.path} has no base segment",
                    details={"path": self.path,
                             "segments": [s["name"] for s in segments]},
                )
            index, row_ogs = self._materialize_base(segments[0], mmap)
            dead: set[int] = set()
            for segment in segments[1:]:
                self._replay_delta(index, segment, row_ogs, dead, mmap)
            tombstoned = self._load_tombstones(manifest)
            if tombstoned != dead or len(dead) != manifest["rows_dead"]:
                raise IndexCorruptionError(
                    f"tombstone bitmap of {self.path} disagrees with the "
                    f"delta log ({len(tombstoned)} bitmap vs {len(dead)} "
                    "replayed dead rows)",
                    details={"path": self.path, "bitmap": len(tombstoned),
                             "replayed": len(dead),
                             "manifest": manifest["rows_dead"]},
                )
            if len(row_ogs) != manifest["rows_total"]:
                raise IndexCorruptionError(
                    f"row count mismatch in {self.path}: replay produced "
                    f"{len(row_ogs)} rows, manifest says "
                    f"{manifest['rows_total']}",
                    details={"path": self.path, "replayed": len(row_ogs),
                             "manifest": manifest["rows_total"]},
                )
            self._row_of = {og.og_id: row for row, og in enumerate(row_ogs)}
            self._rows = len(row_ogs)
            self._dead = dead
            self._bound = True
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

    def _materialize_base(self, segment: dict[str, Any], mmap: bool):
        arrays = self._load_segment_arrays(segment, mmap)
        meta = self._read_segment_meta(segment)
        try:
            index = index_from_arrays(
                arrays, meta,
                source=os.path.join(self.path, segment["name"]))
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            raise IndexCorruptionError(
                f"cannot materialize base segment of {self.path}: {exc}",
                details={"path": self.path, "segment": segment["name"],
                         "cause": type(exc).__name__},
            ) from exc
        return index, [og for og, _ in leaf_ogs(index)]

    def _replay_delta(self, index: Any, segment: dict[str, Any],
                      row_ogs: list, dead: set[int], mmap: bool) -> None:
        arrays = self._load_segment_arrays(segment, mmap)
        meta = self._read_segment_meta(segment)
        try:
            ops = meta["ops"]
            refs = meta["refs"]
            values = _unpack_ragged(arrays["og_values"],
                                    arrays["og_offsets"])
            frames = _unpack_ragged(arrays["og_frames"],
                                    arrays["og_offsets"])
            labels = arrays["og_labels"]
            backgrounds = (_unpack_backgrounds(arrays)
                           if "bg_frames" in arrays else [])
            inserted = 0
            for op in ops:
                code, operand = op[0], int(op[1])
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
                elif code == "d":
                    index.delete(row_ogs[operand].og_id)
                    dead.add(operand)
                else:
                    raise ValueError(f"unknown op code {code!r}")
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            raise IndexCorruptionError(
                f"cannot replay delta segment {segment['name']} of "
                f"{self.path}: {exc}",
                details={"path": self.path, "segment": segment["name"],
                         "cause": type(exc).__name__},
            ) from exc

    def read_sharding(self, manifest: dict[str, Any], mmap: bool = False
                      ) -> tuple[dict[str, Any], list[np.ndarray] | None]:
        """``(serving_config, pivots)`` of a sharded root store — what
        :meth:`ShardedIndex.from_shards` needs besides the shards."""
        try:
            serving = dict(manifest["serving_config"])
            if not manifest["has_pivots"]:
                return serving, None
            values = np.load(
                os.path.join(self.path, "pivot_values.npy"),
                mmap_mode="r" if mmap else None, allow_pickle=False)
            offsets = np.load(
                os.path.join(self.path, "pivot_offsets.npy"),
                allow_pickle=False)
            return serving, _unpack_ragged(values, offsets)
        except (OSError, ValueError, EOFError, TypeError, KeyError) as exc:
            raise IndexCorruptionError(
                f"cannot read sharded store {self.path}: {exc}",
                details={"path": self.path, "cause": type(exc).__name__},
            ) from exc

    def _load_sharded(self, manifest: dict[str, Any], mmap: bool) -> Any:
        from repro.serving.sharding import ShardedIndex

        shards = []
        for name in manifest["shards"]:
            shard_store = ColumnarStore(os.path.join(self.path, name),
                                        normalize=False)
            shards.append(shard_store.load_index(mmap=mmap))
        if not shards:
            raise IndexCorruptionError(
                f"sharded store {self.path} lists no shards",
                details={"path": self.path},
            )
        serving, pivots = self.read_sharding(manifest, mmap)
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
        manifest = self._read_manifest()
        self._check_sizes(manifest)
        if manifest["kind"] != _KIND_INDEX:
            raise StorageError(
                f"sharded store {self.path} has no global row space; "
                "open the shard stores individually")
        return ColumnarRowReader(self, manifest, mmap)

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
        and the result is cross-checked against the committed tombstone
        bitmap.

        Shard ``s`` numbers its og_ids from the row count of the shards
        before it, so ids are unique across the list and ``(distance,
        og_id)`` ties resolve shard-then-row — the order the
        materialized ``ShardedIndex`` gets by minting ids in load order.

        Returns ``None`` when a part holds no persisted sketch; callers
        fall back to materializing the index.
        """
        with OBS.span("storage.columnar.load_sketch", mmap=mmap):
            manifest = self._read_manifest()
            self._check_sizes(manifest)
            if manifest["kind"] == _KIND_INDEX:
                sketch = self._attach_sketch(manifest, distance, mmap, 0)
                return None if sketch is None else [sketch]
            sketches = []
            id_base = 0
            for name in manifest["shards"]:
                shard = ColumnarStore(os.path.join(self.path, name),
                                      normalize=False)
                shard_manifest = shard._read_manifest()
                shard._check_sizes(shard_manifest)
                if (shard_manifest["rows_total"]
                        > shard_manifest["rows_dead"]):
                    sketch = shard._attach_sketch(shard_manifest, distance,
                                                  mmap, id_base)
                    if sketch is None:
                        return None
                    sketches.append(sketch)
                id_base += shard_manifest["rows_total"]
            return sketches

    def _attach_sketch(self, manifest: dict[str, Any], distance: Any,
                       mmap: bool, id_base: int) -> Any:
        """The store-attached sketch of one index store, its og_ids
        numbered from ``id_base`` (see :meth:`load_sketch`)."""
        from repro.distance.eged import MetricEGED
        from repro.search.sketch import SketchRows

        segments = manifest["segments"]
        if not segments or segments[0].get("kind") != "base":
            raise IndexCorruptionError(
                f"store {self.path} has no base segment",
                details={"path": self.path,
                         "segments": [s["name"] for s in segments]},
            )
        base = segments[0]
        meta = self._read_segment_meta(base)
        sketch_meta = meta.get("sketch_meta")
        if sketch_meta is None:
            return None
        base_rows = int(base["rows"])
        reader = ColumnarRowReader(self, manifest, mmap, id_base)
        # The pivots are a few series: read them, map the per-row columns.
        columns = self._load_columns(base, SKETCH_COLUMNS[:2], mmap=False)
        columns.update(self._load_columns(base, SKETCH_COLUMNS[2:], mmap))
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
        for segment in segments[1:]:
            seg_meta = self._read_segment_meta(segment)
            ins_rows: list[int] = []
            dels: list[int] = []
            try:
                for op in seg_meta["ops"]:
                    code, operand = op[0], int(op[1])
                    if code == "i":
                        ins_rows.append(next_row)
                        next_row += 1
                    elif code == "d":
                        dels.append(operand)
                    else:
                        raise ValueError(f"unknown op code {code!r}")
            except (KeyError, ValueError, TypeError,
                    IndexError) as exc:
                raise IndexCorruptionError(
                    f"cannot replay delta segment {segment['name']} "
                    f"of {self.path}: {exc}",
                    details={"path": self.path,
                             "segment": segment["name"],
                             "cause": type(exc).__name__},
                ) from exc
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
                        f"delta segment {segment['name']} of "
                        f"{self.path} deletes unknown row {row}",
                        details={"path": self.path,
                                 "segment": segment["name"],
                                 "row": row},
                    )
        live = manifest["rows_total"] - manifest["rows_dead"]
        if next_row != manifest["rows_total"] or len(sketch) != live:
            raise IndexCorruptionError(
                f"sketch replay of {self.path} disagrees with the "
                f"manifest ({len(sketch)} live rows vs {live})",
                details={"path": self.path, "live": len(sketch),
                         "manifest": live,
                         "rows": next_row,
                         "rows_total": manifest["rows_total"]},
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
            manifest = self._read_manifest()
            if manifest["kind"] != _KIND_INDEX:
                raise StorageError(
                    f"cannot append to {self.path}: sharded columnar "
                    "stores are write/load-only — append to the shard "
                    "stores or rewrite with write_index()")
            if not self._bound:
                raise StorageError(
                    f"cannot append to {self.path}: store rows are not "
                    "bound to this process (call load_index() or "
                    "write_index() first)")
            with OBS.span("storage.columnar.append", writes=len(writes)):
                return self._append_locked(manifest, writes)

    def _append_locked(self, manifest: dict[str, Any],
                       writes: Sequence[Any]) -> str | None:
        ops: list[list] = []
        insert_ogs: list[Any] = []
        insert_refs: list[Any] = []
        delta_backgrounds: list[Any] = []
        bg_ordinal: dict[int, int] = {}
        overlay: dict[int, int] = {}
        rows = self._rows
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
                if row is None or row in self._dead or row in new_dead:
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
        ordinal = manifest["next_segment"]
        name = f"seg-{ordinal:06d}"
        segment = self._write_segment(name, arrays, {
            "kind": "delta", "ops": ops, "refs": insert_refs,
        })
        segment.update(kind="delta", rows=len(insert_ogs))
        dead = set(self._dead)
        dead.update(new_dead)
        tombstones = self._write_tombstones(ordinal, rows, dead)
        manifest = dict(manifest)
        manifest["segments"] = manifest["segments"] + [segment]
        manifest["next_segment"] = ordinal + 1
        manifest["rows_total"] = rows
        manifest["rows_dead"] = len(dead)
        manifest["tombstones"] = tombstones
        self._commit_manifest(manifest, "storage.append")
        self._collect_garbage(manifest)
        if maybe_truncate(
                "storage.append",
                os.path.join(self.path, name, "og_values.npy")):
            logger.warning("injected truncation in segment %s", name)
        self._row_of.update(overlay)
        self._rows = rows
        self._dead = dead
        OBS.count("storage.columnar.appends")
        OBS.gauge("storage.columnar.segments", len(manifest["segments"]))
        return name

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
        manifest = self._read_manifest()
        if manifest["kind"] != _KIND_INDEX:
            return False
        if len(manifest["segments"]) > self.merge_max_segments:
            return True
        total = max(manifest["rows_total"], 1)
        return manifest["rows_dead"] / total > self.merge_dead_fraction

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
        """Full integrity pass: re-hash every file against the manifest.

        This is the O(corpus) deep check that the O(1) open deliberately
        skips; ``convert`` runs it after every import and crash recovery
        before trusting a snapshot.  Returns
        ``{"files": n, "bytes": n}`` or raises ``IndexCorruptionError``.
        """
        manifest = self._read_manifest()
        self._check_sizes(manifest)
        files = 0
        total = 0
        for rel, entry in self._iter_file_entries(manifest):
            target = os.path.join(self.path, rel)
            actual = _sha256_file(target)
            if actual != entry["sha256"]:
                raise IndexCorruptionError(
                    f"checksum mismatch in {target}: payload was altered "
                    "on disk",
                    details={"path": target, "expected": entry["sha256"],
                             "actual": actual},
                )
            files += 1
            total += entry["bytes"]
        for name in manifest.get("shards", []):
            shard = ColumnarStore(os.path.join(self.path, name),
                                  normalize=False)
            report = shard.verify()
            files += report["files"]
            total += report["bytes"]
        return {"files": files, "bytes": total}

    def describe(self) -> dict[str, Any]:
        """Small stats dict for CLI/status output."""
        manifest = self._read_manifest()
        info: dict[str, Any] = {
            "path": self.path,
            "kind": manifest["kind"],
        }
        if manifest["kind"] == _KIND_SHARDED:
            info["num_shards"] = manifest["num_shards"]
            return info
        info.update(
            segments=len(manifest["segments"]),
            rows_total=manifest["rows_total"],
            rows_dead=manifest["rows_dead"],
            bytes=sum(entry["bytes"] for _, entry
                      in self._iter_file_entries(manifest)),
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
    that row's pages, never a whole segment.  Segment columns and metas
    load lazily on first touch, so a reader over a million-row store
    costs a few manifest stats until a row is actually read.

    Records are ``ObjectGraph``s minted with ``og_id = id_base + row
    ordinal`` — the one identity that is stable across processes —
    which is what keeps out-of-core rerank tie-breaking bit-identical
    to the materialized index (whose fresh og_ids are minted in the
    same row order).  ``id_base`` is 0 for a store read on its own; a
    shard of a sharded store gets the row count of the shards before
    it, so og_ids (``ObjectGraph`` equality and hashing are by og_id)
    stay unique across the shards' readers.
    """

    def __init__(self, store: ColumnarStore, manifest: dict[str, Any],
                 mmap: bool = True, id_base: int = 0):
        if manifest["kind"] != _KIND_INDEX:
            raise StorageError(
                f"sharded store {store.path} has no global row space")
        segments = manifest["segments"]
        if not segments or segments[0].get("kind") != "base":
            raise IndexCorruptionError(
                f"store {store.path} has no base segment",
                details={"path": store.path,
                         "segments": [s["name"] for s in segments]},
            )
        self._store = store
        self._mmap = bool(mmap)
        self._id_base = int(id_base)
        self._segments = list(segments)
        self._columns: list[tuple | None] = [None] * len(segments)
        self._refs: list[list | None] = [None] * len(segments)
        starts = [0]
        for segment in segments:
            starts.append(starts[-1] + int(segment["rows"]))
        self._starts = starts
        self._rows_total = int(manifest["rows_total"])
        if starts[-1] != self._rows_total:
            raise IndexCorruptionError(
                f"segment row counts of {store.path} sum to "
                f"{starts[-1]}, manifest says {self._rows_total}",
                details={"path": store.path, "sum": starts[-1],
                         "manifest": self._rows_total},
            )
        self._dead = store._load_tombstones(manifest)

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

    def _part_columns(self, part: int) -> tuple:
        """``(values, offsets, frames, labels)`` of one segment.

        Held as base-class ``ndarray`` views of the maps: still
        zero-copy, but a slice skips ``np.memmap``'s per-``__getitem__``
        subclass bookkeeping (3x the cost of the slice itself).
        """
        columns = self._columns[part]
        if columns is None:
            names = ("og_values", "og_offsets", "og_frames", "og_labels")
            loaded = self._store._load_columns(self._segments[part], names,
                                               self._mmap)
            columns = tuple(loaded[name].view(np.ndarray) for name in names)
            self._columns[part] = columns
        return columns

    def _part_refs(self, part: int) -> list:
        refs = self._refs[part]
        if refs is None:
            meta = self._store._read_segment_meta(self._segments[part])
            refs = meta.get("refs") or []
            self._refs[part] = refs
        return refs

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
        refs = self._part_refs(part)
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
]
