"""Timing wrappers installed *from outside* on the layers' public callables.

The benchmark changes no file under ``src/``, so a layer is timed by
wrapping the functions other code calls it through (``TARGETS``): every
call becomes a span — name, layer, start, end, parent — kept in memory
and written out as JSONL when the run ends.  A span's parent is the span
open on the same thread; a client span opened with ``adopt=True`` also
adopts spans that start on other threads while it is open (the HTTP
frontend answers on its own threads, and with one closed-loop client the
attribution is unambiguous).  A layer's self time is its spans' duration
minus the part their child spans cover.

Wrappers do not cross the ``spawn`` boundary: a worker process imports a
fresh, unwrapped ``repro``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: ``(module, qualified name, layer)`` of every wrapped public callable.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.serving.net", "request_json", "serving.net"),
    ("repro.serving.workers", "WorkerPool.start", "serving.workers"),
    ("repro.serving.workers", "WorkerPool.knn", "serving.workers"),
    ("repro.serving.sharding", "ShardedIndex.build", "serving.sharding"),
    ("repro.serving.sharding", "ShardedIndex.knn", "serving.sharding"),
    ("repro.search.sketch", "SketchIndex.build", "search"),
    ("repro.search.sketch", "SketchIndex.add", "search"),
    ("repro.search.sketch", "SketchIndex.candidates", "search"),
    ("repro.search.sketch", "approx_knn", "search"),
    ("repro.storage.columnar", "ColumnarRowReader.series", "storage"),
    ("repro.storage.columnar", "ColumnarRowReader.record", "storage"),
    ("repro.storage.columnar", "ColumnarStore.write_index", "storage"),
    ("repro.storage.columnar", "ColumnarStore.load_index", "storage"),
    ("repro.storage.columnar", "ColumnarStore.load_sketch", "storage"),
    ("repro.storage.columnar", "ColumnarStore.append", "storage"),
    ("repro.storage.columnar", "ColumnarStore.checkpoint", "storage"),
    ("repro.distance.batch", "one_vs_many", "distance"),
    ("repro.distance.batch", "pairwise_matrix", "distance"),
    ("repro.core.index", "STRGIndex.build", "core"),
    ("repro.core.index", "STRGIndex.knn", "core"),
    ("repro.core.index", "STRGIndex.sketch_tier", "core"),
    ("repro.clustering.em", "EMClustering.fit", "clustering"),
    ("repro.video.segmentation", "Segmenter.build_rag", "video"),
    ("repro.video.segmentation", "Segmenter.build_rags", "video"),
    ("repro.graph.tracking", "GraphTracker.track_stream", "graph"),
    ("repro.graph.tracking", "GraphTracker.build_strg", "graph"),
    ("repro.graph.decomposition", "decompose", "graph"),
    ("repro.pipeline", "VideoPipeline.process_clip", "pipeline"),
    ("repro.serving.ingest", "IngestService.submit", "serving.ingest"),
    ("repro.serving.snapshot", "LiveIndex.bulk_insert", "serving.snapshot"),
    ("repro.serving.snapshot", "LiveIndex.compact", "serving.snapshot"),
)

#: Work units of one call, read from outside: the pairs a
#: ``one_vs_many(distance, query, items)`` call evaluates (off its
#: arguments) and the iterations an EM fit ran (off its result).
ARG_SIZES: dict[str, Callable[[tuple, dict], int]] = {
    "one_vs_many": lambda args, kwargs: len(
        kwargs["items"] if "items" in kwargs else args[2]),
}
RESULT_SIZES: dict[str, Callable[[Any], int]] = {
    "EMClustering.fit": lambda result: result.n_iterations,
}

#: Name of the root span of one client operation.
CLIENT_OP = "client.op"

# Span record layout (a list, to keep the per-call cost low).
NAME, LAYER, START, END, PARENT, SIZE = range(6)


class Tracer:
    """In-memory span recorder plus the install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        #: Span stack of the client thread whose open spans adopt spans
        #: started on other threads.
        self._adopting: list[int] | None = None

    # -- recording ------------------------------------------------------

    def _enter(self, name: str, layer: str, size: int = 0) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            adopting = self._adopting
            parent = adopting[-1] if adopting else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, layer, 0.0, 0.0, parent, size])
        stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` recording one span per call."""
        qualname = name.split(":", 1)[-1]
        arg_size = ARG_SIZES.get(qualname)
        result_size = RESULT_SIZES.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name, layer,
                              arg_size(args, kwargs) if arg_size else 0)
            try:
                result = fn(*args, **kwargs)
                if result_size:
                    self.spans[idx][SIZE] = result_size(result)
                return result
            finally:
                self._exit(idx)
        return wrapper

    def client(self, fn: Callable, adopt: bool = False) -> Callable:
        """``fn`` as one client operation: the root span of its request."""
        def wrapper(*args, **kwargs):
            idx = self._enter(CLIENT_OP, "client")
            if adopt:
                self._adopting = self._local.stack
            try:
                return fn(*args, **kwargs)
            finally:
                if adopt:
                    self._adopting = None
                self._exit(idx)
        return wrapper

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        """Wrap every callable in ``TARGETS`` (idempotent per tracer)."""
        if self._patches:
            return
        for module_name, qualname, layer in TARGETS:
            module = importlib.import_module(module_name)
            span_name = f"{layer}:{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                self._patch_method(getattr(module, cls_name), attr,
                                   span_name, layer)
            else:
                self._patch_function(getattr(module, qualname), qualname,
                                     span_name, layer)

    def _patch_method(self, cls: type, attr: str, name: str,
                      layer: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, name, layer))
        else:
            wrapped = self.wrap(raw, name, layer)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, fn: Callable, attr: str, name: str,
                        layer: str) -> None:
        # ``from x import f`` binds ``f`` in the importing module, so
        # every ``repro`` module holding the function is patched.
        wrapped = self.wrap(fn, name, layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            if module.__dict__.get(attr) is fn:
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def summary(self, first: int = 0, last: int | None = None,
                client: bool | None = None) -> dict[str, dict[str, float]]:
        """Per span name over the finished spans ``first <= id < last``:
        ``calls``, ``time`` (total seconds), ``self`` (seconds not
        covered by child spans) and ``size`` (summed work units).

        ``client=True`` keeps only spans whose root is a client
        operation (what one query cost), ``False`` only the others (the
        write or build path running beside or before the queries).
        """
        spans = self.spans
        last = len(spans) if last is None else last
        child_time: dict[int, float] = defaultdict(float)
        under_client: list[bool] = []
        for span in spans[:last]:
            parent = span[PARENT]
            under_client.append(span[NAME] == CLIENT_OP if parent is None
                                else under_client[parent])
            if parent is not None and span[END]:
                child_time[parent] += span[END] - span[START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "time": 0.0, "self": 0.0, "size": 0})
        for idx in range(first, last):
            span = spans[idx]
            if not span[END] or client not in (None, under_client[idx]):
                continue
            duration = span[END] - span[START]
            row = out[span[NAME]]
            row["calls"] += 1
            row["time"] += duration
            row["self"] += duration - child_time[idx]
            row["size"] += span[SIZE]
        return out

    def write_jsonl(self, path: str) -> None:
        """Dump every finished span, one JSON object per line.

        ``request`` is the id of the span's root: spans of one client
        operation share it.
        """
        root_of: list[int] = []
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, layer, start, end, parent, size) in enumerate(
                    self.spans):
                root_of.append(idx if parent is None else root_of[parent])
                if end:
                    fh.write(json.dumps({
                        "id": idx, "name": name, "layer": layer,
                        "start": start, "end": end, "parent": parent,
                        "request": root_of[idx], "size": size,
                    }) + "\n")


def layer_of(span_name: str) -> str:
    """The layer a span name (``layer:qualname``) belongs to."""
    return span_name.split(":", 1)[0]
