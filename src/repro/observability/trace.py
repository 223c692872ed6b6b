"""Nestable spans: wall time, CPU time and optional ``tracemalloc`` peaks.

A :class:`Span` measures one named region of the pipeline
(``index.knn``, ``clustering.em.fit``, ``ingest.job`` ...) and nests
under whatever span is active on the current thread, so a full
``ingest -> build -> knn`` run produces one tree per top-level
operation.  Two export forms:

- :meth:`Tracer.to_jsonl` — one JSON object per span (flat, with
  ``span_id``/``parent_id`` links) so traces stream to files and grep
  cleanly;
- :meth:`Tracer.render_tree` — an indented human-readable tree with
  wall/CPU milliseconds per span.

The span stack is thread-local: concurrent threads each build their own
trees.  Finished *root* spans accumulate on the tracer (bounded by
``max_roots``, oldest dropped first).
"""

from __future__ import annotations

import json
import threading
import time
import tracemalloc

#: Hard bound on retained root spans (oldest evicted beyond it).
DEFAULT_MAX_ROOTS = 4096


class Span:
    """One timed region.  Use via :meth:`Tracer.span`::

        with tracer.span("index.knn", k=5) as span:
            ...
            span.set(hits=len(best))

    Recorded fields: ``wall_s`` (perf-counter), ``cpu_s``
    (process time), ``started`` (epoch seconds) and — when memory
    profiling is on — ``mem_kb`` (net allocation delta) and
    ``mem_peak_kb`` (the process-wide traced peak at span end).
    """

    __slots__ = ("name", "attrs", "children", "started", "wall_s", "cpu_s",
                 "mem_kb", "mem_peak_kb", "error", "_tracer", "_t0", "_cpu0",
                 "_mem0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.started = time.time()
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.mem_kb: float | None = None
        self.mem_peak_kb: float | None = None
        self.error: str | None = None
        self._tracer = tracer

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes mid-span (e.g. result sizes)."""
        self.attrs.update(attrs)
        return self

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._mem0 = (tracemalloc.get_traced_memory()[0]
                      if self._tracer.trace_memory and tracemalloc.is_tracing()
                      else None)
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._cpu0
        if self._mem0 is not None and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            self.mem_kb = (current - self._mem0) / 1024.0
            self.mem_peak_kb = peak / 1024.0
        if exc_type is not None:
            self.error = exc_type.__name__
        self._tracer._pop(self)

    # -- export ---------------------------------------------------------------

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "started": self.started,
            "wall_ms": round(self.wall_s * 1e3, 3),
            "cpu_ms": round(self.cpu_s * 1e3, 3),
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.mem_kb is not None:
            out["mem_kb"] = round(self.mem_kb, 1)
            out["mem_peak_kb"] = round(self.mem_peak_kb, 1)
        if self.error is not None:
            out["error"] = self.error
        return out

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, wall={self.wall_s * 1e3:.1f}ms, "
                f"children={len(self.children)})")


class Tracer:
    """Collects span trees per thread; exports JSONL and text trees."""

    def __init__(self, max_roots: int = DEFAULT_MAX_ROOTS,
                 trace_memory: bool = False):
        self.max_roots = max_roots
        self.trace_memory = trace_memory
        self.roots: list[Span] = []
        self._local = threading.local()

    # -- span lifecycle -------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """A new span nesting under the thread's active span (if any)."""
        return Span(self, name, attrs)

    def current(self) -> Span | None:
        """The innermost active span on this thread (``None`` outside)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        if not stack:
            self.roots.append(span)
            if len(self.roots) > self.max_roots:
                del self.roots[: len(self.roots) - self.max_roots]

    def reset(self) -> None:
        """Drop finished roots (active spans keep recording)."""
        self.roots.clear()

    # -- export ---------------------------------------------------------------

    def _flat(self):
        """DFS over all finished trees as ``(span, span_id, parent_id)``."""
        next_id = 0
        for root in self.roots:
            stack = [(root, None)]
            while stack:
                span, parent_id = stack.pop()
                span_id = next_id
                next_id += 1
                yield span, span_id, parent_id
                for child in reversed(span.children):
                    stack.append((child, span_id))

    def to_jsonl(self) -> str:
        """One JSON object per finished span (parents before children)."""
        lines = []
        for span, span_id, parent_id in self._flat():
            record = {"span_id": span_id, "parent_id": parent_id}
            record.update(span.as_dict())
            lines.append(json.dumps(record, default=str))
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    def span_names(self) -> set[str]:
        """All span names in the finished trees (handy for assertions)."""
        return {span.name for span, _, _ in self._flat()}

    def render_tree(self) -> str:
        """Indented text rendering of every finished span tree."""
        lines: list[str] = []

        def visit(span: Span, depth: int) -> None:
            attrs = ""
            if span.attrs:
                inner = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
                attrs = f"  [{inner}]"
            mem = ""
            if span.mem_peak_kb is not None:
                mem = f"  peak={span.mem_peak_kb:.0f}KB"
            lines.append(
                f"{'  ' * depth}{span.name}  "
                f"wall={span.wall_s * 1e3:.1f}ms cpu={span.cpu_s * 1e3:.1f}ms"
                f"{mem}{attrs}"
            )
            for child in span.children:
                visit(child, depth + 1)

        for root in self.roots:
            visit(root, 0)
        return "\n".join(lines)
