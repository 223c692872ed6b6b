"""``repro.observability`` — tracing, metrics and profiling for the pipeline.

One switch turns the whole subsystem on::

    from repro import observability

    observability.configure(enabled=True)
    db = repro.open_database()
    db.ingest(video)
    hits = db.knn(example, k=5)

    print(observability.render_trace_tree())       # nested span timings
    print(observability.export_metrics_prometheus())
    observability.export_trace_jsonl("trace.jsonl")

Design
------
- A process-global :class:`~repro.observability.trace.Tracer` records
  nestable spans (wall time, CPU time, optional ``tracemalloc`` peaks)
  for every pipeline stage: ``ingest.job``,
  ``pipeline.segmentation``, ``pipeline.tracking``,
  ``pipeline.decomposition``, ``index.build``, ``clustering.em.fit``,
  ``index.knn`` and friends.
- A process-global
  :class:`~repro.observability.registry.MetricsRegistry` holds counters,
  gauges and histograms (``distance.pairs_computed``, ``cache.hits``,
  ``index.leaf_scans``, ``mtree.node_visits``, ``em.iterations``,
  ``ingest.jobs_quarantined`` ...), exportable as JSON and as
  Prometheus text format.
- Everything is **off by default**.  Disabled, every hook is a single
  attribute check — the instrumented kernels run at their PR 2 speed
  (``benchmarks/bench_observability.py`` holds the overhead under 3%).

Instrumented modules import the :data:`OBS` singleton and guard on
``OBS.enabled``; user code should only use the module-level functions
(:func:`configure`, :func:`span`, :func:`metrics`, the exporters).

See ``docs/OBSERVABILITY.md`` for the span/metric naming scheme.
"""

from __future__ import annotations

import json
import tracemalloc
from typing import Any

from repro.observability.registry import (
    DEFAULT_BUCKETS,
    CacheStats,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.trace import Span, Tracer

__all__ = [
    "CacheStats",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS",
    "Span",
    "Tracer",
    "configure",
    "count",
    "export_metrics_json",
    "export_metrics_prometheus",
    "export_trace_jsonl",
    "gauge",
    "is_enabled",
    "metrics",
    "observe",
    "registry",
    "render_trace_tree",
    "reset",
    "span",
    "tracer",
]


class _NullSpan:
    """Reusable no-op stand-in returned while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Observability:
    """Process-global observability state (use the :data:`OBS` singleton).

    Hot paths read :attr:`enabled` directly — one attribute access —
    and only touch the registry/tracer when it is ``True``.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self):
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    # -- hooks used by instrumented modules -----------------------------------

    def span(self, name: str, **attrs):
        """A traced span when enabled; a shared no-op otherwise."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **attrs)

    def count(self, name: str, n: int | float = 1) -> None:
        if self.enabled:
            self.registry.counter(name).inc(n)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.registry.gauge(name).set(value)

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if self.enabled:
            self.registry.histogram(name, buckets).observe(value)


#: The singleton every instrumented module guards on.
OBS = Observability()


def configure(enabled: bool = True, *,
              registry: MetricsRegistry | None = None,
              tracer: Tracer | None = None,
              trace_memory: bool | None = None,
              reset_state: bool = False) -> Observability:
    """Turn observability on or off (process-global).

    Parameters
    ----------
    enabled:
        Master switch.  Disabled (the default state) every hook costs a
        single attribute check.
    registry, tracer:
        Swap in fresh sinks (e.g. per test).  Omitted, the current ones
        are kept.
    trace_memory:
        Record ``tracemalloc`` allocation deltas and peaks per span.
        Starts ``tracemalloc`` if it is not already tracing (this slows
        allocation-heavy code — profiling only).
    reset_state:
        Clear the (kept or new) registry and tracer before returning.
    """
    if registry is not None:
        OBS.registry = registry
    if tracer is not None:
        OBS.tracer = tracer
    if trace_memory is not None:
        OBS.tracer.trace_memory = trace_memory
        if trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
    if reset_state:
        OBS.registry.reset()
        OBS.tracer.reset()
    OBS.enabled = bool(enabled)
    return OBS


def is_enabled() -> bool:
    """Whether instrumentation hooks are live."""
    return OBS.enabled


def span(name: str, **attrs):
    """Context manager timing a named region (no-op while disabled)."""
    return OBS.span(name, **attrs)


def count(name: str, n: int | float = 1) -> None:
    """Increment a counter (no-op while disabled)."""
    OBS.count(name, n)


def gauge(name: str, value: float) -> None:
    """Set a gauge (no-op while disabled)."""
    OBS.gauge(name, value)


def observe(name: str, value: float,
            buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
    """Record a histogram observation (no-op while disabled)."""
    OBS.observe(name, value, buckets)


def registry() -> MetricsRegistry:
    """The live metrics registry."""
    return OBS.registry


def tracer() -> Tracer:
    """The live tracer."""
    return OBS.tracer


def _collect_ambient() -> None:
    """Fold ambient library state into the registry before export.

    Today that is the process-wide distance cache: its
    :class:`CacheStats` counters surface as ``cache.*`` gauges so the
    one registry answers for the whole system — the blessed replacement
    for reaching into ``repro.distance.cache`` internals.
    """
    from repro.distance.cache import get_default_cache

    cache = get_default_cache()
    if cache is None:
        return
    for key, value in cache.stats.as_dict().items():
        OBS.registry.gauge(f"cache.{key}").set(value)
    OBS.registry.gauge("cache.entries").set(len(cache))


def metrics() -> dict[str, Any]:
    """Unified flat snapshot of every metric (including cache stats).

    Works with observability disabled too: ambient state (the distance
    cache) is collected at call time, so ``metrics()["cache.hits"]`` is
    always current.
    """
    _collect_ambient()
    return OBS.registry.as_dict()


def export_metrics_json(path=None) -> str:
    """Metrics snapshot as a JSON document (optionally written to ``path``)."""
    text = json.dumps(metrics(), indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def export_metrics_prometheus(path=None) -> str:
    """Metrics snapshot in Prometheus text exposition format."""
    _collect_ambient()
    text = OBS.registry.to_prometheus()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def export_trace_jsonl(path=None) -> str:
    """Finished span trees as JSONL (optionally written to ``path``)."""
    text = OBS.tracer.to_jsonl()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def render_trace_tree() -> str:
    """Finished span trees as an indented text tree."""
    return OBS.tracer.render_tree()


def reset() -> None:
    """Clear all collected metrics and finished spans (keeps the switch)."""
    OBS.registry.reset()
    OBS.tracer.reset()
