"""Fault-injection harness for ingestion and persistence.

Named injection points are compiled into the pipeline and storage layers
(:data:`INJECTION_POINTS`).  Tests and benchmarks install a
:class:`FaultInjector` (via :func:`install` or the :func:`injected`
context manager) that decides — deterministically under a seeded RNG —
whether each point fires, and how:

- ``kind="raise"``    — raise a typed exception (segmenter crash,
  simulated ``OSError`` during a write, ...).
- ``kind="corrupt"``  — transform a value flowing through the point
  (e.g. replace a frame with garbage so downstream validation trips).
- ``kind="truncate"`` — truncate the bytes a storage point just produced,
  simulating a torn write / interrupted copy; with ``error=`` the fault
  then raises it, i.e. the process dies mid-write.

When no injector is installed every hook is a near-free no-op, so
production ingest pays only a module-global ``None`` check.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import (
    CorruptSegmentError,
    InvalidParameterError,
    SegmentationError,
    ShardUnavailableError,
)

#: The named injection points compiled into the library.
INJECTION_POINTS = (
    "segmentation",     # per frame, before the segmenter runs
    "tracking",         # per segment, before STRG assembly
    "decomposition",    # per segment, before OG/BG decomposition
    "storage.write",    # after the temp log is written, before rename
    "storage.read",     # before a persisted file is opened
    "storage.segment",  # per segment file, after its bytes, before fsync
    "storage.sync",     # before the store directory is fsynced
    "storage.append",   # before a delta segment's log record
    "storage.log",      # after a log record is appended and fsynced
    "serving.shard",    # before a shard is scanned during scatter-gather
    "ingest.accept",    # per job, during IngestService admission
    "ingest.process",   # per job attempt, before the clip pipeline runs
    "ingest.commit",    # per job, before OGs stream into the live index
    "ingest.journal",   # per ingest journal record, before it is appended
)

#: Default exception raised per point when a ``raise`` fault fires.
_DEFAULT_ERRORS: dict[str, Callable[[str, int], Exception]] = {
    "segmentation": lambda point, n: SegmentationError(
        f"injected segmenter failure at {point}#{n}"
    ),
    "tracking": lambda point, n: CorruptSegmentError(
        f"injected tracking failure at {point}#{n}",
        details={"point": point, "ordinal": n},
    ),
    "decomposition": lambda point, n: CorruptSegmentError(
        f"injected decomposition failure at {point}#{n}",
        details={"point": point, "ordinal": n},
    ),
    "storage.write": lambda point, n: OSError(
        f"injected I/O failure at {point}#{n}"
    ),
    "storage.read": lambda point, n: OSError(
        f"injected I/O failure at {point}#{n}"
    ),
    "storage.segment": lambda point, n: OSError(
        f"injected I/O failure at {point}#{n}"
    ),
    "storage.sync": lambda point, n: OSError(
        f"injected I/O failure at {point}#{n}"
    ),
    "storage.append": lambda point, n: OSError(
        f"injected I/O failure at {point}#{n}"
    ),
    "storage.log": lambda point, n: OSError(
        f"injected I/O failure at {point}#{n}"
    ),
    "serving.shard": lambda point, n: ShardUnavailableError(
        f"injected shard failure at {point}#{n}",
        details={"point": point, "ordinal": n},
    ),
    "ingest.accept": lambda point, n: OSError(
        f"injected upload failure at {point}#{n}"
    ),
    "ingest.process": lambda point, n: CorruptSegmentError(
        f"injected processing failure at {point}#{n}",
        details={"point": point, "ordinal": n},
    ),
    "ingest.commit": lambda point, n: OSError(
        f"injected commit failure at {point}#{n}"
    ),
    "ingest.journal": lambda point, n: OSError(
        f"injected journal write failure at {point}#{n}"
    ),
}


def _default_corrupt(value: Any) -> Any:
    """Default ``corrupt`` transform: destroy the value entirely."""
    return None


@dataclass
class FaultSpec:
    """One configured fault at one injection point."""

    point: str
    kind: str = "raise"                     # raise | corrupt | truncate
    rate: float = 0.0                       # probabilistic firing
    at: frozenset[int] = field(default_factory=frozenset)  # scripted ordinals
    error: Callable[[str, int], Exception] | type[Exception] | None = None
    transform: Callable[[Any], Any] | None = None
    truncate_to: float = 0.5                # fraction of bytes kept

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise InvalidParameterError(
                f"unknown injection point {self.point!r}; "
                f"expected one of {INJECTION_POINTS}"
            )
        if self.kind not in ("raise", "corrupt", "truncate"):
            raise InvalidParameterError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise InvalidParameterError("rate must be in [0, 1]")
        self.at = frozenset(self.at)

    def make_error(self, ordinal: int) -> Exception:
        if self.error is None:
            return _DEFAULT_ERRORS[self.point](self.point, ordinal)
        if isinstance(self.error, type):
            return self.error(f"injected fault at {self.point}#{ordinal}")
        return self.error(self.point, ordinal)


class FaultInjector:
    """Deterministic fault scheduler over the named injection points.

    Each call into a point increments that point's invocation ordinal;
    a fault fires when the ordinal is in a spec's scripted ``at`` set or
    when the seeded RNG draws below ``rate``.  ``counts`` and ``fired``
    expose per-point telemetry for assertions.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._specs: dict[str, list[FaultSpec]] = {}
        self.counts: Counter[str] = Counter()
        self.fired: Counter[str] = Counter()

    # -- configuration -------------------------------------------------------

    def inject(self, point: str, *, kind: str = "raise", rate: float = 0.0,
               at: Iterator[int] | frozenset[int] = (),
               error: Callable | type[Exception] | None = None,
               transform: Callable[[Any], Any] | None = None,
               truncate_to: float = 0.5) -> "FaultInjector":
        """Register a fault at ``point``; returns ``self`` for chaining."""
        spec = FaultSpec(point=point, kind=kind, rate=rate,
                         at=frozenset(at), error=error,
                         transform=transform, truncate_to=truncate_to)
        self._specs.setdefault(point, []).append(spec)
        return self

    # -- firing decisions ----------------------------------------------------

    def _next(self, point: str, kinds: tuple[str, ...]) -> FaultSpec | None:
        """Advance ``point``'s ordinal and return a firing spec, if any."""
        ordinal = self.counts[point]
        self.counts[point] += 1
        for spec in self._specs.get(point, ()):
            if spec.kind not in kinds:
                continue
            if ordinal in spec.at or (
                spec.rate > 0.0 and self._rng.random() < spec.rate
            ):
                self.fired[point] += 1
                return spec
        return None

    def check(self, point: str, **context: Any) -> None:
        """Raise the configured exception if a ``raise`` fault fires."""
        spec = self._next(point, ("raise",))
        if spec is not None:
            exc = spec.make_error(self.counts[point] - 1)
            if context and hasattr(exc, "details"):
                exc.details.update(context)
            raise exc

    def transform(self, point: str, value: Any) -> Any:
        """Apply a ``corrupt`` transform if one fires; else pass through."""
        spec = self._next(point, ("corrupt",))
        if spec is None:
            return value
        return (spec.transform or _default_corrupt)(value)

    def truncate(self, point: str, path: str | os.PathLike,
                 start: int = 0) -> bool:
        """Truncate the bytes of ``path`` past ``start`` (what the point
        just wrote) if a ``truncate`` fault fires at ``point``; a spec
        with an ``error`` raises it after tearing the write."""
        spec = self._next(point, ("truncate",))
        if spec is None:
            return False
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(start + max(0, int((size - start)
                                           * spec.truncate_to)))
        if spec.error is not None:
            raise spec.make_error(self.counts[point] - 1)
        return True


# -- global installation -----------------------------------------------------

_ACTIVE: FaultInjector | None = None


def install(injector: FaultInjector) -> None:
    """Make ``injector`` the process-wide active injector."""
    global _ACTIVE
    _ACTIVE = injector


def uninstall() -> None:
    """Deactivate fault injection."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultInjector | None:
    """The currently installed injector, if any."""
    return _ACTIVE


@contextmanager
def injected(injector: FaultInjector):
    """Context manager: install ``injector`` for the ``with`` body."""
    previous = _ACTIVE
    install(injector)
    try:
        yield injector
    finally:
        install(previous) if previous is not None else uninstall()


def maybe_fail(point: str, **context: Any) -> None:
    """Hook: raise at ``point`` if the active injector says so."""
    if _ACTIVE is not None:
        _ACTIVE.check(point, **context)


def maybe_transform(point: str, value: Any) -> Any:
    """Hook: corrupt ``value`` at ``point`` if the active injector says so."""
    if _ACTIVE is not None:
        return _ACTIVE.transform(point, value)
    return value


def maybe_truncate(point: str, path: str | os.PathLike,
                   start: int = 0) -> bool:
    """Hook: truncate the file at ``path`` (past ``start``) if the active
    injector says so."""
    if _ACTIVE is not None:
        return _ACTIVE.truncate(point, path, start)
    return False
