"""Ordered process-pool map over contiguous chunks.

:func:`ordered_chunk_map` maps a function over contiguous item chunks
in worker processes and streams the results out in item order.  The
ingestion pipeline uses it to segment frames and build RAGs in parallel
while the sequential tracker consumes completed RAGs in frame order
(``benchmarks/bench_ingest.py`` measures it).

Starting a pool costs tens of milliseconds and every task pickles its
function and chunk, so the pool is only used when more than one core is
usable; chunking never changes results, because ``fn`` sees the same
``(start, chunk)`` slices on the serial path.

Every process the package starts — these pool workers and the shard
workers of :mod:`repro.serving.workers` — comes from
:func:`process_context`: one fork server per process that imported the
package once, so a worker starts in tens of milliseconds and holds no
lock a thread of its caller held.

Distance sweeps do not come through here: one process runs the batched
kernels of :mod:`repro.distance.batch` (``one_vs_many`` /
``pairwise_matrix``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import forkserver
from typing import Callable, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.observability import OBS


#: Chunks handed to each pool worker: more than one lets a worker that
#: finishes early take another slice.
CHUNKS_PER_WORKER = 2


#: The module the fork server imports before it forks any worker: it
#: imports the whole package (numpy, scipy.spatial and networkx too).
PRELOAD = "repro.serving.workers"

#: The directory ``repro`` was imported from.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_server_lock = threading.Lock()


def process_context() -> multiprocessing.context.BaseContext:
    """The package's one start method: the ``forkserver`` context, its
    server started and preloading :data:`PRELOAD`.

    The server is a fresh interpreter started on the first call in a
    process (and again if it died); the first worker waits for its
    import.  Every worker is forked from it, not from the caller, so
    it pays no import and inherits no lock another thread of the
    caller held; it inherits the server's environment, taken when the
    server started.  The server ends once the process that started it
    and every worker forked from it have.

    The standard library's server ignores the caller's ``sys.path`` it
    is handed (3.10.13, 3.11.7, 3.12.1 and 3.13.0 all do), so the
    preload would fail silently wherever ``repro`` is importable only
    through ``sys.path``: the directory holding the package is put
    first on ``PYTHONPATH`` while the server starts.
    """
    context = multiprocessing.get_context("forkserver")
    with _server_lock:
        context.set_forkserver_preload([PRELOAD])
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [_PACKAGE_ROOT] + ([saved] if saved else []))
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
    return context


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def chunk_bounds(n: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``n_chunks`` contiguous, balanced,
    non-empty ``(lo, hi)`` slices."""
    if n <= 0:
        return []
    bounds = np.linspace(0, n, min(n, max(1, n_chunks)) + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo]


#: In a pool worker: the flag its pool raises once nobody will read
#: further chunks (set by the initializer below; None elsewhere).
_abandoned = None


def _adopt_flag(flag) -> None:
    """Pool-worker initializer."""
    global _abandoned
    _abandoned = flag


def _run_chunk(fn: Callable[[int, list], list], start: int,
               chunk: list) -> list:
    """Worker task: apply a chunk function to one contiguous slice.

    ``cancel_futures`` cannot reach the chunks the executor already
    moved into its call queue (one per worker, plus one); the flag lets
    those return at once instead of running for nobody.
    """
    if _abandoned.is_set():
        return []
    return fn(start, chunk)


def ordered_chunk_map(fn: Callable[[int, list], list], items: Sequence,
                      *, workers: int | None = None):
    """Map ``fn`` over contiguous chunks of ``items``, yielding per-item
    results **in item order**.

    ``fn(start, chunk)`` receives the chunk's offset into ``items`` and
    must return one result per chunk element; it (and the items) must
    pickle.  All chunks are submitted to a process pool up front and
    results stream out in order as the leading chunk completes — so a
    sequential consumer (the :class:`~repro.graph.tracking.GraphTracker`)
    overlaps with computation of the trailing chunks.  When a chunk
    raises, or the consumer closes the generator early, chunks that have
    not started are cancelled; the ones in flight finish first.

    Chunking never changes results: ``fn`` sees the same ``(start,
    chunk)`` slices on the serial path, which is used when ``workers``
    (resolved against :func:`usable_cpus`) is 1 — or when the machine
    only exposes one core, where a pool is pure overhead.
    """
    if workers is not None and workers < 0:
        raise InvalidParameterError(f"workers must be >= 0, got {workers}")
    n = len(items)
    requested = usable_cpus() if workers in (None, 0) else workers
    effective = min(requested, usable_cpus())
    if n <= 1 or effective <= 1:
        with OBS.span("parallel.map", items=n, mode="serial"):
            for start, stop in chunk_bounds(n, max(1, requested)):
                yield from fn(start, list(items[start:stop]))
        return
    with OBS.span("parallel.map", items=n, mode="pool", workers=effective):
        slices = chunk_bounds(n, effective * CHUNKS_PER_WORKER)
        context = process_context()
        abandoned = context.Event()
        pool = ProcessPoolExecutor(max_workers=effective,
                                   mp_context=context,
                                   initializer=_adopt_flag,
                                   initargs=(abandoned,))
        try:
            futures = [
                pool.submit(_run_chunk, fn, start, list(items[start:stop]))
                for start, stop in slices
            ]
            if OBS.enabled:
                OBS.count("parallel.map_jobs")
                OBS.count("parallel.map_chunks", len(futures))
            for future in futures:
                yield from future.result()
        finally:
            # A raising chunk or a consumer that closes the generator
            # must not wait for every queued chunk: cancel what has not
            # started (a no-op once all results were yielded).
            abandoned.set()
            pool.shutdown(wait=True, cancel_futures=True)
