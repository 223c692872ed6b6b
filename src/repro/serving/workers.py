"""Shard workers as long-lived **processes** over the mmap columnar store.

PR 4's :class:`~repro.serving.service.QueryService` fans shard work out
on *threads*, so every shard shares one GIL and four shards deliver
well under 4x.  This module promotes shards to worker processes:

- Each worker is spawned with a list of shard assignments and does its
  own ``open_store(..., mmap=True)`` — the columnar ``.strg/`` layout
  lets every process map the *same* snapshot read-only with zero
  copies, so N workers cost one page cache, not N heaps.
- Requests and responses crossing the pipe are small: a query
  trajectory array one way, ``(distance, shard, row, clip_ref)``
  tuples the other.  No OG graphs are ever pickled per request.
- The :class:`WorkerPool` coordinator owns the processes' lifecycle:
  spawn up front, health-check heartbeats, restart-on-crash, drain on
  shutdown.

Exactness.  Each worker serves its assigned shards through a
worker-local :class:`~repro.serving.sharding.ShardedIndex` (one
:func:`~repro.core.scan.knn_scan` over all of them, so one pruning
bound), and the coordinator merges the per-worker exact top-k lists by ``(distance,
shard, row)``.  That reproduces the in-process scatter-gather
**bit-identically**: distances come from the same batched kernels
(chunk-invariant), and worker-local og_ids are the store's
``RowLabels``, increasing in ``(shard, row)``, so every tie-break —
worker-local og_id and the coordinator merge — is the same
``(shard, row)`` order.  The budgeted approximate path is one
:func:`~repro.search.sketch.approx_knn` rerank per worker over its
shards' sketches, each shortlisting the coordinator's
:func:`~repro.search.request.split_budget` share — the same split the
in-process ``ShardedIndex`` makes; the coordinator merges the
workers' top-k lists.

Failover.  ``replicas=R`` spawns R processes per worker *slot*; a
request round-robins across a slot's live replicas (spare capacity,
not just standby).  When one replica dies, the others keep the slot's
shards served with **no** degradation; only when every replica of a
slot is gone do that slot's shards fall back to the degraded-read
semantics of ``serving.shard`` — partial results flagged
``degraded=True`` with the missing shards listed — until the
supervisor respawns a worker.

Rebalancing.  Every response carries per-shard busy time, accumulated
into per-shard query counters (the same signal affine placement
concentrates: hot locality islands burn more kernel time).  When the
pool multiplexes more shards than worker slots,
:meth:`WorkerPool.rebalance` migrates the coldest shard off the
hottest slot onto the coldest slot until the busy-time ratio drops
under ``rebalance_ratio`` — workers re-open the moved shard store
(an mmap, so the move ships no data).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.errors import (
    IndexStateError,
    InvalidParameterError,
    ShardUnavailableError,
    StorageError,
)
from repro.observability import OBS
from repro.search.request import SearchRequest, SearchResult, split_budget
from repro.search.sketch import approx_knn


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

class _ShardSet:
    """Worker-local view of the assigned shards.

    An exact request runs through one worker-local
    :class:`~repro.serving.sharding.ShardedIndex` assembled over exactly
    the requested live shards — every open shard, or a strict subset of
    them while a rebalance moves a shard between slots — and cached for
    the set last seen.  Assembling one sweeps nothing (each shard keeps
    its own scan views), and its one scan over every shard's clusters
    shares one pruning bound.

    Exactness is preserved: the shards' og_ids are the
    :class:`~repro.storage.columnar.RowLabels` of one committed version,
    in ``(ordinal, row)`` order, so the combined index's ``(distance,
    og_id)`` tie-break is the restriction of the coordinator's global
    ``(distance, shard, row)`` merge order — the worker's top-k
    therefore contains every globally-ranked hit from its shards.

    Budgeted (``search_budget``) requests are one
    :func:`~repro.search.sketch.approx_knn` rerank over the requested
    shards' sketches, each shortlisting the share the coordinator's
    global proportional split gave it (a worker-local re-split over a
    subset would diverge from it).
    """

    def __init__(self, store_path: str, assignment: list[int], mmap: bool):
        from repro.storage.columnar import ColumnarStore

        self.store = ColumnarStore(store_path)
        self.mmap = mmap
        #: Assigned ordinal -> its shard index.
        self.shards: dict[int, Any] = dict.fromkeys(assignment)
        #: ``(ordinals, index)`` of the last exact request's shards.
        self._combined: tuple[list[int], Any] | None = None
        self.reload()

    # -- lifecycle ------------------------------------------------------

    def reload(self) -> None:
        """(Re)open every assigned shard from one committed version,
        whose labels locate every hit's ``(shard, row)``."""
        while True:
            labels = self.store.row_labels()
            shards = {o: self.store.load_shard(o, mmap=self.mmap)
                      for o in sorted(self.shards)}
            if self.store.version() == labels.version:
                break
        self.shards, self.labels = shards, labels
        self._combined = None

    def open(self, ordinal: int) -> None:
        self.shards[ordinal] = None
        self.reload()

    def close(self, ordinal: int) -> None:
        self.shards.pop(ordinal, None)
        self._combined = None

    def sizes(self) -> dict[int, int]:
        return {o: len(index) for o, index in self.shards.items()}

    def _assembled(self, ordinals: list[int]) -> Any:
        """The frozen ``ShardedIndex`` over ``ordinals``.  A worker
        never places an OG: placement settings and pivots stay on
        disk."""
        from repro.serving.sharding import ShardedIndex

        if self._combined is None or self._combined[0] != ordinals:
            self._combined = (ordinals, ShardedIndex.from_shards(
                [self.shards[o] for o in ordinals]).freeze())
        return self._combined[1]

    # -- search ---------------------------------------------------------

    def search(self, request: SearchRequest,
               shares: dict[int, int | None]) -> dict[str, Any]:
        """Run one request over the shards keyed in ``shares`` (ordinal
        -> that shard's budget share, ``None`` on the exact path); hits
        as ``(d, shard, row, ref)``."""
        requested = list(shares)
        missing = [o for o in requested if o not in self.shards]
        if missing:
            raise ShardUnavailableError(
                f"shard(s) {missing} are not assigned to this worker",
                details={"shards": missing, "assigned": sorted(self.shards)})
        live = [o for o in requested if len(self.shards[o]) > 0]
        if not live:
            return {"hits": [], "busy": dict.fromkeys(requested, 0.0)}
        if request.search_budget is not None:
            distance = self.shards[live[0]].metric_distance
            return self._search_combined(requested, live, lambda: approx_knn(
                [self.shards[o].sketch_tier() for o in live], distance,
                request, [shares[o] for o in live]))
        index = self._assembled(sorted(live))
        return self._search_combined(
            requested, live, lambda: index.search(request).hits)

    def _search_combined(self, requested: list[int], live: list[int],
                         search: Callable[[], list]) -> dict[str, Any]:
        started = time.perf_counter()
        found = search()
        elapsed = time.perf_counter() - started
        # The shared-bound search is one pass, so per-shard busy time is
        # attributed proportionally to shard size — slot totals stay
        # real measured time, which is what rebalancing keys on.
        total = sum(len(self.shards[o]) for o in live)
        busy = {o: 0.0 for o in requested}
        for o in live:
            busy[o] = elapsed * len(self.shards[o]) / total
        locate = self.labels.locate
        hits = [(float(d), *locate(og.og_id), ref) for d, og, ref in found]
        return {"hits": hits, "busy": busy}


def _worker_main(store_path: str, assignment: list[int],
                 conn, mmap: bool, name: str) -> None:
    """Process entry point: serve search requests over ``conn`` forever.

    ``assignment`` lists the shard ordinals this worker serves.  The
    worker opens each of them from the store read-only (memory-mapped
    when asked), announces readiness with the shard sizes, then answers
    one request at a time.  A lost pipe (coordinator gone) exits the
    process.
    """
    try:
        shard_set = _ShardSet(store_path, assignment, mmap)
        conn.send(("ready", {
            "pid": os.getpid(), "name": name, "sizes": shard_set.sizes(),
        }))
    except BaseException as exc:  # noqa: BLE001 — relayed to coordinator
        try:
            conn.send(("error", exc))
        except (OSError, ValueError):
            pass
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return
        op = message[0]
        if op == "stop":
            return
        try:
            if op == "ping":
                conn.send(("ok", {
                    "pid": os.getpid(), "sizes": shard_set.sizes(),
                }))
            elif op == "reload":
                shard_set.reload()
                conn.send(("ok", {"sizes": shard_set.sizes()}))
            elif op == "open":
                _, ordinal = message
                shard_set.open(ordinal)
                conn.send(("ok", {"shard": ordinal,
                                  "size": shard_set.sizes()[ordinal]}))
            elif op == "close":
                _, ordinal = message
                shard_set.close(ordinal)
                conn.send(("ok", {"shard": ordinal}))
            elif op == "search":
                conn.send(("ok", shard_set.search(*message[1:])))
            else:
                raise InvalidParameterError(f"unknown worker op {op!r}")
        except BaseException as exc:  # noqa: BLE001 — relayed to coordinator
            try:
                conn.send(("error", exc))
            except (OSError, ValueError, TypeError):
                conn.send(("error", StorageError(
                    f"worker {name}: {type(exc).__name__}: {exc}")))


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------

@dataclass
class WorkerPoolConfig:
    """Sizing and supervision policy for a :class:`WorkerPool`.

    ``workers``             worker *slots* (processes per replica set).
                            ``None`` = one per shard; more than the
                            shard count is clamped (an idle worker
                            serves nothing).
    ``replicas``            processes per slot.  ``1`` = no failover
                            capacity; ``2`` keeps a slot's shards
                            served through a single crash.
    ``mmap``                memory-map shard columns read-only (always
                            possible on columnar stores).
    ``heartbeat_interval``  seconds between supervisor health sweeps.
    ``start_timeout``       seconds to wait for a worker to load its
                            shards and report ready.
    ``request_timeout``     seconds a scatter waits on one worker
                            before declaring it dead.
    ``restart``             respawn crashed workers from the
                            supervisor sweep.
    ``rebalance_ratio``     busy-time ratio (hottest/coldest slot)
                            above which :meth:`WorkerPool.rebalance`
                            migrates shards.
    """

    workers: int | None = None
    replicas: int = 1
    mmap: bool = True
    heartbeat_interval: float = 1.0
    start_timeout: float = 120.0
    request_timeout: float = 120.0
    restart: bool = True
    rebalance_ratio: float = 2.0

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {self.workers}")
        if self.replicas < 1:
            raise InvalidParameterError(
                f"replicas must be >= 1, got {self.replicas}")
        for name in ("heartbeat_interval", "start_timeout",
                     "request_timeout"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(
                    f"{name} must be > 0, got {getattr(self, name)}")
        if self.rebalance_ratio < 1.0:
            raise InvalidParameterError(
                f"rebalance_ratio must be >= 1.0, got "
                f"{self.rebalance_ratio}")


@dataclass
class RemoteHit:
    """One k-NN/range hit served by a worker process.

    ``shard``/``row`` name the record by its durable identity — the
    shard ordinal and the store row inside that shard — because og_ids
    are labels one process gives and never cross the wire.
    """

    distance: float
    shard: int
    row: int
    clip_ref: Any = None


class _WorkerHandle:
    """One live worker process: pipe, lock, and supervision state."""

    __slots__ = ("slot", "replica", "name", "process", "conn", "lock",
                 "alive", "poisoned", "restarts", "last_seen")

    def __init__(self, slot: int, replica: int):
        self.slot = slot
        self.replica = replica
        self.name = f"w{slot}.{replica}"
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.alive = False
        #: A request timed out on this handle's pipe: the worker's
        #: eventual reply would be mis-read as the answer to the *next*
        #: request, so the handle must not be reused until respawned.
        self.poisoned = False
        self.restarts = 0
        self.last_seen = 0.0


class WorkerPool:
    """Shard-serving process fleet over one columnar snapshot.

    ``path`` must hold a written store (``.strg/``), whose segment
    files many processes memory-map read-only; each of its S shards is
    one logical shard of the pool, opened by ordinal.

    Use as a context manager, or call :meth:`start` / :meth:`shutdown`.
    All search methods are thread-safe and may be called concurrently
    (each request fans out on an internal thread pool and pipelines
    across worker processes).
    """

    def __init__(self, path: str | os.PathLike,
                 config: WorkerPoolConfig | None = None):
        from repro.storage.store import open_store

        self.config = config or WorkerPoolConfig()
        store = open_store(path)
        if not store.exists():
            raise StorageError(
                f"no snapshot at {store.path} (write one with db.save())")
        self.store = store
        self.num_shards = store.manifest()["num_shards"]
        slots = self.config.workers or self.num_shards
        self.num_slots = min(slots, self.num_shards)
        #: ``assignment[slot]`` — shard ordinals this slot serves.
        self.assignment: list[list[int]] = [[] for _ in range(self.num_slots)]
        for ordinal in range(self.num_shards):
            self.assignment[ordinal % self.num_slots].append(ordinal)
        self._handles: list[list[_WorkerHandle]] = [
            [_WorkerHandle(slot, replica)
             for replica in range(self.config.replicas)]
            for slot in range(self.num_slots)
        ]
        # Spawned: a fresh interpreter is clean of coordinator threads.
        self._ctx = mp.get_context("spawn")
        self._scatter_pool: ThreadPoolExecutor | None = None
        self._supervisor: threading.Thread | None = None
        self._stop = threading.Event()
        self._started = False
        self._rr = 0
        self._probe_rr = 0
        self._state_lock = threading.Lock()
        self.shard_sizes: dict[int, int] = {}
        self._shard_stats: dict[int, dict[str, float]] = {
            ordinal: {"queries": 0.0, "busy_seconds": 0.0}
            for ordinal in range(self.num_shards)
        }
        self.rebalances = 0
        self.snapshot_version = self.store.version()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn every worker, wait for readiness, start the supervisor."""
        if self._started:
            return self
        with OBS.span("net.pool_start", slots=self.num_slots,
                      replicas=self.config.replicas):
            for slot in range(self.num_slots):
                for handle in self._handles[slot]:
                    self._spawn(handle)
            deadline = time.monotonic() + self.config.start_timeout
            for row in self._handles:
                for handle in row:
                    self._await_ready(handle, deadline)
        self._started = True
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=max(2, self.num_slots * self.config.replicas),
            thread_name_prefix="net-scatter")
        self._supervisor = threading.Thread(
            target=self._supervise, name="net-supervisor", daemon=True)
        self._supervisor.start()
        return self

    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        assignment = list(self.assignment[handle.slot])
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.store.path, assignment, child_conn,
                  self.config.mmap,
                  handle.name),
            name=f"strg-{handle.name}", daemon=True)
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.alive = False
        handle.poisoned = False
        OBS.count("net.workers_spawned")

    def _await_ready(self, handle: _WorkerHandle, deadline: float) -> None:
        timeout = max(0.0, deadline - time.monotonic())
        if not handle.conn.poll(timeout):
            raise StorageError(
                f"worker {handle.name} did not become ready within "
                f"{self.config.start_timeout:.0f}s")
        kind, payload = handle.conn.recv()
        if kind == "error":
            raise payload
        handle.alive = True
        handle.last_seen = time.monotonic()
        with self._state_lock:
            for ordinal, size in payload["sizes"].items():
                self.shard_sizes[int(ordinal)] = int(size)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the supervisor, then every worker process.  Idempotent."""
        self._stop.set()
        if self._supervisor is not None and wait:
            self._supervisor.join(timeout=self.config.heartbeat_interval * 4)
        if self._scatter_pool is not None:
            self._scatter_pool.shutdown(wait=False)
            self._scatter_pool = None
        for row in self._handles:
            for handle in row:
                self._stop_worker(handle, wait)
        self._started = False

    def _stop_worker(self, handle: _WorkerHandle, wait: bool) -> None:
        process, conn = handle.process, handle.conn
        handle.alive = False
        if conn is not None:
            if handle.lock.acquire(blocking=False):
                try:
                    conn.send(("stop",))
                except (OSError, ValueError, BrokenPipeError):
                    pass
                finally:
                    handle.lock.release()
            try:
                conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
        if process is not None:
            process.join(timeout=2.0 if wait else 0.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- supervision ----------------------------------------------------------

    def _supervise(self) -> None:
        """Heartbeat sweep: ping idle workers, respawn dead ones."""
        while not self._stop.wait(self.config.heartbeat_interval):
            for row in self._handles:
                for handle in row:
                    if self._stop.is_set():
                        return
                    self._check_worker(handle)

    def _check_worker(self, handle: _WorkerHandle) -> None:
        process = handle.process
        if handle.poisoned:
            handle.alive = False
        elif process is not None and process.is_alive():
            # A busy worker (lock held by a scatter) is alive by
            # definition; only ping the idle ones.
            if handle.lock.acquire(blocking=False):
                try:
                    handle.conn.send(("ping",))
                    if handle.conn.poll(self.config.request_timeout):
                        kind, payload = handle.conn.recv()
                        if kind == "ok":
                            handle.last_seen = time.monotonic()
                            return
                        handle.alive = False
                    else:
                        # An unanswered ping leaves the reply queued —
                        # same desync hazard as a search timeout.
                        self._poison(handle)
                except (OSError, EOFError, BrokenPipeError, ValueError):
                    handle.alive = False
                finally:
                    handle.lock.release()
            else:
                return
        else:
            handle.alive = False
        if not handle.alive and self.config.restart:
            self._respawn(handle)

    def _poison(self, handle: _WorkerHandle) -> None:
        """Retire a handle whose request timed out.  Call with the lock.

        After a timeout the worker's eventual reply is still queued on
        the pipe; reusing the handle would hand that stale payload to
        the *next* request (or to the supervisor ping), silently
        desynchronizing the protocol.  Kill the process and drop the
        pipe instead — the supervisor respawns the slot on its next
        sweep when ``restart=True``.
        """
        handle.alive = False
        handle.poisoned = True
        if handle.process is not None:
            handle.process.terminate()
            handle.process.join(timeout=1.0)
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
            handle.conn = None
        OBS.count("net.workers_poisoned")

    def _respawn(self, handle: _WorkerHandle) -> None:
        with handle.lock:
            process = handle.process
            if process is not None:
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                process.join(timeout=2.0)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
            self._spawn(handle)
            try:
                self._await_ready(
                    handle, time.monotonic() + self.config.start_timeout)
            except (StorageError, Exception):  # noqa: BLE001
                handle.alive = False
                OBS.count("net.worker_restart_failures")
                return
            handle.restarts += 1
            OBS.count("net.workers_restarted")

    def kill_worker(self, slot: int, replica: int = 0) -> None:
        """Hard-kill one worker process (failover drills and tests)."""
        handle = self._handles[slot][replica]
        if handle.process is not None:
            handle.process.kill()
            handle.process.join(timeout=5.0)

    def await_healthy(self, timeout: float = 60.0) -> bool:
        """Block until every worker is alive again (post-drill barrier).

        "Alive" means both the coordinator's flag *and* the OS process —
        a just-killed worker whose death the supervisor has not noticed
        yet does not count.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(handle.alive
                   and handle.process is not None
                   and handle.process.is_alive()
                   for row in self._handles for handle in row):
                return True
            time.sleep(0.05)
        return False

    # -- request fan-out ------------------------------------------------------

    def _live_candidates(self, slot: int) -> list[_WorkerHandle]:
        """A slot's replicas, live ones first, rotated for load spread."""
        row = self._handles[slot]
        offset = self._rr
        self._rr = (self._rr + 1) % max(1, len(row))
        rotated = row[offset % len(row):] + row[:offset % len(row)]
        return ([h for h in rotated if h.alive]
                + [h for h in rotated if not h.alive])

    def _exchange(self, slot: int, request: SearchRequest,
                  shares: dict[int, int | None]) -> dict[str, Any]:
        """Send one request to a slot, failing over across replicas."""
        last_error: BaseException | None = None
        for handle in self._live_candidates(slot):
            with handle.lock:
                if (handle.poisoned or handle.process is None
                        or not handle.process.is_alive()):
                    handle.alive = False
                    continue
                try:
                    handle.conn.send(("search", request, shares))
                    if not handle.conn.poll(self.config.request_timeout):
                        # The reply will eventually land on this pipe;
                        # retire the handle so nothing mis-reads it.
                        self._poison(handle)
                        raise TimeoutError(
                            f"worker {handle.name} did not answer within "
                            f"{self.config.request_timeout:.0f}s")
                    kind, payload = handle.conn.recv()
                except (OSError, EOFError, BrokenPipeError,
                        TimeoutError) as exc:
                    handle.alive = False
                    last_error = exc
                    OBS.count("net.worker_failures")
                    continue
            if kind == "error":
                if isinstance(payload, ShardUnavailableError):
                    # This replica doesn't (currently) hold a requested
                    # shard — e.g. it is mid-rebalance.  Another replica
                    # of the slot may still serve it.
                    last_error = payload
                    continue
                raise payload
            handle.last_seen = time.monotonic()
            return payload
        with self._state_lock:
            shards = list(self.assignment[slot])
        raise ShardUnavailableError(
            f"no live worker for slot {slot} (shards {shards})",
            details={"slot": slot, "shards": shards,
                     "cause": type(last_error).__name__
                     if last_error else "no_replicas"})

    def _probe_bound(self, request: SearchRequest) -> float | None:
        """Cheap global upper bound on the kth distance, for the fan-out.

        One rotating slot answers a minimal budgeted (sketch-tier)
        request first; the kth smallest of its hits — real corpus
        distances — bounds the true global kth from above, and every
        worker in the fan-out then prunes against it (the request's
        ``prune_bound``).  This restores the one-shared-bound economics
        of the in-process scatter across process boundaries: without
        it, N workers each search with only their local bound and
        together do several times the kernel work of one combined
        search.  Purely an optimization — a failed
        probe (dead slot, sketch tier error) falls back to an unbounded
        fan-out, and a valid bound never changes results.
        """
        with self._state_lock:
            assignment = [list(shards) for shards in self.assignment]
            sizes = dict(self.shard_sizes)
        slots = [
            s for s in range(self.num_slots)
            if any(sizes.get(o, 0) > 0 for o in assignment[s])
        ]
        if len(slots) < 2:
            return None  # a single slot already shares its bound internally
        self._probe_rr += 1
        slot = slots[self._probe_rr % len(slots)]
        k = request.k
        try:
            payload = self._exchange(
                slot, replace(request, search_budget=k),
                {o: k for o in assignment[slot] if sizes.get(o, 0) > 0})
        except Exception:  # noqa: BLE001 — probe is best-effort
            OBS.count("net.probe_failures")
            return None
        distances = sorted(h[0] for h in payload["hits"])
        if len(distances) < k:
            return None
        return float(distances[k - 1])

    def _scatter(self, request: SearchRequest,
                 shares: dict[int, int | None], degrade: bool
                 ) -> SearchResult:
        """Fan ``request`` out to the slots owning the shards in
        ``shares`` and merge their hits by ``(distance, shard, row)``,
        stamped with the snapshot version published when it started."""
        if self._scatter_pool is None:
            raise IndexStateError(
                "worker pool is not started (call start() first)")
        # Read before the fan-out: reload() publishes a new digest only
        # after every worker acked, so hits may come from a newer
        # snapshot than the stamp, never from an older one.
        version = self.snapshot_version
        with self._state_lock:
            assignment = [list(shards) for shards in self.assignment]
        futures = []
        for slot in range(self.num_slots):
            part = {o: shares[o] for o in assignment[slot] if o in shares}
            if part:
                futures.append((part, self._scatter_pool.submit(
                    self._exchange, slot, request, part)))
        hits: list[tuple[float, int, int, Any]] = []
        failed: list[int] = []
        retry: list[int] = []

        def absorb(payload: dict[str, Any]) -> None:
            hits.extend(payload["hits"])
            with self._state_lock:
                for ordinal, busy in payload["busy"].items():
                    stats = self._shard_stats[int(ordinal)]
                    stats["queries"] += 1
                    stats["busy_seconds"] += float(busy)

        for part, future in futures:
            try:
                payload = future.result()
            except ShardUnavailableError:
                retry.extend(part)
                continue
            absorb(payload)
        # The assignment snapshot may go stale mid-flight (a rebalance
        # moved a shard off the slot we asked): re-resolve each missed
        # shard's current owner and retry.  A bounded number of rounds,
        # because a multi-move rebalance pass can invalidate the first
        # retry's resolution too.
        last_error: ShardUnavailableError | None = None
        for _ in range(4):
            if not retry:
                break
            with self._state_lock:
                owner = {o: slot
                         for slot, shards in enumerate(self.assignment)
                         for o in shards}
            regrouped: dict[int, list[int]] = {}
            for shard in retry:
                regrouped.setdefault(owner.get(shard, -1), []).append(shard)
            retry = []
            for slot, shards in sorted(regrouped.items()):
                if slot < 0:  # pragma: no cover - shard left the pool
                    failed.extend(shards)
                    continue
                try:
                    payload = self._exchange(
                        slot, request, {o: shares[o] for o in shards})
                except ShardUnavailableError as exc:
                    last_error = exc
                    retry.extend(shards)
                    continue
                absorb(payload)
        if retry:
            if not degrade and last_error is not None:
                raise last_error
            OBS.count("net.shards_failed", len(retry))
            failed.extend(retry)
        hits.sort(key=lambda h: (h[0], h[1], h[2]))
        return SearchResult([RemoteHit(*h) for h in hits], bool(failed),
                            sorted(failed), version)

    # -- search ---------------------------------------------------------------

    def __len__(self) -> int:
        return sum(self.shard_sizes.values())

    def search(self, request: SearchRequest) -> SearchResult:
        """Answer one request across all worker shards.

        Bit-identical to the in-process ``ShardedIndex`` over the same
        snapshot: same distances (chunk-invariant kernels), same order
        (``(distance, shard, row)`` merge = its ``(distance, og_id)``
        tie-break).  Hits are :class:`RemoteHit` records.  With
        ``request.degrade`` a slot with no live worker yields partial
        results; without it
        :class:`~repro.errors.ShardUnavailableError` is raised instead.
        """
        if request.k == 0:
            return SearchResult([], snapshot_version=self.snapshot_version)
        with self._state_lock:
            sizes = {o: n for o, n in self.shard_sizes.items() if n > 0}
        if not sizes:
            raise IndexStateError("cannot search an empty worker pool")
        # Only the trajectory crosses the pipe, never an OG graph; a
        # lost slot is this coordinator's to degrade, not the worker's.
        wire = replace(request, query=request.series, degrade=False)
        shares: dict[int, int | None] = dict.fromkeys(sizes)
        if request.kind == "range":
            with OBS.span("net.range_query", radius=request.radius) as sp:
                OBS.count("net.range_queries")
                result = self._scatter(wire, shares, request.degrade)
                sp.set(hits=len(result.hits), degraded=result.degraded)
                return result
        with OBS.span("net.knn", k=request.k,
                      budget=request.search_budget) as sp:
            OBS.count("net.knn_queries")
            if request.search_budget is None:
                wire = replace(wire, prune_bound=self._probe_bound(wire))
            else:
                shares = dict(zip(sizes, split_budget(
                    request.search_budget, list(sizes.values()),
                    request.k)))
            result = self._scatter(wire, shares, request.degrade)
            result.hits = result.hits[:request.k]
            sp.set(hits=len(result.hits), degraded=result.degraded)
            return result

    def knn(self, query: Any, k: int, *,
            search_budget: int | None = None,
            degrade: bool = True) -> SearchResult:
        """Exact (or budgeted) k-NN, degradable by default (sugar for
        :meth:`search`)."""
        return self.search(SearchRequest.knn(
            query, k, search_budget=search_budget, degrade=degrade))

    def range_query(self, query: Any, radius: float, *,
                    degrade: bool = True) -> SearchResult:
        """All OGs within ``radius`` (sugar for :meth:`search`)."""
        return self.search(SearchRequest.range(query, radius,
                                               degrade=degrade))

    # -- maintenance ----------------------------------------------------------

    def reload(self) -> str:
        """Re-open the snapshot in every worker (post-ingest refresh).

        Returns the new snapshot version (:meth:`ColumnarStore.version`).
        The store's log is re-read first, and a reload that changes the
        *shard set* (count or layout) is rejected with
        :class:`~repro.errors.StorageError` — shard-to-slot assignment
        is fixed at pool construction, so a new layout needs a pool
        restart, not a hot swap.

        Workers reload sequentially; requests keep being served by the
        replicas not currently reloading.  The new version is published
        to response stamping only *after* every live worker has
        acknowledged — responses emitted during the reload window carry
        the old version, so a client never sees the new version stamped
        on answers that may still come from the old snapshot.  A worker
        that fails to acknowledge is retired; its respawn opens the new
        snapshot.
        """
        with OBS.span("net.pool_reload"):
            num_shards = self.store.manifest()["num_shards"]
            if num_shards != self.num_shards:
                raise StorageError(
                    f"snapshot reload changed the shard set "
                    f"({self.num_shards} shard(s) -> {num_shards}): "
                    "restart the worker pool to serve the new layout")
            version = self.store.version()
            for row in self._handles:
                for handle in row:
                    if not handle.alive or handle.poisoned:
                        continue
                    with handle.lock:
                        try:
                            handle.conn.send(("reload",))
                            if handle.conn.poll(self.config.start_timeout):
                                kind, payload = handle.conn.recv()
                                if kind == "error":
                                    raise payload
                                with self._state_lock:
                                    for o, n in payload["sizes"].items():
                                        self.shard_sizes[int(o)] = int(n)
                            else:
                                self._poison(handle)
                        except (OSError, EOFError, BrokenPipeError):
                            handle.alive = False
            self.snapshot_version = version
            return version

    def shard_stats(self) -> dict[int, dict[str, float]]:
        """Per-shard query counters since the last rebalance."""
        with self._state_lock:
            return {o: dict(s) for o, s in self._shard_stats.items()}

    def slot_loads(self) -> list[float]:
        """Busy seconds per worker slot (sum over its shards)."""
        with self._state_lock:
            stats = {o: dict(s) for o, s in self._shard_stats.items()}
            assignment = [list(shards) for shards in self.assignment]
        return [
            sum(stats[o]["busy_seconds"] for o in shards)
            for shards in assignment
        ]

    def rebalance(self, ratio: float | None = None
                  ) -> list[tuple[int, int, int]]:
        """Migrate shards from hot slots to cold ones.

        Policy: while the hottest slot's busy time exceeds ``ratio``
        times the coldest slot's *and* the hottest slot serves more
        than one shard, move its coldest shard to the coldest slot.
        Returns the moves as ``(shard, from_slot, to_slot)``; counters
        reset afterwards so the next window measures the new layout.
        Only meaningful when shards outnumber slots — with one shard
        per slot there is nothing to migrate.
        """
        ratio = self.config.rebalance_ratio if ratio is None else ratio
        if ratio < 1.0:
            raise InvalidParameterError(
                f"ratio must be >= 1.0, got {ratio}")
        moves: list[tuple[int, int, int]] = []
        if self.num_slots < 2:
            return moves
        with self._state_lock:
            stats = {o: dict(s) for o, s in self._shard_stats.items()}
            assignment = [list(shards) for shards in self.assignment]
        loads = [
            sum(stats[o]["busy_seconds"] for o in shards)
            for shards in assignment
        ]
        while True:
            hot = max(range(self.num_slots), key=lambda s: loads[s])
            cold = min(range(self.num_slots), key=lambda s: loads[s])
            if hot == cold or len(assignment[hot]) <= 1:
                break
            if loads[hot] <= ratio * max(loads[cold], 1e-12):
                break
            shard = min(assignment[hot],
                        key=lambda o: (stats[o]["busy_seconds"], o))
            if not self._move_shard(shard, hot, cold):
                break
            assignment[hot].remove(shard)
            assignment[cold].append(shard)
            moves.append((shard, hot, cold))
            loads[hot] -= stats[shard]["busy_seconds"]
            loads[cold] += stats[shard]["busy_seconds"]
        if moves:
            self.rebalances += len(moves)
            OBS.count("net.shards_rebalanced", len(moves))
            with self._state_lock:
                for entry in self._shard_stats.values():
                    entry["queries"] = 0.0
                    entry["busy_seconds"] = 0.0
        return moves

    def _move_shard(self, shard: int, hot: int, cold: int) -> bool:
        """Open ``shard`` on every replica of ``cold``, close on ``hot``.

        Open-before-close on each worker, so a crash mid-move leaves the
        shard served by at least one slot.  A move that cannot open the
        shard on any cold replica is abandoned (returns ``False``).

        The assignment swap happens under ``_state_lock`` *between* the
        open and the close: a concurrent scatter either snapshots the
        old owner (which still has the shard open until the close below)
        or the new one (already open).  A request built on the old
        snapshot that loses the race with the close gets a worker-side
        ``ShardUnavailableError`` and is retried against the updated
        assignment by :meth:`_scatter`.
        """
        opened = 0
        for handle in self._handles[cold]:
            if self._admin(handle, ("open", shard)):
                opened += 1
        if opened == 0:
            return False
        with self._state_lock:
            self.assignment[hot].remove(shard)
            self.assignment[cold].append(shard)
            self.assignment[cold].sort()
        for handle in self._handles[hot]:
            self._admin(handle, ("close", shard))
        return True

    def _admin(self, handle: _WorkerHandle, message: tuple) -> bool:
        """One fire-and-check admin exchange with a worker."""
        if not handle.alive or handle.poisoned:
            return False
        with handle.lock:
            try:
                handle.conn.send(message)
                if not handle.conn.poll(self.config.start_timeout):
                    self._poison(handle)
                    return False
                kind, payload = handle.conn.recv()
            except (OSError, EOFError, BrokenPipeError):
                handle.alive = False
                return False
        if kind == "error":
            raise payload
        return True

    # -- introspection --------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Operational telemetry: what an operator (or /health) watches."""
        with self._state_lock:
            assignment = [list(shards) for shards in self.assignment]
        workers = []
        for row in self._handles:
            for handle in row:
                process = handle.process
                workers.append({
                    "name": handle.name,
                    "slot": handle.slot,
                    "replica": handle.replica,
                    "pid": None if process is None else process.pid,
                    "alive": bool(handle.alive and process is not None
                                  and process.is_alive()),
                    "restarts": handle.restarts,
                    "shards": list(assignment[handle.slot]),
                })
        alive = sum(1 for w in workers if w["alive"])
        served = {
            o for slot, shards in enumerate(assignment)
            for o in shards
            if any(w["alive"] for w in workers if w["slot"] == slot)
        }
        return {
            "status": "ok" if alive == len(workers) else
            ("degraded" if len(served) == self.num_shards else "partial"),
            "snapshot": self.snapshot_version,
            "shards": self.num_shards,
            "slots": self.num_slots,
            "replicas": self.config.replicas,
            "workers": workers,
            "workers_alive": alive,
            "shards_served": sorted(served),
            "shard_sizes": {str(o): n
                            for o, n in sorted(self.shard_sizes.items())},
            "rebalances": self.rebalances,
            "assignment": assignment,
        }

    def __repr__(self) -> str:
        return (
            f"WorkerPool(shards={self.num_shards}, slots={self.num_slots}, "
            f"replicas={self.config.replicas}, ogs={len(self)})"
        )


__all__ = [
    "RemoteHit",
    "WorkerPool",
    "WorkerPoolConfig",
]
