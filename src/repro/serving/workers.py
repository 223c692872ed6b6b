"""Shard workers as long-lived **processes** over the mmap columnar store.

PR 4's :class:`~repro.serving.service.QueryService` fans shard work out
on *threads*, so every shard shares one GIL and four shards deliver
well under 4x.  This module promotes shards to worker processes:

- Each worker is forked with a list of shard assignments from the
  package's one fork server (:func:`repro.parallel.process_context`),
  which imported this module once, so a start or respawn pays no
  import, only the worker's own ``open_store(..., mmap=True)`` — the
  columnar ``.strg/`` layout lets every process map the *same*
  snapshot read-only with zero copies, so N workers cost one page
  cache, not N heaps.
- Requests and responses crossing the pipe are small: a query
  trajectory array one way, ``(distance, shard, row, clip_ref)``
  tuples the other.  No OG graphs are ever pickled per request.
- The :class:`WorkerPool` coordinator owns the processes' lifecycle:
  start up front, health-check heartbeats, restart-on-crash, drain on
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
:func:`~repro.search.sketch.approx_knn` per worker over its shards'
row tables, split over the corpus size the coordinator sends, as the
in-process ``ShardedIndex`` splits it; the coordinator merges the
workers' top-k lists.

Failover.  ``replicas=R`` spawns R processes per worker *slot*; a
request round-robins across a slot's live replicas (spare capacity,
not just standby).  When one replica dies, the others keep the slot's
shards served with **no** degradation; only when every replica of a
slot is gone do that slot's shards fall back to the degraded-read
semantics of ``serving.shard`` — partial results flagged
``degraded=True`` with the missing shards listed — until the
supervisor respawns a worker.

Assignment.  Shard ``s`` is served by slot ``s mod W``, fixed when the
pool is constructed; only a pool restart serves a new layout.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Collection

from repro.errors import (
    IndexStateError,
    InvalidParameterError,
    ShardUnavailableError,
    StorageError,
)
from repro.observability import OBS
from repro.parallel import process_context
from repro.search.request import SearchRequest, SearchResult
from repro.search.sketch import approx_knn


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

#: The process that imported this module: a worker forked from the
#: preloaded fork server finds its server's pid here, not its own.
_IMPORTED_IN = os.getpid()


class _ShardSet:
    """Worker-local view of the assigned shards.

    An exact request runs through one worker-local
    :class:`~repro.serving.sharding.ShardedIndex` assembled over exactly
    the requested live shards — a strict subset of the assigned ones
    when some are empty — and cached for the set last seen.  Assembling
    one sweeps nothing (each shard keeps its own scan views), and its one
    scan over every shard's clusters shares one pruning bound.

    Exactness is preserved: the shards' og_ids are the
    :class:`~repro.storage.columnar.RowLabels` of one committed version,
    in ``(ordinal, row)`` order, so the combined index's ``(distance,
    og_id)`` tie-break is the restriction of the coordinator's global
    ``(distance, shard, row)`` merge order — the worker's top-k
    therefore contains every globally-ranked hit from its shards.

    Budgeted (``search_budget``) requests are one
    :func:`~repro.search.sketch.approx_knn` over the requested shards'
    row tables, its budget split over the coordinator's corpus size.
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
        whose labels locate every hit's ``(shard, row)``.

        Every assigned shard holds a reference set once this returns.
        A set the store does not hold is fitted here over every shard,
        as in process: the other shards are loaded for the fit and
        dropped once it is made.
        """
        from repro.serving.sharding import ShardedIndex

        while True:
            labels = self.store.row_labels()
            shards = {o: self.store.load_shard(o, mmap=self.mmap)
                      for o in sorted(self.shards)}
            corpus = None
            if any(index._references is None for index in shards.values()):
                corpus = {o: shards[o] if o in shards
                          else self.store.load_shard(o, mmap=self.mmap)
                          for o in range(self.store.describe()["shards"])}
            if self.store.version() == labels.version:
                break
        if corpus is not None:
            index = ShardedIndex.from_shards(list(corpus.values()))
            for o in shards:
                index.shards[o].sketch_tier(index.reference_set)
        self.shards, self.labels = shards, labels
        self._combined = None

    def status(self) -> dict[str, Any]:
        """What the coordinator learns on ready, ping and reload: the
        process, whether it found this module imported before it
        started, and the shard sizes."""
        return {"pid": os.getpid(), "preloaded": _IMPORTED_IN != os.getpid(),
                "sizes": {o: len(index) for o, index in self.shards.items()}}

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

    def search(self, request: SearchRequest, shards: Collection[int],
               total: int | None = None) -> dict[str, Any]:
        """Run one request over the ordinals in ``shards``; a budgeted
        one splits its budget over ``total`` rows (the coordinator's
        corpus).  Hits as ``(d, shard, row, ref)``."""
        requested = list(shards)
        missing = [o for o in requested if o not in self.shards]
        if missing:
            raise ShardUnavailableError(
                f"shard(s) {missing} are not assigned to this worker",
                details={"shards": missing, "assigned": sorted(self.shards)})
        live = [o for o in requested if len(self.shards[o]) > 0]
        if not live:
            return {"hits": []}
        if request.search_budget is not None:
            found = approx_knn(
                [self.shards[o].sketch_tier() for o in live],
                self.shards[live[0]].metric_distance, request, total)
        else:
            found = self._assembled(sorted(live)).search(request).hits
        locate = self.labels.locate
        return {"hits": [(float(d), *locate(og.og_id), ref)
                         for d, og, ref in found]}


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
        conn.send(("ready", {"name": name, **shard_set.status()}))
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
                conn.send(("ok", shard_set.status()))
            elif op == "reload":
                shard_set.reload()
                conn.send(("ok", shard_set.status()))
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

def _end_process(process, grace: float) -> None:
    """End ``process``: let it exit within ``grace`` seconds, then
    ``SIGKILL`` it and join again.  ``SIGKILL``, because a worker too
    late to exit may be hung or stopped, and a stopped process holds
    ``SIGTERM`` pending until it is continued."""
    process.join(timeout=grace)
    if process.is_alive():
        process.kill()
        process.join(timeout=5.0)


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
    """

    workers: int | None = None
    replicas: int = 1
    mmap: bool = True
    heartbeat_interval: float = 1.0
    start_timeout: float = 120.0
    request_timeout: float = 120.0
    restart: bool = True

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
                 "alive", "poisoned", "restarts", "last_seen", "preloaded")

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
        #: The worker found this module imported when it started (it
        #: was forked from the preloaded server), as its ready said.
        self.preloaded = False

    @property
    def running(self) -> bool:
        """Marked alive *and* its OS process running: a just-killed
        worker whose death the supervisor has not noticed is not."""
        process = self.process
        return self.alive and process is not None and process.is_alive()


class WorkerPool:
    """Shard-serving process fleet over one columnar snapshot.

    ``path`` must hold a written store (``.strg/``), whose segment
    files many processes memory-map read-only; each of its S shards is
    one logical shard of the pool, opened by ordinal.

    Each worker is a process forked from the package's one preloaded
    fork server, not from this one: it holds no lock a coordinator
    thread held, finds the package imported, and sees the environment
    the server started with.

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
        #: ``assignment[slot]`` — shard ordinals this slot serves, fixed
        #: for the pool's life.
        self.assignment: list[list[int]] = [[] for _ in range(self.num_slots)]
        for ordinal in range(self.num_shards):
            self.assignment[ordinal % self.num_slots].append(ordinal)
        self._handles: list[list[_WorkerHandle]] = [
            [_WorkerHandle(slot, replica)
             for replica in range(self.config.replicas)]
            for slot in range(self.num_slots)
        ]
        self._scatter_pool: ThreadPoolExecutor | None = None
        self._supervisor: threading.Thread | None = None
        self._stop = threading.Event()
        self._started = False
        self._rr = 0
        self._probe_rr = 0
        self._state_lock = threading.Lock()
        self.shard_sizes: dict[int, int] = {}
        self.snapshot_version = self.store.version()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Start every worker, wait for readiness, start the supervisor.

        Workers fork from the package's fork server
        (:func:`repro.parallel.process_context`): the first pool of a
        process waits for that server to start and import the package
        once, every later start and respawn only for the fork and the
        worker's open of its shards."""
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
        context = process_context()
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(self.store.path, self.assignment[handle.slot], child_conn,
                  self.config.mmap, handle.name),
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
        handle.preloaded = payload["preloaded"]
        handle.alive = True
        handle.last_seen = time.monotonic()
        self._learn(payload)

    def _learn(self, payload: dict[str, Any]) -> None:
        """Take a worker's shard sizes."""
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
            _end_process(process, 2.0 if wait else 0.0)

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
            # A worker whose lock a scatter holds is alive by
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
            _end_process(handle.process, 0.0)
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
            handle.conn = None
        OBS.count("net.workers_poisoned")

    def _respawn(self, handle: _WorkerHandle) -> None:
        with handle.lock:
            if handle.process is not None:
                _end_process(handle.process, 0.0)
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
            _end_process(handle.process, 0.0)

    def await_healthy(self, timeout: float = 60.0) -> bool:
        """Block until every worker is :attr:`~_WorkerHandle.running`
        again (post-drill barrier)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(handle.running for row in self._handles for handle in row):
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
                  shards: list[int], total: int | None = None
                  ) -> dict[str, Any]:
        """Send one request for ``shards`` (and a budgeted one's corpus
        size ``total``) to a slot, failing over across replicas."""
        last_error: BaseException | None = None
        for handle in self._live_candidates(slot):
            with handle.lock:
                if (handle.poisoned or handle.process is None
                        or not handle.process.is_alive()):
                    handle.alive = False
                    continue
                try:
                    handle.conn.send(("search", request, shards, total))
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
                raise payload
            handle.last_seen = time.monotonic()
            return payload
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
        search.  Only slots with a live replica are probed.  Purely an
        optimization — a failed probe (a worker dying mid-probe, sketch
        tier error) falls back to an unbounded fan-out, and a valid
        bound never changes results.
        """
        with self._state_lock:
            sizes = dict(self.shard_sizes)
        slots = [
            s for s, shards in enumerate(self.assignment)
            if any(sizes.get(o, 0) > 0 for o in shards)
            and any(h.running for h in self._handles[s])
        ]
        if len(slots) < 2:
            return None  # a single slot already shares its bound internally
        self._probe_rr += 1
        slot = slots[self._probe_rr % len(slots)]
        k = request.k
        try:
            payload = self._exchange(
                slot, replace(request, search_budget=k),
                [o for o in self.assignment[slot] if sizes.get(o, 0) > 0])
        except Exception:  # noqa: BLE001 — probe is best-effort
            OBS.count("net.probe_failures")
            return None
        distances = sorted(h[0] for h in payload["hits"])
        if len(distances) < k:
            return None
        return float(distances[k - 1])

    def _scatter(self, request: SearchRequest, shards: Collection[int],
                 degrade: bool, total: int | None = None) -> SearchResult:
        """Fan ``request`` out to the slots owning ``shards`` and merge
        their hits by ``(distance, shard, row)``, stamped with the
        snapshot version published when it started."""
        if self._scatter_pool is None:
            raise IndexStateError(
                "worker pool is not started (call start() first)")
        # Read before the fan-out: reload() publishes a new digest only
        # after every worker acked, so hits may come from a newer
        # snapshot than the stamp, never from an older one.
        version = self.snapshot_version
        futures = []
        for slot, assigned in enumerate(self.assignment):
            part = [o for o in assigned if o in shards]
            if part:
                futures.append((part, self._scatter_pool.submit(
                    self._exchange, slot, request, part, total)))
        hits: list[tuple[float, int, int, Any]] = []
        failed: list[int] = []
        for part, future in futures:
            try:
                hits.extend(future.result()["hits"])
            except ShardUnavailableError:
                if not degrade:
                    raise
                failed.extend(part)
        if failed:
            OBS.count("net.shards_failed", len(failed))
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
        ``n_probe`` raises :class:`~repro.errors.InvalidParameterError`:
        each worker sees only its own shards' clusters, so none can pick
        the nearest across the pool.
        """
        if request.n_probe is not None:
            raise InvalidParameterError(
                "n_probe is not supported by a worker pool: each worker "
                "sees only its own shards' clusters")
        if request.k == 0:
            return SearchResult([], snapshot_version=self.snapshot_version)
        with self._state_lock:
            sizes = {o: n for o, n in self.shard_sizes.items() if n > 0}
        if not sizes:
            raise IndexStateError("cannot search an empty worker pool")
        # Only the trajectory crosses the pipe, never an OG graph; a
        # lost slot is this coordinator's to degrade, not the worker's.
        wire = replace(request, query=request.series, degrade=False)
        if request.kind == "range":
            with OBS.span("net.range_query", radius=request.radius) as sp:
                OBS.count("net.range_queries")
                result = self._scatter(wire, sizes, request.degrade)
                sp.set(hits=len(result.hits), degraded=result.degraded)
                return result
        with OBS.span("net.knn", k=request.k,
                      budget=request.search_budget) as sp:
            OBS.count("net.knn_queries")
            total = None
            if request.search_budget is None:
                wire = replace(wire, prune_bound=self._probe_bound(wire))
            else:
                # Each worker splits the budget over the whole corpus,
                # as one process would.
                total = sum(sizes.values())
            result = self._scatter(wire, sizes, request.degrade, total)
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
                                self._learn(payload)
                            else:
                                self._poison(handle)
                        except (OSError, EOFError, BrokenPipeError):
                            handle.alive = False
            self.snapshot_version = version
            return version

    # -- introspection --------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Operational telemetry: what an operator (or /health) watches."""
        workers = []
        for row in self._handles:
            for handle in row:
                process = handle.process
                workers.append({
                    "name": handle.name,
                    "slot": handle.slot,
                    "replica": handle.replica,
                    "pid": None if process is None else process.pid,
                    "alive": handle.running,
                    "preloaded": handle.preloaded,
                    "restarts": handle.restarts,
                    "shards": list(self.assignment[handle.slot]),
                })
        alive = sum(1 for w in workers if w["alive"])
        served = {
            o for slot, shards in enumerate(self.assignment)
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
            "assignment": [list(shards) for shards in self.assignment],
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
