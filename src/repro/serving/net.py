"""Asyncio HTTP/JSON codec over the one serving front.

One stdlib-only network layer (``asyncio.start_server`` + hand-rolled
HTTP/1.1 framing — no web framework in the dependency set).  A
:class:`NetFrontend` decodes requests, submits them to the
:class:`~repro.serving.service.QueryService` it runs over its backend
and encodes the answers, so remote clients get the admission control
and deadline semantics of in-process callers — it is the same code:

========================  ====================================================
``POST /knn``             exact / budgeted k-NN; body ``{"query", "k",
                          "search_budget"?, "deadline"?, "degrade"?}``
``POST /range``           range query; body ``{"query", "radius", ...}``
``POST /query``           envelope form: ``{"op": "knn"|"range", ...}``
``GET  /health``          backend + service + ingest health (200 even when
                          degraded — the body says so)
``GET  /metrics``         Prometheus text from the process-wide registry
``POST /ingest``          proxy to :class:`~repro.serving.ingest.IngestService`
                          (202 + job id; 501 without one)
``POST /admin/reload``    re-open the snapshot in every worker (409 when
                          its shard set changed; 501 without ``reload``)
========================  ====================================================

Every answer carries the ``snapshot`` version its hits were read from.
``ServiceOverloadError`` / ``ServiceStoppedError`` map to **503**,
``DeadlineExceededError`` to **504**.  The one thing this module adds to
the service is the await-with-timeout on its future: a 504 leaves *at*
the deadline while a worker thread may still be executing the request,
whose late result is dropped.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import select
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    DimensionMismatchError,
    EmptySequenceError,
    IndexStateError,
    IngestOverloadError,
    InvalidParameterError,
    ReproError,
    ServiceOverloadError,
    ServiceStoppedError,
    ShardUnavailableError,
    StorageError,
)
from repro.observability import OBS, export_metrics_prometheus
from repro.search.request import SearchRequest, SearchResult
from repro.serving.service import QueryService, ServiceConfig

#: Largest accepted request body (an /ingest clip dominates).
MAX_BODY_BYTES = 64 << 20
#: Longest ``stop()`` waits for the service's workers to drain.
_STOP_TIMEOUT = 5.0
_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large",
            500: "Internal Server Error", 501: "Not Implemented",
            503: "Service Unavailable", 504: "Gateway Timeout"}


@dataclass
class NetConfig:
    """Where to listen, and the sizing of the front behind the socket.

    ``port=0`` binds an ephemeral port (tests); the bound port is
    published as ``frontend.port`` once serving.  ``service`` configures
    the :class:`~repro.serving.service.QueryService` the frontend runs.
    """

    host: str = "127.0.0.1"
    port: int = 0
    service: ServiceConfig = field(default_factory=lambda: ServiceConfig(
        workers=8, queue_depth=64, default_deadline=30.0))


class _HttpError(Exception):
    """Internal: terminate a request with a specific HTTP status."""

    def __init__(self, status: int, message: str, **extra: Any):
        super().__init__(message)
        self.status = status
        self.body = {"error": message, **extra}


def _status_of(exc: BaseException) -> int:
    """Map a domain error onto the HTTP status a client can act on."""
    if isinstance(exc, DeadlineExceededError):
        return 504
    if isinstance(exc, (ServiceOverloadError, IngestOverloadError,
                        ServiceStoppedError, ShardUnavailableError)):
        return 503
    if isinstance(exc, (InvalidParameterError, DimensionMismatchError,
                        EmptySequenceError, IndexStateError)):
        return 400
    return 500


def _unsupported(message: str) -> _HttpError:
    """501: the route exists but this deployment lacks the capability."""
    return _HttpError(501, message, type="UnsupportedOperation")


def _as_frames(value: Any) -> np.ndarray:
    """A client's nested ``frames`` list as a uint8 array: every value
    must be an integer in [0, 255], or the request is a 400."""
    try:
        frames = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"'frames' is not a video: {exc}")
    if frames.size and not (frames.dtype.kind in "iu" and frames.min() >= 0
                            and frames.max() <= 255):
        raise InvalidParameterError(
            f"'frames' must hold integers in [0, 255] (got {frames.dtype})")
    return frames.astype(np.uint8)


def _encode_hit(hit: Any) -> dict[str, Any]:
    """One hit as JSON: an in-process ``(distance, og, clip_ref)`` tuple,
    or the fields of a worker pool's ``RemoteHit`` in declaration order
    (``distance, shard, row, clip_ref``)."""
    if isinstance(hit, tuple):
        return {"distance": float(hit[0]), "og_id": hit[1].og_id,
                "clip_ref": hit[2]}
    return vars(hit)


class NetFrontend:
    """The HTTP/JSON serving frontend.

    ``backend`` answers ``search(request)`` — a started
    :class:`~repro.serving.workers.WorkerPool` or a
    :class:`~repro.serving.snapshot.LiveIndex` — and is the caller's:
    the frontend never shuts it down.  Requests run through
    ``frontend.service``, the :class:`~repro.serving.service.QueryService`
    created by :meth:`start` and shut down by :meth:`stop`.  ``ingest``
    is an optional :class:`~repro.serving.ingest.IngestService`.

    Two run modes:

    - ``await frontend.start()`` inside an existing event loop, then
      ``await frontend.stop()``;
    - ``frontend.start_in_thread()`` for synchronous callers (tests,
      the CLI): spins a daemon thread with its own loop and blocks
      until the socket is bound, then ``frontend.stop()``.
    """

    def __init__(self, backend: Any, ingest: Any = None,
                 config: NetConfig | None = None):
        self.backend = backend
        self.ingest = ingest
        self.config = config or NetConfig()
        self.port: int | None = None
        self.service: QueryService | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._connections: set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "NetFrontend":
        """Bind and start serving on the current event loop."""
        if self._server is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.service = QueryService(self.backend, self.config.service)
        OBS.count("net.frontends_started")
        return self

    async def _stop_async(self) -> None:
        if self._server is not None:
            self._server.close()
            # An idle keep-alive socket parks its handler in readline():
            # cancel and await every connection task so none outlives
            # the loop (each closes its socket — the client sees EOF).
            tasks = list(self._connections)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        if self.service is not None:
            # Bounded: a worker stuck in the backend is left behind as a
            # daemon straggler rather than hanging the caller.
            self.service.shutdown(timeout=_STOP_TIMEOUT)

    def start_in_thread(self) -> "NetFrontend":
        """Run the frontend on a dedicated daemon thread + event loop."""
        if self._thread is not None:
            return self
        ready = threading.Event()
        failure: list[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self._stop_async())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="net-frontend", daemon=True)
        self._thread.start()
        ready.wait(timeout=30.0)
        if failure:
            self._thread = None
            raise failure[0]
        if self.port is None:
            raise IndexStateError("HTTP frontend failed to bind")
        return self

    def stop(self) -> None:
        """Stop a ``start_in_thread`` frontend (or a loop-owned one)."""
        loop = self._loop
        if loop is None:
            return
        if self._thread is not None:
            loop.call_soon_threadsafe(loop.stop)
            self._thread.join(timeout=10.0)
            self._thread = None
        else:
            asyncio.ensure_future(self._stop_async(), loop=loop)
        self._loop = None
        self.port = None

    def __enter__(self) -> "NetFrontend":
        return self.start_in_thread()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection handling --------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        # Tracked until fully done (socket closed, not just past its
        # last request), so _stop_async can cancel and await it.
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # Unreadable framing (bad Content-Length, oversized
                    # body): answer, then close — the byte stream can't
                    # be resynchronized for a next request.
                    await self._write_response(
                        writer, exc.status, exc.body, "application/json",
                        keep_alive=False)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, content_type = await self._dispatch(
                    method, path, body)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._write_response(
                    writer, status, payload, content_type, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Only _stop_async cancels a handler.  End normally (here
            # and below): the streams done-callback of Python 3.11 logs
            # an error for a task that finishes cancelled.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "").strip() or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _HttpError(
                400, f"malformed Content-Length header: {raw_length!r}")
        if length < 0:
            raise _HttpError(
                400, f"negative Content-Length: {length}")
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path.split("?", 1)[0], headers, body

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, payload: Any, content_type: str,
                              keep_alive: bool) -> None:
        if isinstance(payload, str):
            data = payload.encode("utf-8")
        else:
            data = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    # -- routing --------------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes
                        ) -> tuple[int, Any, str]:
        routes = {
            ("GET", "/health"): self._handle_health,
            ("GET", "/metrics"): self._handle_metrics,
            ("POST", "/knn"): self._handle_knn,
            ("POST", "/range"): self._handle_range,
            ("POST", "/query"): self._handle_query,
            ("POST", "/ingest"): self._handle_ingest,
            ("POST", "/admin/reload"): self._handle_reload,
        }
        handler = routes.get((method, path))
        if handler is None:
            known = {p for _, p in routes}
            if path in known:
                return 405, {"error": f"method {method} not allowed "
                             f"for {path}"}, "application/json"
            return 404, {"error": f"no route for {path}"}, "application/json"
        try:
            request = self._parse_body(body) if method == "POST" else {}
            return await handler(request)
        except _HttpError as exc:
            return exc.status, exc.body, "application/json"
        except ReproError as exc:
            status = _status_of(exc)
            payload = {"error": str(exc), "type": type(exc).__name__}
            for extra in ("details", "phase"):
                if getattr(exc, extra, None):
                    payload[extra] = getattr(exc, extra)
            if status == 500:
                OBS.count("net.http_internal_errors")
            return status, payload, "application/json"
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            OBS.count("net.http_internal_errors")
            return 500, {"error": f"{type(exc).__name__}: {exc}",
                         "type": type(exc).__name__}, "application/json"

    @staticmethod
    def _parse_body(body: bytes) -> dict[str, Any]:
        if not body:
            return {}
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(parsed, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return parsed

    # -- handlers -------------------------------------------------------------

    @staticmethod
    def _parse_query(request: dict[str, Any]) -> np.ndarray:
        if "query" not in request:
            raise _HttpError(400, "missing required field 'query'")
        try:
            return np.asarray(request["query"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _HttpError(
                400, f"'query' is not a numeric trajectory: {exc}")

    @staticmethod
    def _as_float(value: Any, name: str) -> float:
        """Coerce a client-supplied field to float; bad input is a 400."""
        try:
            return float(value)
        except (TypeError, ValueError):
            raise _HttpError(
                400, f"'{name}' must be a number, got {value!r}")

    async def _answer(self, search: SearchRequest, deadline: Any
                      ) -> tuple[int, Any, str]:
        """Submit a validated request to the service; 200 + the JSON
        answer, or 504 at the deadline while the work is dropped."""
        if deadline is not None:
            deadline = self._as_float(deadline, "deadline")
        future = self.service.submit(search, deadline)
        if deadline is None:
            deadline = self.service.config.default_deadline
        try:
            # On timeout wait_for cancels the future: a request still
            # queued is skipped by the workers, one already executing
            # runs on and its late result is dropped.
            result = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=deadline)
        except asyncio.TimeoutError:
            OBS.count("net.http_deadline_exceeded")
            raise DeadlineExceededError(
                f"request outran its {deadline:.3f}s deadline",
                phase="queued" if future.cancelled() else "execution"
            ) from None
        return 200, {
            "snapshot": result.snapshot_version,
            "hits": [_encode_hit(hit) for hit in result.hits],
            "degraded": result.degraded,
            "failed_shards": result.failed_shards,
            "latency": result.latency,
        }, "application/json"

    async def _handle_knn(self, request: dict[str, Any]
                          ) -> tuple[int, Any, str]:
        query = self._parse_query(request)
        if "k" not in request:
            raise _HttpError(400, "missing required field 'k'")
        return await self._answer(SearchRequest.knn(
            query, request["k"],
            search_budget=request.get("search_budget"),
            degrade=request.get("degrade", True)), request.get("deadline"))

    async def _handle_range(self, request: dict[str, Any]
                            ) -> tuple[int, Any, str]:
        query = self._parse_query(request)
        if "radius" not in request:
            raise _HttpError(400, "missing required field 'radius'")
        return await self._answer(SearchRequest.range(
            query, request["radius"],
            degrade=request.get("degrade", True)), request.get("deadline"))

    async def _handle_query(self, request: dict[str, Any]
                            ) -> tuple[int, Any, str]:
        op = request.get("op")
        if op == "knn":
            return await self._handle_knn(request)
        if op == "range":
            return await self._handle_range(request)
        raise _HttpError(
            400, f"unknown query op {op!r} (expected 'knn' or 'range')")

    async def _handle_health(self, request: dict[str, Any]
                             ) -> tuple[int, Any, str]:
        health = self.backend.health()
        health["service"] = self.service.health()
        if self.ingest is not None:
            health["ingest"] = self.ingest.health()
        return 200, health, "application/json"

    async def _handle_metrics(self, request: dict[str, Any]
                              ) -> tuple[int, Any, str]:
        text = export_metrics_prometheus()
        return 200, text, "text/plain; version=0.0.4"

    async def _handle_ingest(self, request: dict[str, Any]
                             ) -> tuple[int, Any, str]:
        if self.ingest is None:
            raise _unsupported("this frontend serves a frozen snapshot "
                               "(no ingest service attached)")
        from repro.video.frames import VideoSegment

        if "frames" not in request:
            raise _HttpError(400, "missing required field 'frames' "
                             "(nested list of shape (T, H, W, 3))")
        video = VideoSegment(_as_frames(request["frames"]),
                             fps=self._as_float(request.get("fps", 10.0),
                                                "fps"),
                             name=str(request.get("name", "http-clip")))
        job = self.ingest.submit(video, job_id=request.get("job_id"))
        return 202, {"job": job.job_id, "clip": job.clip_name,
                     "state": job.state.value}, "application/json"

    async def _handle_reload(self, request: dict[str, Any]
                             ) -> tuple[int, Any, str]:
        reload = getattr(self.backend, "reload", None)
        if reload is None:
            raise _unsupported("this backend has no snapshot to reload")
        try:
            version = await asyncio.to_thread(reload)
        except StorageError as exc:
            # The operator's store no longer matches the running pool
            # (shard set changed): their conflict to resolve, not a
            # server fault.
            raise _HttpError(409, str(exc), type="StorageError") from None
        return 200, {"snapshot": version}, "application/json"


# ---------------------------------------------------------------------------
# client helpers
# ---------------------------------------------------------------------------

class _IdleConnections(dict):
    """One thread's idle keep-alive connections by ``(host, port)``.

    The thread's slot of :data:`_local` holds the only reference, so
    when the thread ends the dict is dropped and closes what it holds.
    """

    def __del__(self) -> None:
        for conn in self.values():
            conn.close()


_local = threading.local()


def _idle_connections() -> _IdleConnections:
    """This thread's idle connections, less those their server closed:
    an idle socket that reads ready holds an EOF (or bytes no request
    asked for), so it is never reused."""
    idle = getattr(_local, "idle", None)
    if idle is None:
        idle = _local.idle = _IdleConnections()
    elif idle:
        ready, _, _ = select.select(
            [conn.sock for conn in idle.values()], [], [], 0)
        for key in [key for key, conn in idle.items() if conn.sock in ready]:
            idle.pop(key).close()
    return idle


def request_json(host: str, port: int, method: str, path: str,
                 payload: dict[str, Any] | None = None,
                 timeout: float = 30.0) -> tuple[int, Any]:
    """One HTTP exchange against a frontend (stdlib ``http.client``).

    Returns ``(status, body)`` — body decoded from JSON when the
    response says so, raw text otherwise.  Shared by the tests,
    :class:`HttpSender` and the CLI so none of them grow their own
    client.

    The exchange reuses the calling thread's idle HTTP/1.1 connection
    to ``(host, port)`` when the server has not closed it, and leaves
    its connection idle for the thread's next call.  A connection is
    closed instead on any exception (a timeout included) and when the
    response says the server will close it; the idle ones are closed
    when their thread ends.
    """
    idle = _idle_connections()
    conn = idle.pop((host, port), None)
    if conn is None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
    else:
        conn.sock.settimeout(timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        if "json" in content_type:
            answer = response.status, json.loads(raw.decode("utf-8"))
        else:
            answer = response.status, raw.decode("utf-8")
    except BaseException:
        conn.close()
        raise
    if response.will_close:
        conn.close()
    else:
        idle[(host, port)] = conn
    return answer


class HttpSender:
    """``QueryService.submit`` as seen from the other end of the socket:
    ``sender(request, deadline)`` returns a future of the
    :class:`~repro.search.request.SearchResult` a frontend answered.

    ``connections`` threads each run one blocking exchange at a time,
    each over its own keep-alive connection (:func:`request_json`); a
    request waits for a free one inside its future.  A 503 resolves the
    future with :class:`~repro.errors.ServiceOverloadError`, a 504 with
    :class:`~repro.errors.DeadlineExceededError`, so a caller handles
    both transports with the same ``except`` clauses.  Hits stay the
    JSON objects the frontend encoded.
    """

    def __init__(self, host: str, port: int, connections: int = 8):
        if connections < 1:
            raise InvalidParameterError(
                f"connections must be >= 1, got {connections}")
        self.host = host
        self.port = port
        self._threads = ThreadPoolExecutor(
            max_workers=connections, thread_name_prefix="http-sender")

    def __call__(self, request: SearchRequest,
                 deadline: float | None = None) -> Future:
        return self._threads.submit(self._exchange, request, deadline)

    def _exchange(self, request: SearchRequest,
                  deadline: float | None) -> SearchResult:
        fields = {"op": request.kind, "query": request.series.tolist(),
                  "k": request.k, "radius": request.radius,
                  "search_budget": request.search_budget,
                  "degrade": request.degrade, "deadline": deadline}
        status, body = request_json(
            self.host, self.port, "POST", "/query",
            {name: value for name, value in fields.items()
             if value is not None},
            timeout=(deadline or 30.0) + 10.0)
        if status == 200:
            return SearchResult(
                body["hits"], degraded=body["degraded"],
                failed_shards=body["failed_shards"],
                snapshot_version=body["snapshot"], latency=body["latency"])
        if not isinstance(body, dict):
            body = {"error": body}
        message = body.get("error", "")
        if status == 503:
            raise ServiceOverloadError(message)
        if status == 504:
            raise DeadlineExceededError(message, phase=body.get("phase"))
        raise ReproError(f"HTTP {status}: {message}")

    def close(self) -> None:
        """Wait for the exchanges in flight, then stop the threads;
        each closes its idle connection as it ends."""
        self._threads.shutdown()

    def __enter__(self) -> "HttpSender":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "MAX_BODY_BYTES",
    "HttpSender",
    "NetConfig",
    "NetFrontend",
    "request_json",
]
