"""Asyncio HTTP front-end: the same serving bytes, event-loop concurrency.

:class:`AsyncDSEServer` serves exactly the same endpoints — and, modulo
timing fields, the same response bytes — as the threaded
:class:`~repro.serving.DSEServer`, because it reuses every
application-layer handler (``handle_predict``, ``prepare_sweep``,
``stats_snapshot``, ``models_snapshot``) unchanged.  What it replaces is
the transport: instead of one OS thread per connection, a single asyncio
event loop parses HTTP/1.1 requests and bridges the blocking
:class:`~repro.serving.DynamicBatcher`/engine machinery through
``loop.run_in_executor``, which makes tail-latency controls practical:

* **Bounded admission** — each :class:`~repro.serving.ModelRoute` has a
  ``max_queue``-bounded in-flight budget; a full route answers HTTP 429
  with a ``Retry-After`` header instead of queueing unboundedly.
* **Per-request timeouts** — a request that exceeds
  ``request_timeout_s`` answers HTTP 504 (and cancels its unserved
  batcher futures) instead of tying up a connection forever.
* **Graceful drain** — ``shutdown()`` closes the listener, lets every
  in-flight request complete, rejects requests arriving on kept-alive
  connections with HTTP 503, and only then stops the routes.

Streaming ``POST /sweep`` keeps the threaded server's chunked-NDJSON
framing byte for byte: one ndjson line per HTTP chunk, flushed as soon
as the executor thread computes it.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from email.utils import formatdate
from http import HTTPStatus

from .server import (_MAX_BODY_BYTES, _METRICS_CONTENT_TYPE, DSEServer,
                     _Backpressure, _BadRequest, _NotFound, _RequestTimeout,
                     _ServiceUnavailable)

__all__ = ["AsyncDSEServer"]

_DRAIN_POLL_S = 0.02


def _head(status: int, headers) -> bytes:
    """An HTTP/1.1 response head (status line + headers + blank line)."""
    try:
        phrase = HTTPStatus(status).phrase
    except ValueError:                       # pragma: no cover - defensive
        phrase = ""
    lines = [f"HTTP/1.1 {status} {phrase}",
             "Server: repro-dse-async",
             f"Date: {formatdate(usegmt=True)}"]
    lines += [f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class _Connection:
    """Per-connection drain state: its writer and whether a request is
    currently being served on it."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


class AsyncDSEServer(DSEServer):
    """The asyncio front-end over the shared serving application layer.

    Accepts every :class:`DSEServer` parameter plus:

    Parameters
    ----------
    executor_workers:
        Threads in the bridge pool that runs the blocking application
        handlers (default ``min(32, 8 * cpu_count)``).  Admitted requests
        beyond this wait for a free thread — ``max_queue`` bounds how
        many may wait per route.
    drain_timeout_s:
        How long ``shutdown()`` waits for in-flight requests to complete
        before stopping the event loop anyway (default 10s).
    """

    def __init__(self, *args, executor_workers: int | None = None,
                 drain_timeout_s: float = 10.0, **kwargs):
        self._executor_workers = executor_workers or min(
            32, 8 * (os.cpu_count() or 1))
        if self._executor_workers < 1:
            raise ValueError("executor_workers must be >= 1")
        self._drain_timeout_s = drain_timeout_s
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------
    # Transport lifecycle
    # ------------------------------------------------------------------
    def _make_transport(self, host: str, port: int) -> None:
        # Bind synchronously so `address` works the moment the server is
        # constructed, exactly like the threaded transport (tests rely
        # on ephemeral-port discovery before start()).
        self._sock = socket.create_server((host, port))
        self._sock.setblocking(False)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._aserver: asyncio.Server | None = None
        self._thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._draining = False
        self._conns: dict[object, _Connection] = {}
        self._started = threading.Event()
        self._loop_error: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def start(self) -> "AsyncDSEServer":
        """Serve from a background event-loop thread."""
        with self._route_lock:
            self._running = True
            for route in self.routes.values():
                route.start()
        if self._thread is None:
            self._thread = threading.Thread(target=self._run_loop,
                                            name="dse-async-server",
                                            daemon=True)
            self._thread.start()
            if not self._started.wait(10.0):    # pragma: no cover
                raise RuntimeError("async server event loop did not start")
            if self._loop_error is not None:    # pragma: no cover
                raise RuntimeError("async server failed to start") \
                    from self._loop_error
        return self

    def shutdown(self) -> None:
        """Graceful drain: stop accepting, let in-flight requests finish,
        then stop the loop and the routes."""
        thread, loop = self._thread, self._loop
        if thread is not None and thread.is_alive() and loop is not None:
            try:
                future = asyncio.run_coroutine_threadsafe(self._drain(), loop)
                future.result(self._drain_timeout_s + 5.0)
            except Exception:                   # pragma: no cover
                pass                            # the loop stops regardless
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10.0)
        self._thread = None
        try:
            self._sock.close()
        except OSError:                         # pragma: no cover
            pass
        with self._route_lock:
            self._running = False
            routes = list(self.routes.values())
        for route in routes:
            route.stop()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_workers,
            thread_name_prefix="dse-async-worker")
        loop.set_default_executor(self._executor)
        try:
            self._aserver = loop.run_until_complete(
                asyncio.start_server(self._handle_connection,
                                     sock=self._sock))
        except BaseException as exc:            # pragma: no cover
            self._loop_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()
            self._executor.shutdown(wait=False)

    async def _drain(self) -> None:
        self._draining = True
        if self._aserver is not None:
            self._aserver.close()
            await self._aserver.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._drain_timeout_s
        while self._conns and loop.time() < deadline:
            for conn in list(self._conns.values()):
                if not conn.busy:       # idle keep-alive: hang up now
                    conn.writer.close()
            await asyncio.sleep(_DRAIN_POLL_S)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        key = object()
        self._conns[key] = conn
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers = request
                conn.busy = True
                try:
                    keep_alive = await self._dispatch(writer, reader,
                                                      method, path, headers)
                finally:
                    conn.busy = False
                if not keep_alive or self._draining \
                        or headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            self._conns.pop(key, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """One request line + headers, or ``None`` on EOF/garbage."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None
        method, path = parts[0], parts[1]
        headers: dict[str, str] = {}
        while True:
            hline = await reader.readline()
            if hline in (b"\r\n", b"\n", b""):
                break
            name, _, value = hline.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _read_json_body(self, reader: asyncio.StreamReader,
                              headers: dict[str, str]):
        """Mirror the threaded ``_read_body`` (same limits, same errors)."""
        try:
            length = int(headers.get("content-length", 0))
        except (TypeError, ValueError):
            raise _BadRequest("invalid Content-Length header") from None
        if length <= 0 or length > _MAX_BODY_BYTES:
            raise _BadRequest(f"Content-Length required (max "
                              f"{_MAX_BODY_BYTES} bytes)")
        body = await reader.readexactly(length)
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"invalid JSON: {exc}") from None

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    doc: dict, extra_headers=()) -> bool:
        """Write one JSON response; returns whether to keep the
        connection alive (errors close it, like the threaded server)."""
        body = json.dumps(doc).encode()
        close = status >= 400 or self._draining
        headers = [("Content-Type", "application/json"),
                   ("Content-Length", str(len(body)))]
        headers += list(extra_headers)
        if close:
            headers.append(("Connection", "close"))
        writer.write(_head(status, headers) + body)
        await writer.drain()
        return not close

    async def _dispatch(self, writer, reader, method: str, path: str,
                        headers: dict[str, str]) -> bool:
        loop = asyncio.get_running_loop()
        span = None
        trace_headers: list[tuple[str, str]] = []
        try:
            if method == "GET":
                if path == "/healthz":
                    return await self._send(writer, 200, {
                        "status": "ok",
                        "uptime_s": time.time() - self.started_at})
                if path == "/stats":
                    doc = await loop.run_in_executor(None,
                                                     self.stats_snapshot)
                    return await self._send(writer, 200, doc)
                if path == "/models":
                    doc = await loop.run_in_executor(None,
                                                     self.models_snapshot)
                    return await self._send(writer, 200, doc)
                if path == "/metrics":
                    text = await loop.run_in_executor(None,
                                                      self.metrics_text)
                    return await self._send_raw(writer, text.encode(),
                                                _METRICS_CONTENT_TYPE)
                return await self._send(writer, 404, {
                    "error": f"unknown route {method} {path!r}"})
            if method != "POST" or path not in ("/predict", "/sweep"):
                return await self._send(writer, 404, {
                    "error": f"unknown route {method} {path!r}"})
            span = self.begin_request_span(f"http.{path[1:]}",
                                           headers.get("x-trace-id"))
            if span is not None:
                trace_headers.append(("X-Trace-Id", span.trace_id))
            doc = await self._read_json_body(reader, headers)
            if self._draining:
                return await self._send(writer, 503, {
                    "error": "server is draining; request rejected"},
                    trace_headers)
            if path == "/predict":
                # The inner future wait already enforces
                # request_timeout_s; the outer wait_for is the backstop
                # for blocking work outside a future (oracle, engine).
                trace = span.context if span is not None else None
                result = await asyncio.wait_for(
                    loop.run_in_executor(
                        None, lambda: self.handle_predict(doc, trace=trace)),
                    self.request_timeout_s + 1.0)
                return await self._send(writer, 200, result, trace_headers)
            return await self._stream_sweep(writer, doc, trace_headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            if span is not None:
                span.status = "error"
            return False
        except _NotFound as exc:
            return await self._send(writer, 404, {"error": str(exc)},
                                    trace_headers)
        except _Backpressure as exc:
            return await self._send(
                writer, 429, {"error": str(exc)},
                [("Retry-After", exc.retry_after_header)] + trace_headers)
        except _ServiceUnavailable as exc:
            return await self._send(
                writer, 503, {"error": str(exc)},
                [("Retry-After", exc.retry_after_header)] + trace_headers)
        except _RequestTimeout as exc:
            self.record_error()
            return await self._send(writer, 504, {"error": str(exc)},
                                    trace_headers)
        except asyncio.TimeoutError:
            self.record_error()
            return await self._send(writer, 504, {
                "error": f"request timed out after "
                         f"{self.request_timeout_s:g}s"}, trace_headers)
        except _BadRequest as exc:
            return await self._send(writer, 400, {"error": str(exc)},
                                    trace_headers)
        except Exception as exc:    # pragma: no cover - defensive 500 path
            self.record_error()
            return await self._send(writer, 500, {
                "error": f"{type(exc).__name__}: {exc}"}, trace_headers)
        finally:
            if span is not None:
                span.end()

    async def _send_raw(self, writer: asyncio.StreamWriter, body: bytes,
                        content_type: str) -> bool:
        """Write one non-JSON 200 response (the /metrics exposition)."""
        close = self._draining
        headers = [("Content-Type", content_type),
                   ("Content-Length", str(len(body)))]
        if close:
            headers.append(("Connection", "close"))
        writer.write(_head(200, headers) + body)
        await writer.drain()
        return not close

    async def _stream_sweep(self, writer, doc, trace_headers=()) -> bool:
        """Chunked-NDJSON streaming with the threaded server's framing."""
        loop = asyncio.get_running_loop()
        # Validation (and admission) happen before the response commits:
        # _BadRequest/_NotFound/_Backpressure surface as clean statuses
        # through _dispatch's handlers.
        chunks = await asyncio.wait_for(
            loop.run_in_executor(None, self.prepare_sweep, doc),
            self.request_timeout_s + 1.0)
        writer.write(_head(200, [("Content-Type", "application/x-ndjson"),
                                 ("Transfer-Encoding", "chunked"),
                                 *trace_headers]))
        sentinel = object()
        try:
            while True:
                item = await asyncio.wait_for(
                    loop.run_in_executor(None, next, chunks, sentinel),
                    self.request_timeout_s + 1.0)
                if item is sentinel:
                    break
                self._write_chunk(writer, item)
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
            return not self._draining
        except (ConnectionError, asyncio.IncompleteReadError):
            return False
        except Exception as exc:    # mid-stream failure: error line + close
            self.record_error()
            try:
                self._write_chunk(
                    writer, {"error": f"{type(exc).__name__}: {exc}"})
                writer.write(b"0\r\n\r\n")
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            return False
        finally:
            await loop.run_in_executor(None, chunks.close)

    @staticmethod
    def _write_chunk(writer: asyncio.StreamWriter, doc: dict) -> None:
        data = json.dumps(doc).encode() + b"\n"
        writer.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")
