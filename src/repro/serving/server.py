"""HTTP front-end for the multi-model DSE serving stack.

``python -m repro serve`` runs this server.  One asyncio event loop, on
a background thread, speaks HTTP/1.1 (keep-alive connections, chunked
streaming responses) with no framework dependency, and hands each
request to the blocking application layer — ``handle_predict``,
``prepare_sweep`` and the ``/stats`` and ``/models`` snapshots —
through a thread pool.  Concurrency is harvested by the per-model
:class:`~repro.serving.DynamicBatcher` queues behind it, which coalesce
concurrent requests into engine batches.

The server hosts a :class:`~repro.registry.ModelRegistry` rather than a
single model: every served model is a :class:`ModelRoute` (its own
engine, batcher queue and :class:`~repro.serving.ServingStats`), created
eagerly for directly-attached models and lazily for registry artifacts
the first time a request names them.  A route is the only owner of its
model: it loads with :meth:`~repro.registry.ModelRegistry.load`, and
evicting the route drops the model.

Endpoints
---------
``POST /predict``
    Request: ``{"workloads": [{"m": 64, "n": 512, "k": 256,
    "dataflow": 0}, ...]}`` (or a single workload object; ``dataflow``
    defaults to 0).  ``"model"`` selects the serving route (the default
    model otherwise).  Optional ``"with_cost": true`` adds the predicted
    design point's cost-model metric; ``"with_oracle": true`` also
    returns the exact optimum (served from the oracle's — possibly
    persistent — label cache) and the prediction's regret against it.
    Response: ``{"model": ..., "predictions": [{"m": ..., "num_pes": ...,
    "l2_kb": ..., "queue_wait_ms": ..., "batch_size": ...}, ...]}``.
``POST /sweep``
    Streaming bulk sweeps: ``{"workloads": [...]}`` or
    ``{"random": N, "seed": S}`` (server-generated sweep), plus optional
    ``"model"``, ``"with_cost"`` and ``"chunk_size"``.  The response is
    chunked ``application/x-ndjson``: a header line, one line per chunk
    of predictions as soon as it is computed, and a summary line — a
    million-point sweep starts flowing after the first chunk instead of
    after the last.  A mid-stream failure appends an ``{"error": ...}``
    line and closes the connection.  Chunks run on the route's own
    engine, which spreads each chunk's tiles over the server's cores.
``GET /models``
    The registry/route listing: every active route and every discoverable
    registry artifact, with manifest summaries and load state.
``GET /healthz``
    ``{"status": "ok", "uptime_s": ...}`` — liveness probe.
``GET /stats``
    A per-model breakdown (requests, batches, queue waits, forward
    passes, sweep/chunk counts, latency percentiles) and its aggregate
    over the active routes and transport-level errors, plus the oracle
    cache hit rate.
``GET /metrics``
    The same series in the Prometheus text exposition format, rendered
    from the server's :class:`~repro.obs.MetricsRegistry` — every
    route's :class:`ServingStats` series (labelled by model, kept after
    the route is evicted), uptime and in-flight gauges.

Requests are traced end to end: each ``/predict`` or ``/sweep`` gets a
front-end span (honouring an ``X-Trace-Id`` request header, minting an
id otherwise), the batcher adds a ``queue.wait`` span, and the engine
attributes its coalesced forward pass to every trace that shared it.
Responses echo ``X-Trace-Id``; spans land in the tracer's bounded ring
and, with a sink configured, an NDJSON file.

All error responses are JSON and close the connection: unknown routes
and unknown models are ``404``, malformed or non-dict bodies, a
``with_cost``/``with_oracle`` that is not a JSON boolean and malformed
request lines are ``400``, and a header line over 64 KiB or
more than 100 headers is ``431`` — never a traceback or a silent
hang-up.  Tail latency is bounded per route: a full admission queue
(``max_queue``) answers ``429`` with ``Retry-After: 1``, a request slower
than ``request_timeout_s`` answers ``504``, and
:meth:`DSEServer.shutdown` drains — it stops accepting, lets in-flight
requests finish, hangs up idle keep-alive connections and answers
``503`` to requests that still arrive on busy ones.
Each route also carries a :class:`~repro.faults.CircuitBreaker` over its
*engine* outcomes: after ``breaker_threshold`` consecutive engine
failures the route answers ``503`` with a ``Retry-After`` header until a
half-open probe succeeds.  Client errors (400/404/429) are neutral —
they can neither trip nor heal a breaker.  ``repro_breaker_state``
(0=closed, 1=half-open, 2=open) is scrapeable per model.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import contextmanager
from email.utils import formatdate
from http import HTTPStatus

import numpy as np

from ..core import AirchitectV2, BatchedDSEPredictor
from ..dse import ExhaustiveOracle
from ..faults import CircuitBreaker, TransientEngineError
from ..faults import active as _active_faults
from ..faults import fire
from ..obs import MetricsRegistry, SpanContext, Tracer, get_logger
from ..registry import ModelRegistry, RegistryError
from .batcher import DynamicBatcher
from .stats import ServingStats

__all__ = ["DSEServer", "ModelRoute"]

_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_TRACE_ID_RE = re.compile(r"^[0-9a-fA-F-]{8,64}$")

_MAX_BODY_BYTES = 8 << 20
_MAX_WORKLOADS_PER_REQUEST = 65536
_MAX_SWEEP_ROWS = 1 << 20
_MAX_SWEEP_CHUNK = 65536
# Request-head limits, the same as ``http.client``'s.
_MAX_LINE_BYTES = 65536
_MAX_HEADERS = 100
# Threads that run the blocking application layer; admitted requests
# beyond this wait for a free thread (``max_queue`` bounds how many).
_EXECUTOR_WORKERS = min(32, 8 * (os.cpu_count() or 1))
# How long shutdown() lets in-flight requests finish.
_DRAIN_TIMEOUT_S = 10.0
# How long a client may take to send the headers and body that follow a
# request line (answered 408).  The idle wait between keep-alive
# requests is not bounded: the drain hangs those connections up.
_READ_TIMEOUT_S = 5.0
_DRAIN_POLL_S = 0.02
# The backoff a full admission queue asks of its clients (429).
_RETRY_AFTER_S = 1.0


class _BadRequest(ValueError):
    """Client error: reported as HTTP 400 with the message as detail."""


class _NotFound(ValueError):
    """Unknown route or model: reported as HTTP 404."""


class _Refused(Exception):
    """A route refused admission: HTTP ``status`` (429 for a full
    admission queue, 503 for an open circuit breaker) + Retry-After."""

    def __init__(self, status: int, message: str, retry_after_s: float):
        self.status = status
        self.retry_after_s = retry_after_s
        super().__init__(f"{message}; retry after {retry_after_s:g}s")

    @property
    def retry_after_header(self) -> str:
        return str(max(1, -(-int(self.retry_after_s * 1000) // 1000)))


class _RequestTimeout(Exception):
    """A request exceeded the per-route timeout: HTTP 504."""


class _MalformedRequest(ValueError):
    """A request head or body that cannot be read: answered with
    ``status``, then the connection is closed."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


def _head(status: int, headers) -> bytes:
    """An HTTP/1.1 response head (status line + headers + blank line)."""
    lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
             "Server: repro-dse",
             f"Date: {formatdate(usegmt=True)}"]
    lines += [f"{name}: {value}" for name, value in headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _read_headers(reader: asyncio.StreamReader) -> dict[str, str] | None:
    """The header lines up to the blank line, or ``None`` past
    ``_MAX_HEADERS``; a line over the reader's limit raises ValueError."""
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        hline = await reader.readline()
        if hline in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = hline.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return None


def _parse_workloads(doc, limit: int = _MAX_WORKLOADS_PER_REQUEST) \
        -> list[tuple[int, int, int, int]]:
    if isinstance(doc, dict) and "workloads" in doc:
        items = doc["workloads"]
    else:
        items = doc
    if isinstance(items, dict):
        items = [items]
    if not isinstance(items, list) or not items:
        raise _BadRequest("body must be a workload object or a non-empty "
                          "'workloads' list")
    if len(items) > limit:
        raise _BadRequest(f"too many workloads in one request (max {limit})")
    rows = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise _BadRequest(f"workloads[{i}]: expected an object")
        try:
            rows.append((int(item["m"]), int(item["n"]), int(item["k"]),
                         int(item.get("dataflow", 0))))
        except (KeyError, TypeError, ValueError) as exc:
            raise _BadRequest(f"workloads[{i}]: needs integer 'm', 'n', "
                              f"'k' (and optional 'dataflow'): {exc}") \
                from None
    return rows


def _require_dict(doc, endpoint: str) -> dict:
    if not isinstance(doc, dict):
        raise _BadRequest(f"{endpoint} body must be a JSON object, "
                          f"got {type(doc).__name__}")
    return doc


def _flag(doc: dict, key: str) -> bool:
    """A boolean request field: JSON ``true`` or ``false``; absent is
    false.  Anything else (``"false"``, ``0``, ``null``) is a 400."""
    value = doc.get(key, False)
    if not isinstance(value, bool):
        raise _BadRequest(f"{key!r} must be true or false, "
                          f"got {json.dumps(value)[:64]}")
    return value


class ModelRoute:
    """One served model: engine, dynamic-batcher queue, stats, breaker.

    Routes are the unit of multi-model serving: each has its own request
    queue (so one model's burst never stalls another's latency), its own
    :class:`ServingStats` (read through :meth:`stats_snapshot`), one
    engine that serves both the batcher's ``/predict`` passes and
    ``/sweep`` chunks, and one admission guard (:meth:`admitted`) that
    both endpoints go through.  The route owns its model: nothing else
    in the server keeps it.
    """

    def __init__(self, name: str, model: AirchitectV2, *,
                 max_batch_size: int,
                 source: str = "direct",
                 max_queue: int | None = None,
                 breaker_threshold: int | None = 5,
                 breaker_reset_s: float = 30.0,
                 registry: MetricsRegistry | None = None):
        self.name = name
        self.model = model
        self.problem = model.problem
        self.source = source
        self.max_queue = max_queue
        self._inflight = 0
        self._admission_lock = threading.Lock()
        self.stats = ServingStats(registry=registry,
                                  labels={"model": name})
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_timeout_s=breaker_reset_s) \
            if breaker_threshold is not None else None
        # Lazy gauges: the scrape reads the admission counter and the
        # breaker directly, so they cost the hot path nothing extra.
        self._gauges = []
        if registry is not None:
            inflight = registry.gauge(
                "repro_inflight_requests",
                "Requests admitted and not yet answered.", ("model",))
            inflight.labels(model=name).set_function(lambda: self.inflight)
            self._gauges.append(inflight)
            if self.breaker is not None:
                breaker = registry.gauge(
                    "repro_breaker_state",
                    "Circuit breaker state per route "
                    "(0=closed, 1=half-open, 2=open).", ("model",))
                breaker.labels(model=name).set_function(
                    lambda: float(self.breaker.state_code))
                self._gauges.append(breaker)
        self.last_served = time.time()
        self.engine = BatchedDSEPredictor(model,
                                          on_batch=self.stats.record_forward)
        self.batcher = DynamicBatcher(self.engine,
                                      max_batch_size=max_batch_size,
                                      stats=self.stats, start=False)

    # ------------------------------------------------------------------
    # Admission control (the bounded per-route queue)
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Requests currently admitted (queued or being served)."""
        with self._admission_lock:
            return self._inflight

    def try_admit(self) -> bool:
        """Claim one admission slot; ``False`` once ``max_queue`` are
        in flight (the caller answers 429 instead of queueing)."""
        with self._admission_lock:
            if self.max_queue is not None and self._inflight >= self.max_queue:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._admission_lock:
            self._inflight = max(0, self._inflight - 1)

    @contextmanager
    def admitted(self):
        """Admit one request for the body of the ``with``.

        Entry raises :class:`_Refused`: 503 while the circuit breaker is
        open, 429 once ``max_queue`` requests are in flight.  An admitted
        request holds its slot until the body exits, and the exit
        reports exactly one breaker outcome: success, a failure for an
        exception, and neutral for a client error or a client hang-up
        (``GeneratorExit``), which can neither trip nor heal the
        breaker.  A half-open breaker holds its single probe slot until
        that outcome arrives.
        """
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            raise _Refused(503, f"route {self.name!r} is shedding load after "
                                f"repeated engine failures (circuit breaker "
                                f"open)", breaker.retry_after_s())
        if not self.try_admit():
            if breaker is not None:
                breaker.record_neutral()
            raise _Refused(429, f"route {self.name!r} admission queue is "
                                f"full (max_queue={self.max_queue})",
                           _RETRY_AFTER_S)
        try:
            yield
        except (_BadRequest, GeneratorExit):
            if breaker is not None:
                breaker.record_neutral()
            raise
        except BaseException:
            if breaker is not None:
                breaker.record_failure()
            raise
        else:
            if breaker is not None:
                breaker.record_success()
        finally:
            self.release()

    def start(self) -> None:
        self.batcher.start()

    def stop(self) -> None:
        self.batcher.stop()
        # Drop the lazy gauges so an evicted route's scrape callbacks
        # cannot outlive the route (counters stay: they are history).
        for family in self._gauges:
            family.remove(model=self.name)

    def stats_snapshot(self) -> dict:
        doc = self.stats.snapshot()
        doc["source"] = self.source
        doc["inflight"] = self.inflight
        doc["max_queue"] = self.max_queue
        if self.breaker is not None:
            doc["breaker"] = {"state": self.breaker.state,
                              "opens": self.breaker.opens}
        return doc


class DSEServer:
    """The full serving stack: registry -> routes -> asyncio HTTP server.

    Parameters
    ----------
    model:
        A (trained) :class:`AirchitectV2` served as the ``default_model``
        route.  Optional when ``registry`` is given.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` for the bound one — tests rely on this).
    max_batch_size:
        Every route's batch cap (see :class:`DynamicBatcher`).
    oracle:
        Optional shared :class:`ExhaustiveOracle` for ``with_cost``
        requests and the ``/stats`` cache-hit-rate line; created lazily
        when a request first needs one.  One oracle serves every route
        (all models share the canonical Table-I problem).
    registry:
        A :class:`~repro.registry.ModelRegistry` (or a path to one) whose
        artifacts become servable routes: ``POST /predict`` with
        ``"model": "<id>"`` loads the artifact on first use.
    model_ids:
        Restrict registry serving to these ids (default: every
        manifested artifact is servable).
    default_model:
        Route name served when a request has no ``"model"`` field.
        Defaults to the directly-attached model, else the first of
        ``model_ids``, else the registry's first artifact.
    max_models:
        Cap on concurrently-active *registry* routes; the
        least-recently-served one is stopped and evicted beyond this,
        and its model with it.  Directly-attached models are never
        evicted.
    max_queue:
        Bounded per-route admission queue: above this many in-flight
        requests (queued or being served) a route answers HTTP 429 with
        ``Retry-After: 1`` instead of queueing unboundedly (default:
        unbounded, the pre-admission-control behaviour).
    breaker_threshold / breaker_reset_s:
        Per-route circuit breaker: after ``breaker_threshold``
        consecutive engine failures the route answers 503 (with
        ``Retry-After``) for ``breaker_reset_s`` seconds, then admits a
        single half-open probe.  ``breaker_threshold=None`` disables the
        breaker entirely.
    trace_file:
        NDJSON span-sink path for the server's request
        :class:`~repro.obs.Tracer` (``--trace-file``).
    """

    def __init__(self, model: AirchitectV2 | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_batch_size: int = 64,
                 oracle: ExhaustiveOracle | None = None,
                 request_timeout_s: float = 60.0,
                 registry: ModelRegistry | str | None = None,
                 model_ids: list[str] | None = None,
                 default_model: str | None = None,
                 max_models: int | None = None,
                 max_queue: int | None = None,
                 breaker_threshold: int | None = 5,
                 breaker_reset_s: float = 30.0,
                 trace_file: str | None = None):
        if model is None and registry is None:
            raise ValueError("DSEServer needs a model or a registry")
        if isinstance(registry, (str, bytes)) or hasattr(registry, "__fspath__"):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.oracle = oracle
        self._oracle_lock = threading.Lock()
        self.request_timeout_s = request_timeout_s
        self.started_at = time.time()
        self.max_batch_size = max_batch_size
        self.max_models = max_models
        self.max_queue = max_queue
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self._model_ids = list(model_ids) if model_ids is not None else None
        self.log = get_logger("serving.server")
        # One registry per server: every route's ServingStats publishes
        # into it (labelled by model), and /metrics renders it.
        self.metrics = MetricsRegistry()
        self.metrics.gauge("repro_uptime_seconds",
                           "Seconds since the server started.") \
            .labels().set_function(lambda: time.time() - self.started_at)
        self.metrics.gauge("repro_routes_active",
                           "Model routes currently loaded.") \
            .labels().set_function(lambda: len(self.routes))
        self.tracer = Tracer(sink=trace_file)
        # Routing/transport-level failures (no route to blame them on).
        self._errors = ServingStats(registry=self.metrics,
                                    labels={"model": "_transport"})
        armed = _active_faults()
        if armed is not None:
            # Surface the armed fault points (and their fire counts) on
            # /metrics so chaos runs can observe injection from outside.
            armed.attach_metrics(self.metrics)
        self.routes: dict[str, ModelRoute] = {}
        self._route_lock = threading.RLock()
        self._load_lock = threading.Lock()     # held by registry loads
        self._running = False

        if model is not None:
            name = default_model or "default"
            self.add_model(name, model)
            self.default_model = name
        else:
            candidates = self._model_ids or self.registry.ids()
            if default_model is not None:
                self.default_model = default_model
            elif candidates:
                self.default_model = candidates[0]
            else:
                raise ValueError("registry has no servable artifacts and no "
                                 "default_model was given")
        # Bind now, so `address` names the bound port before start().
        self._sock = socket.create_server((host, port))
        self._sock.setblocking(False)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._aserver: asyncio.Server | None = None
        self._thread: threading.Thread | None = None
        self._draining = False
        # Open connections -> whether a request is being served on each.
        self._conns: dict[asyncio.StreamWriter, bool] = {}
        self._started = threading.Event()
        self._loop_error: BaseException | None = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The actually-bound (host, port)."""
        return self._sock.getsockname()[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def add_model(self, name: str, model: AirchitectV2) -> ModelRoute:
        """Attach a model under ``name`` (started if the server runs)."""
        with self._route_lock:
            if name in self.routes:
                raise ValueError(f"model {name!r} is already served")
            return self._attach_locked(name, model, "direct")

    def _attach_locked(self, name: str, model, source: str) -> ModelRoute:
        """Build, register and (if the server runs) start a route."""
        route = ModelRoute(name, model, max_batch_size=self.max_batch_size,
                           source=source, max_queue=self.max_queue,
                           breaker_threshold=self.breaker_threshold,
                           breaker_reset_s=self.breaker_reset_s,
                           registry=self.metrics)
        self.routes[name] = route
        if self._running:
            route.start()
        self.log.info("route loaded", extra={"model": name,
                                             "source": source})
        return route

    def _servable_from_registry(self, name: str) -> bool:
        if self.registry is None:
            return False
        if self._model_ids is not None and name not in self._model_ids:
            return False
        return self.registry.has(name)

    def _route(self, name: str | None) -> ModelRoute:
        """Resolve a request's model name to an active route.

        Registry-backed models load lazily on first use; over
        ``max_models`` the least-recently-served registry route is
        stopped and evicted, and its model with it.
        """
        name = name or self.default_model
        if not isinstance(name, str):
            raise _BadRequest(f"'model' must be a string, "
                              f"got {type(name).__name__}")
        with self._route_lock:
            route = self.routes.get(name)
            if route is not None:
                route.last_served = time.time()
                return route
        if not self._servable_from_registry(name):
            known = sorted(self.routes)
            if self.registry is not None:
                known = sorted(set(known)
                               | set(self._model_ids or self.registry.ids()))
            raise _NotFound(f"unknown model {name!r}; "
                            f"available: {known}")
        # One load at a time: a burst of first requests loads the
        # artifact once, and the rest find its route on the re-check.
        with self._load_lock:
            with self._route_lock:
                route = self.routes.get(name)
                if route is not None:
                    route.last_served = time.time()
                    return route
            try:
                loaded = self.registry.load(name)
            except RegistryError as exc:
                raise _NotFound(f"model {name!r} could not be loaded from "
                                f"the registry: {exc}") from None
            if not hasattr(loaded, "predict_indices"):
                raise _BadRequest(f"model {name!r} (kind "
                                  f"{self.registry.artifact(name).kind!r}) "
                                  f"has no one-shot inference path; only "
                                  f"models with predict_indices are "
                                  f"servable")
            with self._route_lock:
                route = self._attach_locked(name, loaded, "registry")
                evicted = self._evict_locked(keep=name)
                route.last_served = time.time()
        if evicted is not None:
            evicted.stop()
            self.log.info("route evicted",
                          extra={"model": evicted.name,
                                 "kept": name,
                                 "max_models": self.max_models})
        return route

    def _evict_locked(self, keep: str) -> ModelRoute | None:
        """Pop the stalest registry route beyond ``max_models`` (if any)."""
        if self.max_models is None:
            return None
        candidates = [r for r in self.routes.values()
                      if r.source == "registry" and r.name != keep]
        if len(candidates) + 1 <= self.max_models:
            return None
        stalest = min(candidates, key=lambda r: r.last_served, default=None)
        if stalest is not None:
            del self.routes[stalest.name]
        return stalest

    # ------------------------------------------------------------------
    def _ensure_oracle(self, problem) -> ExhaustiveOracle:
        # Built from the requesting route's problem: going through
        # self.problem here would lazily load the *default* route, which
        # under max_models could evict the very route being served.
        with self._oracle_lock:
            if self.oracle is None:
                self.oracle = ExhaustiveOracle(problem)
            return self.oracle

    def record_error(self) -> None:
        self._errors.record_error()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The Prometheus exposition document served at ``GET /metrics``."""
        return self.metrics.render()

    def begin_request_span(self, name: str, header_trace_id: str | None):
        """Open a front-end span for one request.

        A well-formed incoming ``X-Trace-Id`` header joins the request to
        the caller's existing trace; anything else gets a fresh id.  The
        caller must ``end()`` the span and echo ``span.trace_id`` back in
        the response's ``X-Trace-Id`` header.
        """
        trace_id = None
        if header_trace_id and _TRACE_ID_RE.match(header_trace_id.strip()):
            trace_id = header_trace_id.strip().lower()
        return self.tracer.span(name, trace_id=trace_id)

    # ------------------------------------------------------------------
    # /predict
    # ------------------------------------------------------------------
    def handle_predict(self, doc, trace: SpanContext | None = None) -> dict:
        """Serve one ``/predict`` body through its route's batcher.

        The request runs inside the route's admission guard
        (:meth:`ModelRoute.admitted`: 429 for a full queue, 503 for an
        open breaker), and every admitted request's service latency
        lands in the route's p50/p95/p99 histogram.  ``trace`` (the
        front-end span's context) rides into the batcher so the queue
        wait and forward pass show up as child spans.
        """
        rows = _parse_workloads(doc)
        if not isinstance(doc, dict):
            doc = {}
        with_cost = _flag(doc, "with_cost")
        with_oracle = _flag(doc, "with_oracle")
        route = self._route(doc.get("model"))
        with route.admitted():
            start = time.perf_counter()
            try:
                return self._predict_admitted(route, rows, with_cost,
                                              with_oracle, trace)
            finally:
                route.stats.record_latency(time.perf_counter() - start)

    def _predict_admitted(self, route: ModelRoute, rows, with_cost: bool,
                          with_oracle: bool,
                          trace: SpanContext | None = None) -> dict:
        hit = fire("engine.transient_error")
        if hit is not None:
            raise TransientEngineError(
                str(hit.get("message", "injected transient engine failure")))
        futures = []
        try:
            if len(rows) > route.batcher.max_batch_size:
                # Bulk bodies go straight to the vectorised engine; the
                # queue exists to coalesce *small* concurrent requests.
                served = route.batcher.predict_batch(rows, trace=trace)
            else:
                futures = [route.batcher.submit(m, n, k, df, trace=trace)
                           for m, n, k, df in rows]
                served = [f.result(self.request_timeout_s) for f in futures]
        except FutureTimeout:
            for future in futures:
                future.cancel()     # unserved rows must not burn the engine
            raise _RequestTimeout(
                f"route {route.name!r} request timed out after "
                f"{self.request_timeout_s:g}s") from None
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        predictions = [s.as_dict() for s in served]
        if with_cost or with_oracle:
            oracle = self._ensure_oracle(route.problem)
            inputs = np.array([[s.m, s.n, s.k, s.dataflow] for s in served],
                              dtype=np.int64)
            costs = oracle.cost_at(
                inputs, np.array([s.pe_idx for s in served]),
                np.array([s.l2_idx for s in served]))
            for pred, cost in zip(predictions, costs):
                pred["predicted_cost"] = float(cost)
        if with_oracle:
            # The exact optimum (LRU/persistently cached) plus the
            # prediction's regret against it.
            labels = oracle.solve(inputs)
            opt_pes, opt_l2 = route.problem.space.values(labels.pe_idx,
                                                         labels.l2_idx)
            for i, pred in enumerate(predictions):
                pred["oracle_num_pes"] = int(opt_pes[i])
                pred["oracle_l2_kb"] = int(opt_l2[i])
                pred["oracle_cost"] = float(labels.best_cost[i])
                pred["regret"] = float(
                    pred["predicted_cost"]
                    / max(labels.best_cost[i], 1e-12) - 1.0)
        return {"model": route.name, "predictions": predictions,
                "count": len(predictions)}

    # ------------------------------------------------------------------
    # /sweep (streaming)
    # ------------------------------------------------------------------
    def prepare_sweep(self, doc):
        """Validate and admit a ``/sweep`` body; returns its header
        document and the generator of the documents that follow.

        All client errors and the route's 429/503 surface *here*, before
        the caller commits to a 200 streaming response; the generator
        itself only touches the engine.  It holds the route's admission
        slot until it is exhausted or closed.
        """
        doc = _require_dict(doc, "/sweep")
        route = self._route(doc.get("model"))
        problem = route.problem
        if "random" in doc:
            try:
                count = int(doc["random"])
                seed = int(doc.get("seed", 0))
            except (TypeError, ValueError):
                raise _BadRequest("'random' and 'seed' must be integers") \
                    from None
            if not 1 <= count <= _MAX_SWEEP_ROWS:
                raise _BadRequest(f"'random' must be in 1..{_MAX_SWEEP_ROWS}")
            inputs = problem.sample_inputs(count, np.random.default_rng(seed))
        else:
            rows = _parse_workloads(doc, limit=_MAX_SWEEP_ROWS)
            inputs = np.array(rows, dtype=np.int64)
            bad = (inputs[:, 3] < 0) | \
                (inputs[:, 3] >= problem.bounds.n_dataflows)
            if bad.any():
                raise _BadRequest(
                    f"dataflow must be in 0..{problem.bounds.n_dataflows - 1}")
            m, n, k = problem.clamp_inputs(inputs[:, 0], inputs[:, 1],
                                           inputs[:, 2])
            inputs = np.stack([m, n, k, inputs[:, 3]], axis=1)
        try:
            chunk_size = int(doc.get("chunk_size", 1024))
        except (TypeError, ValueError):
            raise _BadRequest("'chunk_size' must be an integer") from None
        if not 1 <= chunk_size <= _MAX_SWEEP_CHUNK:
            raise _BadRequest(f"'chunk_size' must be in 1..{_MAX_SWEEP_CHUNK}")
        with_cost = _flag(doc, "with_cost")
        # Admit last, after every validation error had its chance to
        # surface: the first next() enters the route's guard.
        docs = self._iter_sweep(route, inputs, chunk_size, with_cost)
        return next(docs), docs

    def _iter_sweep(self, route: ModelRoute, inputs: np.ndarray,
                    chunk_size: int, with_cost: bool):
        """Yield the header, one doc per computed chunk, and a summary,
        all inside the route's admission guard."""
        total = len(inputs)
        chunks = -(-total // chunk_size)
        with route.admitted():
            yield {"model": route.name, "count": total,
                   "chunk_size": chunk_size, "chunks": chunks,
                   "with_cost": with_cost}
            oracle = self._ensure_oracle(route.problem) if with_cost else None
            start = time.perf_counter()
            for index, lo in enumerate(range(0, total, chunk_size)):
                chunk = inputs[lo:lo + chunk_size]
                pe_idx, l2_idx = route.engine.predict_indices(chunk)
                num_pes, l2_kb = route.problem.space.values(pe_idx, l2_idx)
                predictions = [
                    {"m": int(r[0]), "n": int(r[1]), "k": int(r[2]),
                     "dataflow": int(r[3]), "pe_idx": int(pe_idx[i]),
                     "l2_idx": int(l2_idx[i]), "num_pes": int(num_pes[i]),
                     "l2_kb": int(l2_kb[i])}
                    for i, r in enumerate(chunk)]
                if with_cost:
                    costs = oracle.cost_at(chunk, pe_idx, l2_idx)
                    for pred, cost in zip(predictions, costs):
                        pred["predicted_cost"] = float(cost)
                yield {"chunk": index, "start": lo, "count": len(chunk),
                       "predictions": predictions}
            elapsed = time.perf_counter() - start
            route.stats.record_sweep(total, chunks)
            yield {"done": True, "model": route.name, "count": total,
                   "chunks": chunks, "elapsed_s": elapsed,
                   "samples_per_sec": total / max(elapsed, 1e-12)}

    # ------------------------------------------------------------------
    # /stats and /models
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Aggregate counters plus the per-model breakdown."""
        with self._route_lock:
            routes = dict(self.routes)
        per_model = {name: route.stats_snapshot()
                     for name, route in routes.items()}
        # Merge the *same* per-model snapshots that go out in the
        # response, so the aggregate always equals the breakdown's sum
        # plus the transport's errors (and every route's stats lock is
        # taken exactly once).  An evicted route leaves both; its series
        # stay on /metrics.
        doc = ServingStats.merge_snapshots(
            list(per_model.values()) + [self._errors.snapshot()],
            uptime_s=time.time() - self.started_at)
        doc["models"] = per_model
        doc["default_model"] = self.default_model
        if self.oracle is not None:
            info = self.oracle.cache_info()
            doc["oracle_cache"] = {"hits": info.hits, "misses": info.misses,
                                   "size": info.size,
                                   "capacity": info.capacity,
                                   "hit_rate": info.hit_rate}
        return doc

    def models_snapshot(self) -> dict:
        """The ``GET /models`` listing: active routes + registry artifacts."""
        with self._route_lock:
            routes = dict(self.routes)
        entries: dict[str, dict] = {}
        for name, route in routes.items():
            entries[name] = {"model_id": name, "loaded": True,
                             "source": route.source,
                             "requests_total":
                                 route.stats.snapshot()["requests_total"],
                             "head_style": route.model.config.head_style
                             if hasattr(route.model, "config") else None}
        if self.registry is not None:
            for artifact in self.registry.list():
                if self._model_ids is not None \
                        and artifact.model_id not in self._model_ids:
                    continue
                entry = entries.setdefault(
                    artifact.model_id,
                    {"model_id": artifact.model_id, "loaded": False,
                     "source": "registry", "requests_total": 0})
                entry.update(artifact.summary())
                entry["model_id"] = artifact.model_id
        models = sorted(entries.values(), key=lambda e: e["model_id"])
        return {"default_model": self.default_model, "count": len(models),
                "models": models}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DSEServer":
        """Start the routes, then serve from a background event-loop
        thread."""
        with self._route_lock:
            self._running = True
            for route in self.routes.values():
                route.start()
        if self._thread is None:
            self._thread = threading.Thread(target=self._run_loop,
                                            name="dse-http-server",
                                            daemon=True)
            self._thread.start()
            if not self._started.wait(10.0):    # pragma: no cover
                raise RuntimeError("server event loop did not start")
            if self._loop_error is not None:    # pragma: no cover
                raise RuntimeError("server failed to start") \
                    from self._loop_error
        return self

    def shutdown(self) -> None:
        """Graceful drain: stop accepting, let in-flight requests finish
        (for up to ``_DRAIN_TIMEOUT_S``), then stop the event loop, the
        routes and the tracer.  Idempotent, and safe before start()."""
        thread, loop = self._thread, self._loop
        if thread is not None and thread.is_alive() and loop is not None:
            try:
                asyncio.run_coroutine_threadsafe(self._drain(), loop) \
                    .result(_DRAIN_TIMEOUT_S + 5.0)
            except Exception:                   # pragma: no cover
                pass                            # the loop stops regardless
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10.0)
        self._thread = None
        self._sock.close()
        with self._route_lock:
            self._running = False
            routes = list(self.routes.values())
        for route in routes:
            route.stop()
        self.tracer.close()
        self.log.info("server stopped",
                      extra={"routes": [r.name for r in routes]})

    def __enter__(self) -> "DSEServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        executor = ThreadPoolExecutor(max_workers=_EXECUTOR_WORKERS,
                                      thread_name_prefix="dse-http-worker")
        loop.set_default_executor(executor)
        try:
            self._aserver = loop.run_until_complete(asyncio.start_server(
                self._handle_connection, sock=self._sock,
                limit=_MAX_LINE_BYTES))
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
            executor.shutdown(wait=False)

    async def _drain(self) -> None:
        self._draining = True
        loop = asyncio.get_running_loop()
        # Stop accepting, and give connections accepted in this loop
        # iteration one step to attach to the server: asyncio drops a
        # connection accepted before close() but attached after it
        # without closing its socket, and that client would hang.
        loop.remove_reader(self._sock)
        await asyncio.sleep(0)
        # Closing the listener refuses new connections at once.  Open
        # ones are not waited on here (from Python 3.12, wait_closed()
        # would wait for idle keep-alive connections too).
        self._aserver.close()
        deadline = loop.time() + _DRAIN_TIMEOUT_S
        while True:
            await asyncio.sleep(_DRAIN_POLL_S)
            # Every connection is a task until it closes — including one
            # accepted just before the listener closed, whose handler has
            # not registered in _conns yet.  Only this task may remain.
            if len(asyncio.all_tasks()) == 1 or loop.time() >= deadline:
                return
            for writer, busy in list(self._conns.items()):
                if not busy:        # idle keep-alive: hang up now
                    writer.close()

    # ------------------------------------------------------------------
    # HTTP transport
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._conns[writer] = False
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _MalformedRequest as exc:
                    await self._send(writer, exc.status, {"error": str(exc)})
                    break
                if request is None:
                    break
                method, path, version, headers = request
                self._conns[writer] = True
                try:
                    keep_alive = await self._dispatch(writer, reader,
                                                      method, path, headers)
                finally:
                    self._conns[writer] = False
                connection = headers.get("connection", "").lower()
                if not keep_alive or self._draining or connection == "close" \
                        or (version == "HTTP/1.0"
                            and connection != "keep-alive"):
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            self._conns.pop(writer, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """One request line and its headers, or ``None`` at EOF.

        Raises :class:`_MalformedRequest` for a head that cannot be
        served: a bad request line (400), a line longer than the stream
        limit (414 for the request line, 431 for a header), more than
        ``_MAX_HEADERS`` headers (431) or headers that take longer than
        ``_READ_TIMEOUT_S`` to arrive (408).
        """
        try:
            line = await reader.readline()
        except ValueError:                  # over the reader's line limit
            raise _MalformedRequest(
                414, f"request line longer than {_MAX_LINE_BYTES} bytes") \
                from None
        text = line.decode("latin-1").strip()
        if not text:
            return None
        parts = text.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _MalformedRequest(400, f"malformed request line "
                                         f"{text[:80]!r}")
        try:
            headers = await asyncio.wait_for(_read_headers(reader),
                                             _READ_TIMEOUT_S)
        except ValueError:
            raise _MalformedRequest(
                431, f"header line longer than {_MAX_LINE_BYTES} bytes") \
                from None
        except asyncio.TimeoutError:
            raise _MalformedRequest(
                408, f"request headers not received within "
                     f"{_READ_TIMEOUT_S:g}s") from None
        if headers is None:
            raise _MalformedRequest(431, f"more than {_MAX_HEADERS} headers")
        return parts[0], parts[1], parts[2], headers

    @staticmethod
    async def _read_json_body(reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter,
                              headers: dict[str, str]):
        try:
            length = int(headers.get("content-length", 0))
        except (TypeError, ValueError):
            raise _BadRequest("invalid Content-Length header") from None
        if length <= 0 or length > _MAX_BODY_BYTES:
            raise _BadRequest(f"Content-Length required (max "
                              f"{_MAX_BODY_BYTES} bytes)")
        if headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            body = await asyncio.wait_for(reader.readexactly(length),
                                          _READ_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise _MalformedRequest(
                408, f"request body not received within "
                     f"{_READ_TIMEOUT_S:g}s") from None
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"invalid JSON: {exc}") from None

    async def _send(self, writer: asyncio.StreamWriter, status: int, doc,
                    extra_headers=(),
                    content_type: str = "application/json") -> bool:
        """Write one response (``doc`` is JSON-encoded unless already
        bytes); returns whether to keep the connection alive.  Error
        responses close it: their request body may be unread, and under
        keep-alive those bytes would desync the next request."""
        body = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        close = status >= 400 or self._draining
        headers = [("Content-Type", content_type),
                   ("Content-Length", str(len(body))), *extra_headers]
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
                    return await self._send(
                        writer, 200, text.encode(),
                        content_type=_METRICS_CONTENT_TYPE)
            if method != "POST" or path not in ("/predict", "/sweep"):
                return await self._send(writer, 404, {
                    "error": f"unknown route {method} {path!r}"})
            span = self.begin_request_span(f"http.{path[1:]}",
                                           headers.get("x-trace-id"))
            trace_headers.append(("X-Trace-Id", span.trace_id))
            doc = await self._read_json_body(reader, writer, headers)
            if self._draining:
                return await self._send(writer, 503, {
                    "error": "server is draining; request rejected"},
                    trace_headers)
            if path == "/predict":
                # The inner future wait already enforces
                # request_timeout_s; the outer wait_for is the backstop
                # for blocking work outside a future (oracle, engine).
                # self.handle_predict is looked up per request, so a
                # wrapper installed on the class sees every call.
                trace = span.context
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
        except _Refused as exc:
            return await self._send(
                writer, exc.status, {"error": str(exc)},
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
        except _MalformedRequest as exc:
            return await self._send(writer, exc.status, {"error": str(exc)},
                                    trace_headers)
        except Exception as exc:    # pragma: no cover - defensive 500 path
            self.record_error()
            return await self._send(writer, 500, {
                "error": f"{type(exc).__name__}: {exc}"}, trace_headers)
        finally:
            if span is not None:
                span.end()

    async def _stream_sweep(self, writer, doc, trace_headers=()) -> bool:
        """Send the sweep as a chunked NDJSON response.

        Each document is one ndjson line in its own HTTP chunk, written
        as soon as an executor thread computes it — the client reads
        chunk K while the server computes chunk K+1.  Validation and
        admission errors raise before the response commits (the caller
        turns them into clean statuses); a failure mid-stream appends an
        ``{"error": ...}`` line and closes the connection, and a client
        hang-up closes the generator, which releases the admission slot.
        """
        loop = asyncio.get_running_loop()
        item, chunks = await asyncio.wait_for(
            loop.run_in_executor(None, self.prepare_sweep, doc),
            self.request_timeout_s + 1.0)
        writer.write(_head(200, [("Content-Type", "application/x-ndjson"),
                                 ("Transfer-Encoding", "chunked"),
                                 *trace_headers]))
        sentinel = object()
        try:
            while item is not sentinel:
                self._write_chunk(writer, item)
                await writer.drain()
                item = await asyncio.wait_for(
                    loop.run_in_executor(None, next, chunks, sentinel),
                    self.request_timeout_s + 1.0)
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
