"""Request tracing: trace/span ids, bounded in-memory export, NDJSON sink.

A *trace* is one request's journey through the serving stack; a *span*
is one timed segment of it (the HTTP front-end, the batcher queue wait,
the engine forward pass).  Spans carry a shared ``trace_id``, their own
``span_id``, and an optional ``parent_id``, so one request served
through :class:`~repro.serving.DynamicBatcher` exports as one coherent
tree even though its segments run on three different threads.

Design constraints, in order:

* **Cheap when off** — everything checks ``tracer is None`` first; an
  un-traced request costs one attribute read.
* **Cheap when on** — ids are random hex (no uuid machinery),
  finished spans go into a bounded ring (:class:`collections.deque`)
  and, optionally, one ``json.dumps`` line into an append-only NDJSON
  file.  No locks are held during user code.
* **Explicit propagation across threads** — the serving path hands
  :class:`SpanContext` values through ``submit(..., trace=...)`` and the
  :func:`engine_trace_scope` thread-local, because the batcher worker
  and asyncio executor threads do not share ``contextvars`` with the
  request's origin.

:func:`current_engine_contexts` is the engine-side half of the handoff:
:class:`~repro.core.BatchedDSEPredictor` reads it around each forward
pass and emits one ``engine.forward`` span per active trace, which is
how a coalesced batch attributes its single forward pass to every
request that shared it.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = ["SpanContext", "Span", "Tracer", "engine_trace_scope",
           "current_engine_contexts"]


# Ids come from a private generator rather than os.urandom: that system
# call releases the GIL, and a request thread that lets go of it just
# before its request is queued waits behind every runnable thread to get
# it back, so its request misses the batch being formed.  The generator
# is seeded from os.urandom and reseeded in a forked child, so ids stay
# distinct across processes.
_ids = random.Random()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_ids.seed)


def new_id(nbytes: int = 8) -> str:
    return f"{_ids.getrandbits(8 * nbytes):0{2 * nbytes}x}"


@dataclass(frozen=True)
class SpanContext:
    """What propagates between threads: the ids plus the owning tracer."""

    trace_id: str
    span_id: str
    tracer: "Tracer | None" = field(default=None, compare=False,
                                    repr=False)

    def child_of(self) -> tuple[str, str]:
        return self.trace_id, self.span_id


class Span:
    """One in-flight timed segment; context-manager or manual ``end()``."""

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent_id",
                 "attributes", "status", "start_time", "_start_pc",
                 "_ended")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 parent_id: str | None = None, attributes: dict | None = None):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_id()
        self.parent_id = parent_id
        self.attributes = dict(attributes) if attributes else {}
        self.status = "ok"
        self.start_time = time.time()
        self._start_pc = time.perf_counter()
        self._ended = False

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, self.tracer)

    def set_attribute(self, key: str, value) -> "Span":
        self.attributes[key] = value
        return self

    def end(self, duration_s: float | None = None) -> None:
        if self._ended:
            return
        self._ended = True
        if duration_s is None:
            duration_s = time.perf_counter() - self._start_pc
        self.tracer._export({
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_time": self.start_time,
            "duration_ms": duration_s * 1e3,
            "status": self.status,
            "attributes": self.attributes,
        })

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.end()


class Tracer:
    """Create spans; keep finished ones in a ring + optional NDJSON sink.

    Parameters
    ----------
    ring_size:
        How many finished spans the in-memory ring retains (oldest are
        dropped).  ``export()``/``find_trace()`` read from it.
    sink:
        Optional path of an append-only NDJSON file; every finished span
        is written as one JSON line (flushed per span, so a crash loses
        at most the in-flight one).  ``close()`` closes the handle.
    """

    def __init__(self, ring_size: int = 2048, sink: str | None = None):
        self._ring: deque[dict] = deque(maxlen=max(1, int(ring_size)))
        self._lock = threading.Lock()
        self.sink_path = sink
        self._sink_file = None
        self.spans_total = 0
        self.spans_dropped = 0

    # ------------------------------------------------------------------
    def new_trace_id(self) -> str:
        return new_id(16)

    def span(self, name: str, *, trace_id: str | None = None,
             parent: SpanContext | None = None,
             attributes: dict | None = None) -> Span:
        if parent is not None:
            return Span(self, name, parent.trace_id, parent.span_id,
                        attributes)
        return Span(self, name, trace_id or self.new_trace_id(),
                    None, attributes)

    # ------------------------------------------------------------------
    def _export(self, doc: dict) -> None:
        with self._lock:
            self.spans_total += 1
            if len(self._ring) == self._ring.maxlen:
                self.spans_dropped += 1
            self._ring.append(doc)
            if self.sink_path is not None:
                if self._sink_file is None:
                    self._sink_file = open(self.sink_path, "a")
                self._sink_file.write(json.dumps(doc) + "\n")
                self._sink_file.flush()

    def export(self, limit: int | None = None) -> list[dict]:
        """Finished spans, oldest first (most recent ``limit`` if given)."""
        with self._lock:
            spans = list(self._ring)
        return spans[-limit:] if limit else spans

    def find_trace(self, trace_id: str) -> list[dict]:
        """Every retained span of one trace, oldest first."""
        return [s for s in self.export() if s["trace_id"] == trace_id]

    def snapshot(self) -> dict:
        with self._lock:
            return {"spans_total": self.spans_total,
                    "spans_dropped": self.spans_dropped,
                    "ring_size": self._ring.maxlen,
                    "ring_used": len(self._ring),
                    "sink": self.sink_path}

    def close(self) -> None:
        with self._lock:
            if self._sink_file is not None:
                self._sink_file.close()
                self._sink_file = None


# ----------------------------------------------------------------------
# Engine-side propagation (explicitly thread-local: the batcher worker
# serves many traces' rows in one forward pass, on its own thread).
# ----------------------------------------------------------------------
_engine_scope = threading.local()


class engine_trace_scope:
    """Mark the contexts whose rows the *current thread's* next engine
    calls serve.  The batcher wraps its forward pass in this so
    :class:`~repro.core.BatchedDSEPredictor` can attribute the pass to
    every coalesced request."""

    def __init__(self, contexts):
        self.contexts = tuple(c for c in contexts if c is not None)

    def __enter__(self):
        self._previous = getattr(_engine_scope, "contexts", ())
        _engine_scope.contexts = self.contexts
        return self

    def __exit__(self, *exc) -> None:
        _engine_scope.contexts = self._previous


def current_engine_contexts() -> tuple[SpanContext, ...]:
    """The active trace contexts for engine calls on this thread."""
    return getattr(_engine_scope, "contexts", ())
