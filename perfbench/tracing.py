"""In-memory span recorder and the layer wrappers of the traced run.

Spans carry a name, a start, an end and the index of their parent span
(the innermost open span on the same thread).  They stay in memory until
the run ends, when :meth:`SpanRecorder.summary` folds them into per-name
counts, total time, self time (duration minus the time covered by child
spans) and the median duration.

The wrappers replace public functions of the program's modules with
timing shims.  Callers inside the program resolve these names through
the module or class at call time (``fused.linear(...)``,
``self.handle_predict(...)``), so the shims see every call without any
change to the program itself.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager

#: ``repro.nn.fused`` kernels timed in the traced run: the top forward
#: ops of the transformer encoder/decoder (attention scores are
#: ``scaled_matmul``).
FUSED_OPS = ("linear", "layer_norm", "gelu", "softmax", "scaled_matmul")


class SpanRecorder:
    """Thread-aware span store (``list.append`` is atomic under the GIL)."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, rows]
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rows: int = 0):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), None, parent, rows]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, rows=None) -> None:
        """Replace ``owner.attr`` with a shim recording one span per call.

        ``rows(args)`` optionally extracts a work count from the call's
        positional arguments (e.g. rows in a forward pass).
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def shim(*args, **kwargs):
            with recorder.span(name, rows(args) if rows else 0):
                return original(*args, **kwargs)

        setattr(owner, attr, shim)

    def summary(self, start: int = 0, end: int | None = None) -> dict:
        """Per span name over ``spans[start:end]``: calls, rows,
        total/self seconds and p50 milliseconds."""
        spans = self.spans[:end]
        child_time = [0.0] * len(spans)
        for name, begin, finish, parent, _ in spans[start:]:
            if parent >= 0 and finish is not None:
                child_time[parent] += finish - begin
        out: dict[str, dict] = {}
        durations: dict[str, list[float]] = {}
        for i in range(start, len(spans)):
            name, begin, finish, _, rows = spans[i]
            if finish is None:
                continue
            doc = out.setdefault(name, {"calls": 0, "rows": 0,
                                        "total_s": 0.0, "self_s": 0.0})
            doc["calls"] += 1
            doc["rows"] += rows
            doc["total_s"] += finish - begin
            doc["self_s"] += finish - begin - child_time[i]
            durations.setdefault(name, []).append(finish - begin)
        for name, values in durations.items():
            out[name]["p50_ms"] = statistics.median(values) * 1e3
        return out


def _rows_of_inputs(args) -> int:
    """Rows in the ``inputs`` argument of ``predict_indices``/``cost_at``."""
    try:
        return len(args[1])
    except (IndexError, TypeError):
        return 0


def install_nn(recorder: SpanRecorder) -> None:
    """Time the fused forward kernels (``nn.fused.<op>``)."""
    from repro.nn import fused
    for op in FUSED_OPS:
        recorder.wrap(fused, op, f"nn.fused.{op}")


def install_serving(recorder: SpanRecorder) -> None:
    """Time the serving application layer, the engine and the oracle."""
    from repro.core import BatchedDSEPredictor
    from repro.dse import ExhaustiveOracle
    from repro.serving import DSEServer
    recorder.wrap(DSEServer, "handle_predict", "serving.handle_predict")
    recorder.wrap(BatchedDSEPredictor, "predict_indices", "core.forward",
                  rows=_rows_of_inputs)
    recorder.wrap(ExhaustiveOracle, "solve", "dse.oracle_solve",
                  rows=_rows_of_inputs)
    recorder.wrap(ExhaustiveOracle, "cost_at", "dse.cost_at",
                  rows=_rows_of_inputs)
    install_nn(recorder)
