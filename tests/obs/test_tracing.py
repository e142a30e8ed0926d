"""Tracer/Span: id propagation, ring bounds, NDJSON sink, thread scope."""

from __future__ import annotations

import json
import os
import random
import threading

import pytest

from repro.obs import (SpanContext, Tracer, current_engine_contexts,
                       engine_trace_scope)


@pytest.fixture
def tracer():
    return Tracer(ring_size=64)


class TestSpans:
    def test_parent_child_share_trace_id(self, tracer):
        parent = tracer.span("http.predict")
        child = tracer.span("queue.wait", parent=parent.context)
        child.end()
        parent.end()
        spans = tracer.find_trace(parent.trace_id)
        assert {s["name"] for s in spans} == {"http.predict", "queue.wait"}
        by_name = {s["name"]: s for s in spans}
        assert by_name["queue.wait"]["parent_id"] == parent.span_id
        assert by_name["http.predict"]["parent_id"] is None

    def test_span_ids_unique(self, tracer):
        ids = {tracer.span("s").span_id for _ in range(100)}
        assert len(ids) == 100

    def test_ids_ignore_the_global_random_seed(self, tracer):
        state = random.getstate()
        try:
            random.seed(0)
            first = tracer.span("root")
            random.seed(0)
            second = tracer.span("root")
        finally:
            random.setstate(state)
        assert first.trace_id != second.trace_id
        assert first.span_id != second.span_id

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_ids_are_hex_and_distinct_across_fork(self, tracer):
        span = tracer.span("root")
        assert len(span.trace_id) == 32 and len(span.span_id) == 16
        int(span.trace_id + span.span_id, 16)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:                    # child: report its next root ids
            child = tracer.span("root")
            os.write(write, (child.trace_id + child.span_id).encode())
            os._exit(0)
        os.close(write)
        with os.fdopen(read) as pipe:
            child_ids = pipe.read()
        os.waitpid(pid, 0)
        parent = tracer.span("root")
        assert len(child_ids) == 48
        assert child_ids != parent.trace_id + parent.span_id

    def test_explicit_trace_id_joins(self, tracer):
        span = tracer.span("joined", trace_id="feedface01")
        span.end()
        assert tracer.find_trace("feedface01")

    def test_context_manager_records_error_status(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("engine exploded")
        doc = tracer.export()[-1]
        assert doc["status"] == "error"
        assert "RuntimeError" in doc["attributes"]["error"]

    def test_backdated_span_duration(self, tracer):
        span = tracer.span("queue.wait")
        span.start_time -= 1.5
        span.end(duration_s=1.5)
        doc = tracer.export()[-1]
        assert doc["duration_ms"] == pytest.approx(1500.0)

    def test_end_is_idempotent(self, tracer):
        span = tracer.span("once")
        span.end()
        span.end()
        assert len(tracer.export()) == 1

    def test_attributes_exported(self, tracer):
        tracer.span("s", attributes={"rows": 4}) \
            .set_attribute("batch_size", 8).end()
        doc = tracer.export()[-1]
        assert doc["attributes"] == {"rows": 4, "batch_size": 8}


class TestRing:
    def test_ring_bounds_and_drop_accounting(self):
        tracer = Tracer(ring_size=4)
        for i in range(10):
            tracer.span(f"s{i}").end()
        spans = tracer.export()
        assert len(spans) == 4
        assert [s["name"] for s in spans] == ["s6", "s7", "s8", "s9"]
        snap = tracer.snapshot()
        assert snap["spans_total"] == 10
        assert snap["spans_dropped"] == 6
        assert snap["ring_used"] == 4

    def test_export_limit_returns_most_recent(self, tracer):
        for i in range(5):
            tracer.span(f"s{i}").end()
        assert [s["name"] for s in tracer.export(limit=2)] == ["s3", "s4"]


class TestSink:
    def test_ndjson_sink_one_line_per_span(self, tmp_path):
        path = tmp_path / "traces.ndjson"
        tracer = Tracer(sink=str(path))
        tracer.span("a").end()
        tracer.span("b").end()
        tracer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert {json.loads(line)["name"] for line in lines} == {"a", "b"}

    def test_sink_opened_lazily(self, tmp_path):
        path = tmp_path / "never.ndjson"
        tracer = Tracer(sink=str(path))
        tracer.close()
        assert not path.exists()


class TestEngineScope:
    def test_scope_sets_and_restores(self, tracer):
        ctx = tracer.span("outer").context
        assert current_engine_contexts() == ()
        with engine_trace_scope((ctx,)):
            assert current_engine_contexts() == (ctx,)
            with engine_trace_scope(()):
                assert current_engine_contexts() == ()
            assert current_engine_contexts() == (ctx,)
        assert current_engine_contexts() == ()

    def test_scope_filters_none(self, tracer):
        ctx = tracer.span("s").context
        with engine_trace_scope((None, ctx, None)):
            assert current_engine_contexts() == (ctx,)

    def test_scope_is_thread_local(self, tracer):
        ctx = tracer.span("s").context
        seen = {}

        def worker():
            seen["other"] = current_engine_contexts()

        with engine_trace_scope((ctx,)):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["other"] == ()

    def test_span_context_equality_ignores_tracer(self, tracer):
        ctx = tracer.span("s").context
        clone = SpanContext(ctx.trace_id, ctx.span_id, tracer=None)
        assert ctx == clone
        assert len({ctx, clone}) == 1
