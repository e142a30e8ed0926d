"""/metrics exposition, /stats compatibility, and end-to-end tracing."""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.serving import DSEServer
from repro.serving.stats import ServingStats

_SERIES_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? ")

# The exact top-level /stats key order PR 6 shipped; clients key on it.
_STATS_KEYS = (
    "uptime_s", "requests_total", "batches_total", "samples_total",
    "queued_samples", "forward_passes", "forward_rows", "forward_time_s",
    "queue_wait_total_s", "sweeps_total", "sweep_rows_total",
    "sweep_chunks_total", "errors_total", "mean_batch_size",
    "mean_queue_wait_ms", "max_queue_wait_ms", "latency", "models",
    "default_model",
)


@pytest.fixture
def server(serve_model):
    srv = DSEServer(serve_model, port=0, max_batch_size=16, max_wait_ms=2)
    with srv:
        yield srv


def _get_raw(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as resp:
        return resp.status, dict(resp.headers), resp.read()


def _post(server, path, doc):
    req = urllib.request.Request(server.url + path,
                                 data=json.dumps(doc).encode())
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, dict(resp.headers), json.loads(resp.read())


def _wait_for_spans(tracer, trace_id, names, timeout=5.0):
    """Span emission is off the response critical path; poll briefly."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        spans = tracer.find_trace(trace_id)
        if names <= {s["name"] for s in spans}:
            return spans
        time.sleep(0.01)
    return tracer.find_trace(trace_id)


class TestMetricsEndpoint:
    def test_exposition_content_type_and_shape(self, server):
        status, headers, body = _get_raw(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"] \
            == "text/plain; version=0.0.4; charset=utf-8"
        text = body.decode()
        assert text.endswith("\n")
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_request_latency_seconds histogram" in text

    def test_requests_counted_per_model(self, server):
        _post(server, "/predict", {"m": 8, "n": 8, "k": 8})
        _, _, body = _get_raw(server, "/metrics")
        pattern = re.compile(
            r'repro_requests_total\{[^}]*model="default"[^}]*\} (\d+)')
        match = pattern.search(body.decode())
        assert match and int(match.group(1)) >= 1

    def test_no_duplicate_series(self, server):
        _post(server, "/predict", {"m": 8, "n": 8, "k": 8})
        _, _, body = _get_raw(server, "/metrics")
        lines = [_SERIES_RE.match(line).group(0)
                 for line in body.decode().splitlines()
                 if line and not line.startswith("#")]
        assert len(lines) == len(set(lines))


class TestStatsCompatibility:
    def test_stats_key_order_unchanged(self, server):
        _post(server, "/predict", {"m": 8, "n": 8, "k": 8})
        _, _, body = _get_raw(server, "/stats")
        doc = json.loads(body)
        keys = tuple(doc)
        # oracle_cache only appears once an oracle request warmed it.
        assert keys == _STATS_KEYS or keys == _STATS_KEYS + ("oracle_cache",)
        assert doc["requests_total"] >= 1
        assert set(doc["latency"]) >= {"count", "p50_ms", "p95_ms",
                                       "p99_ms", "total_s"}

    def test_stats_registry_and_metrics_agree(self, server):
        for _ in range(3):
            _post(server, "/predict", {"m": 8, "n": 8, "k": 8})
        _, _, stats_body = _get_raw(server, "/stats")
        _, _, metrics_body = _get_raw(server, "/metrics")
        doc = json.loads(stats_body)
        match = re.search(
            r'repro_requests_total\{[^}]*model="default"[^}]*\} (\d+)',
            metrics_body.decode())
        assert int(match.group(1)) == doc["requests_total"]

    def test_merge_snapshots_tolerates_missing_keys(self):
        """Satellite fix: a snapshot predating a newly-added counter must
        contribute zero, not raise KeyError out of /stats."""
        full = ServingStats().snapshot()
        legacy = dict(full)
        del legacy["sweeps_total"]
        del legacy["queue_wait_total_s"]
        merged = ServingStats.merge_snapshots([full, legacy], uptime_s=1.0)
        assert merged["sweeps_total"] == full["sweeps_total"]
        assert merged["errors_total"] == 0


class TestTracing:
    def test_batcher_request_produces_one_linked_trace(self, server):
        """Acceptance criterion: one batcher-served request yields one
        trace whose front-end, queue-wait, and engine-forward spans all
        share the trace id echoed in ``X-Trace-Id``."""
        _, headers, _ = _post(server, "/predict", {"m": 8, "n": 8, "k": 8})
        trace_id = headers["X-Trace-Id"]
        spans = _wait_for_spans(server.tracer, trace_id,
                                {"http.predict", "queue.wait",
                                 "engine.forward"})
        names = [s["name"] for s in spans]
        assert {"http.predict", "queue.wait", "engine.forward"} <= set(names)
        assert names.count("engine.forward") == 1
        assert all(s["trace_id"] == trace_id for s in spans)
        by_name = {s["name"]: s for s in spans}
        assert by_name["queue.wait"]["parent_id"] \
            == by_name["http.predict"]["span_id"]

    def test_incoming_trace_id_header_joins(self, server):
        req = urllib.request.Request(
            server.url + "/predict",
            data=json.dumps({"m": 8, "n": 8, "k": 8}).encode(),
            headers={"X-Trace-Id": "feedfacecafe0123"})
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.headers["X-Trace-Id"] == "feedfacecafe0123"
        spans = _wait_for_spans(server.tracer, "feedfacecafe0123",
                                {"http.predict"})
        assert spans

    def test_malformed_trace_id_gets_fresh_id(self, server):
        req = urllib.request.Request(
            server.url + "/predict",
            data=json.dumps({"m": 8, "n": 8, "k": 8}).encode(),
            headers={"X-Trace-Id": "not hex!"})
        with urllib.request.urlopen(req, timeout=30) as resp:
            echoed = resp.headers["X-Trace-Id"]
        assert echoed and echoed != "not hex!"

    def test_tracing_disabled_omits_header(self, serve_model):
        srv = DSEServer(serve_model, port=0, max_batch_size=16,
                        max_wait_ms=2, enable_tracing=False)
        with srv:
            _, headers, _ = _post(srv, "/predict", {"m": 8, "n": 8, "k": 8})
        assert "X-Trace-Id" not in headers
        assert srv.tracer is None

    def test_trace_file_sink_receives_spans(self, serve_model, tmp_path):
        path = tmp_path / "spans.ndjson"
        srv = DSEServer(serve_model, port=0, max_batch_size=16,
                        max_wait_ms=2, trace_file=str(path))
        with srv:
            _, headers, _ = _post(srv, "/predict", {"m": 8, "n": 8, "k": 8})
            trace_id = headers["X-Trace-Id"]
            _wait_for_spans(srv.tracer, trace_id, {"engine.forward"})
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert any(doc["trace_id"] == trace_id for doc in lines)
