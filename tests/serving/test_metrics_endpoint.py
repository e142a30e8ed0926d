"""/metrics exposition, /stats compatibility, and end-to-end tracing."""

from __future__ import annotations

import json
import pathlib
import re
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.dse import ExhaustiveOracle
from repro.registry import ModelRegistry
from repro.serving import DSEServer

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

# The /stats and /metrics bytes of ``TestStatsGolden``'s fixed traffic,
# captured before the stats path was rebuilt on one series declaration.
_GOLDEN_STATS = (
    b'{"uptime_s": 0.0, "requests_total": 4, "batches_total": 2, '
    b'"samples_total": 4, "queued_samples": 2, "forward_passes": 3, '
    b'"forward_rows": 68, "forward_time_s": 0.0172, '
    b'"queue_wait_total_s": 0.0035, "sweeps_total": 1, '
    b'"sweep_rows_total": 100, "sweep_chunks_total": 4, "errors_total": '
    b'3, "mean_batch_size": 2.0, "mean_queue_wait_ms": 1.75, '
    b'"max_queue_wait_ms": 2.5, "latency": {"count": 3, "mean_ms": '
    b'88.36666666666666, "total_s": 0.2651, "p50_ms": '
    b'13.234889800848443, "p95_ms": 250.0, "p99_ms": 250.0, "max_ms": '
    b'250.0, "buckets": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
    b'0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
    b'0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
    b'0, 0, 0, 0, 0, 0]}, "models": {"alpha": {"uptime_s": 0.0, '
    b'"requests_total": 3, "batches_total": 1, "samples_total": 3, '
    b'"queued_samples": 2, "mean_batch_size": 3.0, "forward_passes": 2, '
    b'"forward_rows": 67, "forward_time_s": 0.0165, '
    b'"mean_queue_wait_ms": 1.75, "max_queue_wait_ms": 2.5, '
    b'"queue_wait_total_s": 0.0035, "sweeps_total": 1, '
    b'"sweep_rows_total": 100, "sweep_chunks_total": 4, "errors_total": '
    b'0, "latency": {"count": 2, "mean_ms": 7.550000000000001, '
    b'"total_s": 0.0151, "p50_ms": 3.469446951953614, "p95_ms": 12.0, '
    b'"p99_ms": 12.0, "max_ms": 12.0, "buckets": [0, 0, 0, 0, 0, 0, 0, '
    b'0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, '
    b'0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
    b'0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}, "source": "direct", '
    b'"inflight": 0, "max_queue": null, "breaker": {"state": "closed", '
    b'"opens": 0}}, "beta": {"uptime_s": 0.0, "requests_total": 1, '
    b'"batches_total": 1, "samples_total": 1, "queued_samples": 0, '
    b'"mean_batch_size": 1.0, "forward_passes": 1, "forward_rows": 1, '
    b'"forward_time_s": 0.0007, "mean_queue_wait_ms": 0.0, '
    b'"max_queue_wait_ms": 0.0, "queue_wait_total_s": 0.0, '
    b'"sweeps_total": 0, "sweep_rows_total": 0, "sweep_chunks_total": '
    b'0, "errors_total": 1, "latency": {"count": 1, "mean_ms": 250.0, '
    b'"total_s": 0.25, "p50_ms": 250.0, "p95_ms": 250.0, "p99_ms": '
    b'250.0, "max_ms": 250.0, "buckets": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
    b'0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
    b'0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
    b'0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}, "source": "registry", '
    b'"inflight": 0, "max_queue": null, "breaker": {"state": "closed", '
    b'"opens": 0}}}, "default_model": "alpha", "oracle_cache": {"hits": '
    b'1, "misses": 1, "size": 1, "capacity": 16, "hit_rate": 0.5}}')
_GOLDEN_METRICS = (pathlib.Path(__file__).parent / "golden"
                   / "metrics.txt").read_text()


@pytest.fixture
def server(serve_model):
    srv = DSEServer(serve_model, port=0, max_batch_size=16)
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


class TestStatsCommand:
    """``repro stats`` is the main client of the /stats keys."""

    @pytest.fixture
    def served(self, server):
        _post(server, "/predict", {"m": 8, "n": 8, "k": 8})
        return server

    def test_plain_summary(self, served, capsys):
        assert main(["stats", "--url", served.url]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"{served.url}  up ")
        assert out[0].endswith("default model 'default'")
        assert re.match(r"req +1  samples +1  batch +1\.00  p50 .*"
                        r"errors 0$", out[1])
        assert out[2] == "  default: req 1 inflight 0 errors 0"

    def test_json_is_the_stats_document(self, served, capsys):
        assert main(["stats", "--url", served.url, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert tuple(doc) == _STATS_KEYS
        assert doc["requests_total"] == 1
        assert doc["models"]["default"]["requests_total"] == 1

    def test_metrics_is_the_exposition(self, served, capsys):
        assert main(["stats", "--url", served.url, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter\n" in out
        assert 'repro_requests_total{model="default"} 1\n' in out


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

    def test_trace_file_sink_receives_spans(self, serve_model, tmp_path):
        path = tmp_path / "spans.ndjson"
        srv = DSEServer(serve_model, port=0, max_batch_size=16,
                        trace_file=str(path))
        with srv:
            _, headers, _ = _post(srv, "/predict", {"m": 8, "n": 8, "k": 8})
            trace_id = headers["X-Trace-Id"]
            _wait_for_spans(srv.tracer, trace_id, {"engine.forward"})
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert any(doc["trace_id"] == trace_id for doc in lines)


class TestStatsGolden:
    """A fixed recorded traffic pattern renders to fixed ``/stats`` and
    ``/metrics`` bytes: key order at both levels, value types and every
    number are pinned, so a refactor of the stats path cannot drift."""

    @pytest.fixture
    def golden_server(self, tmp_path, serve_model, problem):
        registry = ModelRegistry(tmp_path / "registry")
        for name in ("beta", "gamma"):
            registry.save(serve_model, name, scale="tiny")
        oracle = ExhaustiveOracle(problem, cache_size=16)
        row = np.array([[64, 512, 256, 1]])
        oracle.solve(row)                       # one miss, then one hit
        oracle.solve(row)
        srv = DSEServer(serve_model, default_model="alpha",
                        registry=registry, max_models=1, oracle=oracle)
        srv.metrics.gauge("repro_uptime_seconds",
                          "Seconds since the server started.").labels() \
            .set_function(lambda: 12.5)
        yield srv
        srv.shutdown()

    @staticmethod
    def _record_traffic(srv):
        alpha = srv.routes["alpha"].stats
        beta = srv._route("beta").stats
        alpha.record_request(3)
        alpha.record_batch(3, (0.001, 0.0025))
        alpha.record_forward(3, 0.004)
        alpha.record_latency(0.0031)
        alpha.record_latency(0.012)
        alpha.record_sweep(100, 4)
        alpha.record_forward(64, 0.0125)
        beta.record_request()
        beta.record_batch(1, ())
        beta.record_forward(1, 0.0007)
        beta.record_error()
        beta.record_latency(0.25)
        srv.record_error()
        srv.record_error()

    @staticmethod
    def _stats_bytes(srv) -> bytes:
        doc = srv.stats_snapshot()
        doc["uptime_s"] = 0.0
        for route in doc["models"].values():
            route["uptime_s"] = 0.0
        return json.dumps(doc).encode()

    def test_stats_and_metrics_bytes_are_pinned(self, golden_server):
        self._record_traffic(golden_server)
        assert self._stats_bytes(golden_server) == _GOLDEN_STATS
        assert golden_server.metrics.render() == _GOLDEN_METRICS

    def test_evicted_route_leaves_stats_but_stays_on_metrics(
            self, golden_server):
        self._record_traffic(golden_server)
        golden_server._route("gamma")           # max_models=1 evicts beta
        doc = json.loads(self._stats_bytes(golden_server))
        assert set(doc["models"]) == {"alpha", "gamma"}
        # alpha's requests only: beta's counter left the aggregate.
        assert doc["requests_total"] == 3
        # alpha's latencies only; the transport records no latency.
        assert doc["latency"]["count"] == 2
        # The transport's two errors stay in the aggregate.
        assert doc["errors_total"] == 2
        text = golden_server.metrics.render()
        assert 'repro_requests_total{model="beta"} 1\n' in text
        assert 'repro_errors_total{model="beta"} 1\n' in text
        assert 'repro_inflight_requests{model="beta"}' not in text
        assert 'repro_breaker_state{model="beta"}' not in text
