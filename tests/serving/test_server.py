"""End-to-end HTTP tests against an ephemeral-port DSEServer: endpoints,
routing, streaming, keep-alive, admission control (429), timeouts (504),
malformed HTTP, client hang-ups and graceful drain."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import AirchitectV2, DSEPredictor
from repro.registry import ModelRegistry
from repro.serving import DSEServer
from repro.serving import server as server_module
from repro.serving.server import _DRAIN_TIMEOUT_S

from .conftest import SERVE_MODEL_CONFIG


@pytest.fixture
def server(serve_model):
    srv = DSEServer(serve_model, port=0, max_batch_size=16)
    with srv:
        yield srv


@pytest.fixture
def second_model(problem) -> AirchitectV2:
    """A differently-initialised model whose predictions differ."""
    return AirchitectV2(SERVE_MODEL_CONFIG, problem,
                        np.random.default_rng(777))


def _get(server: DSEServer, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(server.url + path, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _post(server: DSEServer, path: str, doc,
          timeout: float = 30) -> tuple[int, dict]:
    body = json.dumps(doc).encode()
    req = urllib.request.Request(server.url + path, data=body,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, doc = _get(server, "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["uptime_s"] >= 0

    def test_predict_single_workload_matches_predictor(self, server,
                                                       serve_model):
        status, doc = _post(server, "/predict",
                            {"m": 64, "n": 512, "k": 256, "dataflow": 1})
        assert status == 200
        pred = doc["predictions"][0]
        pe, l2 = DSEPredictor(serve_model).predict(64, 512, 256, 1)
        assert pred["num_pes"] == int(pe[0])
        assert pred["l2_kb"] == int(l2[0])

    def test_predict_workload_list_with_cost(self, server, problem):
        workloads = [{"m": 8, "n": 8, "k": 8},
                     {"m": 128, "n": 1024, "k": 512, "dataflow": 2}]
        status, doc = _post(server, "/predict",
                            {"workloads": workloads, "with_cost": True})
        assert status == 200
        assert doc["count"] == 2
        for pred in doc["predictions"]:
            assert pred["num_pes"] in problem.space.pe_choices
            assert pred["predicted_cost"] > 0

    def test_with_oracle_reports_optimum_and_warms_label_cache(self, server,
                                                               problem):
        body = {"workloads": [{"m": 48, "n": 300, "k": 96, "dataflow": 1}],
                "with_oracle": True}
        status, doc = _post(server, "/predict", body)
        assert status == 200
        pred = doc["predictions"][0]
        assert pred["oracle_num_pes"] in problem.space.pe_choices
        assert pred["oracle_cost"] > 0
        # The label is the cheapest config within the oracle's 2%
        # tolerance band, so regret can be marginally negative.
        assert pred["regret"] >= -0.021
        # The repeat request is served from the oracle's label cache —
        # the in-process face of the persistent-cache contract.
        _post(server, "/predict", body)
        _, stats = _get(server, "/stats")
        assert stats["oracle_cache"]["hits"] >= 1

    def test_stats_reflect_traffic(self, server):
        _post(server, "/predict", {"workloads": [
            {"m": 16, "n": 16, "k": 16}, {"m": 32, "n": 32, "k": 32}],
            "with_cost": True})
        status, doc = _get(server, "/stats")
        assert status == 200
        assert doc["requests_total"] >= 2
        assert doc["samples_total"] >= 2
        assert doc["batches_total"] >= 1
        assert doc["forward_passes"] >= 1
        assert doc["mean_batch_size"] > 0
        # with_cost created the lazy oracle, so /stats now reports its
        # label-cache accounting.
        assert "oracle_cache" in doc


class TestConcurrentClients:
    def test_parallel_posts_all_answered_and_batched(self, server,
                                                     serve_model, problem):
        inputs = problem.sample_inputs(12, np.random.default_rng(5))
        answers: dict[int, dict] = {}
        barrier = threading.Barrier(len(inputs))

        def client(i: int) -> None:
            row = inputs[i]
            barrier.wait()
            _, doc = _post(server, "/predict",
                           {"m": int(row[0]), "n": int(row[1]),
                            "k": int(row[2]), "dataflow": int(row[3])})
            answers[i] = doc["predictions"][0]

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        pe_ref, _ = DSEPredictor(serve_model).predict_indices(inputs)
        for i in range(len(inputs)):
            assert answers[i]["pe_idx"] == pe_ref[i]
        _, stats = _get(server, "/stats")
        assert stats["forward_passes"] <= len(inputs)


class TestBulkBodies:
    def test_large_body_served_in_one_engine_batch(self, server, serve_model,
                                                   problem):
        """Bodies above max_batch_size bypass the queue: one vectorised
        engine call (one forward pass per model tile), not
        ceil(N/max_batch) coalesced batches."""
        inputs = problem.sample_inputs(200, np.random.default_rng(11))
        workloads = [{"m": int(r[0]), "n": int(r[1]), "k": int(r[2]),
                      "dataflow": int(r[3])} for r in inputs]
        status, doc = _post(server, "/predict", {"workloads": workloads})
        assert status == 200
        assert doc["count"] == 200
        pe_ref, _ = DSEPredictor(serve_model).predict_indices(inputs)
        assert [p["pe_idx"] for p in doc["predictions"]] == pe_ref.tolist()
        _, stats = _get(server, "/stats")
        assert stats["requests_total"] == 200
        assert stats["batches_total"] == 1
        assert stats["forward_passes"] == -(-200 // serve_model.tile_rows)
        # Bulk rows never queued, so they must not dilute the wait mean.
        assert stats["queued_samples"] == 0
        assert stats["mean_queue_wait_ms"] == 0.0


class TestErrorHandling:
    def test_unknown_path_404(self, server):
        assert _get(server, "/nope")[0] == 404
        assert _post(server, "/nope", {})[0] == 404

    def test_bad_content_length_400(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/predict")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "Content-Length" in json.loads(resp.read())["error"]
        finally:
            conn.close()

    def test_error_responses_close_keepalive_connections(self, server):
        """A 400 sent before the body was drained must not leave unread
        bytes to desync the next request on a persistent connection."""
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = b"x" * 128              # never read by the server
            conn.putrequest("POST", "/predict")
            conn.putheader("Content-Length", str(9 << 20))  # over the cap
            conn.endheaders()
            conn.send(body)
            resp = conn.getresponse()
            assert resp.status == 400
            assert resp.getheader("Connection") == "close"
            resp.read()
        finally:
            conn.close()
        # And the server keeps answering fresh connections.
        assert _get(server, "/healthz")[0] == 200

    def test_invalid_json_400(self, server):
        req = urllib.request.Request(
            server.url + "/predict", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    @pytest.mark.parametrize("body", [
        {}, {"workloads": []}, {"workloads": [{"m": 1}]},
        {"workloads": [{"m": 8, "n": 8, "k": 8, "dataflow": 9}]},
        {"workloads": ["not-an-object"]},
    ], ids=["empty", "no-workloads", "missing-keys", "bad-dataflow",
            "non-object"])
    def test_malformed_bodies_400_with_detail(self, server, body):
        status, doc = _post(server, "/predict", body)
        assert status == 400
        assert "error" in doc

    @pytest.mark.parametrize("body", ["just a string", 42, [1, 2, 3], None],
                             ids=["string", "number", "int-list", "null"])
    def test_non_dict_bodies_400_not_500(self, server, body):
        """Scalar / non-object JSON bodies are client errors, never
        tracebacks."""
        status, doc = _post(server, "/predict", body)
        assert status == 400
        assert "error" in doc
        status, doc = _post(server, "/sweep", body)
        assert status == 400
        assert "error" in doc

    def test_unknown_methods_get_json_404(self, server):
        for method in ("PUT", "DELETE"):
            req = urllib.request.Request(server.url + "/predict",
                                         data=b"{}", method=method)
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 404
            assert "unknown route" in json.loads(err.value.read())["error"]
        assert _get(server, "/healthz")[0] == 200

    def test_bad_model_type_400(self, server):
        status, doc = _post(server, "/predict",
                            {"m": 8, "n": 8, "k": 8, "model": 7})
        assert status == 400
        assert "'model'" in doc["error"]

    def test_empty_workloads_is_a_clean_json_400(self, server):
        """Regression: an empty 'workloads' list used to reach
        np.stack([]) in the engine and escape as a 500 with a numpy
        traceback in the body."""
        status, doc = _post(server, "/predict", {"workloads": []})
        assert status == 400
        assert set(doc) == {"error"}            # JSON error shape, no extras
        assert "non-empty" in doc["error"]
        assert "Traceback" not in doc["error"]
        assert "np.stack" not in doc["error"]
        # The server stays healthy and the error never pollutes stats'
        # request counters (it was rejected before admission).
        assert _get(server, "/healthz")[0] == 200


class TestMultiModelRouting:
    @pytest.fixture
    def multi_server(self, serve_model, second_model):
        srv = DSEServer(serve_model, port=0, max_batch_size=16,
                        default_model="alpha")
        srv.add_model("beta", second_model)
        with srv:
            yield srv

    def test_routes_are_parity_tested_against_dedicated_servers(
            self, multi_server, serve_model, second_model, problem):
        """Per-model predictions through the routed server are bit-identical
        to a dedicated single-model DSEServer for that model."""
        inputs = problem.sample_inputs(40, np.random.default_rng(21))
        workloads = [{"m": int(r[0]), "n": int(r[1]), "k": int(r[2]),
                      "dataflow": int(r[3])} for r in inputs]
        for name, model in (("alpha", serve_model), ("beta", second_model)):
            _, routed = _post(multi_server, "/predict",
                              {"workloads": workloads, "model": name})
            with DSEServer(model, port=0, max_batch_size=16) as dedicated:
                _, single = _post(dedicated, "/predict",
                                  {"workloads": workloads})
            assert routed["model"] == name
            assert [(p["pe_idx"], p["l2_idx"])
                    for p in routed["predictions"]] \
                == [(p["pe_idx"], p["l2_idx"])
                    for p in single["predictions"]]

    def test_models_actually_differ(self, multi_server, problem):
        """The parity test is only meaningful if routing matters."""
        inputs = problem.sample_inputs(64, np.random.default_rng(33))
        workloads = [{"m": int(r[0]), "n": int(r[1]), "k": int(r[2]),
                      "dataflow": int(r[3])} for r in inputs]
        _, a = _post(multi_server, "/predict",
                     {"workloads": workloads, "model": "alpha"})
        _, b = _post(multi_server, "/predict",
                     {"workloads": workloads, "model": "beta"})
        assert [p["pe_idx"] for p in a["predictions"]] \
            != [p["pe_idx"] for p in b["predictions"]]

    def test_default_model_serves_requests_without_model_field(
            self, multi_server):
        status, doc = _post(multi_server, "/predict",
                            {"m": 64, "n": 512, "k": 256})
        assert status == 200
        assert doc["model"] == "alpha"

    def test_unknown_model_404_lists_available(self, multi_server):
        status, doc = _post(multi_server, "/predict",
                            {"m": 8, "n": 8, "k": 8, "model": "nope"})
        assert status == 404
        assert "alpha" in doc["error"] and "beta" in doc["error"]

    def test_models_endpoint_lists_routes(self, multi_server):
        status, doc = _get(multi_server, "/models")
        assert status == 200
        assert doc["default_model"] == "alpha"
        by_id = {m["model_id"]: m for m in doc["models"]}
        assert set(by_id) == {"alpha", "beta"}
        assert all(m["loaded"] for m in by_id.values())

    def test_stats_broken_out_per_model(self, multi_server):
        _post(multi_server, "/predict",
              {"m": 8, "n": 8, "k": 8, "model": "beta"})
        _post(multi_server, "/predict", {"m": 8, "n": 8, "k": 8})
        _, stats = _get(multi_server, "/stats")
        assert stats["models"]["beta"]["requests_total"] == 1
        assert stats["models"]["alpha"]["requests_total"] == 1
        # The aggregate view sums the per-model counters.
        assert stats["requests_total"] == 2
        assert stats["default_model"] == "alpha"


class TestRegistryServing:
    @pytest.fixture
    def registry(self, tmp_path, serve_model, second_model) -> ModelRegistry:
        registry = ModelRegistry(tmp_path / "registry")
        registry.save(serve_model, "alpha", scale="tiny")
        registry.save(second_model, "beta", scale="tiny")
        return registry

    def test_artifacts_load_lazily_and_serve_identically(
            self, registry, serve_model, problem):
        inputs = problem.sample_inputs(24, np.random.default_rng(9))
        workloads = [{"m": int(r[0]), "n": int(r[1]), "k": int(r[2]),
                      "dataflow": int(r[3])} for r in inputs]
        with DSEServer(registry=registry, port=0,
                       default_model="alpha") as srv:
            _, models = _get(srv, "/models")
            assert not any(m["loaded"] for m in models["models"])
            _, doc = _post(srv, "/predict",
                           {"workloads": workloads, "model": "beta"})
            _, models = _get(srv, "/models")
            loaded = {m["model_id"]: m["loaded"] for m in models["models"]}
            assert loaded == {"alpha": False, "beta": True}
        pe_ref, _ = DSEPredictor(serve_model).predict_indices(inputs)
        # And the default route still resolves through the registry.
        with DSEServer(registry=registry, port=0,
                       default_model="alpha") as srv:
            _, doc = _post(srv, "/predict", {"workloads": workloads})
            assert [p["pe_idx"] for p in doc["predictions"]] \
                == pe_ref.tolist()

    def test_max_models_evicts_least_recently_served(self, registry):
        with DSEServer(registry=registry, port=0, default_model="alpha",
                       max_models=1) as srv:
            _post(srv, "/predict", {"m": 8, "n": 8, "k": 8,
                                    "model": "alpha"})
            _post(srv, "/predict", {"m": 8, "n": 8, "k": 8, "model": "beta"})
            with srv._route_lock:
                assert set(srv.routes) == {"beta"}
            # The evicted model is re-served on demand.
            status, doc = _post(srv, "/predict",
                                {"m": 8, "n": 8, "k": 8, "model": "alpha"})
            assert status == 200 and doc["model"] == "alpha"

    def test_with_cost_does_not_evict_the_serving_route(self, registry):
        """The lazy oracle must come from the *requesting* route's problem;
        going through the default route would evict the live one under
        max_models=1."""
        with DSEServer(registry=registry, port=0, default_model="alpha",
                       max_models=1) as srv:
            status, doc = _post(srv, "/predict",
                                {"m": 8, "n": 8, "k": 8, "model": "beta",
                                 "with_cost": True})
            assert status == 200
            assert doc["predictions"][0]["predicted_cost"] > 0
            with srv._route_lock:
                assert set(srv.routes) == {"beta"}

    def test_model_ids_restricts_servable_set(self, registry):
        with DSEServer(registry=registry, port=0, model_ids=["alpha"]) as srv:
            status, _ = _post(srv, "/predict", {"m": 8, "n": 8, "k": 8})
            assert status == 200
            status, doc = _post(srv, "/predict",
                                {"m": 8, "n": 8, "k": 8, "model": "beta"})
            assert status == 404

    def test_registry_manifest_shown_in_models_listing(self, registry):
        with DSEServer(registry=registry, port=0,
                       default_model="alpha") as srv:
            _, doc = _get(srv, "/models")
            alpha = next(m for m in doc["models"]
                         if m["model_id"] == "alpha")
            assert alpha["kind"] == "airchitect_v2"
            assert alpha["scale"] == "tiny"


class TestSweepStreaming:
    def _post_sweep(self, server, doc):
        req = urllib.request.Request(server.url + "/sweep",
                                     data=json.dumps(doc).encode())
        return urllib.request.urlopen(req, timeout=60)

    def test_sweep_matches_predictor_and_reports_summary(self, server,
                                                         serve_model,
                                                         problem):
        inputs = problem.sample_inputs(250, np.random.default_rng(3))
        workloads = [{"m": int(r[0]), "n": int(r[1]), "k": int(r[2]),
                      "dataflow": int(r[3])} for r in inputs]
        with self._post_sweep(server, {"workloads": workloads,
                                       "chunk_size": 64,
                                       "with_cost": True}) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(line) for line in resp.read().splitlines()]
        header, chunks, summary = lines[0], lines[1:-1], lines[-1]
        assert header["count"] == 250 and header["chunks"] == 4
        assert [c["count"] for c in chunks] == [64, 64, 64, 58]
        served = [p for c in chunks for p in c["predictions"]]
        pe_ref, l2_ref = DSEPredictor(serve_model).predict_indices(inputs)
        assert [p["pe_idx"] for p in served] == pe_ref.tolist()
        assert [p["l2_idx"] for p in served] == l2_ref.tolist()
        assert all(p["predicted_cost"] > 0 for p in served)
        assert summary["done"] and summary["samples_per_sec"] > 0
        _, stats = _get(server, "/stats")
        assert stats["sweeps_total"] == 1
        assert stats["sweep_rows_total"] == 250
        assert stats["sweep_chunks_total"] == 4

    def test_sweep_content_type_and_ndjson_framing(self, server):
        with self._post_sweep(server, {"random": 40, "seed": 3,
                                       "chunk_size": 16}) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            lines = [json.loads(line) for line in resp.read().splitlines()]
        assert lines[0]["chunks"] == 3
        assert [c["count"] for c in lines[1:-1]] == [16, 16, 8]
        assert lines[-1]["done"]

    def test_first_chunk_arrives_before_sweep_completes(self, server):
        """The streaming contract: chunk 1 is readable while the server has
        not even *started* computing chunk 2 (gated engine proves it)."""
        route = server._route(None)
        gate = threading.Event()
        calls = []
        real = route.engine.predict_indices

        def gated(inputs):
            if calls:            # every chunk after the first blocks
                assert gate.wait(30), "client never released the gate"
            calls.append(len(inputs))
            return real(inputs)

        route.engine.predict_indices = gated
        try:
            with self._post_sweep(server, {"random": 96, "seed": 5,
                                           "chunk_size": 32}) as resp:
                header = json.loads(resp.readline())
                assert header["chunks"] == 3
                first = json.loads(resp.readline())
                # Chunk 0 fully arrived; chunks 1-2 are still gated.
                assert first["chunk"] == 0 and len(first["predictions"]) == 32
                assert calls == [32]
                gate.set()
                rest = [json.loads(line) for line in resp.read().splitlines()]
        finally:
            route.engine.predict_indices = real
        assert rest[-1]["done"] and calls == [32, 32, 32]

    def test_random_sweep_is_seeded_and_reproducible(self, server):
        def run():
            with self._post_sweep(server, {"random": 40, "seed": 11}) as resp:
                return [json.loads(line) for line in resp.read().splitlines()]
        first, second = run(), run()
        assert first[1]["predictions"] == second[1]["predictions"]

    def test_sweep_routes_by_model(self, server, serve_model):
        with self._post_sweep(server, {"random": 8, "seed": 1,
                                       "model": "default"}) as resp:
            lines = [json.loads(line) for line in resp.read().splitlines()]
        assert lines[0]["model"] == "default"

    @pytest.mark.parametrize("body", [
        {},                                     # no workloads and no random
        {"random": 0},                          # below range
        {"random": "many"},                     # non-integer
        {"workloads": [{"m": 1, "n": 1, "k": 1}], "chunk_size": 0},
        {"workloads": [{"m": 1, "n": 1, "k": 1}], "chunk_size": "big"},
        {"workloads": [{"m": 1, "n": 1, "k": 1, "dataflow": 99}]},
    ], ids=["empty", "random-zero", "random-str", "chunk-zero", "chunk-str",
            "bad-dataflow"])
    def test_malformed_sweep_bodies_400(self, server, body):
        status, doc = _post(server, "/sweep", body)
        assert status == 400
        assert "error" in doc

    def test_sweep_unknown_model_404(self, server):
        status, doc = _post(server, "/sweep", {"random": 8, "model": "ghost"})
        assert status == 404
        assert "ghost" in doc["error"]


def _raw_exchange(server: DSEServer, data: bytes) -> bytes:
    """Send raw bytes on a fresh connection; everything read until the
    server closes it."""
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(data)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


class TestRawHTTP:
    """Request heads over raw sockets.  An unparseable one gets a JSON
    error and a closed connection, never a silent hang-up."""

    @pytest.mark.parametrize("data, status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000
         + b"\r\n\r\n", 431),
        (b"GET /healthz HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % i for i in range(500)) + b"\r\n",
         431),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    ], ids=["garbage", "no-path", "long-header", "too-many-headers",
            "long-request-line"])
    def test_malformed_head_gets_json_error_and_close(self, server, data,
                                                      status):
        head, _, body = _raw_exchange(server, data).partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        assert "Connection: close" in lines[1:]
        assert "Content-Type: application/json" in lines[1:]
        assert json.loads(body)["error"]
        assert _get(server, "/healthz")[0] == 200

    def test_one_hundred_headers_are_accepted(self, server):
        data = (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
                + b"".join(b"X-H%d: v\r\n" % i for i in range(99)) + b"\r\n")
        assert _raw_exchange(server, data).startswith(b"HTTP/1.1 200 ")

    def test_http10_request_gets_its_connection_closed(self, server):
        reply = _raw_exchange(server, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 200 ")

    def test_expect_100_continue_gets_an_interim_response(self, server):
        body = json.dumps({"m": 8, "n": 8, "k": 8}).encode()
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"POST /predict HTTP/1.1\r\nConnection: close\r\n"
                         b"Expect: 100-continue\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n")
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert json.loads(reply.partition(b"\r\n\r\n")[2])["count"] == 1

    def test_partial_body_then_hangup_leaves_server_serving(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"POST /predict HTTP/1.1\r\nContent-Length: 100"
                         b"\r\n\r\n{\"m\": 8")
        assert _get(server, "/healthz")[0] == 200
        assert _post(server, "/predict", {"m": 8, "n": 8, "k": 8})[0] == 200
        assert server._route(None).inflight == 0


_STALLED_BODY = (b"POST /predict HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
                 b"{\"m\": 8, \"n\"")      # 12 of the 100 body bytes
_SHORT_READ_TIMEOUT_S = 0.5


def _read_reply(sock: socket.socket) -> tuple[int, list[str], dict]:
    """Status, header lines and JSON body of the one reply on ``sock``,
    read until the server closes it."""
    reply = b""
    while chunk := sock.recv(65536):
        reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    return int(lines[0].split()[1]), lines[1:], json.loads(body)


class TestStalledRequest:
    """A client that stops mid-request is answered 408 once the read
    bound expires, instead of holding its connection until shutdown."""

    @pytest.fixture(autouse=True)
    def _short_read_timeout(self, monkeypatch):
        monkeypatch.setattr(server_module, "_READ_TIMEOUT_S",
                            _SHORT_READ_TIMEOUT_S)

    @pytest.mark.parametrize("data", [
        _STALLED_BODY,
        b"POST /predict HTTP/1.1\r\nContent-Length: 10\r\n",
    ], ids=["body", "headers"])
    def test_stalled_request_gets_408_within_the_bound(self, server, data):
        with socket.create_connection(server.address, timeout=10) as sock:
            begin = time.perf_counter()
            sock.sendall(data)
            status, headers, doc = _read_reply(sock)
            elapsed = time.perf_counter() - begin
        assert status == 408
        assert "Connection: close" in headers
        assert "Content-Type: application/json" in headers
        assert "not received" in doc["error"]
        assert elapsed < _SHORT_READ_TIMEOUT_S + 1.0
        assert _post(server, "/predict", {"m": 8, "n": 8, "k": 8})[0] == 200
        assert server._route(None).inflight == 0

    def test_shutdown_during_a_stalled_body_does_not_wait_out_the_drain(
            self, serve_model):
        srv = DSEServer(serve_model, port=0)
        srv.start()
        try:
            with socket.create_connection(srv.address, timeout=10) as sock:
                sock.sendall(_STALLED_BODY)
                # Wait until the server has read the head and is blocked
                # on the body: the connection counts as busy.
                for _ in range(500):
                    if any(srv._conns.values()):
                        break
                    time.sleep(0.01)
                assert any(srv._conns.values())
                begin = time.perf_counter()
                srv.shutdown()
                elapsed = time.perf_counter() - begin
                status, _, _ = _read_reply(sock)
            assert status == 408
            assert elapsed < _DRAIN_TIMEOUT_S / 4
        finally:
            srv.shutdown()


class TestKeepAlive:
    def test_sequential_requests_reuse_one_connection(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(3):
                body = json.dumps({"m": 8, "n": 8, "k": 8})
                conn.request("POST", "/predict", body)
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())["count"] == 1
        finally:
            conn.close()


class _Gate:
    """Patch a route's engine so forward passes block until released."""

    def __init__(self, route):
        self.route = route
        self.real = route.engine.predict_indices
        self.entered = threading.Event()
        self.release = threading.Event()
        route.engine.predict_indices = self._gated

    def _gated(self, inputs):
        self.entered.set()
        assert self.release.wait(30), "test never released the gate"
        return self.real(inputs)

    def restore(self):
        self.release.set()
        self.route.engine.predict_indices = self.real


class TestBackpressure:
    def test_saturated_route_answers_429_with_retry_after(self, serve_model):
        srv = DSEServer(serve_model, port=0, max_batch_size=4,
                        max_queue=1, retry_after_s=2.0)
        gate = _Gate(srv._route(None))
        with srv:
            try:
                results = {}

                def occupant():
                    results["first"] = _post(srv, "/predict",
                                             {"m": 8, "n": 8, "k": 8})

                thread = threading.Thread(target=occupant)
                thread.start()
                assert gate.entered.wait(10)    # slot held mid-forward-pass
                status, doc = _post(srv, "/predict",
                                    {"m": 16, "n": 16, "k": 16})
                assert status == 429
                assert "admission queue is full" in doc["error"]
                assert "max_queue=1" in doc["error"]
                # And the header itself, via a raw connection.
                host, port = srv.address
                conn = http.client.HTTPConnection(host, port, timeout=10)
                try:
                    conn.request("POST", "/predict",
                                 json.dumps({"m": 8, "n": 8, "k": 8}))
                    resp = conn.getresponse()
                    assert resp.status == 429
                    assert resp.getheader("Retry-After") == "2"
                    resp.read()
                finally:
                    conn.close()
                gate.restore()
                thread.join(10)
                assert results["first"][0] == 200
                # Load subsided: the route admits again.
                assert _post(srv, "/predict",
                             {"m": 8, "n": 8, "k": 8})[0] == 200
            finally:
                gate.restore()

    def test_rejected_requests_never_reach_the_batcher(self, serve_model):
        srv = DSEServer(serve_model, port=0, max_batch_size=4,
                        max_queue=1)
        route = srv._route(None)
        gate = _Gate(route)
        with srv:
            try:
                thread = threading.Thread(
                    target=_post, args=(srv, "/predict",
                                        {"m": 8, "n": 8, "k": 8}))
                thread.start()
                assert gate.entered.wait(10)
                for _ in range(3):
                    assert _post(srv, "/predict",
                                 {"m": 8, "n": 8, "k": 8})[0] == 429
                gate.restore()
                thread.join(10)
            finally:
                gate.restore()
        # Only the admitted request was ever counted.
        assert route.stats.requests_total == 1


class TestRequestTimeout:
    def test_slow_route_answers_504(self, serve_model):
        srv = DSEServer(serve_model, port=0, max_batch_size=4,
                        request_timeout_s=0.3)
        gate = _Gate(srv._route(None))
        with srv:
            try:
                status, doc = _post(srv, "/predict",
                                    {"m": 8, "n": 8, "k": 8})
                assert status == 504
                assert "timed out" in doc["error"]
            finally:
                gate.restore()

    def test_timeout_counts_as_an_error_in_stats(self, serve_model):
        srv = DSEServer(serve_model, port=0, max_batch_size=4,
                        request_timeout_s=0.3)
        gate = _Gate(srv._route(None))
        with srv:
            try:
                _post(srv, "/predict", {"m": 8, "n": 8, "k": 8})
                gate.restore()
                assert _get(srv, "/stats")[1]["errors_total"] >= 1
            finally:
                gate.restore()


class TestStatsLatency:
    def test_per_route_latency_percentiles(self, server):
        for i in range(5):
            _post(server, "/predict", {"m": 8 + i, "n": 8, "k": 8})
        _, stats = _get(server, "/stats")
        latency = stats["models"]["default"]["latency"]
        assert latency["count"] == 5
        assert 0 < latency["p50_ms"] <= latency["p95_ms"] \
            <= latency["p99_ms"]
        assert latency["p99_ms"] <= latency["max_ms"] * 1.26
        # The aggregate view merges the per-route buckets.
        assert stats["latency"]["count"] == 5
        assert stats["models"]["default"]["inflight"] == 0


class TestSweepHangup:
    """A /sweep client that hangs up mid-response releases its admission
    slot, stops the engine within a few chunks and leaves the breaker
    closed (a hang-up is neither an engine success nor a failure)."""

    BODY = json.dumps({"random": 200_000, "chunk_size": 256}).encode()
    CHUNKS = -(-200_000 // 256)

    @pytest.mark.parametrize("phase", ["before-header", "after-header",
                                       "after-chunk-0"])
    def test_hangup_releases_the_route(self, server, phase):
        route = server._route(None)
        calls = []
        real = route.engine.predict_indices
        released = threading.Event()
        real_release = route.release

        def counted(inputs):
            calls.append(len(inputs))
            return real(inputs)

        def release():
            real_release()
            released.set()

        route.engine.predict_indices = counted
        route.release = release
        try:
            host, port = server.address
            if phase == "before-header":
                with socket.create_connection((host, port),
                                              timeout=10) as sock:
                    sock.sendall(b"POST /sweep HTTP/1.1\r\nContent-Length: "
                                 + str(len(self.BODY)).encode()
                                 + b"\r\n\r\n" + self.BODY)
            else:
                conn = http.client.HTTPConnection(host, port, timeout=30)
                conn.request("POST", "/sweep", self.BODY)
                resp = conn.getresponse()
                assert resp.status == 200
                if phase == "after-chunk-0":
                    assert json.loads(resp.readline())["chunks"] \
                        == self.CHUNKS
                    assert json.loads(resp.readline())["chunk"] == 0
                resp.close()
                conn.close()
            assert released.wait(2.0)
            assert route.inflight == 0
            stopped_at = len(calls)
            time.sleep(0.2)
            assert len(calls) == stopped_at     # the engine really stopped
            assert stopped_at <= 32
        finally:
            route.engine.predict_indices = real
            route.release = real_release
        assert route.breaker.state == "closed"
        assert _post(server, "/predict", {"m": 8, "n": 8, "k": 8})[0] == 200


class TestGracefulDrain:
    def test_inflight_completes_and_new_requests_are_rejected(
            self, serve_model):
        # max_queue=1: polls that sneak in before the listener closes
        # answer 429 instantly instead of queueing behind the gate.
        srv = DSEServer(serve_model, port=0, max_batch_size=4,
                        max_queue=1)
        gate = _Gate(srv._route(None))
        srv.start()
        results = {}
        try:
            def inflight():
                results["inflight"] = _post(srv, "/predict",
                                            {"m": 8, "n": 8, "k": 8})

            client = threading.Thread(target=inflight)
            client.start()
            assert gate.entered.wait(10)        # request is mid-engine
            shutter = threading.Thread(target=srv.shutdown)
            shutter.start()
            deadline = time.perf_counter() + 10.0
            refused = False
            while time.perf_counter() < deadline and not refused:
                try:
                    # New connections are refused once draining starts.
                    # Short client timeout: a connect that races into the
                    # closing listener's accept backlog is never served
                    # (orphaned, not reset) — that hang is also rejection.
                    _post(srv, "/predict", {"m": 8, "n": 8, "k": 8},
                          timeout=2)
                    time.sleep(0.05)
                except (ConnectionError, OSError, urllib.error.URLError):
                    refused = True      # TimeoutError is an OSError too
            assert refused
            gate.restore()                      # let the in-flight finish
            client.join(15)
            shutter.join(15)
            assert not shutter.is_alive()
            assert results["inflight"][0] == 200
        finally:
            gate.restore()
            srv.shutdown()

    def test_shutdown_during_a_burst_answers_or_refuses_every_client(
            self, serve_model):
        srv = DSEServer(serve_model, port=0, max_batch_size=8)
        srv.start()
        host, port = srv.address
        body = json.dumps({"m": 8, "n": 8, "k": 8})
        outcomes: list = []
        answered = threading.Semaphore(0)

        def client():
            while True:
                conn = http.client.HTTPConnection(host, port, timeout=10)
                try:
                    conn.request("POST", "/predict", body)
                    resp = conn.getresponse()
                    resp.read()
                    outcomes.append(resp.status)
                    answered.release()
                except ConnectionError as exc:  # refused or reset: done
                    outcomes.append(exc)
                    return
                except OSError as exc:          # e.g. a client timeout
                    outcomes.append(exc)
                    return
                finally:
                    conn.close()

        clients = [threading.Thread(target=client) for _ in range(16)]
        try:
            for thread in clients:
                thread.start()
            for _ in range(32):                 # the burst is under way
                assert answered.acquire(timeout=10)
            begin = time.perf_counter()
            srv.shutdown()
            assert time.perf_counter() - begin < _DRAIN_TIMEOUT_S + 5.0
            for thread in clients:
                thread.join(15)
            assert not any(thread.is_alive() for thread in clients)
        finally:
            srv.shutdown()
        bad = [o for o in outcomes
               if o not in (200, 503) and not isinstance(o, ConnectionError)]
        assert not bad, bad

    def test_shutdown_closes_the_trace_sink(self, serve_model, tmp_path):
        srv = DSEServer(serve_model, port=0,
                        trace_file=str(tmp_path / "spans.ndjson"))
        srv.start()
        assert _post(srv, "/predict", {"m": 8, "n": 8, "k": 8})[0] == 200
        srv.shutdown()
        assert srv.tracer._sink_file is None

    def test_shutdown_is_idempotent(self, serve_model):
        srv = DSEServer(serve_model, port=0)
        srv.start()
        srv.shutdown()
        srv.shutdown()

    def test_shutdown_without_start(self, serve_model):
        srv = DSEServer(serve_model, port=0)
        srv.shutdown()
