"""End-to-end HTTP smoke tests against an ephemeral-port DSEServer."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import AirchitectV2, DSEPredictor
from repro.registry import ModelRegistry
from repro.serving import DSEServer

from .conftest import SERVE_MODEL_CONFIG


@pytest.fixture
def server(serve_model):
    srv = DSEServer(serve_model, port=0, max_batch_size=16, max_wait_ms=2)
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


def _post(server: DSEServer, path: str, doc) -> tuple[int, dict]:
    body = json.dumps(doc).encode()
    req = urllib.request.Request(server.url + path, data=body,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
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
        import http.client
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
        import http.client
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
        srv = DSEServer(serve_model, port=0, max_batch_size=16, max_wait_ms=2,
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
            with DSEServer(model, port=0, max_batch_size=16,
                           max_wait_ms=2) as dedicated:
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
