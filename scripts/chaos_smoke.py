"""CI chaos smoke: kill a pool worker mid-sweep, trip the breaker, recover.

Two phases against in-process :class:`repro.serving.DSEServer` instances
(in-process so the script can reach the supervisor and assert on its
recovery counters):

1. **Self-healing sweep** — arm ``pool.worker_crash`` (one worker dies
   hard mid-shard), stream a pooled ``POST /sweep``, and require that it
   completes, that a fault-free re-run of the same seeded sweep is
   bit-identical, and that ``/metrics`` shows the recovery
   (``repro_retry_total`` > 0, ``repro_pool_rebuilds_total`` > 0).
2. **Circuit breaker** — arm ``engine.transient_error`` so two
   ``/predict`` calls fail, require the breaker to open (503 +
   ``Retry-After``), then half-open after the reset window and close on
   a successful probe.

Run from the repo root (CI does)::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import sys
import time
import urllib.error
import urllib.request

import numpy as np

from repro.core import AirchitectV2, ModelConfig
from repro.dse import DSEProblem
from repro.faults import inject_faults
from repro.serving import DSEServer

SWEEP_BODY = {"random": 2048, "seed": 7, "chunk_size": 1024}
WORKLOAD = {"m": 64, "n": 512, "k": 256, "dataflow": 1}


def fail(msg: str):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def _tiny_model() -> AirchitectV2:
    config = ModelConfig(d_model=16, n_layers=1, n_heads=2, embed_dim=8)
    return AirchitectV2(config, DSEProblem(), np.random.default_rng(2024))


def _post(server, path: str, doc) -> tuple[int, dict, dict]:
    req = urllib.request.Request(server.url + path,
                                 data=json.dumps(doc).encode())
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def _sweep_predictions(server) -> list[dict]:
    req = urllib.request.Request(server.url + "/sweep",
                                 data=json.dumps(SWEEP_BODY).encode())
    with urllib.request.urlopen(req, timeout=300) as resp:
        lines = [json.loads(line) for line in resp.read().splitlines()]
    if not lines[-1].get("done"):
        fail(f"sweep stream did not finish cleanly: {lines[-1]}")
    return [p for chunk in lines[1:-1] for p in chunk["predictions"]]


def _metric(text: str, series: str) -> float | None:
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.split()[-1])
    return None


def _scrape(server) -> str:
    with urllib.request.urlopen(server.url + "/metrics", timeout=30) as resp:
        return resp.read().decode()


def phase_self_healing_sweep() -> None:
    if "fork" not in multiprocessing.get_all_start_methods():
        print("SKIP: self-healing sweep (no fork start method)")
        return
    # Arm before the server exists so the lazily-forked pool workers
    # inherit the armed registry; the shared one-shot budget means the
    # crash fires in exactly one worker, once.
    with inject_faults({"pool.worker_crash": 1}):
        server = DSEServer(_tiny_model(), port=0, sweep_workers=2,
                           shard_timeout_s=5.0, max_batch_size=16)
        with server:
            chaotic = _sweep_predictions(server)
            text = _scrape(server)
            route = server._route(None)
            sup = route.executor._supervisor
            if sup.retries < 1:
                fail(f"worker crash did not trigger a retry "
                     f"(retries={sup.retries})")
            if sup.degraded:
                fail("executor degraded instead of healing the pool")
            retry = _metric(text, 'repro_retry_total'
                                  '{model="default",component="sweep"}')
            rebuilds = _metric(text, 'repro_pool_rebuilds_total'
                                     '{model="default",component="sweep"}')
            if not retry or retry < 1:
                fail(f"repro_retry_total not visible in /metrics ({retry})")
            if not rebuilds or rebuilds < 1:
                fail(f"repro_pool_rebuilds_total not visible ({rebuilds})")
            if _metric(text, 'repro_fault_fired'
                             '{point="pool.worker_crash"}') != 1:
                fail("repro_fault_fired did not record the injected crash")
            # Same seed, crash budget exhausted: the clean pooled run
            # must be bit-identical to the recovered one.
            clean = _sweep_predictions(server)
    if chaotic != clean:
        fail("recovered sweep predictions differ from the fault-free run")
    print(f"PASS: sweep survived a SIGKILLed worker bit-identically "
          f"({len(chaotic)} predictions, {sup.retries} shard retries, "
          f"{sup.rebuilds} pool rebuild(s))")


def phase_circuit_breaker() -> None:
    with inject_faults({"engine.transient_error": 2}):
        server = DSEServer(_tiny_model(), port=0, breaker_threshold=2,
                           breaker_reset_s=0.5, max_batch_size=16)
        with server:
            for attempt in (1, 2):
                status, doc, _ = _post(server, "/predict", WORKLOAD)
                if status != 500:
                    fail(f"injected failure {attempt} answered {status}, "
                         f"expected 500: {doc}")
            status, doc, headers = _post(server, "/predict", WORKLOAD)
            if status != 503:
                fail(f"open breaker answered {status}, expected 503: {doc}")
            if not headers.get("Retry-After"):
                fail("503 response is missing the Retry-After header")
            if _metric(_scrape(server),
                       'repro_breaker_state{model="default"}') != 2.0:
                fail("repro_breaker_state gauge does not show open (2)")
            time.sleep(0.7)     # past breaker_reset_s: half-open probe
            status, doc, _ = _post(server, "/predict", WORKLOAD)
            if status != 200:
                fail(f"probe after reset answered {status}, "
                     f"expected 200: {doc}")
            if _metric(_scrape(server),
                       'repro_breaker_state{model="default"}') != 0.0:
                fail("breaker did not close after the successful probe")
            opens = server.stats_snapshot()["models"]["default"][
                "breaker"]["opens"]
            if opens != 1:
                fail(f"expected exactly one breaker open, saw {opens}")
    print("PASS: breaker opened on injected failures (503 + Retry-After) "
          "and closed on the half-open probe")


def main() -> None:
    if hasattr(signal, "SIGALRM"):      # watchdog: a hung phase fails CI
        signal.signal(signal.SIGALRM,
                      lambda *_: fail("chaos smoke exceeded 300s"))
        signal.alarm(300)
    phase_self_healing_sweep()
    phase_circuit_breaker()
    print("chaos smoke: all phases passed")


if __name__ == "__main__":
    main()
