"""CI chaos smoke: kill a labelling worker mid-shard, trip the breaker,
recover.

Two phases, both in-process so the script can reach the supervisor and
the breaker and assert on their counters:

1. **Self-healing labelling pool** — arm ``pool.worker_crash`` (one
   worker dies hard mid-shard), label a seeded batch through a
   two-worker :class:`repro.dse.ShardedLabeller`, and require labels
   bit-identical to the serial :meth:`ExhaustiveOracle.solve`, at least
   one shard retry and one pool rebuild, and a labeller that healed
   instead of degrading to serial labelling.
2. **Circuit breaker** — against an in-process
   :class:`repro.serving.DSEServer`, arm ``engine.transient_error`` so
   two ``/predict`` calls fail, require the breaker to open (503 +
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
from repro.dse import DSEProblem, ExhaustiveOracle, ShardedLabeller
from repro.faults import inject_faults
from repro.serving import DSEServer

LABEL_ROWS = 512
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


def _metric(text: str, series: str) -> float | None:
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.split()[-1])
    return None


def _scrape(server) -> str:
    with urllib.request.urlopen(server.url + "/metrics", timeout=30) as resp:
        return resp.read().decode()


def phase_self_healing_labeller() -> None:
    if "fork" not in multiprocessing.get_all_start_methods():
        print("SKIP: self-healing labelling pool (no fork start method)")
        return
    problem = DSEProblem()
    inputs = problem.sample_inputs(LABEL_ROWS, np.random.default_rng(7))
    expected = ExhaustiveOracle(problem).solve(inputs)
    # Armed before the pool forks, so the workers inherit the shared
    # one-shot budget: the crash fires in exactly one worker, once.
    with inject_faults({"pool.worker_crash": 1}) as armed:
        with ShardedLabeller(ExhaustiveOracle(problem), num_workers=2,
                             mp_context="fork", shard_timeout_s=5.0) \
                as labeller:
            result = labeller.label(inputs)
            sup = labeller._supervisor
        fired = armed.snapshot()["pool.worker_crash"]["fired"]
    if fired != 1:
        fail(f"the injected worker crash fired {fired} times, expected 1")
    for field in ("pe_idx", "l2_idx", "best_cost"):
        if not np.array_equal(getattr(result, field),
                              getattr(expected, field)):
            fail(f"recovered labels differ from the serial oracle "
                 f"({field})")
    if sup.retries < 1:
        fail(f"worker crash did not trigger a retry (retries={sup.retries})")
    if sup.rebuilds < 1:
        fail(f"worker crash did not rebuild the pool "
             f"(rebuilds={sup.rebuilds})")
    if sup.degraded:
        fail(f"labeller degraded instead of healing the pool: "
             f"{sup.degraded_reason}")
    print(f"PASS: labelling survived a SIGKILLed worker bit-identically "
          f"({len(inputs)} rows, {sup.retries} shard retries, "
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
    phase_self_healing_labeller()
    phase_circuit_breaker()
    print("chaos smoke: all phases passed")


if __name__ == "__main__":
    main()
