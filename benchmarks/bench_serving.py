"""Concurrent-client serving: batcher speedup, tail latency, backpressure,
and the request-tracing overhead gate.

Four gates, one per serving-subsystem promise:

* **Batcher speedup** — with N concurrent clients issuing
  single-workload requests, the dynamic batcher (which coalesces them
  into engine batches) must deliver >= 3x the throughput of the
  unbatched path (one engine forward pass per request), with predictions
  bit-identical to :class:`repro.core.DSEPredictor`.
* **Sustained-load SLO** — a client fleet hammering the HTTP
  front-end over keep-alive connections for a fixed wall-clock window
  must keep client-observed p99 latency under ``--p99-limit``, with the
  server's own ``/stats`` p50/p95/p99 histogram recorded alongside.
* **Saturation behaviour** — a route with a tiny ``max_queue`` and a
  deliberately slow engine must answer the overflow with HTTP 429 +
  ``Retry-After`` (bounded admission), never by queueing unboundedly.
* **Tracing overhead** — requests carrying a trace context (client span
  propagated through the batcher's queue.wait and engine.forward spans,
  PR 7's telemetry layer) must cost <= 3% throughput vs plain requests.
* **Fault-hook overhead** — the disarmed ``repro.faults.fire`` probes
  threaded through the pool/persistence/serving layers (PR 9) must cost
  <= 1% of a single-row engine pass per request, measured as the
  per-call price of a disarmed probe times a generous per-request hook
  count against the bare engine p50.

Run standalone to record the perf trajectory::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --clients 16 --requests-per-client 64 --duration 5 \
        --output BENCH_serving.json

or under pytest (the tests are marked ``slow``)::

    pytest benchmarks/bench_serving.py --benchmark-only -m slow -s

``--smoke`` runs a seconds-long configuration for CI: the batcher must
beat the per-request loop at all, sustained p99 stays under a lenient
CI bound, and saturation must produce at least one 429 with its
Retry-After header — so serving regressions fail PRs instead of
releases.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import (AirchitectV2, BatchedDSEPredictor, DSEPredictor,
                        ModelConfig)
from repro.dse import DSEProblem
from repro.faults import active as _active_faults
from repro.faults import fire
from repro.obs import Tracer
from repro.serving import DSEServer, DynamicBatcher, ServingStats

SPEEDUP_TARGET = 3.0
P99_LIMIT_S = 0.5
SMOKE_P99_LIMIT_S = 5.0
OBS_OVERHEAD_LIMIT = 0.03
#: Hooks a single request could plausibly cross (admission, engine,
#: per-shard dispatch...) — deliberately generous.
FAULT_HOOKS_PER_REQUEST = 8
FAULT_OVERHEAD_LIMIT = 0.01


def _drive_clients(n_clients: int, requests_per_client: int, inputs,
                   handle_one) -> tuple[float, np.ndarray, np.ndarray]:
    """Fire the client fleet; returns (elapsed, pe_idx, l2_idx) in input
    order.  ``handle_one(row) -> (pe, l2)`` is the serving path under test."""
    total = n_clients * requests_per_client
    pe_out = np.empty(total, dtype=np.int64)
    l2_out = np.empty(total, dtype=np.int64)
    barrier = threading.Barrier(n_clients + 1)

    def client(cid: int) -> None:
        barrier.wait()
        for r in range(requests_per_client):
            i = cid * requests_per_client + r
            pe_out[i], l2_out[i] = handle_one(inputs[i])

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(n_clients)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - start, pe_out, l2_out


def run_bench(clients: int = 16, requests_per_client: int = 64,
              max_batch_size: int = 64, seed: int = 0) -> dict:
    problem = DSEProblem()
    rng = np.random.default_rng(seed)
    model = AirchitectV2(ModelConfig(), problem, rng)
    total = clients * requests_per_client
    inputs = problem.sample_inputs(total, rng)

    reference = DSEPredictor(model)
    reference.predict_indices(inputs[0])               # warm-up (lazy allocs)

    # Unbatched per-request path: every client request is its own
    # single-row forward pass (what serving looks like without a batcher).
    loop_elapsed, loop_pe, loop_l2 = _drive_clients(
        clients, requests_per_client, inputs,
        lambda row: tuple(int(x[0]) for x in reference.predict_indices(row)))

    # Dynamic batcher: the same fleet, requests coalesced into batches.
    stats = ServingStats()
    engine = BatchedDSEPredictor(model, on_batch=stats.record_forward)
    with DynamicBatcher(engine, max_batch_size=max_batch_size, stats=stats,
                        start=True) as batcher:
        def one(row):
            served = batcher.predict(*map(int, row), timeout=60)
            return served.pe_idx, served.l2_idx
        batched_elapsed, pe, l2 = _drive_clients(
            clients, requests_per_client, inputs, one)

    ref_pe, ref_l2 = reference.predict_indices(inputs)
    identical = bool(np.array_equal(pe, ref_pe) and np.array_equal(l2, ref_l2)
                     and np.array_equal(loop_pe, ref_pe)
                     and np.array_equal(loop_l2, ref_l2))
    loop_rps = total / max(loop_elapsed, 1e-12)
    batched_rps = total / max(batched_elapsed, 1e-12)
    return {"clients": clients,
            "requests_per_client": requests_per_client,
            "requests_total": total,
            "max_batch_size": max_batch_size,
            "loop_elapsed_s": loop_elapsed,
            "batched_elapsed_s": batched_elapsed,
            "loop_requests_per_sec": loop_rps,
            "batched_requests_per_sec": batched_rps,
            "speedup": batched_rps / max(loop_rps, 1e-12),
            "forward_passes": stats.forward_passes,
            "mean_batch_size": stats.mean_batch_size,
            "mean_queue_wait_ms": stats.mean_queue_wait_s * 1e3,
            "identical_predictions": identical,
            "speedup_target": SPEEDUP_TARGET}


def run_obs_overhead(clients: int = 16, requests_per_client: int = 64,
                     max_batch_size: int = 64, rounds: int = 3,
                     seed: int = 0) -> dict:
    """The instrumentation gate of the telemetry layer (PR 7).

    One concurrent-client fleet drives the batcher with *interleaved*
    requests: each client alternates plain requests and requests that
    carry a trace context (a client span whose id propagates through the
    batcher's queue.wait and the engine's forward spans, all landing in
    a :class:`~repro.obs.Tracer` ring).  Because both populations share
    every batch, every GC pause and every scheduler hiccup, comparing
    their median latencies is a *paired* measurement: drift and jitter
    cancel, leaving the per-request cost of carrying a trace.  Separate
    all-plain/all-traced drives were hopeless here — a dynamic batcher
    quantizes latency into engine passes, so microsecond perturbations
    chaotically shift which cycle a request lands in and wall-clock
    differences of either sign dwarf the instrumentation under test.
    """
    problem = DSEProblem()
    rng = np.random.default_rng(seed)
    model = AirchitectV2(ModelConfig(), problem, rng)
    total = clients * requests_per_client
    inputs = problem.sample_inputs(total, rng)
    DSEPredictor(model).predict_indices(inputs[0])     # warm-up (lazy allocs)

    tracer = Tracer(ring_size=4 * total * rounds)
    latencies: dict[bool, list[float]] = {False: [], True: []}
    elapsed_total = 0.0

    stats = ServingStats()
    engine = BatchedDSEPredictor(model, on_batch=stats.record_forward)
    with DynamicBatcher(engine, max_batch_size=max_batch_size, stats=stats,
                        start=True) as batcher:
        counter = {"i": 0}

        def one(row):
            # Alternate per call; the dict counter is GIL-atomic enough
            # for a measurement split (exact balance does not matter).
            counter["i"] += 1
            traced = counter["i"] % 2 == 0
            begin = time.perf_counter()
            if traced:
                with tracer.span("client.request") as span:
                    served = batcher.predict(*map(int, row), timeout=60,
                                             trace=span.context)
            else:
                served = batcher.predict(*map(int, row), timeout=60)
            latencies[traced].append(time.perf_counter() - begin)
            return served.pe_idx, served.l2_idx

        for _ in range(rounds):
            seconds, _, _ = _drive_clients(
                clients, requests_per_client, inputs, one)
            elapsed_total += seconds
        spans_recorded = len(tracer.export())

    plain_p50 = float(np.median(latencies[False]))
    traced_p50 = float(np.median(latencies[True]))
    overhead = max(traced_p50 / max(plain_p50, 1e-12) - 1.0, 0.0)
    return {"clients": clients,
            "requests_per_client": requests_per_client,
            "rounds": rounds,
            "requests_measured": {"plain": len(latencies[False]),
                                  "traced": len(latencies[True])},
            "requests_per_sec": rounds * total / max(elapsed_total, 1e-12),
            "plain_p50_ms": plain_p50 * 1e3,
            "traced_p50_ms": traced_p50 * 1e3,
            "obs_overhead": overhead,
            "overhead_limit": OBS_OVERHEAD_LIMIT,
            "overhead_ok": overhead <= OBS_OVERHEAD_LIMIT,
            "spans_recorded": spans_recorded}


def run_sustained(duration_s: float = 5.0, clients: int = 8,
                  max_batch_size: int = 64,
                  p99_limit_s: float = P99_LIMIT_S, seed: int = 0) -> dict:
    """Sustained load against the HTTP front-end: keep-alive client
    fleet, client-observed p50/p95/p99, server-side ``/stats`` histogram."""
    problem = DSEProblem()
    rng = np.random.default_rng(seed)
    model = AirchitectV2(ModelConfig(), problem, rng)
    inputs = problem.sample_inputs(4096, rng)
    DSEPredictor(model).predict_indices(inputs[0])     # warm-up (lazy allocs)

    latencies: list[list[float]] = [[] for _ in range(clients)]
    non_200 = [0] * clients
    stop = threading.Event()

    server = DSEServer(model, port=0, max_batch_size=max_batch_size)
    with server:
        host, port = server.address

        def client(cid: int) -> None:
            conn = http.client.HTTPConnection(host, port, timeout=30)
            i = cid
            while not stop.is_set():
                row = inputs[i % len(inputs)]
                i += clients
                body = json.dumps({"m": int(row[0]), "n": int(row[1]),
                                   "k": int(row[2]),
                                   "dataflow": int(row[3])})
                begin = time.perf_counter()
                try:
                    conn.request("POST", "/predict", body)
                    resp = conn.getresponse()
                    resp.read()
                except (http.client.HTTPException, OSError):
                    conn.close()    # dropped keep-alive: reconnect
                    conn = http.client.HTTPConnection(host, port,
                                                      timeout=30)
                    continue
                latencies[cid].append(time.perf_counter() - begin)
                if resp.status != 200:
                    non_200[cid] += 1
            conn.close()

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(clients)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        time.sleep(duration_s)
        stop.set()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        with urllib.request.urlopen(server.url + "/stats",
                                    timeout=10) as resp:
            server_stats = json.loads(resp.read())

    lat = np.array([s for per_client in latencies for s in per_client])
    p50, p95, p99 = (float(np.percentile(lat, q)) if len(lat) else 0.0
                     for q in (50, 95, 99))
    return {"duration_s": duration_s,
            "clients": clients,
            "requests_total": int(len(lat)),
            "non_200_responses": int(sum(non_200)),
            "requests_per_sec": len(lat) / max(elapsed, 1e-12),
            "client_p50_ms": p50 * 1e3,
            "client_p95_ms": p95 * 1e3,
            "client_p99_ms": p99 * 1e3,
            "server_latency": server_stats.get("latency"),
            "p99_limit_s": p99_limit_s,
            "p99_ok": bool(len(lat)) and p99 <= p99_limit_s}


def run_saturation(seed: int = 0) -> dict:
    """Overload a max_queue=2 route behind a deliberately slow engine:
    the overflow must answer 429 + Retry-After, and the route must admit
    again once the burst subsides."""
    problem = DSEProblem()
    rng = np.random.default_rng(seed)
    model = AirchitectV2(ModelConfig(), problem, rng)
    server = DSEServer(model, port=0, max_batch_size=4, max_queue=2, retry_after_s=1.0)
    route = server._route(None)
    real = route.engine.predict_indices

    def slow(batch):
        time.sleep(0.05)        # one engine pass outlives the whole burst
        return real(batch)

    route.engine.predict_indices = slow
    counts = {"200": 0, "429": 0, "other": 0}
    retry_after: list[str] = []
    lock = threading.Lock()

    with server:
        def burst_client(cid: int) -> None:
            for r in range(4):
                req = urllib.request.Request(
                    server.url + "/predict",
                    data=json.dumps({"m": 8 + cid, "n": 8 + r,
                                     "k": 8}).encode())
                try:
                    with urllib.request.urlopen(req, timeout=30) as resp:
                        status, header = resp.status, None
                        resp.read()
                except urllib.error.HTTPError as err:
                    status = err.code
                    header = err.headers.get("Retry-After")
                    err.read()
                with lock:
                    counts[str(status) if status in (200, 429)
                           else "other"] += 1
                    if status == 429 and header is not None:
                        retry_after.append(header)

        threads = [threading.Thread(target=burst_client, args=(c,))
                   for c in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # The burst is over: the bounded queue must admit again.
        req = urllib.request.Request(
            server.url + "/predict",
            data=json.dumps({"m": 64, "n": 64, "k": 64}).encode())
        with urllib.request.urlopen(req, timeout=30) as resp:
            recovered = resp.status == 200
            resp.read()

    return {"max_queue": 2,
            "burst_clients": 12,
            "responses_200": counts["200"],
            "responses_429": counts["429"],
            "responses_other": counts["other"],
            "retry_after_headers": sorted(set(retry_after)),
            "recovered_after_burst": bool(recovered),
            "backpressure_ok": counts["429"] >= 1 and counts["other"] == 0
            and len(retry_after) == counts["429"] and bool(recovered)}


def run_fault_overhead(iterations: int = 200_000, engine_reps: int = 300,
                       seed: int = 0) -> dict:
    """The robustness layer's "free when disarmed" promise (PR 9).

    Times ``fire()`` with no registry armed — the steady-state of every
    production process — then prices a request as
    ``FAULT_HOOKS_PER_REQUEST`` disarmed probes against the bare
    single-row engine p50.  The engine pass is the *floor* of any served
    request (no HTTP, no batcher queueing), so overhead relative to it
    upper-bounds the overhead on a real request.
    """
    if _active_faults() is not None:
        raise RuntimeError("fault overhead must be measured disarmed; "
                           "unset REPRO_FAULTS first")
    begin = time.perf_counter()
    for _ in range(iterations):
        fire("engine.transient_error")
    per_call_s = (time.perf_counter() - begin) / iterations

    problem = DSEProblem()
    rng = np.random.default_rng(seed)
    model = AirchitectV2(ModelConfig(), problem, rng)
    reference = DSEPredictor(model)
    row = problem.sample_inputs(1, rng)
    reference.predict_indices(row)                  # warm-up (lazy allocs)
    samples = []
    for _ in range(engine_reps):
        begin = time.perf_counter()
        reference.predict_indices(row)
        samples.append(time.perf_counter() - begin)
    engine_p50_s = float(np.median(samples))

    per_request_s = per_call_s * FAULT_HOOKS_PER_REQUEST
    overhead = per_request_s / max(engine_p50_s, 1e-12)
    return {"iterations": iterations,
            "disarmed_fire_ns": per_call_s * 1e9,
            "hooks_per_request": FAULT_HOOKS_PER_REQUEST,
            "engine_p50_us": engine_p50_s * 1e6,
            "fault_overhead": overhead,
            "fault_overhead_limit": FAULT_OVERHEAD_LIMIT,
            "fault_overhead_ok": overhead <= FAULT_OVERHEAD_LIMIT}


def run_smoke() -> dict:
    """Seconds-long CI configuration: asserts direction, not magnitude."""
    result = run_bench(clients=8, requests_per_client=12)
    result["smoke"] = True
    result["speedup_target"] = 1.0
    result["sustained"] = run_sustained(duration_s=1.5, clients=4,
                                        p99_limit_s=SMOKE_P99_LIMIT_S)
    result["saturation"] = run_saturation()
    # 8 rounds (384 requests a side): with 2, the traced-vs-plain p50
    # difference spread about ±2.5% between identical runs, so the 3%
    # gate failed on noise alone.
    result["observability"] = run_obs_overhead(clients=8,
                                               requests_per_client=12,
                                               rounds=8)
    result["faults"] = run_fault_overhead(iterations=50_000, engine_reps=100)
    return result


@pytest.mark.slow
def test_dynamic_batcher_beats_per_request_loop(benchmark):
    """>= 3x concurrent-client throughput with identical predictions."""
    result = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    print(json.dumps(result, indent=2))
    assert result["identical_predictions"]
    assert result["speedup"] >= SPEEDUP_TARGET


@pytest.mark.slow
def test_sustained_load_meets_p99_slo():
    """Client-observed p99 under the SLO across a 5s load window."""
    result = run_sustained()
    print(json.dumps(result, indent=2))
    assert result["non_200_responses"] == 0
    assert result["p99_ok"]
    assert result["server_latency"]["count"] > 0


@pytest.mark.slow
def test_saturated_route_backpressures_with_429():
    result = run_saturation()
    print(json.dumps(result, indent=2))
    assert result["backpressure_ok"]


@pytest.mark.slow
def test_tracing_overhead_within_gate():
    """Traced requests cost <= 3% throughput vs plain ones."""
    result = run_obs_overhead()
    print(json.dumps(result, indent=2))
    assert result["spans_recorded"] > 0
    assert result["overhead_ok"]


@pytest.mark.slow
def test_disarmed_fault_hooks_within_gate():
    """Disarmed fault probes cost <= 1% of a bare engine pass."""
    result = run_fault_overhead()
    print(json.dumps(result, indent=2))
    assert result["fault_overhead_ok"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--requests-per-client", type=int, default=64)
    parser.add_argument("--max-batch-size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="sustained-load window in seconds (default 5)")
    parser.add_argument("--p99-limit", type=float, default=P99_LIMIT_S,
                        help="sustained-load p99 latency gate in seconds "
                             f"(default {P99_LIMIT_S:g})")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long CI mode: the batcher must beat "
                             "the per-request loop, sustained p99 stays "
                             "under a lenient bound, and saturation must "
                             "answer 429 + Retry-After")
    parser.add_argument("--output", default=None,
                        help="also write the JSON record to this path "
                             "(e.g. BENCH_serving.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        result = run_smoke()
    else:
        result = run_bench(clients=args.clients,
                           requests_per_client=args.requests_per_client,
                           max_batch_size=args.max_batch_size,
                           seed=args.seed)
        result["sustained"] = run_sustained(duration_s=args.duration,
                                            clients=args.clients,
                                            max_batch_size=args.max_batch_size,
                                            p99_limit_s=args.p99_limit,
                                            seed=args.seed)
        result["saturation"] = run_saturation(seed=args.seed)
        result["observability"] = run_obs_overhead(
            clients=args.clients,
            requests_per_client=args.requests_per_client,
            max_batch_size=args.max_batch_size, seed=args.seed)
        result["faults"] = run_fault_overhead(seed=args.seed)
    text = json.dumps(result, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    failed = False
    if not result["identical_predictions"]:
        print("FAIL: served predictions diverge from DSEPredictor",
              file=sys.stderr)
        failed = True
    if result["speedup"] < result["speedup_target"]:
        print(f"FAIL: speedup {result['speedup']:.2f}x < "
              f"{result['speedup_target']:.1f}x target", file=sys.stderr)
        failed = True
    sustained = result["sustained"]
    if sustained["non_200_responses"]:
        print(f"FAIL: sustained load saw "
              f"{sustained['non_200_responses']} non-200 responses",
              file=sys.stderr)
        failed = True
    if not sustained["p99_ok"]:
        print(f"FAIL: sustained p99 {sustained['client_p99_ms']:.1f}ms "
              f"exceeds the {sustained['p99_limit_s'] * 1e3:.0f}ms gate",
              file=sys.stderr)
        failed = True
    if not result["saturation"]["backpressure_ok"]:
        print("FAIL: saturated route did not backpressure with "
              "429 + Retry-After", file=sys.stderr)
        failed = True
    obs = result["observability"]
    if not obs["spans_recorded"]:
        print("FAIL: traced requests recorded no spans", file=sys.stderr)
        failed = True
    if not obs["overhead_ok"]:
        print(f"FAIL: tracing overhead {obs['obs_overhead'] * 100:.2f}% "
              f"exceeds the {obs['overhead_limit'] * 100:.0f}% gate",
              file=sys.stderr)
        failed = True
    fault = result["faults"]
    if not fault["fault_overhead_ok"]:
        print(f"FAIL: disarmed fault hooks cost "
              f"{fault['fault_overhead'] * 100:.3f}% of an engine pass, "
              f"over the {fault['fault_overhead_limit'] * 100:.0f}% gate",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
