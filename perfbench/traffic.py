"""Client side of the serving workloads: open-loop ``POST /predict``
traffic on a ladder of offered rates, and streaming ``POST /sweep``.

Every response is checked against the benchmark's own reference: a
:class:`repro.core.DSEPredictor` over the same untrained model the
server builds (``--untrained --scale small --seed S``), and an
:class:`repro.dse.ExhaustiveOracle` for sweep costs.  A non-200
response, a transport error, a timeout or a wrong output is a failure.
"""

from __future__ import annotations

import gc
import http.client
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import AirchitectV2, DSEPredictor
from repro.dse import DSEProblem, ExhaustiveOracle
from repro.experiments.harness import get_scale

from common import percentile, tail_percentile

#: Share of /predict requests that carry several rows (coalesced by the
#: batcher, since they stay <= max_batch_size) and their size range.
BULK_SHARE = 0.15
BULK_ROWS = (2, 16)
#: Share of requests asking for the exact optimum (``with_oracle``), and
#: the share of those drawn from the recurring pool warmed before timing
#: (oracle LRU hits); the rest are fresh rows (misses, grid solves).
ORACLE_SHARE = 0.2
ORACLE_HIT_SHARE = 0.5
POOL_ROWS = 64
REQUEST_TIMEOUT_S = 30.0
SWEEP_CHUNK = 1024
#: Sweep rows whose predictions and cost are checked per sweep.
SWEEP_CHECK_ROWS = 64


def reference_model(seed: int) -> AirchitectV2:
    """The model ``repro serve --untrained --scale small --seed S`` builds."""
    return AirchitectV2(get_scale("small").model_config(), DSEProblem(),
                        np.random.default_rng(seed))


def _workload(row) -> dict:
    return {"m": int(row[0]), "n": int(row[1]), "k": int(row[2]),
            "dataflow": int(row[3])}


@dataclass
class Request:
    due: float                      # seconds after the rung's start
    rows: np.ndarray                # (r, 4) workloads in the body
    oracle: str | None = None       # "hit", "miss" or None
    body: bytes = b""
    expected: tuple = ()            # (pe_idx, l2_idx) arrays


@dataclass
class Outcome:
    latency_s: float                # done - due (client waiting counts)
    service_s: float                # done - sent
    lag_s: float | None             # how late an idle sender woke
    ok: bool
    queue_wait_ms: list = field(default_factory=list)
    batch_size: list = field(default_factory=list)


class PredictTraffic:
    """Seeded request mix for every rung, with expected outputs."""

    def __init__(self, seed: int, model: AirchitectV2):
        self.rng = np.random.default_rng(seed)
        self.problem = DSEProblem()
        self.predictor = DSEPredictor(model)
        self.pool = self._fresh(POOL_ROWS, set())
        self._seen = {tuple(r) for r in self.pool.tolist()}

    def _fresh(self, count: int, seen: set) -> np.ndarray:
        rows = []
        while len(rows) < count:
            for row in self.problem.sample_inputs(count, self.rng).tolist():
                if tuple(row) not in seen and len(rows) < count:
                    seen.add(tuple(row))
                    rows.append(row)
        return np.array(rows, dtype=np.int64)

    def warmup_requests(self) -> list[Request]:
        """Every pool row once with ``with_oracle`` (fills the oracle
        LRU), plus plain single-row requests."""
        reqs = [Request(0.0, self.pool[i:i + 1], "hit")
                for i in range(len(self.pool))]
        reqs += [Request(0.0, self.problem.sample_inputs(1, self.rng))
                 for _ in range(64)]
        return self._finish(reqs)

    def rung(self, rate: float, count: int) -> list[Request]:
        """``count`` Poisson arrivals at ``rate`` requests per second."""
        due = np.cumsum(self.rng.exponential(1.0 / rate, size=count))
        reqs = []
        for t in due:
            draw = self.rng.random()
            if draw < ORACLE_SHARE:
                if self.rng.random() < ORACLE_HIT_SHARE:
                    i = int(self.rng.integers(len(self.pool)))
                    reqs.append(Request(float(t), self.pool[i:i + 1], "hit"))
                else:
                    reqs.append(Request(float(t), self._fresh(1, self._seen),
                                        "miss"))
            elif draw < ORACLE_SHARE + BULK_SHARE:
                size = int(self.rng.integers(BULK_ROWS[0], BULK_ROWS[1] + 1))
                reqs.append(Request(float(t),
                                    self.problem.sample_inputs(size, self.rng)))
            else:
                reqs.append(Request(float(t),
                                    self.problem.sample_inputs(1, self.rng)))
        return self._finish(reqs)

    def _finish(self, reqs: list[Request]) -> list[Request]:
        rows = np.concatenate([r.rows for r in reqs])
        pe_idx, l2_idx = self.predictor.predict_indices(rows)
        at = 0
        for req in reqs:
            n = len(req.rows)
            req.expected = (pe_idx[at:at + n], l2_idx[at:at + n])
            at += n
            doc = {"workloads": [_workload(r) for r in req.rows]}
            if req.oracle is not None:
                doc["with_oracle"] = True
            req.body = json.dumps(doc).encode()
        return reqs


def check_predict(req: Request, status: int, body: bytes) -> tuple:
    """(ok, queue waits, batch sizes) for one response."""
    if status != 200:
        return False, [], []
    try:
        preds = json.loads(body)["predictions"]
    except (ValueError, KeyError, TypeError):
        return False, [], []
    if len(preds) != len(req.rows):
        return False, [], []
    pe_idx, l2_idx = req.expected
    for i, pred in enumerate(preds):
        row = req.rows[i]
        if (pred.get("m"), pred.get("n"), pred.get("k"),
                pred.get("dataflow")) != tuple(int(v) for v in row) \
                or pred.get("pe_idx") != int(pe_idx[i]) \
                or pred.get("l2_idx") != int(l2_idx[i]):
            return False, [], []
        if req.oracle is not None and "oracle_cost" not in pred:
            return False, [], []
    return (True, [p["queue_wait_ms"] for p in preds],
            [p["batch_size"] for p in preds])


def run_open_loop(server, reqs: list[Request], connections: int) \
        -> list[Outcome]:
    """Send ``reqs`` on their schedule over keep-alive connections.

    Each sender takes the next due request; if it is early it sleeps
    until the due time (how late it wakes is the generator lag), if it is
    late the request already waited for a free connection, which its
    latency counts because latency is measured from the due time.
    Responses are checked after the last one arrives, and the client's
    garbage collector is paused meanwhile, so the client adds as little
    delay of its own as it can.
    """
    raw: list[tuple | None] = [None] * len(reqs)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def sender():
        conn = server.connection(REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(reqs):
                    return
                due = start + reqs[i].due
                lag = None
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                    lag = time.perf_counter() - due
                sent = time.perf_counter()
                try:
                    conn.request("POST", "/predict", reqs[i].body,
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    status, body = response.status, response.read()
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = server.connection(REQUEST_TIMEOUT_S)
                    status, body = -1, b""
                raw[i] = (due, sent, time.perf_counter(), lag, status, body)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(connections)]
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(REQUEST_TIMEOUT_S * len(reqs))
    finally:
        gc.enable()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("open-loop senders did not finish")
    outcomes = []
    for req, (due, sent, done, lag, status, body) in zip(reqs, raw):
        ok, waits, sizes = check_predict(req, status, body)
        outcomes.append(Outcome(done - due, done - sent, lag, ok, waits,
                                sizes))
    return outcomes


def rung_report(rate: float, rounds: list[list[Outcome]],
                limit_ms: float) -> dict:
    """Latency percentiles and the SLO verdict of one rate, pooled over
    the rounds that ran it.

    A failed request misses the limit.  The rate meets the SLO when the
    pooled p99 is within the limit and the last tenth of each round's
    requests is not slower than the limit on average (no growing
    backlog).
    """
    outcomes = [o for per_round in rounds for o in per_round]
    lat_ms = [o.latency_s * 1e3 if o.ok else float("inf") for o in outcomes]
    last = [lat for per_round in rounds
            for lat in [o.latency_s * 1e3 if o.ok else float("inf")
                        for o in per_round[-max(1, len(per_round) // 10):]]]
    p99 = percentile(lat_ms, 99.0)
    backlog = sum(last) / len(last) > limit_ms
    doc = {"rate": rate, "sent": len(outcomes),
           "ok": sum(o.ok for o in outcomes),
           "failed": sum(not o.ok for o in outcomes),
           "p50_ms": percentile(lat_ms, 50.0), "p99_ms": p99,
           "backlog": backlog,
           "meets_slo": p99 <= limit_ms and not backlog}
    tail = tail_percentile(len(lat_ms))
    if tail is not None:
        doc["tail"] = {"percentile": tail,
                       "value_ms": percentile(lat_ms, tail)}
    return doc


# ----------------------------------------------------------------------
# /sweep
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    rows: int
    elapsed_s: float
    first_chunk_s: float
    chunk_gaps_s: list
    ok: bool
    error: str = ""


def run_sweep(server, rows: int, seed: int, model: AirchitectV2,
              oracle: ExhaustiveOracle) -> SweepResult:
    """One streaming sweep over one connection, then its checks: header,
    row count, chunk order, the echoed inputs, and predictions plus
    ``predicted_cost`` on a sampled subset of rows."""
    body = json.dumps({"random": rows, "seed": seed, "with_cost": True,
                       "chunk_size": SWEEP_CHUNK}).encode()
    conn = server.connection(REQUEST_TIMEOUT_S)
    lines, arrivals = [], []
    try:
        start = time.perf_counter()
        conn.request("POST", "/sweep", body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        status = response.status
        while True:
            line = response.readline()
            if not line:
                break
            arrivals.append(time.perf_counter())
            lines.append(line)
        elapsed = time.perf_counter() - start
    except (OSError, http.client.HTTPException) as exc:
        return SweepResult(rows, 0.0, 0.0, [], False, f"transport: {exc}")
    finally:
        conn.close()
    chunk_at = arrivals[1:-1]
    result = SweepResult(rows, elapsed,
                         (chunk_at[0] - start) if chunk_at else elapsed,
                         list(np.diff(chunk_at)), False)
    if status != 200:
        result.error = f"status {status}"
        return result
    result.error = _check_sweep(lines, rows, seed, model, oracle)
    result.ok = not result.error
    return result


def _check_sweep(lines, rows: int, seed: int, model: AirchitectV2,
                 oracle: ExhaustiveOracle) -> str:
    try:
        docs = [json.loads(line) for line in lines]
    except ValueError:
        return "malformed NDJSON line"
    chunks = -(-rows // SWEEP_CHUNK)
    if len(docs) != chunks + 2 or docs[0].get("count") != rows \
            or not docs[-1].get("done") or docs[-1].get("count") != rows:
        return "wrong header, summary or chunk count"
    inputs = DSEProblem().sample_inputs(rows, np.random.default_rng(seed))
    preds = []
    for index, doc in enumerate(docs[1:-1]):
        if doc.get("chunk") != index or doc.get("start") != index * SWEEP_CHUNK:
            return f"chunk {index} out of order"
        preds.extend(doc["predictions"])
    if len(preds) != rows:
        return "wrong row count"
    echoed = np.array([[p["m"], p["n"], p["k"], p["dataflow"]]
                       for p in preds], dtype=np.int64)
    if not np.array_equal(echoed, inputs):
        return "echoed inputs differ from the seeded sweep"
    sample = np.random.default_rng(seed).choice(rows, size=min(
        SWEEP_CHECK_ROWS, rows), replace=False)
    pe_idx, l2_idx = DSEPredictor(model).predict_indices(inputs[sample])
    cost = oracle.cost_at(inputs[sample], pe_idx, l2_idx)
    for j, i in enumerate(sample):
        p = preds[i]
        if p["pe_idx"] != int(pe_idx[j]) or p["l2_idx"] != int(l2_idx[j]) \
                or p["predicted_cost"] != float(cost[j]):
            return f"row {int(i)} prediction or cost differs"
    return ""
