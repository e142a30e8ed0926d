"""The repository benchmark: the paper pipeline, served ``/predict`` and
streaming ``/sweep``, end to end and per layer.

    python3 perfbench/run.py --workload pipeline|serve --seed N \
        --seconds S --trace 0|1

Every run walks the whole user journey — learn the design space (label,
stage-1, stage-2, evaluate, save), then answer one-shot queries over
HTTP and stream a bulk sweep — and reports every end-to-end metric.  The
workload decides where the measuring time goes (see ``PLANS`` and
``perfbench/README.md``).  The last line of standard output is the
result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
separate traced pass (``--trace 1``).  The line before it is the full
report: provenance, per-metric sample counts, medians, spreads and tail
percentiles, and the rung-by-rung serving ladder.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from common import (BENCH_DIR, SRC, BenchError, child_env, make_scratch,
                    percentile, provenance, remove_scratch, require_program,
                    summarize)
from tracing import FUSED_OPS

#: The pipeline's size: one repeat (set-up included) takes 4-6 s on a
#: shared 2-core host, so both plans run one repeat per round.
PIPELINE_SAMPLES = 1500
PIPELINE_EPOCHS = (3, 3)
#: Open-loop ladder of offered /predict rates (requests per second).  The
#: first rung is the reference rate for predict_p50_ms/predict_p99_ms; the
#: others bracket the SLO crossing (about 275-400/s on a 2-core host).
#: The reference rate is kept low so that its p50 is mostly service time:
#: at 100/s queueing behind the two connections amplified every slowdown
#: of the shared host, and the p50 moved by up to 0.25 of its median
#: between runs.
LADDER = (50, 225, 275, 325, 375, 450)
#: Untimed requests at the reference rate before each round's reference
#: rung, so that it does not start cold right after the pipeline repeats.
SETTLE_S = 0.5
#: p99 limit of the SLO.  Set where the p99 curve turns into the
#: saturation cliff (the unloaded p50 of this mix is about 7 ms): below
#: it, p99 near the knee swings with every burst and the crossing rate
#: moved by a third between runs; at the cliff it tracks capacity.
SLO_P99_MS = 150.0
CONNECTIONS = 2
#: A run whose open-loop generator woke later than this (p99) is invalid.
#: Generous: the shared host itself pauses the client for tens of ms.
MAX_GENERATOR_LAG_MS = 20.0
SWEEP_ROWS = 4096
#: Server set-ups per run on ``serve`` (setup_s is their median).
SERVER_SETUPS = 3
#: Rounds per run; each round runs every phase once (see Run.measure).
ROUNDS = 3

traffic = None      # imported by main() once the program's sources are found


@dataclass(frozen=True)
class Plan:
    """Share of ``--seconds`` each phase measures, and the phase whose
    set-up time and peak memory the run reports."""
    pipeline: float
    serve: float
    sweep: float
    primary: str


PLANS = {
    # The pipeline's largest share (about a third of the run), and the
    # pipeline child's set-up and peak memory: kernel/autograd/optimizer
    # changes show here.
    "pipeline": Plan(pipeline=0.4, serve=0.45, sweep=0.15, primary="pipeline"),
    # Serving's largest share (over half the run), and the server's set-up
    # and peak memory: per-request work (parse, admission, batcher, tiny
    # forward) on /predict, and bulk forward + cost on /sweep.
    "serve": Plan(pipeline=0.15, serve=0.55, sweep=0.3, primary="serve"),
}


def _room_for_another(start: float, done: int, budget: float) -> bool:
    """Whether one more repeat ends within half a repeat of ``budget``."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < budget


class Run:
    """One benchmark run: counts attempts and failures across phases."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 smoke: bool):
        self.plan = PLANS[workload]
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.scratch = make_scratch()
        self.env = child_env(self.scratch)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.model = None
        self.sweeps_run = 0

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def pipeline_once(self, trace: bool) -> dict | None:
        samples = 400 if self.smoke else PIPELINE_SAMPLES
        epochs = (1, 1) if self.smoke else PIPELINE_EPOCHS
        argv = [sys.executable, str(BENCH_DIR / "pipeline_child.py"),
                "--seed", str(self.seed), "--samples", str(samples),
                "--epochs", *map(str, epochs),
                "--workers", str(os.cpu_count() or 1),
                "--spawned-at", repr(time.time())]
        if trace:
            argv.append("--trace")
        self.attempted += 1
        proc = subprocess.run(argv, env=self.env, capture_output=True,
                              text=True, timeout=170)
        if proc.returncode != 0:
            self.fail(f"pipeline child exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check_pipeline(self, repeats: list[dict]) -> None:
        """Labels and quality are deterministic per seed."""
        for key in ("checksum", "accuracy", "mean_regret"):
            if len({doc[key] for doc in repeats}) > 1:
                self.fail(f"pipeline {key} differs across repeats of one "
                          f"seed", len(repeats))

    def pipeline_slice(self, budget: float, trace: bool) -> list[dict]:
        """Repeat the pipeline (at least once) until ``budget`` is used."""
        repeats: list[dict] = []
        start = time.perf_counter()
        while True:
            doc = self.pipeline_once(trace)
            if doc is None:
                break
            repeats.append(doc)
            if trace or not _room_for_another(start, len(repeats), budget):
                break
        return repeats

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def start_server(self, spans_out=None):
        """Spawn, wait for /healthz, warm up (pool rows into the oracle
        LRU, one chunk through /sweep); returns (server, set-up seconds,
        warm-up outcomes)."""
        from serverproc import ServerProcess
        spawned = time.perf_counter()
        server = ServerProcess(self.seed, self.env, spans_out).start()
        try:
            warm = traffic.run_open_loop(server, self.warm, CONNECTIONS)
            self.count(warm, "warm-up")
            self.check_sweep(traffic.run_sweep(server, traffic.SWEEP_CHUNK,
                                               self.seed, self.model,
                                               self.oracle))
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - spawned, warm

    def stop_server(self, server) -> None:
        code = server.stop()
        if code != 0:
            self.fail(f"server exited {code}: "
                      + "".join(server.stderr_lines[-10:]))

    def count(self, outcomes, phase: str) -> None:
        self.attempted += len(outcomes)
        bad = sum(not o.ok for o in outcomes)
        if bad:
            self.fail(f"{bad} failed /predict requests in {phase}", bad)

    def check_sweep(self, result) -> None:
        self.attempted += 1
        if not result.ok:
            self.fail(f"sweep failed: {result.error}")

    def ladder_slice(self, server, budget: float, rates) -> dict:
        """One pass over the ladder: the reference rung gets half of
        ``budget`` (its p99 needs the samples), the other rungs share the
        rest."""
        out = {}
        settle = traffic.run_open_loop(
            server, self.predict.rung(rates[0], int(rates[0] * SETTLE_S)),
            CONNECTIONS)
        self.count(settle, "settle")
        for i, rate in enumerate(rates):
            share = 0.5 if i == 0 else 0.5 / (len(rates) - 1)
            count = max(10, int(rate * budget * share))
            outcomes = traffic.run_open_loop(
                server, self.predict.rung(rate, count), CONNECTIONS)
            self.count(outcomes, f"rung {rate}/s")
            out[rate] = outcomes
        return out

    def sweep_slice(self, server, budget: float) -> list:
        rows = 2048 if self.smoke else SWEEP_ROWS
        results = []
        start = time.perf_counter()
        while True:
            result = traffic.run_sweep(server, rows,
                                       self.seed * 1000 + self.sweeps_run,
                                       self.model, self.oracle)
            self.sweeps_run += 1
            self.check_sweep(result)
            results.append(result)
            if not _room_for_another(start, len(results), budget):
                break
        return results

    def measure(self, traced: bool = False) -> dict:
        """The whole journey, interleaved over rounds so that every metric
        samples the same stretch of the run (host speed drifts over
        seconds).  Each round: pipeline repeats, one pass over the /predict
        ladder, sweeps, and on ``serve`` a set-up-only server spawn."""
        if self.model is None:
            from repro.dse import DSEProblem, ExhaustiveOracle
            self.model = traffic.reference_model(self.seed)
            self.oracle = ExhaustiveOracle(DSEProblem())
            self.predict = traffic.PredictTraffic(self.seed, self.model)
            self.warm = self.predict.warmup_requests()
        rounds = 1 if traced else ROUNDS
        setups_wanted = 1 if traced or self.plan.primary == "pipeline" \
            else SERVER_SETUPS
        rates = LADDER[:1] if traced else LADDER
        share = self.seconds / ROUNDS
        spans_out = (self.scratch / f"spans-{time.time_ns()}.ndjson") \
            if traced else None
        out = {"pipeline": [], "setups": [], "warm": [], "sweeps": [],
               "rungs": {rate: [] for rate in rates}}
        server, setup_s, warm = self.start_server(spans_out)
        out["setups"].append(setup_s)
        out["warm"] += warm
        try:
            if traced:
                server.next_segment()                    # warm-up done
            for _ in range(rounds):
                out["pipeline"] += self.pipeline_slice(
                    self.plan.pipeline * share, traced)
                before = server.stats()
                for rate, outcomes in self.ladder_slice(
                        server, self.plan.serve * share, rates).items():
                    out["rungs"][rate].append(outcomes)
                out["stats"] = (before, server.stats())
                if traced:
                    server.next_segment()                # ladder done
                out["sweeps"] += self.sweep_slice(server,
                                                  self.plan.sweep * share)
                if len(out["setups"]) < setups_wanted:
                    extra, setup_s, warm = self.start_server()
                    out["setups"].append(setup_s)
                    out["warm"] += warm
                    self.stop_server(extra)
            out["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            self.stop_server(server)
        if traced:
            out["segments"] = server.segments()
        self.check_pipeline(out["pipeline"])
        out["ladder"] = [traffic.rung_report(rate, per_round, SLO_P99_MS)
                         for rate, per_round in out["rungs"].items()]
        out["round_ladders"] = [
            [traffic.rung_report(rate, [per_round[i]], SLO_P99_MS)
             for rate, per_round in out["rungs"].items()]
            for i in range(rounds)]
        return out

    def close(self) -> None:
        remove_scratch(self.scratch)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def max_rps_at_slo(ladder: list[dict]) -> float:
    """The highest offered rate meeting the p99 limit: the first rung that
    misses it and the rung below, interpolated (linear in rate,
    logarithmic in p99) so the figure does not jump between rungs."""
    for i, rung in enumerate(ladder):
        if rung["meets_slo"]:
            continue
        p_hi = min(max(rung["p99_ms"], SLO_P99_MS * 1.0001), 1e6)
        if i == 0:
            return rung["rate"] * SLO_P99_MS / p_hi
        lo = ladder[i - 1]
        frac = (math.log(SLO_P99_MS) - math.log(lo["p99_ms"])) \
            / (math.log(p_hi) - math.log(lo["p99_ms"]))
        return lo["rate"] + (rung["rate"] - lo["rate"]) * frac
    return float(ladder[-1]["rate"])


#: The end-to-end metrics of the result line.  predict_p99_ms goes to the
#: report only: on a shared 2-core host it moved by 0.3-0.45 of its median
#: between runs, beyond any regression bound the result line may carry.
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "pipeline_s": "s",
         "predict_p50_ms": "ms", "max_rps_at_slo": "1/s",
         "sweep_rows_per_s": "1/s", "sweep_first_chunk_ms": "ms"}


def reference_outcomes(measured: dict) -> list:
    return [o for per_round in measured["rungs"][LADDER[0]]
            for o in per_round]


def end_to_end(run: Run, measured: dict) -> tuple:
    """(metrics for the result line, detail for the report)."""
    pipeline = measured["pipeline"]
    ref_ms = [o.latency_s * 1e3 for o in reference_outcomes(measured)
              if o.ok]
    sweeps = measured["sweeps"]
    if run.plan.primary == "pipeline":
        setup = [doc["setup_s"] for doc in pipeline]
        rss = max(doc["peak_rss_mb"] for doc in pipeline)
    else:
        setup = measured["setups"]
        rss = measured["peak_rss_mb"]
    samples = {
        "setup_s": setup,
        "pipeline_s": [doc["pipeline_s"] for doc in pipeline],
        "predict_p50_ms": ref_ms,
        "sweep_rows_per_s": [s.rows / s.elapsed_s for s in sweeps],
        "sweep_first_chunk_ms": [s.first_chunk_s * 1e3 for s in sweeps],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    # A shared host can pause for 100+ ms, which spoils the tail of the
    # round it lands in.  So the p99 is taken over the reference requests
    # of all rounds but the one with the worst p99, and the SLO crossing
    # is the median of the rounds' crossings: one stall in a run then
    # does not move either figure.
    round_p99 = [ladder[0]["p99_ms"] for ladder in measured["round_ladders"]]
    worst = round_p99.index(max(round_p99)) if len(round_p99) > 1 else -1
    kept_ms = [o.latency_s * 1e3 if o.ok else math.inf
               for i, outcomes in enumerate(measured["rungs"][LADDER[0]])
               if i != worst for o in outcomes]
    round_rps = [max_rps_at_slo(ladder)
                 for ladder in measured["round_ladders"]]
    values["predict_p99_ms"] = percentile(kept_ms, 99.0)
    values["max_rps_at_slo"] = statistics.median(round_rps)
    values["peak_rss_mb"] = rss
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in UNITS.items()}
    detail = {name: summarize(v) for name, v in samples.items()}
    detail["predict_p99_ms"] = {"value": values["predict_p99_ms"],
                                "unit": "ms", "n": len(kept_ms),
                                "rounds": round_p99,
                                "all_rounds": percentile(ref_ms, 99.0)}
    detail["max_rps_at_slo"] = {"rounds": round_rps,
                                "pooled": max_rps_at_slo(measured["ladder"])}
    detail["error_rate"] = {"value": run.failed / max(run.attempted, 1),
                            "unit": "ratio"}
    detail["accuracy"] = {"value": pipeline[0]["accuracy"], "unit": "ratio"}
    detail["mean_regret"] = {"value": pipeline[0]["mean_regret"],
                             "unit": "ratio"}
    detail["ladder"] = measured["ladder"]
    return metrics, detail


def generator_lag_ms(measured: dict) -> float:
    lags = [o.lag_s * 1e3 for rounds in measured["rungs"].values()
            for outcomes in rounds for o in outcomes if o.lag_s is not None]
    return percentile(lags, 99.0) if lags else 0.0


def per_layer(run: Run, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics from the traced pass (see README.md for the map
    from each to the end-to-end metric it should move)."""
    m: dict[str, tuple[float, str]] = {}
    pipeline = traced["pipeline"][0]
    spans = pipeline["spans"]
    m["dse.label_s"] = (spans["dse.label"]["total_s"], "s")
    m["dse.label_rows_per_s"] = (pipeline["rows"] / pipeline["label_s"],
                                 "1/s")
    for stage in ("stage1", "stage2"):
        m[f"core.{stage}_s"] = (spans[f"core.{stage}"]["total_s"], "s")
        m[f"train.{stage}.epoch_ms"] = (
            statistics.median(pipeline[stage]["epoch_s"]) * 1e3, "ms")
        for phase, total in pipeline[stage]["phases"].items():
            m[f"train.{stage}.{phase}_s"] = (total, "s")
    for op in FUSED_OPS:
        doc = spans.get(f"nn.fused.{op}", {"calls": 0, "self_s": 0.0})
        m[f"nn.fused.{op}.calls"] = (doc["calls"], "count")
        m[f"nn.fused.{op}.forward_s"] = (doc["self_s"], "s")
    m["core.eval_s"] = (spans["core.eval"]["total_s"], "s")
    m["registry.save_s"] = (spans["registry.save"]["total_s"], "s")

    _, ladder, sweep = traced["segments"]
    ref = reference_outcomes(traced)
    handle = ladder["serving.handle_predict"]["p50_ms"]
    m["serving.handle_predict_ms"] = (handle, "ms")
    service = statistics.median(o.service_s * 1e3 for o in ref if o.ok)
    m["serving.transport_ms"] = (service - handle, "ms")
    waits = [w for o in ref for w in o.queue_wait_ms]
    sizes = [b for o in ref for b in o.batch_size]
    m["serving.queue_wait_ms"] = (statistics.median(waits), "ms")
    m["serving.batch_rows"] = (statistics.mean(sizes), "count")
    before, after = traced["stats"]
    m["serving.forward_calls"] = (
        after["forward_passes"] - before["forward_passes"], "count")
    fwd = sweep["core.forward"]
    m["core.forward_ms"] = (fwd["p50_ms"], "ms")
    m["core.forward_us_per_row"] = (fwd["total_s"] / fwd["rows"] * 1e6, "us")
    m["dse.oracle_solve_ms"] = (ladder["dse.oracle_solve"]["p50_ms"], "ms")
    hits = after["oracle_cache"]["hits"] - before["oracle_cache"]["hits"]
    misses = after["oracle_cache"]["misses"] \
        - before["oracle_cache"]["misses"]
    m["dse.oracle_hit_rate"] = (hits / max(hits + misses, 1), "ratio")
    m["dse.cost_at_ms"] = (ladder["dse.cost_at"]["p50_ms"], "ms")
    m["dse.sweep_cost_at_ms"] = (sweep["dse.cost_at"]["p50_ms"], "ms")
    gaps = [g for s in traced["sweeps"] for g in s.chunk_gaps_s]
    chunk_ms = statistics.median(gaps) * 1e3
    m["serving.sweep_chunk_ms"] = (chunk_ms, "ms")
    m["serving.sweep_encode_ms"] = (
        chunk_ms - fwd["p50_ms"] - sweep["dse.cost_at"]["p50_ms"], "ms")
    phases = {"warm": traced["warm"], "ladder": ref,
              "sweep": traced["sweeps"]}
    for phase, results in phases.items():
        ok = sum(r.ok for r in results)
        m[f"serving.{phase}.requests_sent"] = (len(results), "count")
        m[f"serving.{phase}.requests_ok"] = (ok, "count")
        m[f"serving.{phase}.requests_failed"] = (len(results) - ok, "count")
    m["serving.generator_lag_ms"] = (generator_lag_ms(traced), "ms")
    traced_e2e, _ = end_to_end(run, traced)
    for name in ("pipeline_s", "predict_p50_ms", "sweep_rows_per_s"):
        m[f"trace.{name}_ratio"] = (traced_e2e[name]["value"]
                                    / untraced[name]["value"], "ratio")
    return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}


def _emit(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


def _terminate(signum, frame):
    raise SystemExit(f"perfbench: terminated by signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the paper pipeline, /predict and /sweep.")
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pipeline and sweeps (the benchmark's "
                             "own tests)")
    args = parser.parse_args(argv)
    # The server is stopped with SIGINT.  A process started in the
    # background inherits SIGINT ignored, and an ignored signal stays
    # ignored across exec; a caught one is reset to the default, which
    # lets the server's Python turn it into KeyboardInterrupt.  SIGTERM
    # unwinds like an error, so every child is still stopped.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        require_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global traffic
    import traffic

    run = Run(args.workload, args.seed, args.seconds, args.smoke)
    try:
        measured = run.measure()
        if not measured["pipeline"]:
            print("perfbench: " + "; ".join(run.errors), file=sys.stderr)
            return 1
        metrics, detail = end_to_end(run, measured)
        lag = generator_lag_ms(measured)
        if lag > MAX_GENERATOR_LAG_MS:
            run.errors.append(f"open-loop generator ran {lag:.1f} ms late "
                              f"(p99); the run is invalid")
        result_metrics = metrics
        if args.trace:
            result_metrics = per_layer(run, run.measure(traced=True),
                                       metrics)
    finally:
        run.close()
    _emit({"report": {
        "provenance": provenance(
            args.workload, args.seed, args.seconds, bool(args.trace),
            {"rounds": ROUNDS, "pipeline": len(measured["pipeline"]),
             "server_setups": len(measured["setups"]),
             "sweeps": len(measured["sweeps"])}),
        "metrics": metrics, "detail": detail, "errors": run.errors}})
    _emit({"correct": not run.errors, "attempted": run.attempted,
          "failed": run.failed, "metrics": result_metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
