"""Command-line interface: regenerate any paper artefact from the shell,
or serve one-shot DSE predictions.

Examples::

    python -m repro table3                 # Table III at the default scale
    python -m repro fig7 --scale small     # deployment comparison
    python -m repro all --scale tiny       # every artefact, quickly
    python -m repro ablations              # extension studies

    # Batched one-shot DSE serving (trains/loads the model once, cached):
    python -m repro predict --batch --random 1000 --json
    python -m repro predict --batch --input layers.csv

    # HTTP serving with dynamic batching and a persistent oracle cache:
    python -m repro serve --port 8080 --max-batch-size 64 \\
        --oracle-cache .repro_cache/oracle_cache.npz

    # Bounded admission (429 + Retry-After), per-request timeouts (504);
    # Ctrl-C or SIGTERM drains in-flight requests:
    python -m repro serve --max-queue 256 --request-timeout 30

    # Multi-model serving from a model registry (routes by the request's
    # "model" field; streaming bulk sweeps via POST /sweep):
    python -m repro serve --registry .repro_cache
    python -m repro predict --registry .repro_cache \\
        --model-id v2_small_s0 --random 100 --batch

    # Unified training engine: parallel oracle labelling, resumable
    # checkpoints (Ctrl-C mid-run, re-run the same command to resume);
    # --registry registers the trained model as a servable artifact:
    python -m repro train --model v2 --scale small --workers 4
    python -m repro train --smoke --registry .repro_cache
    python -m repro train --smoke --json      # CI fast path

    # Observability: Prometheus /metrics, request traces, live polling,
    # per-phase train profiling:
    python -m repro serve --trace-file traces.ndjson
    python -m repro stats --watch 2           # or --metrics for raw text
    python -m repro train --smoke --profile --json
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time

import numpy as np

from .experiments import (SCALES, Workspace, run_fig3, run_fig4, run_fig5,
                          run_fig7, run_fig8a, run_fig8b, run_fig9,
                          run_table2, run_table3)
from .experiments.ablations import (run_deployment_ablation,
                                    run_metric_ablation,
                                    run_tolerance_ablation)

_EXPERIMENTS = {
    "table2": run_table2,
    "table3": run_table3,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig7": run_fig7,
    "fig8a": run_fig8a,
    "fig8b": run_fig8b,
    "fig9": run_fig9,
    "ablation-deployment": run_deployment_ablation,
    "ablation-metric": run_metric_ablation,
    "ablation-tolerance": run_tolerance_ablation,
}

_NEEDS_WORKSPACE = {name for name in _EXPERIMENTS
                    if not name.startswith("ablation-")} | {
                        "ablation-deployment"}


def _print_result(name: str, out: dict) -> None:
    if "table" in out:
        print(out["table"])
    elif name == "fig8a":
        print(f"Fig. 8(a) target: {out['target_model']}")
        for curve_name, value in out["final"].items():
            print(f"  {curve_name}: final {value:.3f}x optimum")
    elif name == "fig4":
        print(f"Fig. 4: complexity {out['input_space_complexity']:.2e}, "
              f"{out['num_distinct_buckets']} buckets in use, "
              f"NN disagreement {out['nn_label_disagreement']:.2f}")
    print()


def _read_workload_file(path: str) -> np.ndarray:
    """Parse workload tuples ``M N K [dataflow]`` (comma- or
    whitespace-separated, ``#`` comments) from a file or ``-`` (stdin)."""
    rows = []
    handle = sys.stdin if path == "-" else open(path)
    try:
        for lineno, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            try:
                if len(parts) not in (3, 4):
                    raise ValueError("wrong column count")
                m, n, k = (int(p) for p in parts[:3])
                df = int(parts[3]) if len(parts) == 4 else 0
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'M N K "
                                 f"[dataflow]' integers, got {line!r}") from None
            rows.append((m, n, k, df))
    finally:
        if handle is not sys.stdin:
            handle.close()
    if not rows:
        raise ValueError(f"no workloads found in {path}")
    return np.array(rows, dtype=np.int64)


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    """Model-selection options shared by ``predict`` and ``serve``."""
    parser.add_argument("--scale", default=None, choices=sorted(SCALES),
                        help="model scale (default: $REPRO_SCALE or 'small')")
    parser.add_argument("--cache", default=None,
                        help="training-cache directory (default: "
                             "$REPRO_CACHE or .repro_cache)")
    parser.add_argument("--registry", metavar="DIR", default=None,
                        help="model-registry directory: load the model "
                             "named by --model-id instead of the "
                             "train-or-load workspace path")
    parser.add_argument("--model-id", metavar="ID", default=None,
                        help="registry artifact id (with --registry; "
                             "'repro serve' accepts a comma-separated list)")
    parser.add_argument("--untrained", action="store_true",
                        help="skip training and use a freshly initialised "
                             "model (smoke tests / throughput checks)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for --random and --untrained")


def _check_model_args(parser: argparse.ArgumentParser, args,
                      require_model_id: bool = True) -> None:
    """Reject inconsistent --registry/--model-id/--untrained combinations."""
    if args.registry and args.untrained:
        parser.error("--registry and --untrained are mutually exclusive")
    if args.model_id and not args.registry:
        parser.error("--model-id needs --registry")
    if require_model_id and args.registry and not args.model_id:
        parser.error("--registry needs --model-id (which artifact to load)")


def _build_model(args, problem):
    """Resolve the model: registry artifact, fresh init, or train-or-load."""
    if getattr(args, "registry", None):
        from .registry import ModelRegistry, RegistryError
        # RegistryError (missing id, no manifest, unknown kind) is caught
        # by the caller and reported as a clean CLI error.
        registry = ModelRegistry(args.registry)
        model = registry.load(args.model_id, problem=problem)
        if not hasattr(model, "predict_indices"):
            raise RegistryError(
                f"artifact {args.model_id!r} (kind "
                f"{registry.artifact(args.model_id).kind!r}) has no "
                f"one-shot inference path (e.g. VAESA infers via "
                f"latent-space search); pick a v2/v1/gandse artifact")
        return model

    from .experiments.common import get_datasets, get_v2
    from .experiments.harness import get_scale

    scale = get_scale(args.scale)
    if args.untrained:
        from .core import AirchitectV2
        return AirchitectV2(scale.model_config(), problem,
                            np.random.default_rng(args.seed))
    workspace = Workspace(args.cache)
    train, _ = get_datasets(scale, workspace, problem)
    return get_v2(scale, train, workspace, problem)


def predict_main(argv: list[str] | None = None) -> int:
    """``repro predict``: one-shot DSE serving from the shell."""
    from .core import BatchedDSEPredictor, DSEPredictor
    from .experiments.common import get_problem
    from .experiments.harness import render_table

    parser = argparse.ArgumentParser(
        prog="repro predict",
        description="Serve one-shot DSE predictions (optionally batched).")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="FILE",
                        help="workload file: 'M N K [dataflow]' per line "
                             "('-' reads stdin)")
    source.add_argument("--random", type=int, metavar="N",
                        help="sweep N random Table-I workloads instead")
    parser.add_argument("--batch", action="store_true",
                        help="use the batched inference engine (vectorised "
                             "cache-sized tiles) instead of the per-sample "
                             "loop")
    _add_model_args(parser)
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of a table")
    args = parser.parse_args(argv)
    if args.random is not None and args.random < 1:
        parser.error("--random must be >= 1")
    _check_model_args(parser, args)

    problem = get_problem()
    if args.random is not None:
        inputs = problem.sample_inputs(args.random,
                                       np.random.default_rng(args.seed))
    else:
        # Validate the workload file *before* the (possibly expensive)
        # model build, and fail with a diagnostic instead of a traceback.
        try:
            inputs = _read_workload_file(args.input)
            bad = (inputs[:, 3] < 0) | \
                (inputs[:, 3] >= problem.bounds.n_dataflows)
            if bad.any():
                raise ValueError(
                    f"{args.input}: dataflow must be in "
                    f"0..{problem.bounds.n_dataflows - 1}, "
                    f"got {sorted(set(inputs[bad, 3].tolist()))}")
        except (OSError, ValueError) as exc:
            print(f"repro predict: error: {exc}", file=sys.stderr)
            return 2

    from .registry import RegistryError
    try:
        model = _build_model(args, problem)
    except RegistryError as exc:
        print(f"repro predict: error: {exc}", file=sys.stderr)
        return 2
    if args.random is None:
        m, n, k = problem.clamp_inputs(inputs[:, 0], inputs[:, 1], inputs[:, 2])
        clamped = np.stack([m, n, k, inputs[:, 3]], axis=1)
        changed = int((clamped[:, :3] != inputs[:, :3]).any(axis=1).sum())
        if changed:
            b = problem.bounds
            print(f"warning: {changed} workload(s) clamped to the Table-I "
                  f"feature ranges (M<={b.m_max}, N<={b.n_max}, "
                  f"K<={b.k_max}); output shows the clamped dims",
                  file=sys.stderr)
        inputs = clamped

    start = time.perf_counter()
    if args.batch:
        pe_idx, l2_idx = BatchedDSEPredictor(model).predict_indices(inputs)
    else:
        predictor = DSEPredictor(model)
        parts = [predictor.predict_indices(row) for row in inputs]
        pe_idx = np.concatenate([p for p, _ in parts])
        l2_idx = np.concatenate([l for _, l in parts])
    elapsed = time.perf_counter() - start
    num_pes, l2_kb = problem.space.values(pe_idx, l2_idx)

    summary = {"samples": len(inputs),
               "mode": "batched" if args.batch else "per-sample",
               "elapsed_s": elapsed,
               "samples_per_sec": len(inputs) / max(elapsed, 1e-12)}
    if args.json:
        doc = dict(summary)
        doc["predictions"] = [
            {"m": int(r[0]), "n": int(r[1]), "k": int(r[2]),
             "dataflow": int(r[3]), "num_pes": int(p), "l2_kb": int(l)}
            for r, p, l in zip(inputs, num_pes, l2_kb)]
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        rows = [[int(r[0]), int(r[1]), int(r[2]), int(r[3]), int(p), int(l)]
                for r, p, l in zip(inputs[:50], num_pes[:50], l2_kb[:50])]
        print(render_table(["M", "N", "K", "dataflow", "num_pes", "l2_kb"],
                           rows, title="One-shot DSE predictions"
                           + (" (first 50)" if len(inputs) > 50 else "")))
        print(f"{summary['samples']} samples in {elapsed:.3f}s "
              f"({summary['samples_per_sec']:.0f} samples/sec, "
              f"{summary['mode']})")
    return 0


def train_main(argv: list[str] | None = None) -> int:
    """``repro train``: the unified training engine from the shell.

    Generates (or loads) the labelled dataset — optionally sharding the
    oracle labelling across worker processes — then trains the selected
    model through :mod:`repro.train` with resumable checkpoints: interrupt
    with Ctrl-C and re-run the same command to continue mid-run.
    """
    from .experiments.common import (get_datasets, get_gandse, get_problem,
                                     get_v1, get_v2, get_vaesa)
    from .experiments.harness import get_scale

    parser = argparse.ArgumentParser(
        prog="repro train",
        description="Train AIRCHITECT v2 or a baseline with the unified "
                    "training engine (parallel dataset labelling, "
                    "checkpoint/resume).")
    parser.add_argument("--model", default="v2",
                        choices=["v2", "v1", "gandse", "vaesa"],
                        help="which model to train (default v2)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for oracle dataset labelling "
                             "(default 1 = serial; labels are bit-identical "
                             "either way)")
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI path: tiny scale unless --scale is "
                             "given explicitly")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON summary instead of text")
    parser.add_argument("--profile", action="store_true",
                        help="time every batch's data/forward/backward/"
                             "optimizer phases (per-phase wall-time "
                             "histograms in the summary)")
    parser.add_argument("--scale", default=None, choices=sorted(SCALES),
                        help="training scale (default: $REPRO_SCALE or "
                             "'small'; --smoke forces 'tiny')")
    parser.add_argument("--cache", default=None,
                        help="training-cache directory (default: "
                             "$REPRO_CACHE or .repro_cache); datasets, "
                             "checkpoints and the final model live here")
    parser.add_argument("--registry", metavar="DIR", default=None,
                        help="also register the trained model as an "
                             "artifact in this registry directory "
                             "(servable via 'repro serve --registry')")
    parser.add_argument("--model-id", metavar="ID", default=None,
                        help="artifact id for --registry (default "
                             "<model>_<scale>_s<seed>)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.model_id and not args.registry:
        parser.error("--model-id needs --registry")

    scale = get_scale(args.scale if args.scale or not args.smoke else "tiny")
    workspace = Workspace(args.cache)
    problem = get_problem()

    start = time.perf_counter()
    train_set, test_set = get_datasets(scale, workspace, problem,
                                       num_workers=args.workers)
    dataset_elapsed = time.perf_counter() - start

    getter = {"v2": get_v2, "v1": get_v1, "gandse": get_gandse,
              "vaesa": get_vaesa}[args.model]
    model_path = workspace.model_key(scale, {
        "v2": "v2_uov_k16_c1p1", "v1": "v1_joint",
        "gandse": "gandse", "vaesa": "vaesa"}[args.model])
    cached = workspace.has(model_path)

    from .train import ProfilerCallback, ThroughputMonitor
    throughput = ThroughputMonitor()
    callbacks = [throughput]
    profiler_cb = None
    if args.profile:
        profiler_cb = ProfilerCallback()
        callbacks.append(profiler_cb)
    start = time.perf_counter()
    try:
        model = getter(scale, train_set, workspace, problem,
                       callbacks=tuple(callbacks))
    except KeyboardInterrupt:
        print("\ninterrupted: checkpoint saved; re-run the same command "
              "to resume", file=sys.stderr)
        return 130
    train_elapsed = time.perf_counter() - start

    from .core import AirchitectV2, evaluate_model, evaluate_predictions
    if isinstance(model, AirchitectV2):
        metrics = evaluate_model(model, test_set, compute_regret=False)
    elif hasattr(model, "predict_indices"):
        pe_idx, l2_idx = model.predict_indices(test_set.inputs)
        metrics = evaluate_predictions(problem, test_set, pe_idx, l2_idx,
                                       compute_regret=False)
    else:
        # VAESA has no one-shot inference: it searches its latent space
        # per workload (see fig7/fig8a for its evaluation).
        metrics = None

    # ThroughputMonitor stats make benchmark runs scriptable without
    # parsing logs; all-zero when the model came from the cache (no epochs
    # actually ran).
    mean_epoch_ms = (1000.0 * throughput.total_seconds / len(throughput.epochs)
                     if throughput.epochs else 0.0)
    summary = {"model": args.model, "scale": scale.name,
               "train_samples": len(train_set),
               "test_samples": len(test_set),
               "label_workers": args.workers,
               "dataset_elapsed_s": dataset_elapsed,
               "train_elapsed_s": train_elapsed,
               "cached_model": cached,
               "throughput": {
                   "epochs": len(throughput.epochs),
                   "train_seconds": throughput.total_seconds,
                   "samples_per_sec": throughput.mean_samples_per_sec,
                   "mean_epoch_ms": mean_epoch_ms,
               },
               "accuracy": metrics.accuracy if metrics else None,
               "pe_accuracy": metrics.pe_accuracy if metrics else None,
               "l2_accuracy": metrics.l2_accuracy if metrics else None}
    if profiler_cb is not None:
        summary["profile"] = profiler_cb.snapshot()

    if args.registry:
        from .registry import ModelRegistry
        model_id = args.model_id or f"{args.model}_{scale.name}_s{scale.seed}"
        artifact = ModelRegistry(args.registry).save(
            model, model_id, scale=scale.name,
            fingerprint={"model": args.model, "scale": scale.name,
                         "seed": int(scale.seed),
                         "train_samples": len(train_set),
                         "label_workers": args.workers},
            metrics={key: summary[key] for key in
                     ("accuracy", "pe_accuracy", "l2_accuracy")
                     if summary[key] is not None} or None)
        summary["registry"] = {"root": args.registry,
                               "model_id": artifact.model_id}

    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        print()
    else:
        state = "loaded cached model" if cached else "trained"
        print(f"{args.model} @ {scale.name}: {state} in "
              f"{train_elapsed:.1f}s (dataset {len(train_set)}+"
              f"{len(test_set)} in {dataset_elapsed:.1f}s, "
              f"{args.workers} label worker(s))")
        if throughput.epochs:
            print(f"throughput: {throughput.mean_samples_per_sec:.0f} "
                  f"samples/sec over {len(throughput.epochs)} epoch(s) "
                  f"({throughput.total_seconds:.1f}s in the train loop)")
        if profiler_cb is not None:
            profile = profiler_cb.snapshot()
            shares = ", ".join(
                f"{phase} {stats['share'] * 100:.1f}%"
                for phase, stats in profile["phases"].items())
            print(f"profile ({profile['batches']} batches): {shares}")
        if metrics is None:
            print("one-shot accuracy n/a (VAESA infers via latent-space "
                  "search; evaluate with 'repro fig7' / 'repro fig8a')")
        else:
            print(f"test accuracy {metrics.accuracy:.3f} "
                  f"(pe {metrics.pe_accuracy:.3f}, "
                  f"l2 {metrics.l2_accuracy:.3f})")
        if args.registry:
            print(f"registered artifact "
                  f"{summary['registry']['model_id']!r} in {args.registry}")
    return 0


def serve_main(argv: list[str] | None = None) -> int:
    """``repro serve``: the dynamic-batching HTTP serving front-end."""
    from .dse import ExhaustiveOracle
    from .experiments.common import get_problem
    from .serving import DSEServer, PersistentOracleCache

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve one-shot DSE predictions over HTTP with dynamic "
                    "request batching and multi-model routing "
                    "(POST /predict, POST /sweep [streaming NDJSON], "
                    "GET /models, GET /healthz, GET /stats, GET /metrics).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080,
                        help="bind port; 0 picks an ephemeral port "
                             "(default 8080)")
    parser.add_argument("--max-batch-size", type=int, default=64,
                        help="most queued requests served by one forward "
                             "pass; the batcher never waits to fill a batch "
                             "(default 64)")
    parser.add_argument("--oracle-cache", metavar="FILE", default=None,
                        help="persistent oracle label-cache snapshot: loaded "
                             "at startup (fingerprint-checked), saved on "
                             "shutdown")
    parser.add_argument("--default-model", metavar="NAME", default=None,
                        help="route served when a request has no 'model' "
                             "field (with --registry; default: first "
                             "artifact)")
    parser.add_argument("--max-models", type=int, default=None,
                        help="cap on resident registry models; the least-"
                             "recently-served is evicted beyond this")
    parser.add_argument("--async", action="store_true",
                        help="no-op, kept for old command lines: asyncio is "
                             "the only transport")
    parser.add_argument("--max-queue", type=int, default=None,
                        help="bounded per-route admission queue: above this "
                             "many in-flight requests a route answers HTTP "
                             "429 with Retry-After (default: unbounded)")
    parser.add_argument("--request-timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="per-request timeout; slower requests answer "
                             "HTTP 504 (default 60)")
    parser.add_argument("--breaker-threshold", type=int, default=5,
                        metavar="N",
                        help="open a route's circuit breaker (HTTP 503 + "
                             "Retry-After) after N consecutive engine "
                             "failures; 0 disables the breaker (default 5)")
    parser.add_argument("--breaker-reset", type=float, default=30.0,
                        metavar="SECONDS",
                        help="how long an open breaker sheds load before "
                             "admitting a half-open probe (default 30)")
    parser.add_argument("--trace-file", metavar="FILE", default=None,
                        help="append finished request spans as NDJSON to "
                             "this file (traces also live in an in-memory "
                             "ring either way)")
    _add_model_args(parser)
    args = parser.parse_args(argv)
    if args.max_batch_size < 1:
        parser.error("--max-batch-size must be >= 1")
    if args.max_models is not None and args.max_models < 1:
        parser.error("--max-models must be >= 1")
    if args.max_queue is not None and args.max_queue < 1:
        parser.error("--max-queue must be >= 1")
    if args.request_timeout <= 0:
        parser.error("--request-timeout must be > 0")
    if args.breaker_threshold < 0:
        parser.error("--breaker-threshold must be >= 0")
    if args.breaker_reset <= 0:
        parser.error("--breaker-reset must be > 0")
    _check_model_args(parser, args, require_model_id=False)

    problem = get_problem()
    oracle = ExhaustiveOracle(problem)
    cache = PersistentOracleCache(args.oracle_cache) \
        if args.oracle_cache else None
    if cache is not None:
        loaded = cache.load(oracle)
        if loaded:
            print(f"oracle cache: warmed {loaded} entries from {cache.path}",
                  file=sys.stderr)

    common = dict(host=args.host, port=args.port,
                  max_batch_size=args.max_batch_size, oracle=oracle,
                  max_models=args.max_models,
                  max_queue=args.max_queue,
                  request_timeout_s=args.request_timeout,
                  breaker_threshold=args.breaker_threshold or None,
                  breaker_reset_s=args.breaker_reset,
                  trace_file=args.trace_file)
    from .registry import RegistryError
    try:
        if args.registry:
            # Multi-model mode: every (or the --model-id listed) artifact
            # in the registry becomes a servable route.
            model_ids = args.model_id.split(",") if args.model_id else None
            server = DSEServer(registry=args.registry, model_ids=model_ids,
                               default_model=args.default_model, **common)
            served = model_ids or [a.model_id
                                   for a in server.registry.list()]
            print(f"serving {len(served)} registry model(s) from "
                  f"{args.registry}: {', '.join(sorted(served))} "
                  f"(default {server.default_model!r})", file=sys.stderr)
        else:
            server = DSEServer(_build_model(args, problem), **common)
    except (RegistryError, ValueError) as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    host, port = server.address
    # Ctrl-C and SIGTERM (how orchestrators stop containers) only raise
    # a flag; this thread then drains through server.shutdown(), so
    # in-flight requests finish and the oracle cache still snapshots.
    # A handler that raised instead could unwind any frame — including
    # a batcher thread's start() — mid-way.
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum,
                                             lambda *_: stop.set())
        except (ValueError, OSError):   # non-main thread / odd platform
            pass
    try:
        # Routes and transport are up before the ready banner, so a
        # client (or signal) reacting to it finds a running server.
        server.start()
        print(f"serving one-shot DSE predictions on http://{host}:{port} "
              f"(max_batch_size={args.max_batch_size}); Ctrl-C to stop",
              file=sys.stderr)
        stop.wait()
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if cache is not None:
            saved = cache.save(server.oracle)
            print(f"oracle cache: saved {saved} entries to {cache.path}",
                  file=sys.stderr)
    return 0


def stats_main(argv: list[str] | None = None) -> int:
    """``repro stats``: poll a running server's /stats or /metrics."""
    from urllib.error import URLError
    from urllib.request import urlopen

    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Poll a running 'repro serve' instance: pretty-print "
                    "GET /stats (default), dump the raw Prometheus text "
                    "from GET /metrics (--metrics), or emit one summary "
                    "line per interval (--watch).")
    parser.add_argument("--url", default="http://127.0.0.1:8080",
                        help="server base URL (default "
                             "http://127.0.0.1:8080)")
    parser.add_argument("--metrics", action="store_true",
                        help="fetch GET /metrics (Prometheus text "
                             "exposition) instead of GET /stats")
    parser.add_argument("--json", action="store_true",
                        help="print the raw /stats JSON document")
    parser.add_argument("--watch", type=float, metavar="SECONDS",
                        default=None,
                        help="poll every SECONDS until Ctrl-C, one "
                             "summary line per poll (with --metrics: "
                             "re-dump the whole exposition)")
    parser.add_argument("--timeout", type=float, default=5.0,
                        help="per-request timeout (default 5)")
    args = parser.parse_args(argv)
    if args.metrics and args.json:
        parser.error("--metrics and --json are mutually exclusive")
    if args.watch is not None and args.watch <= 0:
        parser.error("--watch must be > 0")
    if args.timeout <= 0:
        parser.error("--timeout must be > 0")

    base = args.url.rstrip("/")

    def fetch(path: str) -> str:
        with urlopen(base + path, timeout=args.timeout) as resp:
            return resp.read().decode("utf-8")

    def summary_line(doc: dict, prev: dict | None) -> str:
        latency = doc.get("latency") or {}
        rate = ""
        if prev is not None and args.watch:
            delta = doc["requests_total"] - prev["requests_total"]
            rate = f" {delta / args.watch:7.1f} req/s"
        return (f"req {doc['requests_total']:>8}{rate}  "
                f"samples {doc['samples_total']:>9}  "
                f"batch {doc['mean_batch_size']:6.2f}  "
                f"p50 {latency.get('p50_ms', 0.0):7.2f}ms  "
                f"p95 {latency.get('p95_ms', 0.0):7.2f}ms  "
                f"errors {doc['errors_total']}")

    try:
        if args.watch is None:
            if args.metrics:
                sys.stdout.write(fetch("/metrics"))
            elif args.json:
                print(fetch("/stats"))
            else:
                doc = json.loads(fetch("/stats"))
                print(f"{base}  up {doc['uptime_s']:.0f}s  "
                      f"default model {doc.get('default_model')!r}")
                print(summary_line(doc, None))
                for name, route in sorted((doc.get("models") or {}).items()):
                    print(f"  {name}: req {route['requests_total']} "
                          f"inflight {route.get('inflight', 0)} "
                          f"errors {route['errors_total']}")
                cache = doc.get("oracle_cache")
                if cache:
                    print(f"oracle cache: {cache['size']}/"
                          f"{cache['capacity']} entries, "
                          f"hit rate {cache['hit_rate']:.2f}")
            return 0
        prev = None
        while True:
            if args.metrics:
                sys.stdout.write(fetch("/metrics"))
            else:
                doc = json.loads(fetch("/stats"))
                print(summary_line(doc, prev), flush=True)
                prev = doc
            time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0
    except (OSError, URLError, ValueError, KeyError) as exc:
        print(f"repro stats: error: cannot read {base}: {exc}",
              file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "predict":
        return predict_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "train":
        return train_main(argv[1:])
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate AIRCHITECT v2 paper tables and figures "
                    "('repro predict --help' for the DSE serving mode, "
                    "'repro serve --help' for the HTTP server, "
                    "'repro train --help' for the training engine, "
                    "'repro stats --help' for the live-server poller).")
    parser.add_argument("experiment",
                        choices=sorted(_EXPERIMENTS) + ["all"],
                        help="which artefact to regenerate")
    parser.add_argument("--scale", default=None, choices=sorted(SCALES),
                        help="experiment scale (default: $REPRO_SCALE or "
                             "'small')")
    parser.add_argument("--cache", default=None,
                        help="training-cache directory (default: "
                             "$REPRO_CACHE or .repro_cache)")
    args = parser.parse_args(argv)

    workspace = Workspace(args.cache)
    names = sorted(_EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]

    for name in names:
        runner = _EXPERIMENTS[name]
        start = time.time()
        if name in _NEEDS_WORKSPACE:
            out = runner(args.scale, workspace)
        else:
            out = runner(args.scale)
        print(f"== {name} ({time.time() - start:.1f}s)")
        _print_result(name, out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
