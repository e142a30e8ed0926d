"""One run of the paper pipeline, in its own process.

label (``generate_workload_dataset`` over the 105-model zoo, sharded
across ``--workers`` processes) -> stage-1 fit -> stage-2 fit ->
``evaluate_model`` on the held-out split -> ``ModelRegistry.save``, at
the ``small`` model width (d_model=48, 2 layers, UOV heads, K=16), in a
fresh workspace with no caches.  Prints one JSON line: the wall time of
set-up and of each step, the label checksum, the quality metrics and
the process's peak RSS.  With ``--trace`` the layer wrappers of
:mod:`tracing` are installed first and the per-layer breakdown is added.

    python3 perfbench/pipeline_child.py --seed 1 --samples 1500 \
        --epochs 3 3 --workers 2 --spawned-at "$(date +%s.%N)" [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import tempfile
import time

import numpy as np

from repro.core import (AirchitectV2, Stage1Config, Stage1Trainer,
                        Stage2Config, Stage2Trainer, evaluate_model)
from repro.dse import DSEProblem, generate_workload_dataset
from repro.experiments.harness import get_scale
from repro.registry import ModelRegistry
from repro.train import ProfilerCallback, ThroughputMonitor
from repro.workloads import all_training_layers

from tracing import SpanRecorder, install_nn

TEST_FRACTION = 0.2


def label_checksum(dataset) -> str:
    digest = hashlib.sha256()
    for array in (dataset.inputs, dataset.pe_idx, dataset.l2_idx,
                  dataset.best_cost):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def run(args) -> dict:
    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        install_nn(recorder)

    problem = DSEProblem()
    layers = all_training_layers()
    setup_done = time.time()

    def step(name):
        return recorder.span(name) if recorder is not None \
            else contextlib.nullcontext()

    times = {}
    rng = np.random.default_rng(args.seed)
    tick = time.perf_counter()
    with step("dse.label"):
        dataset = generate_workload_dataset(
            problem, layers, rng, target_count=args.samples,
            num_workers=args.workers)
    times["label_s"] = time.perf_counter() - tick
    train, test = dataset.split(TEST_FRACTION, rng)

    config = get_scale("small").model_config(head_style="uov",
                                             num_buckets=16)
    model = AirchitectV2(config, problem,
                         np.random.default_rng(args.seed + 17))
    callbacks = {}
    for stage in ("stage1", "stage2"):
        callbacks[stage] = (ThroughputMonitor(), ProfilerCallback()) \
            if recorder is not None else ()

    tick = time.perf_counter()
    with step("core.stage1"):
        Stage1Trainer(model, Stage1Config(epochs=args.epochs[0],
                                          seed=args.seed)) \
            .train(train, callbacks=callbacks["stage1"])
    times["stage1_s"] = time.perf_counter() - tick

    tick = time.perf_counter()
    with step("core.stage2"):
        Stage2Trainer(model, Stage2Config(epochs=args.epochs[1],
                                          seed=args.seed + 1)) \
            .train(train, callbacks=callbacks["stage2"])
    times["stage2_s"] = time.perf_counter() - tick

    tick = time.perf_counter()
    with step("core.eval"):
        quality = evaluate_model(model, test)
    times["eval_s"] = time.perf_counter() - tick

    tick = time.perf_counter()
    with tempfile.TemporaryDirectory() as workspace, step("registry.save"):
        ModelRegistry(workspace).save(model, "v2_small", scale="small",
                                      metrics=quality.as_dict())
    times["save_s"] = time.perf_counter() - tick
    times["pipeline_s"] = sum(times.values())

    doc = {"setup_s": setup_done - args.spawned_at, **times,
           "rows": len(dataset), "train_rows": len(train),
           "test_rows": len(test),
           "checksum": label_checksum(dataset),
           "accuracy": quality.accuracy,
           "mean_regret": quality.mean_regret,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0}
    if recorder is not None:
        doc["spans"] = recorder.summary()
        for stage, (throughput, profiler) in callbacks.items():
            doc[stage] = {
                "epoch_s": [e["seconds"] for e in throughput.epochs],
                "phases": {phase: snap["total_s"] for phase, snap
                           in profiler.snapshot()["phases"].items()}}
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--epochs", type=int, nargs=2, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.time() at spawn, so set-up "
                             "includes interpreter start")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
