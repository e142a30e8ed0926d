"""Batched DSE serving engine vs the per-sample loop (JSON-emitting).

The acceptance gate of the batched inference engine: on a 1k-workload
sweep the vectorised tiled path must (a) produce *identical*
predictions to the per-sample loop and (b) beat it by >= 5x throughput.

Run standalone to get a machine-readable record for the perf trajectory::

    PYTHONPATH=src python benchmarks/bench_batched_inference.py \
        --samples 1000 --output BENCH_batched_inference.json

or under pytest-benchmark along with the other benches::

    pytest benchmarks/bench_batched_inference.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
from bench_train_step import _provenance

from repro.core import (AirchitectV2, BatchedDSEPredictor, DSEPredictor,
                        ModelConfig)
from repro.dse import DSEProblem

SPEEDUP_TARGET = 5.0


def run_bench(samples: int = 1000, seed: int = 0,
              loop_samples: int | None = None) -> dict:
    """Time the per-sample loop vs the batched engine on one sweep.

    ``loop_samples`` caps how many rows the (slow) per-sample loop times;
    its throughput extrapolates per-row.  Defaults to all rows.
    """
    problem = DSEProblem()
    rng = np.random.default_rng(seed)
    model = AirchitectV2(ModelConfig(), problem, rng)
    inputs = problem.sample_inputs(samples, rng)
    loop_samples = samples if loop_samples is None else min(loop_samples,
                                                            samples)

    # Per-sample reference: one forward pass per workload.
    loop = DSEPredictor(model)
    loop.predict_indices(inputs[0])              # warm-up (lazy allocs)
    start = time.perf_counter()
    parts = [loop.predict_indices(row) for row in inputs[:loop_samples]]
    loop_elapsed = time.perf_counter() - start
    loop_pe = np.concatenate([p for p, _ in parts])
    loop_l2 = np.concatenate([l for _, l in parts])

    # Batched engine: vectorised cache-sized tiles under no_grad.
    engine = BatchedDSEPredictor(model)
    start = time.perf_counter()
    pe, l2 = engine.predict_indices(inputs)
    batched_elapsed = time.perf_counter() - start

    identical = bool(np.array_equal(pe[:loop_samples], loop_pe)
                     and np.array_equal(l2[:loop_samples], loop_l2))
    loop_sps = loop_samples / max(loop_elapsed, 1e-12)
    batched_sps = samples / max(batched_elapsed, 1e-12)
    return {"samples": samples,
            "loop_samples_timed": loop_samples,
            "tile_rows": model.tile_rows,
            "loop_elapsed_s": loop_elapsed,
            "batched_elapsed_s": batched_elapsed,
            "loop_samples_per_sec": loop_sps,
            "batched_samples_per_sec": batched_sps,
            "speedup": batched_sps / max(loop_sps, 1e-12),
            "identical_predictions": identical,
            "speedup_target": SPEEDUP_TARGET}


def test_batched_engine_beats_loop(benchmark):
    """>= 5x over the per-sample loop with bitwise-identical predictions."""
    result = benchmark.pedantic(run_bench, kwargs={"samples": 1000},
                                rounds=1, iterations=1)
    print(json.dumps(result, indent=2))
    assert result["identical_predictions"]
    assert result["speedup"] >= SPEEDUP_TARGET


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--loop-samples", type=int, default=None,
                        help="cap the rows timed by the per-sample loop")
    parser.add_argument("--output", default=None,
                        help="also write the JSON record to this path")
    args = parser.parse_args(argv)

    result = run_bench(samples=args.samples, seed=args.seed,
                       loop_samples=args.loop_samples)
    result["provenance"] = _provenance()
    text = json.dumps(result, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    if not result["identical_predictions"]:
        print("FAIL: batched predictions diverge from the loop",
              file=sys.stderr)
        return 1
    if result["speedup"] < SPEEDUP_TARGET:
        print(f"FAIL: speedup {result['speedup']:.2f}x < "
              f"{SPEEDUP_TARGET:.0f}x target", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
