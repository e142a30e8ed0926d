"""Dataset labelling throughput: sharded multiprocessing vs serial oracle.

The acceptance gate of the parallel labelling path (PR 3): labelling a
random Table-I input batch through :class:`repro.dse.ShardedLabeller` with
>= 4 workers must be >= 2x faster than the serial
:meth:`ExhaustiveOracle.solve`, with bit-identical labels.

The win comes from two places: process fan-out (one grid solve per core)
and bounded shards (``max_shard_size`` keeps each worker's grid
intermediates cache-sized, where the serial path materialises
``samples x 768`` float64 grids in one pass) — so the speedup typically
exceeds the core count on large batches.

Run standalone to record the perf trajectory::

    PYTHONPATH=src python benchmarks/bench_dataset_gen.py \
        --samples 40000 --workers 4 --output BENCH_dataset_gen.json

or under pytest (the test is marked ``slow``)::

    pytest benchmarks/bench_dataset_gen.py --benchmark-only -m slow -s
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
import pytest
from bench_train_step import _provenance

from repro.dse import DSEProblem, ExhaustiveOracle, ShardedLabeller

SPEEDUP_TARGET = 2.0
WORKERS_DEFAULT = 4


def run_bench(samples: int = 40000, workers: int = WORKERS_DEFAULT,
              seed: int = 0) -> dict:
    problem = DSEProblem()
    inputs = problem.sample_inputs(samples, np.random.default_rng(seed))

    # Serial path: one cold oracle, cache disabled so we measure the grid
    # solve itself (the dataset-generation workload labels each row once).
    serial_oracle = ExhaustiveOracle(problem, cache_size=0)
    start = time.perf_counter()
    serial = serial_oracle.solve(inputs)
    serial_elapsed = time.perf_counter() - start

    with ShardedLabeller(ExhaustiveOracle(problem, cache_size=0),
                         num_workers=workers) as labeller:
        start = time.perf_counter()
        sharded = labeller.label(inputs)
        sharded_elapsed = time.perf_counter() - start
        pool_workers = labeller.num_workers

    identical = bool(np.array_equal(serial.pe_idx, sharded.pe_idx)
                     and np.array_equal(serial.l2_idx, sharded.l2_idx)
                     and np.array_equal(serial.best_cost, sharded.best_cost))
    return {"samples": samples,
            "workers": pool_workers,
            "serial_elapsed_s": serial_elapsed,
            "sharded_elapsed_s": sharded_elapsed,
            "serial_samples_per_sec": samples / max(serial_elapsed, 1e-12),
            "sharded_samples_per_sec": samples / max(sharded_elapsed, 1e-12),
            "speedup": serial_elapsed / max(sharded_elapsed, 1e-12),
            "identical_labels": identical,
            "speedup_target": SPEEDUP_TARGET}


@pytest.mark.slow
def test_sharded_labelling_beats_serial(benchmark):
    """>= 2x labelling throughput on >= 4 workers, bit-identical labels."""
    result = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    print(json.dumps(result, indent=2))
    assert result["identical_labels"]
    if result["workers"] >= 4:
        assert result["speedup"] >= SPEEDUP_TARGET


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=40000)
    parser.add_argument("--workers", type=int, default=WORKERS_DEFAULT)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=None,
                        help="also write the JSON record to this path "
                             "(e.g. BENCH_dataset_gen.json)")
    args = parser.parse_args(argv)

    result = run_bench(samples=args.samples, workers=args.workers,
                       seed=args.seed)
    result["provenance"] = _provenance()
    text = json.dumps(result, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    if not result["identical_labels"]:
        print("FAIL: sharded labels diverge from the serial oracle",
              file=sys.stderr)
        return 1
    if result["workers"] >= 4 and result["speedup"] < SPEEDUP_TARGET:
        print(f"FAIL: speedup {result['speedup']:.2f}x < "
              f"{SPEEDUP_TARGET:.0f}x target", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
