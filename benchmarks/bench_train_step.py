"""Stage-2 train-step throughput: the fused path vs the frozen op-by-op
reference, plus the train-phase profiling overhead gate.

The acceptance gate of the fused compute path: a full stage-2 decoder
fit (default ``ModelConfig``/``Stage2Config``, batch 256, 20 epochs)
through the fused kernels, flat-arena optimisers, frozen-encoder
embedding cache and zero-copy DataLoader must be >= 2x faster than the
frozen unfused reference — the op-by-op autograd path that the test
oracle ``tests/nn/reference.py`` swaps in with ``reference_path()`` —
while its loss history agrees with the reference's within
``rtol=1e-12`` (the numeric contract of :mod:`repro.nn.fused`: same
forward bits, gradients that may reassociate sums).  The script puts
the repository root on ``sys.path`` itself, so the oracle imports both
standalone and under pytest.

The telemetry layer adds a second gate: the same fused fit with a
:class:`~repro.train.ProfilerCallback` attached (per-phase wall-time
histograms every batch) must cost <= 3% per median step and keep the loss
history bit-identical — the same path must give the same bits, so
profiling may never change what the model computes — see
``run_profile_overhead``.

The win is Python-and-memory overhead, not FLOPs: the reference pays ~180
graph nodes/closures per step (vs ~50), per-batch copies, per-parameter
optimiser loops, and a frozen-encoder forward pass every step that the
fused path computes once per fit.

Run standalone to record the perf trajectory (the record carries the
commit, host, Python and numpy versions)::

    PYTHONPATH=src python benchmarks/bench_train_step.py \
        --output BENCH_train_step.json

or under pytest (the test is marked ``slow``)::

    pytest benchmarks/bench_train_step.py --benchmark-only -m slow -s

``--smoke`` runs a seconds-long configuration (tiny model, 2 rounds) that
only asserts the fused path wins at all on steady-state epochs (each
fit's 3 warm-up epochs are left out) — the CI guard against perf
regressions sneaking into releases.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import AirchitectV2, ModelConfig, Stage2Config, Stage2Trainer
from repro.dse import DSEProblem, generate_random_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
from tests.nn.reference import reference_path  # noqa: E402

SPEEDUP_TARGET = 2.0
# Fused vs reference loss histories: the kernels' gradient tolerance.
HISTORY_RTOL = 1e-12
OVERHEAD_LIMIT = 0.03
SAMPLES_DEFAULT = 2048
EPOCHS_DEFAULT = 20
ROUNDS_DEFAULT = 3

# Per benched mode: does the fit run the fused path (or the oracle)?
MODES = {"reference": False, "fused": True}


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _provenance() -> dict:
    """Which build and host produced a record (``dirty``: the tree had
    uncommitted changes to tracked files, e.g. the change being
    recorded)."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"commit": _git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "host": socket.gethostname(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def _fit(problem, dataset, model_config, stage2_config,
         fused: bool, profile: bool = False):
    """One full stage-2 fit.

    Returns (total wall seconds, per-epoch wall seconds, loss history,
    profile snapshot or None); the per-epoch times come from the training
    engine's own :class:`~repro.train.ThroughputMonitor`.  With
    ``profile`` a :class:`~repro.train.ProfilerCallback` rides along, so
    the fit runs the loop's instrumented path (the overhead under test).
    """
    from repro.train import ProfilerCallback, ThroughputMonitor

    with contextlib.nullcontext() if fused else reference_path():
        model = AirchitectV2(model_config, problem, np.random.default_rng(0))
        trainer = Stage2Trainer(model, stage2_config)
        monitor = ThroughputMonitor()
        callbacks = [monitor]
        profiler_cb = None
        if profile:
            profiler_cb = ProfilerCallback()
            callbacks.append(profiler_cb)
        start = time.perf_counter()
        history = trainer.train(dataset, callbacks=tuple(callbacks))
        total = time.perf_counter() - start
        snapshot = profiler_cb.snapshot() if profiler_cb is not None else None
        return total, [e["seconds"] for e in monitor.epochs], history, snapshot


def run_bench(samples: int = SAMPLES_DEFAULT, epochs: int = EPOCHS_DEFAULT,
              rounds: int = ROUNDS_DEFAULT, seed: int = 7,
              model_config: ModelConfig | None = None,
              batch_size: int | None = None,
              warmup_epochs: int = 0) -> dict:
    """Fused vs reference stage-2 fits; the first ``warmup_epochs`` of
    every fit are left out of the per-step medians."""
    problem = DSEProblem()
    dataset = generate_random_dataset(problem, samples,
                                      np.random.default_rng(seed))
    model_config = model_config or ModelConfig()
    stage2 = (Stage2Config(epochs=epochs) if batch_size is None
              else Stage2Config(epochs=epochs, batch_size=batch_size))

    # Warm caches (BLAS init, page pools) outside the measurement.
    _fit(problem, dataset, model_config, Stage2Config(epochs=1),
         fused=True)

    totals = {mode: float("inf") for mode in MODES}
    epoch_times: dict[str, list[float]] = {mode: [] for mode in MODES}
    histories = {}
    for _ in range(rounds):
        for mode, fused in MODES.items():
            total, epoch_seconds, histories[mode], _ = _fit(
                problem, dataset, model_config, stage2, fused)
            totals[mode] = min(totals[mode], total)
            epoch_times[mode].extend(epoch_seconds[warmup_epochs:])

    # The gate metric is steady-state step throughput: the *median* epoch
    # per mode over rounds x epochs (the typical cost — robust against
    # scheduler noise in either direction, unlike a min, which rewards
    # whichever mode has the noisier distribution), divided into steps.
    # Full-fit wall times are recorded alongside for the end-to-end view.
    steps_per_epoch = samples // stage2.batch_size
    step = {mode: float(np.median(times)) / steps_per_epoch
            for mode, times in epoch_times.items()}
    result = {"samples": samples,
              "epochs": epochs,
              "batch_size": stage2.batch_size,
              "steps_per_epoch": steps_per_epoch,
              "rounds": rounds,
              "warmup_epochs": warmup_epochs,
              "d_model": model_config.d_model,
              "n_layers": model_config.n_layers,
              "fit_speedup": totals["reference"] / max(totals["fused"],
                                                       1e-12),
              "speedup": step["reference"] / max(step["fused"], 1e-12),
              "history_rtol": HISTORY_RTOL,
              "history_close": bool(np.allclose(
                  histories["fused"]["loss"], histories["reference"]["loss"],
                  rtol=HISTORY_RTOL, atol=0.0)),
              "speedup_target": SPEEDUP_TARGET}
    for mode in MODES:
        result[f"{mode}_fit_s"] = totals[mode]
        result[f"{mode}_best_epoch_s"] = min(epoch_times[mode])
        result[f"{mode}_step_ms"] = 1000.0 * step[mode]
        result[f"{mode}_steps_per_sec"] = 1.0 / max(step[mode], 1e-12)
    return result


def run_profile_overhead(samples: int = SAMPLES_DEFAULT,
                         epochs: int = EPOCHS_DEFAULT,
                         rounds: int = ROUNDS_DEFAULT, seed: int = 7,
                         model_config: ModelConfig | None = None,
                         warmup_epochs: int = 0) -> dict:
    """The instrumentation gate of the telemetry layer (PR 7).

    The same fused stage-2 fit runs plain and with a
    :class:`~repro.train.ProfilerCallback` attached (per-phase wall-time
    histograms on every batch); the profiled median step must stay within
    ``OVERHEAD_LIMIT`` of the plain one, and the loss history must remain
    bit-identical — profiling may never change what the model computes.
    The first ``warmup_epochs`` of every fit are left out of the medians.
    """
    problem = DSEProblem()
    dataset = generate_random_dataset(problem, samples,
                                      np.random.default_rng(seed))
    model_config = model_config or ModelConfig()
    stage2 = Stage2Config(epochs=epochs)

    _fit(problem, dataset, model_config, Stage2Config(epochs=1), fused=True)

    epoch_times: dict[bool, list[float]] = {False: [], True: []}
    histories = {}
    snapshot = None
    for round_idx in range(rounds):
        # Alternate which mode runs first: a fixed order folds slow
        # drift (CPU frequency, allocator state) into whichever mode
        # always runs later and fakes an overhead.
        modes = (False, True) if round_idx % 2 == 0 else (True, False)
        for profile in modes:
            _, epoch_seconds, histories[profile], snap = _fit(
                problem, dataset, model_config, stage2,
                fused=True, profile=profile)
            epoch_times[profile].extend(epoch_seconds[warmup_epochs:])
            if snap is not None:
                snapshot = snap

    steps_per_epoch = samples // stage2.batch_size
    plain_step = float(np.median(epoch_times[False])) / steps_per_epoch
    profiled_step = float(np.median(epoch_times[True])) / steps_per_epoch
    overhead = max(profiled_step / max(plain_step, 1e-12) - 1.0, 0.0)
    shares = {phase: stats["share"]
              for phase, stats in snapshot["phases"].items()}
    return {"rounds": rounds,
            "warmup_epochs": warmup_epochs,
            "plain_step_ms": 1000.0 * plain_step,
            "profiled_step_ms": 1000.0 * profiled_step,
            "profile_overhead": overhead,
            "overhead_limit": OVERHEAD_LIMIT,
            "overhead_ok": overhead <= OVERHEAD_LIMIT,
            "identical_history": bool(histories[False] == histories[True]),
            "phase_shares": shares}


def run_smoke() -> dict:
    """Tiny configuration for CI: asserts direction, not magnitude."""
    config = ModelConfig(d_model=16, n_layers=1, n_heads=2, embed_dim=8,
                         head_hidden=32, num_buckets=8)
    # Batch 64 keeps this in the dispatch-bound regime (per-step
    # Tensor/closure construction dominates the tiny matmuls) and gives
    # the per-epoch medians 8 steps instead of 2.  The gate is on
    # steady-state epochs: with multi-threaded BLAS the first 2-3 epochs
    # of a fused fit at this size run ~2x slower than the rest (measured
    # on a 2-vCPU VM), which let a 12-epoch median dip under 1.0x.
    result = run_bench(samples=512, epochs=8, rounds=2, model_config=config,
                       batch_size=64, warmup_epochs=3)
    result["smoke"] = True
    # Direction-only fused gate at this scale: the win must exist, not
    # hit the full-size magnitude target.
    result["speedup_target"] = 1.0
    # More rounds than the speedup bench: the 3% gate needs a stable
    # median at this tiny scale, and each extra round costs ~0.1s.
    result["profiling"] = run_profile_overhead(samples=512, epochs=8,
                                               rounds=4, model_config=config,
                                               warmup_epochs=3)
    return result


@pytest.mark.slow
def test_fused_train_step_beats_reference(benchmark):
    """>= 2x stage-2 train-step throughput, loss history within rtol."""
    result = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    print(json.dumps(result, indent=2))
    assert result["history_close"]
    assert result["speedup"] >= SPEEDUP_TARGET


@pytest.mark.slow
def test_profiler_overhead_within_gate():
    """Per-phase profiling costs <= 3% per step, history bit-identical."""
    result = run_profile_overhead()
    print(json.dumps(result, indent=2))
    assert result["identical_history"]
    assert result["overhead_ok"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=SAMPLES_DEFAULT)
    parser.add_argument("--epochs", type=int, default=EPOCHS_DEFAULT)
    parser.add_argument("--rounds", type=int, default=ROUNDS_DEFAULT,
                        help="best-of-N rounds per mode (default 3)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long CI mode: tiny model, only "
                             "asserts fused beats the reference at all")
    parser.add_argument("--output", default=None,
                        help="also write the JSON record to this path "
                             "(e.g. BENCH_train_step.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        result = run_smoke()
    else:
        result = run_bench(samples=args.samples, epochs=args.epochs,
                           rounds=args.rounds, seed=args.seed)
        result["profiling"] = run_profile_overhead(
            samples=args.samples, epochs=args.epochs,
            rounds=args.rounds, seed=args.seed)
    result["provenance"] = _provenance()
    text = json.dumps(result, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    failed = False
    if not result["history_close"]:
        print(f"FAIL: fused and reference loss histories differ beyond "
              f"rtol={result['history_rtol']:g}", file=sys.stderr)
        failed = True
    if result["speedup"] < result["speedup_target"]:
        print(f"FAIL: speedup {result['speedup']:.2f}x < "
              f"{result['speedup_target']:.1f}x target", file=sys.stderr)
        failed = True
    profiling = result["profiling"]
    if not profiling["identical_history"]:
        print("FAIL: profiled loss history diverges from the plain fit",
              file=sys.stderr)
        failed = True
    if not profiling["overhead_ok"]:
        print(f"FAIL: profiling overhead "
              f"{profiling['profile_overhead'] * 100:.2f}% exceeds the "
              f"{profiling['overhead_limit'] * 100:.0f}% gate",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
