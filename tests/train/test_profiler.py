"""Train-phase profiling: PhaseProfiler accounting, ProfilerCallback
wiring, the loop timing every batch with no callback attached, and the
bit-identity contract of a swapped-in profiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (AirchitectV2, ModelConfig, Stage1Config, Stage1Trainer,
                        Stage2Config, Stage2Trainer)
from repro.dse import generate_random_dataset
from repro.obs import PHASES, PhaseProfiler
from repro.train import Callback, ProfilerCallback, TrainLoop


@pytest.fixture(scope="module")
def train_data(problem):
    return generate_random_dataset(problem, 300, np.random.default_rng(55))


def _v2_model(problem, seed=0):
    config = ModelConfig(d_model=16, n_layers=1, n_heads=2, embed_dim=8,
                         head_hidden=16, num_buckets=8)
    return AirchitectV2(config, problem, np.random.default_rng(seed))


class TestPhaseProfiler:
    def test_record_accumulates_per_phase(self):
        profiler = PhaseProfiler()
        profiler.record("forward", 0.2)
        profiler.record("forward", 0.1)
        profiler.record("backward", 0.3)
        assert profiler.total_seconds("forward") == pytest.approx(0.3)
        assert profiler.total_seconds("backward") == pytest.approx(0.3)
        assert profiler.total_seconds("data") == 0.0

    def test_batch_seconds_resets_with_start_batch(self):
        profiler = PhaseProfiler()
        profiler.start_batch()
        profiler.record("backward", 0.2)
        profiler.record("optimizer", 0.1)
        assert profiler.batch_seconds() == pytest.approx(0.3)
        profiler.start_batch()
        assert profiler.batch_seconds() == 0.0

    def test_negative_durations_clamped(self):
        profiler = PhaseProfiler()
        profiler.record("forward", -1.0)     # subtraction gone wrong
        assert profiler.total_seconds("forward") == 0.0
        assert profiler.snapshot()["phases"]["forward"]["count"] == 1

    def test_snapshot_shares_sum_to_one(self):
        profiler = PhaseProfiler()
        for phase, seconds in zip(PHASES, (0.1, 0.5, 0.3, 0.1)):
            profiler.record(phase, seconds)
        snap = profiler.snapshot()
        assert sum(p["share"] for p in snap["phases"].values()) \
            == pytest.approx(1.0)
        assert snap["phases"]["forward"]["share"] == pytest.approx(0.5)
        assert "buckets" not in snap["phases"]["forward"]


class TestProfilerCallback:
    def test_fit_attaches_profiler_and_counts_batches(self, problem,
                                                      train_data):
        callback = ProfilerCallback()
        model = _v2_model(problem)
        Stage2Trainer(model, Stage2Config(epochs=2)).train(
            train_data, callbacks=(callback,))
        snap = callback.snapshot()
        # 300 samples / batch 256 -> 2 batches per epoch, 2 epochs.
        assert snap["batches"] == 4
        for phase in PHASES:
            assert snap["phases"][phase]["count"] == 4
        assert snap["total_s"] > 0

    def test_profiled_history_bit_identical(self, problem, train_data):
        config = Stage1Config(epochs=3)
        plain = Stage1Trainer(_v2_model(problem), config).train(train_data)
        profiled = Stage1Trainer(_v2_model(problem), config).train(
            train_data, callbacks=(ProfilerCallback(),))
        assert profiled == plain

    def test_loop_times_phases_without_profiler_callback(self, problem,
                                                         train_data):
        captured = {}

        class Probe(Callback):
            def on_fit_begin(self, loop) -> None:
                captured["loop"] = loop

        trainer = Stage2Trainer(_v2_model(problem), Stage2Config(epochs=1))
        trainer.train(train_data, callbacks=(Probe(),))
        loop = captured["loop"]
        assert isinstance(loop, TrainLoop)
        snap = loop.profiler.snapshot()
        # 300 samples / batch 256 -> 2 batches, each timed in every phase.
        assert snap["batches"] == 2
        for phase in PHASES:
            assert snap["phases"][phase]["count"] == 2
