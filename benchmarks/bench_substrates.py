"""Micro-benchmarks of the substrates (not paper artefacts).

These time the hot paths that make the reproduction feasible: vectorised
cost-model grid evaluation, exhaustive oracle labelling, and one training
step of the v2 model.  Useful for catching performance regressions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (AirchitectV2, BatchedDSEPredictor, ModelConfig,
                        Stage1Config, Stage1Trainer)
from repro.dse import DSEProblem, ExhaustiveOracle, generate_random_dataset
from repro.maestro import CostModel


@pytest.fixture(scope="module")
def problem():
    return DSEProblem()


def test_cost_model_grid_throughput(benchmark, problem):
    """256 layers x 768 configs in one vectorised pass."""
    cm = CostModel()
    rng = np.random.default_rng(0)
    m = rng.integers(1, 257, 256)
    n = rng.integers(1, 1678, 256)
    k = rng.integers(1, 1186, 256)
    space = problem.space

    result = benchmark(cm.evaluate_grid, m, n, k, "os",
                       space.pe_choices, space.l2_choices)
    assert result.latency_cycles.shape == (256, 64, 12)


def test_oracle_labelling_throughput(benchmark, problem):
    """Exhaustive optimal labelling of 512 random samples."""
    oracle = ExhaustiveOracle(problem)
    inputs = problem.sample_inputs(512, np.random.default_rng(1))

    result = benchmark(oracle.solve, inputs)
    assert len(result.pe_idx) == 512


def test_v2_inference_throughput(benchmark, problem):
    """One-shot DSE prediction for 1024 workloads (batched engine)."""
    rng = np.random.default_rng(2)
    model = AirchitectV2(ModelConfig(d_model=32, n_layers=2, n_heads=4,
                                     embed_dim=16), problem, rng)
    engine = BatchedDSEPredictor(model)
    inputs = problem.sample_inputs(1024, rng)

    pe, l2 = benchmark(engine.predict_indices, inputs)
    assert len(pe) == 1024


def test_v2_training_epoch(benchmark, problem):
    """One stage-1 epoch over 1000 samples (the training hot loop)."""
    rng = np.random.default_rng(3)
    data = generate_random_dataset(problem, 1000, rng)
    model = AirchitectV2(ModelConfig(d_model=32, n_layers=1, n_heads=4,
                                     embed_dim=16), problem, rng)
    trainer = Stage1Trainer(model, Stage1Config(epochs=1))

    history = benchmark.pedantic(trainer.train, args=(data,), rounds=1,
                                 iterations=1)
    assert np.isfinite(history["loss"]).all()
