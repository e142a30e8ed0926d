"""The process-wide heap policy set when ``repro.nn`` is imported.

With glibc's malloc thresholds pinned, warm inference tiles and training
steps reuse the pages of the temporaries they freed instead of faulting
fresh zeroed pages in.  Nothing here pins the heap itself: importing
``repro`` must already have done it.
"""

from __future__ import annotations

import resource
import sys

import numpy as np
import pytest

from repro.core import (AirchitectV2, BatchedDSEPredictor, Stage1Config,
                        Stage1Trainer)
from repro.dse import generate_random_dataset
from repro.experiments.harness import get_scale
from repro.train import Callback

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="page-fault counts are glibc/Linux behaviour")


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def test_retained_heap_lets_tiles_reuse_pages(problem):
    """A warm sweep of the ``small`` model reuses its tiles' pages
    instead of faulting ~20 in per row."""
    model = AirchitectV2(get_scale("small").model_config(), problem,
                         np.random.default_rng(0))
    inputs = problem.sample_inputs(1024, np.random.default_rng(1))
    model.predict_indices(inputs)
    before = _minor_faults()
    model.predict_indices(inputs)
    faults = _minor_faults() - before
    assert faults < 2 * len(inputs)


def test_tile_threads_reuse_the_pinned_heap(problem):
    """The engine's tile threads share the one pinned arena, so a warm
    fanned-out sweep reuses its pages as the inline loop does."""
    model = AirchitectV2(get_scale("small").model_config(), problem,
                         np.random.default_rng(0))
    engine = BatchedDSEPredictor(model)
    inputs = problem.sample_inputs(1024, np.random.default_rng(1))
    engine.predict_indices(inputs)
    before = _minor_faults()
    engine.predict_indices(inputs)
    faults = _minor_faults() - before
    assert faults < 2 * len(inputs)


class _FaultsPerEpoch(Callback):
    """Minor page faults taken by each epoch."""

    def __init__(self):
        self.epochs: list[int] = []
        self._last = 0

    def on_fit_begin(self, loop) -> None:
        self._last = _minor_faults()

    def on_epoch_end(self, loop) -> None:
        now = _minor_faults()
        self.epochs.append(now - self._last)
        self._last = now


def test_training_steps_reuse_pages(problem):
    """Warm ``small`` stage-1 steps at batch 256 fault fewer than 256
    pages each (unpinned, each step faults thousands back in)."""
    batch, steps = 256, 4
    data = generate_random_dataset(problem, batch * steps,
                                   np.random.default_rng(2))
    model = AirchitectV2(get_scale("small").model_config(), problem,
                         np.random.default_rng(0))
    faults = _FaultsPerEpoch()
    Stage1Trainer(model, Stage1Config(epochs=3, batch_size=batch)) \
        .train(data, callbacks=[faults])
    # The first epoch warms the heap; the later ones are steady state.
    for epoch_faults in faults.epochs[1:]:
        assert epoch_faults / steps < batch
