"""Training memory: ``Tensor.backward`` consumes the graph as it fires.

Once a node's closure has run, the node drops its gradient, its closure
(with the arrays the closure saved) and its parent links, so a training
step's peak tracks the forward activations still awaiting their
backward, not the whole graph.  Leaves and parameters keep their grads.
"""

from __future__ import annotations

import tracemalloc
import weakref

import numpy as np

from repro import nn
from repro.core import AirchitectV2, Stage1Config, Stage1Trainer
from repro.dse import DSEProblem, generate_random_dataset
from repro.experiments.harness import get_scale
from repro.nn import fused
from repro.nn.tensor import _spent

#: One ``small`` stage-1 epoch over 1,200 rows at batch 256 peaked at
#: 60-63 MB traced while backward held the whole graph; consumed as it
#: fires, it peaks near 32 MB.
STAGE1_EPOCH_PEAK_MB = 40.0


def _block(rng):
    """A linear -> GELU -> layer norm -> linear stack and its leaves."""
    first = nn.Linear(6, 8, rng)
    norm = nn.LayerNorm(8)
    last = nn.Linear(8, 3, rng)
    x = nn.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    return x, [first, norm, last]


def test_backward_strips_intermediates_and_keeps_leaf_grads():
    rng = np.random.default_rng(0)
    x, (first, norm, last) = _block(rng)
    h1 = first(x)
    h2 = fused.gelu(h1)
    h3 = norm(h2)
    loss = (last(h3) ** 2).mean()
    loss.backward()

    for node in (h1, h2, h3, loss):
        assert node.grad is None
        assert node._backward is _spent     # the kernel's closure is gone
        assert node._parents == ()
    assert x.grad is not None and x.grad.shape == x.shape
    for module in (first, norm, last):
        for param in module.parameters():
            assert param.grad is not None
            assert param.grad.shape == param.shape


def test_dropped_intermediate_output_is_freed():
    rng = np.random.default_rng(1)
    x, (first, norm, last) = _block(rng)
    hidden = fused.gelu(first(x))
    loss = last(norm(hidden)).sum()
    ref = weakref.ref(hidden.data)
    loss.backward()
    assert ref() is not None          # the caller still holds ``hidden``
    del hidden
    assert ref() is None              # refcounting alone frees it


def test_stage1_epoch_peak_tracks_activations_not_the_graph():
    problem = DSEProblem()
    dataset = generate_random_dataset(problem, 1200,
                                      np.random.default_rng(0))
    config = get_scale("small").model_config(head_style="uov",
                                             num_buckets=16)
    model = AirchitectV2(config, problem, np.random.default_rng(1))
    trainer = Stage1Trainer(model, Stage1Config(epochs=1, batch_size=256,
                                                seed=1))
    tracemalloc.start()
    try:
        trainer.train(dataset)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb <= STAGE1_EPOCH_PEAK_MB, peak_mb
