"""The composed reference path: the test oracle for ``repro.nn``'s fast path.

``repro.nn`` has one training path.  Each :mod:`repro.nn.fused` kernel
collapses an op-by-op chain of :class:`~repro.nn.Tensor` primitives into
one graph node; the chains themselves live here, one composed twin per
kernel, with the kernel's signature.  :func:`reference_path` swaps the
twins in, together with the slow twin of every other fast mechanism,
through lookup points ``src/`` already has:

* the kernels, as ``repro.nn.fused.<op>`` attributes (callers look them
  up at call time);
* the flat-arena optimisers, through ``_FlatArena.build`` returning
  ``None`` (the per-parameter loop then runs every update);
* the zero-copy loader, through a copy-per-batch ``DataLoader.__iter__``;
* the stage-2 frozen-encoder embedding cache, through
  ``_Stage2Task._embeddings`` re-running the encoder on the batch rows.

The twins give the kernels' forward bits exactly; gradients agree within
``rtol=1e-12`` (see the numeric contract in :mod:`repro.nn.fused`).  The
module needs no pytest: ``benchmarks/bench_train_step.py`` imports it for
its frozen baseline.
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np

from repro.core.stage2 import _Stage2Task
from repro.nn import fused
from repro.nn import functional as F
from repro.nn.data import DataLoader
from repro.nn.optim import _FlatArena
from repro.nn.tensor import Tensor, where

__all__ = ["KERNELS", "PATCHES", "reference_path"]


# ----------------------------------------------------------------------
# Composed twins of the repro.nn.fused kernels
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def gelu(x: Tensor) -> Tensor:
    c = math.sqrt(2.0 / math.pi)
    inner = (x + x * x * x * 0.044715) * c
    return x * (inner.tanh() + 1.0) * 0.5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    mean = x.mean(axis=-1, keepdims=True)
    centred = x - mean
    var = (centred * centred).mean(axis=-1, keepdims=True)
    normed = centred / (var + eps).sqrt()
    return normed * gamma + beta


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - F.logsumexp(shifted, axis=axis, keepdims=True)


def normalize(x: Tensor, axis: int = -1, eps: float = 1e-8) -> Tensor:
    norm = (x * x).sum(axis=axis, keepdims=True).sqrt()
    return x / (norm + eps)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return a @ b


def scaled_matmul(a: Tensor, b: Tensor, scale: float) -> Tensor:
    return (a @ b) * scale


def split_heads(x: Tensor, num_heads: int, head_dim: int) -> Tensor:
    batch, seq, _ = x.shape
    return x.reshape(batch, seq, num_heads, head_dim).swapaxes(1, 2)


def merge_heads(x: Tensor) -> Tensor:
    batch, heads, seq, head_dim = x.shape
    return x.swapaxes(1, 2).reshape(batch, seq, heads * head_dim)


def _softplus(x: Tensor) -> Tensor:
    """Numerically-stable log(1 + exp(x)) = relu(x) + log(1 + exp(-|x|))."""
    return x.relu() + ((-x.abs()).exp() + 1.0).log()


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    return _softplus(logits) - logits * Tensor(targets)


def l1_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    return (pred - Tensor(target)).abs().mean()


def mse_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(target)
    return (diff * diff).mean()


def nll_mean(log_probs: Tensor, onehot: np.ndarray) -> Tensor:
    return -(log_probs * Tensor(onehot)).sum(axis=-1).mean()


def unification_loss(logits: Tensor, q: np.ndarray, alpha: float) -> Tensor:
    """Eq. 3 at gamma = 1: focal-weighted BCE, summed over buckets."""
    target = Tensor(q)
    u = logits.sigmoid()
    bce = bce_with_logits(logits, q)
    gap = (target - u).abs()
    weighted = where(q > 0, gap * alpha * bce, u * (1.0 - alpha) * bce)
    return weighted.sum(axis=-1).mean()


#: Composed twin of every ``repro.nn.fused`` kernel, by attribute name.
KERNELS = {kernel.__name__: kernel for kernel in (
    linear, gelu, layer_norm, softmax, log_softmax, normalize, matmul,
    scaled_matmul, split_heads, merge_heads, bce_with_logits, l1_mean,
    mse_mean, nll_mean, unification_loss)}


# ----------------------------------------------------------------------
# Slow twins of the other fast mechanisms
# ----------------------------------------------------------------------
def _no_arena(parameters) -> None:
    return None


def _copying_iter(loader: DataLoader):
    """One fancy-index copy per batch: same values and rng draws as the
    zero-copy views, but each batch is a fresh, writable array."""
    n = len(loader.dataset)
    order = np.arange(n)
    if loader.shuffle:
        loader.rng.shuffle(order)
    size = loader.batch_size
    stop = (n // size) * size if loader.drop_last else n
    for start in range(0, stop, size):
        yield loader.dataset[order[start:start + size]]


def _encoder_embeddings(task: _Stage2Task, idx: np.ndarray) -> Tensor:
    """The frozen encoder re-run on the batch rows every step."""
    return task.model.embed(task.dataset.inputs[idx])


#: ``(owner, attribute, replacement)`` for every swap :func:`reference_path`
#: makes.
PATCHES = (
    *((fused, name, kernel) for name, kernel in KERNELS.items()),
    (_FlatArena, "build", staticmethod(_no_arena)),
    (DataLoader, "__iter__", _copying_iter),
    (_Stage2Task, "_embeddings", _encoder_embeddings),
)


@contextlib.contextmanager
def reference_path():
    """Run the body on the composed reference path.

    Every swap is undone on exit, also when the body raises; nested
    scopes restore what they found.
    """
    with contextlib.ExitStack() as stack:
        for owner, attribute, replacement in PATCHES:
            stack.enter_context(
                mock.patch.object(owner, attribute, replacement))
        yield
