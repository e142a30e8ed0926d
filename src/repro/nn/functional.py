"""Autograd-aware functional operations built on :class:`repro.nn.Tensor`.

The hot functions (softmax, log_softmax, gelu, normalize) are the
single-node kernels in :mod:`repro.nn.fused`.  The rest are compositions
of `Tensor` primitives, so they need no bespoke backward passes;
numerical stability tricks (max-subtraction, clamping in log) are
applied where standard.
"""

from __future__ import annotations

import numpy as np

from . import fused
from .tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "gelu",
    "silu",
    "leaky_relu",
    "normalize",
    "one_hot",
    "cosine_similarity",
    "pairwise_dot",
    "logsumexp",
]

_LOG_EPS = 1e-12


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    return fused.softmax(x, axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    return fused.log_softmax(x, axis=axis)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """log(sum(exp(x))) along ``axis`` with max-shifting for stability."""
    m = x.max(axis=axis, keepdims=True).detach()
    out = (x - m).exp().sum(axis=axis, keepdims=True).log() + m
    if not keepdims:
        out = out.squeeze(axis)
    return out


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as used in BERT/GPT)."""
    return fused.gelu(x)


def silu(x: Tensor) -> Tensor:
    """Sigmoid linear unit (a.k.a. swish), used by Llama-family FFNs."""
    return x * x.sigmoid()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky rectified linear unit."""
    return x.relu() - (-x).relu() * negative_slope


def normalize(x: Tensor, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """L2-normalise along ``axis`` (used for contrastive embeddings)."""
    return fused.normalize(x, axis=axis, eps=eps)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a dense one-hot ``float64`` matrix for integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """Cosine similarity between ``a`` and ``b`` along ``axis``."""
    a_n = normalize(a, axis=axis, eps=eps)
    b_n = normalize(b, axis=axis, eps=eps)
    return (a_n * b_n).sum(axis=axis)


def pairwise_dot(x: Tensor) -> Tensor:
    """All-pairs dot products of row vectors: returns ``x @ x.T``."""
    return x @ x.transpose()


def safe_log(x: Tensor) -> Tensor:
    """log with clamping away from zero (for BCE-style losses)."""
    return x.clip(_LOG_EPS, 1.0).log()
