"""Core neural-network layers: Linear, LayerNorm, Embedding, Dropout, activations.

Every layer takes an explicit ``numpy.random.Generator`` for weight
initialisation so model construction is reproducible.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import fused
from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = ["Linear", "LayerNorm", "Embedding", "Dropout", "ReLU", "GELU", "Tanh", "Sigmoid", "Identity"]


class Linear(Module):
    """Affine map ``y = x W + b`` with W of shape (in_features, out_features)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return fused.linear(as_tensor(x), self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class LayerNorm(Module):
    """Layer normalisation over the last dimension with learnable affine."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return fused.layer_norm(as_tensor(x), self.gamma, self.beta, self.eps)


class Embedding(Module):
    """Lookup table mapping integer indices to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal((num_embeddings, dim), rng, std=0.02))

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.min() < 0 or indices.max() >= self.num_embeddings:
            raise IndexError(f"embedding index out of range [0, {self.num_embeddings})")
        return self.weight[indices]


class Dropout(Module):
    """Inverted dropout; identity when in eval mode or p == 0."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x
