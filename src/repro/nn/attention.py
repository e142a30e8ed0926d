"""Multi-head self-attention and the transformer blocks of AIRCHITECT v2.

The paper (Fig. 2) uses an encoder and a decoder with *identical and
complementary* structures: L stacked blocks of {multi-head self-attention,
add & norm, linear (feed-forward)}, plus a **downsampling** unit on the
encoder side and an **upsampling** unit on the decoder side, following the
original transformer formulation [Vaswani 2017].

Shapes follow the convention ``(batch, seq, dim)``.
"""

from __future__ import annotations

import math

import numpy as np

from . import functional as F
from . import fused
from .layers import Dropout, GELU, LayerNorm, Linear
from .module import Module, ModuleList, Sequential
from .tensor import Tensor

__all__ = [
    "MultiHeadSelfAttention",
    "FeedForward",
    "TransformerBlock",
    "DownsampleUnit",
    "UpsampleUnit",
    "TransformerStack",
]


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with ``num_heads`` parallel heads."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim={dim} must be divisible by num_heads={num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)
        self.attn_dropout = Dropout(dropout, rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        # (batch, seq, dim) -> (batch, heads, seq, head_dim)
        return fused.split_heads(x, self.num_heads, self.head_dim)

    def forward(self, x: Tensor) -> Tensor:
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(x))
        v = self._split_heads(self.v_proj(x))

        scale = 1.0 / math.sqrt(self.head_dim)
        scores = fused.scaled_matmul(q, k.swapaxes(-1, -2), scale)
        attn = self.attn_dropout(F.softmax(scores, axis=-1))
        context = fused.matmul(attn, v)  # (batch, heads, seq, head_dim)
        return self.out_proj(fused.merge_heads(context))


class FeedForward(Module):
    """Position-wise feed-forward network (the 'linear' unit in Fig. 2)."""

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        self.net = Sequential(
            Linear(dim, hidden_dim, rng),
            GELU(),
            Dropout(dropout, rng),
            Linear(hidden_dim, dim, rng),
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class TransformerBlock(Module):
    """One {self-attention, add & norm, feed-forward, add & norm} block."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 ffn_mult: int = 4, dropout: float = 0.0):
        super().__init__()
        self.attn = MultiHeadSelfAttention(dim, num_heads, rng, dropout=dropout)
        self.norm1 = LayerNorm(dim)
        self.ffn = FeedForward(dim, ffn_mult * dim, rng, dropout=dropout)
        self.norm2 = LayerNorm(dim)

    def forward(self, x: Tensor) -> Tensor:
        x = self.norm1(x + self.attn(x))
        x = self.norm2(x + self.ffn(x))
        return x


class DownsampleUnit(Module):
    """Encoder-side dimensionality reduction: (batch, seq, dim) -> (batch, out_dim).

    Flattens the token sequence and projects it to the latent embedding
    dimension; this is the funnel into the intermediate representation that
    stage-1 contrastive learning shapes.
    """

    def __init__(self, seq_len: int, dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.seq_len = seq_len
        self.dim = dim
        self.proj = Linear(seq_len * dim, out_dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        batch = x.shape[0]
        return self.proj(x.reshape(batch, self.seq_len * self.dim))


class UpsampleUnit(Module):
    """Decoder-side expansion: (batch, in_dim) -> (batch, seq, dim).

    Inverse of :class:`DownsampleUnit`: lifts a latent point back into a
    token sequence the decoder's self-attention blocks can process.
    """

    def __init__(self, in_dim: int, seq_len: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.seq_len = seq_len
        self.dim = dim
        self.proj = Linear(in_dim, seq_len * dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        batch = x.shape[0]
        return self.proj(x).reshape(batch, self.seq_len, self.dim)


class TransformerStack(Module):
    """``num_layers`` stacked :class:`TransformerBlock` modules."""

    def __init__(self, num_layers: int, dim: int, num_heads: int,
                 rng: np.random.Generator, ffn_mult: int = 4, dropout: float = 0.0):
        super().__init__()
        self.ffn_dim = ffn_mult * dim
        self.blocks = ModuleList([
            TransformerBlock(dim, num_heads, rng, ffn_mult=ffn_mult, dropout=dropout)
            for _ in range(num_layers)
        ])

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return x
