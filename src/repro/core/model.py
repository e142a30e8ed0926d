"""The AIRCHITECT v2 encoder-decoder model (Fig. 2).

Architecture (paper §III-B):

* **Encoder** — the 4 input parameters (M, N, K, dataflow) are embedded as a
  4-token sequence, processed by L stacked {self-attention, add & norm,
  feed-forward} blocks, then *downsampled* into the latent embedding space
  that stage-1 contrastive learning shapes.
* **Performance head** — a small MLP over the embedding that regresses the
  (log-normalised) optimisation metric; its L1 loss adds semantic meaning
  to the embedding (§III-C).
* **Decoder** — *upsamples* a latent point back into a token sequence,
  applies L identical transformer blocks, and feeds two output heads —
  one per hardware configuration (number of PEs, buffer size).

Head styles (the paper's Fig. 9 / Fig. 8(b) ablation axes):

* ``"uov"``             — K-dim Unified Ordinal Vector per head (the paper).
* ``"classification"``  — per-head softmax over the raw design choices.
* ``"joint"``           — single softmax over all 768 design points
                          (AIRCHITECT v1's encoding, for comparison).
* ``"regression"``      — scalar per head (normalised choice index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..dse import DSEProblem
from ..uov import UOVCodec

__all__ = ["ModelConfig", "AirchitectEncoder", "AirchitectDecoder",
           "PerformanceHead", "AirchitectV2", "HEAD_STYLES"]

HEAD_STYLES = ("uov", "classification", "joint", "regression")

#: Byte budget of an inference tile's widest activation: about half of a
#: common 2 MiB per-core L2, so a tile's temporaries are reused from cache
#: instead of each being a fresh multi-megabyte array (page faults, DRAM
#: traffic).  Sizing by bytes rather than rows keeps wide models safe.
TILE_BYTES = 1 << 20


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of the AIRCHITECT v2 model.

    Defaults are the reproduction's scaled-down shape (the paper trains a
    GPU-scale model; orderings between techniques are preserved — see
    DESIGN.md §2).
    """

    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    embed_dim: int = 16
    head_hidden: int = 64
    num_buckets: int = 16
    head_style: str = "uov"
    dropout: float = 0.0
    seq_len: int = 4          # tokens: M, N, K, dataflow
    token_channels: int = 2   # per-token [value, type-id]

    def __post_init__(self):
        if self.head_style not in HEAD_STYLES:
            raise ValueError(f"head_style must be one of {HEAD_STYLES}")


class AirchitectEncoder(nn.Module):
    """Token embedding + L transformer blocks + downsampling unit."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.token_embed = nn.Linear(config.token_channels, config.d_model, rng)
        self.pos_embed = nn.Parameter(
            nn.init.normal((config.seq_len, config.d_model), rng, std=0.02))
        self.blocks = nn.TransformerStack(config.n_layers, config.d_model,
                                          config.n_heads, rng,
                                          dropout=config.dropout)
        self.downsample = nn.DownsampleUnit(config.seq_len, config.d_model,
                                            config.embed_dim, rng)

    def forward(self, tokens) -> nn.Tensor:
        """tokens: (batch, seq_len, token_channels) array or Tensor."""
        x = nn.as_tensor(tokens)
        h = self.token_embed(x) + self.pos_embed
        h = self.blocks(h)
        return self.downsample(h)


class PerformanceHead(nn.Module):
    """Embedding -> scalar performance prediction (stage-1 L_perf)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.net = nn.Sequential(
            nn.Linear(config.embed_dim, config.head_hidden, rng),
            nn.GELU(),
            nn.Linear(config.head_hidden, 1, rng),
        )

    def forward(self, embedding: nn.Tensor) -> nn.Tensor:
        return self.net(embedding).squeeze(-1)


class _OutputHead(nn.Module):
    """One decoder output head (shape depends on the head style)."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.net = nn.Sequential(
            nn.Linear(in_dim, hidden, rng),
            nn.GELU(),
            nn.Linear(hidden, out_dim, rng),
        )

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.net(x)


class AirchitectDecoder(nn.Module):
    """Upsampling unit + L transformer blocks + per-configuration heads."""

    def __init__(self, config: ModelConfig, problem: DSEProblem,
                 rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.upsample = nn.UpsampleUnit(config.embed_dim, config.seq_len,
                                        config.d_model, rng)
        self.blocks = nn.TransformerStack(config.n_layers, config.d_model,
                                          config.n_heads, rng,
                                          dropout=config.dropout)
        flat_dim = config.seq_len * config.d_model
        n_pe, n_l2 = problem.space.n_pe, problem.space.n_l2

        if config.head_style == "uov":
            out_pe = out_l2 = config.num_buckets
        elif config.head_style == "classification":
            out_pe, out_l2 = n_pe, n_l2
        elif config.head_style == "regression":
            out_pe = out_l2 = 1
        else:  # joint: a single 768-way head (the v1 label encoding)
            out_pe, out_l2 = n_pe * n_l2, 0

        self.out_features = (out_pe, out_l2)
        self.pe_head = _OutputHead(flat_dim, config.head_hidden, out_pe, rng)
        self.l2_head = (_OutputHead(flat_dim, config.head_hidden, out_l2, rng)
                        if out_l2 else None)

    def forward(self, embedding: nn.Tensor):
        """embedding (batch, embed_dim) -> head logits.

        Returns (pe_logits, l2_logits); ``l2_logits`` is None for the joint
        head style (the single head covers both configurations).
        """
        h = self.upsample(embedding)
        h = self.blocks(h)
        batch = h.shape[0]
        flat = h.reshape(batch, self.config.seq_len * self.config.d_model)
        pe = self.pe_head(flat)
        l2 = self.l2_head(flat) if self.l2_head is not None else None
        return pe, l2


class AirchitectV2(nn.Module):
    """Full AIRCHITECT v2: encoder, performance head and decoder."""

    def __init__(self, config: ModelConfig, problem: DSEProblem,
                 rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.problem = problem
        self.encoder = AirchitectEncoder(config, rng)
        self.perf_head = PerformanceHead(config, rng)
        self.decoder = AirchitectDecoder(config, problem, rng)
        self.pe_codec = UOVCodec(problem.space.n_pe, config.num_buckets)
        self.l2_codec = UOVCodec(problem.space.n_l2, config.num_buckets)
        # Stage-1 performance-normalisation statistics travel with the
        # weights (buffers), so a loaded model can de-normalise performance
        # predictions without retraining.
        self.register_buffer("perf_mean", np.float64(0.0))
        self.register_buffer("perf_std", np.float64(1.0))

    # ------------------------------------------------------------------
    def embed(self, inputs: np.ndarray) -> nn.Tensor:
        """Raw input tuples -> latent embeddings (tokenising internally)."""
        tokens = self.problem.tokenize(inputs)
        return self.encoder(tokens)

    def forward(self, inputs: np.ndarray):
        """Raw input tuples -> (embedding, perf prediction, head logits)."""
        embedding = self.embed(inputs)
        perf = self.perf_head(embedding)
        pe_logits, l2_logits = self.decoder(embedding)
        return embedding, perf, (pe_logits, l2_logits)

    # ------------------------------------------------------------------
    def decode_logits(self, pe_logits, l2_logits) -> tuple[np.ndarray, np.ndarray]:
        """Head logits (as returned by :meth:`forward`) -> choice indices.

        The single decode path of :meth:`predict_indices`, which the
        per-sample and batched predictors both go through.
        """
        space = self.problem.space
        style = self.config.head_style
        if style == "uov":
            pe = self.pe_codec.decode_to_choice(pe_logits.sigmoid().numpy())
            l2 = self.l2_codec.decode_to_choice(l2_logits.sigmoid().numpy())
        elif style == "classification":
            pe = pe_logits.numpy().argmax(axis=-1)
            l2 = l2_logits.numpy().argmax(axis=-1)
        elif style == "regression":
            pe_val = pe_logits.sigmoid().numpy()[:, 0] * (space.n_pe - 1)
            l2_val = l2_logits.sigmoid().numpy()[:, 0] * (space.n_l2 - 1)
            pe = np.clip(np.rint(pe_val), 0, space.n_pe - 1)
            l2 = np.clip(np.rint(l2_val), 0, space.n_l2 - 1)
        else:  # joint
            flat = pe_logits.numpy().argmax(axis=-1)
            pe, l2 = space.unflatten(flat)
        return (np.asarray(pe, dtype=np.int64),
                np.asarray(l2, dtype=np.int64))

    @property
    def tile_rows(self) -> int:
        """Rows per inference tile: as many as keep the widest per-row
        activation (an FFN hidden layer over all tokens, or a head's
        logits) of float64s within :data:`TILE_BYTES`."""
        widest = max(self.config.seq_len * self.decoder.blocks.ffn_dim,
                     self.config.head_hidden, *self.decoder.out_features)
        return max(1, TILE_BYTES // (8 * widest))

    def _tiles(self, n: int):
        """Row slices covering ``range(n)``, one per inference tile."""
        step = self.tile_rows
        return (slice(s, min(s + step, n)) for s in range(0, n, step))

    def tile_logits(self, inputs: np.ndarray):
        """Yield ``(rows, pe_logits, l2_logits)`` per inference tile.

        ``rows`` is the slice of ``inputs`` the tile covers.  Each tile
        runs encoder -> decoder under ``no_grad``; a row's logits do not
        depend on the tile it lands in.
        """
        self.eval()
        inputs = np.atleast_2d(np.asarray(inputs))
        for rows in self._tiles(len(inputs)):
            with nn.no_grad():
                pe_logits, l2_logits = self.decoder(self.embed(inputs[rows]))
            yield rows, pe_logits, l2_logits

    def predict_indices(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One-shot DSE: inputs -> (pe_idx, l2_idx) design-choice indices."""
        inputs = np.atleast_2d(np.asarray(inputs))
        pe_out = np.empty(len(inputs), dtype=np.int64)
        l2_out = np.empty(len(inputs), dtype=np.int64)
        for rows, pe_logits, l2_logits in self.tile_logits(inputs):
            pe_out[rows], l2_out[rows] = self.decode_logits(pe_logits, l2_logits)
        return pe_out, l2_out

    def predict_performance(self, inputs: np.ndarray,
                            denormalise: bool = True) -> np.ndarray:
        """Performance-head predictions for raw input tuples.

        With ``denormalise`` (the default) the z-scored log-metric output
        is mapped back to metric units (e.g. latency cycles) using the
        stage-1 statistics persisted in the ``perf_mean``/``perf_std``
        buffers; pass ``denormalise=False`` for the raw normalised score.
        """
        self.eval()
        inputs = np.atleast_2d(np.asarray(inputs))
        out = np.empty(len(inputs), dtype=np.float64)
        with nn.no_grad():
            for rows in self._tiles(len(inputs)):
                out[rows] = self.perf_head(self.embed(inputs[rows])).numpy()
        if denormalise:
            out = np.exp(out * float(self.perf_std) + float(self.perf_mean))
        return out

    def head_parameter_count(self) -> int:
        """Parameters in the output heads only (Fig. 9's model-size axis)."""
        count = self.decoder.pe_head.num_parameters()
        if self.decoder.l2_head is not None:
            count += self.decoder.l2_head.num_parameters()
        return count
