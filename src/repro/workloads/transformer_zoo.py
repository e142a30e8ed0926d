"""Transformer/LLM workload builders: BERT, GPT-2, ViT, T5, Llama-2/3.

Each transformer block contributes the projection GEMMs (QKV/output/FFN)
plus the per-head attention score and context GEMMs; repeated blocks are
stored once with a multiplicity (see :class:`ModelWorkload`).  LLM prefill
is modelled (a full token batch flows through every GEMM); grouped-query
attention (Llama-3 style) shrinks the K/V projection output dims.
"""

from __future__ import annotations

from ..maestro import GemmWorkload
from .lowering import (attention_context_gemm, attention_score_gemm,
                       conv2d_gemm, linear_gemm)
from .model import ModelWorkload

__all__ = ["transformer_encoder", "bert", "gpt2", "vit", "t5_encoder", "llama"]


def _block_layers(seq: int, d_model: int, n_heads: int, d_ff: int,
                  kv_heads: int | None = None, gated_ffn: bool = False,
                  tag: str = "blk") -> list[GemmWorkload]:
    """GEMMs of one transformer block (attention + FFN)."""
    kv_heads = kv_heads or n_heads
    head_dim = d_model // n_heads
    kv_dim = head_dim * kv_heads
    layers = [
        linear_gemm(d_model, d_model, seq, f"{tag}.q_proj"),
        linear_gemm(kv_dim, d_model, seq, f"{tag}.k_proj"),
        linear_gemm(kv_dim, d_model, seq, f"{tag}.v_proj"),
    ]
    # Per-head attention GEMMs (each head is one GEMM instance).
    layers.extend(attention_score_gemm(seq, head_dim, f"{tag}.scores.h{h}")
                  for h in range(n_heads))
    layers.extend(attention_context_gemm(seq, head_dim, f"{tag}.context.h{h}")
                  for h in range(n_heads))
    layers.append(linear_gemm(d_model, d_model, seq, f"{tag}.out_proj"))
    if gated_ffn:  # Llama-style SwiGLU: gate + up + down
        layers.append(linear_gemm(d_ff, d_model, seq, f"{tag}.ffn_gate"))
        layers.append(linear_gemm(d_ff, d_model, seq, f"{tag}.ffn_up"))
        layers.append(linear_gemm(d_model, d_ff, seq, f"{tag}.ffn_down"))
    else:
        layers.append(linear_gemm(d_ff, d_model, seq, f"{tag}.ffn_up"))
        layers.append(linear_gemm(d_model, d_ff, seq, f"{tag}.ffn_down"))
    return layers


def transformer_encoder(name: str, seq: int, d_model: int, n_heads: int,
                        d_ff: int, n_layers: int, family: str,
                        kv_heads: int | None = None,
                        gated_ffn: bool = False,
                        extra: list[GemmWorkload] | None = None) -> ModelWorkload:
    """Generic stack of identical transformer blocks plus optional extras.

    One block (tagged ``layer0``) is built and counted ``n_layers`` times,
    which merges to the same layers, names and counts as every block.
    """
    extras = list(extra or [])
    block = _block_layers(seq, d_model, n_heads, d_ff, kv_heads=kv_heads,
                          gated_ffn=gated_ffn, tag="layer0")
    return ModelWorkload.from_layers(
        name, extras + block, family=family,
        counts=[1] * len(extras) + [n_layers] * len(block))


# ----------------------------------------------------------------------
# Named model families
# ----------------------------------------------------------------------
_BERT = {"base": (768, 12, 3072, 12), "large": (1024, 16, 4096, 24)}


def bert(size: str = "base", seq: int = 128) -> ModelWorkload:
    """BERT-base/large encoder at a given sequence length."""
    d_model, n_heads, d_ff, n_layers = _BERT[size]
    return transformer_encoder(f"bert_{size}_seq{seq}", seq, d_model, n_heads,
                               d_ff, n_layers, family="bert")


_GPT2 = {"small": (768, 12, 3072, 12), "medium": (1024, 16, 4096, 24),
         "large": (1280, 20, 5120, 36), "xl": (1600, 25, 6400, 48)}


def gpt2(size: str = "small", seq: int = 1024) -> ModelWorkload:
    """GPT-2 decoder stack (prefill) at a given sequence length."""
    d_model, n_heads, d_ff, n_layers = _GPT2[size]
    return transformer_encoder(f"gpt2_{size}_seq{seq}", seq, d_model, n_heads,
                               d_ff, n_layers, family="gpt2")


_VIT = {"s16": (384, 6, 1536, 12), "b16": (768, 12, 3072, 12),
        "l16": (1024, 16, 4096, 24), "h14": (1280, 16, 5120, 32)}


def vit(size: str = "b16", in_size: int = 224) -> ModelWorkload:
    """Vision Transformer: patch-embedding conv + encoder blocks."""
    d_model, n_heads, d_ff, n_layers = _VIT[size]
    patch = 14 if size.endswith("14") else 16
    tokens = (in_size // patch) ** 2 + 1  # +1 CLS token
    embed = conv2d_gemm(d_model, 3, patch, in_size // patch, in_size // patch,
                        "patch_embed")
    return transformer_encoder(f"vit_{size}_{in_size}", tokens, d_model,
                               n_heads, d_ff, n_layers, family="vit",
                               extra=[embed])


_T5 = {"small": (512, 8, 2048, 6), "base": (768, 12, 3072, 12),
       "large": (1024, 16, 4096, 24)}


def t5_encoder(size: str = "base", seq: int = 512) -> ModelWorkload:
    """T5 encoder stack."""
    d_model, n_heads, d_ff, n_layers = _T5[size]
    return transformer_encoder(f"t5_{size}_seq{seq}", seq, d_model, n_heads,
                               d_ff, n_layers, family="t5")


_LLAMA = {
    # name: (d_model, n_heads, kv_heads, d_ff, n_layers, gated)
    "llama2_7b": (4096, 32, 32, 11008, 32, True),
    "llama2_13b": (5120, 40, 40, 13824, 40, True),
    "llama2_70b": (8192, 64, 8, 28672, 80, True),
    "llama3_8b": (4096, 32, 8, 14336, 32, True),
    "llama3_70b": (8192, 64, 8, 28672, 80, True),
}


def llama(variant: str = "llama2_7b", seq: int = 2048) -> ModelWorkload:
    """Llama-2/3 decoder stack (prefill), with GQA where applicable."""
    d_model, n_heads, kv_heads, d_ff, n_layers, gated = _LLAMA[variant]
    return transformer_encoder(f"{variant}_seq{seq}", seq, d_model, n_heads,
                               d_ff, n_layers, family="llama",
                               kv_heads=kv_heads, gated_ffn=gated)
