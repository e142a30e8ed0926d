"""Test oracle: the transformer zoo built the flat way.

Every block (tagged ``layer0`` … ``layer{n-1}``) and every head of it is
its own :class:`GemmWorkload`, and :meth:`ModelWorkload.from_layers`
merges the whole list.  ``repro.workloads.transformer_encoder`` builds
one block and counts it ``n_layers`` times; the two must agree exactly.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.maestro import GemmWorkload
from repro.workloads import ModelWorkload, transformer_zoo


def flat_transformer_encoder(name: str, seq: int, d_model: int, n_heads: int,
                             d_ff: int, n_layers: int, family: str,
                             kv_heads: int | None = None,
                             gated_ffn: bool = False,
                             extra: list[GemmWorkload] | None = None
                             ) -> ModelWorkload:
    layers: list[GemmWorkload] = list(extra or [])
    for i in range(n_layers):
        layers.extend(transformer_zoo._block_layers(
            seq, d_model, n_heads, d_ff, kv_heads=kv_heads,
            gated_ffn=gated_ffn, tag=f"layer{i}"))
    return ModelWorkload.from_layers(name, layers, family=family)


@contextmanager
def flat_zoo():
    """Route every zoo builder (bert, gpt2, vit, …) through the oracle."""
    with mock.patch.object(transformer_zoo, "transformer_encoder",
                           flat_transformer_encoder):
        yield
