"""ModelWorkload: a named DNN as a weighted list of GEMM layers.

Identical layers (e.g. the 32 transformer blocks of Llama2-7B) are stored
once with a repetition count; model-level latency aggregation multiplies by
the count, which keeps deployment evaluation (Fig. 7) cheap without losing
the true layer distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..maestro import GemmWorkload

__all__ = ["ModelWorkload"]


@dataclass(frozen=True)
class ModelWorkload:
    """A DNN/LLM workload: name + GEMM layers with multiplicities."""

    name: str
    layers: tuple[GemmWorkload, ...]
    counts: tuple[int, ...]
    family: str = ""

    def __post_init__(self):
        if len(self.layers) != len(self.counts):
            raise ValueError("layers and counts must align")
        if any(c < 1 for c in self.counts):
            raise ValueError("layer counts must be >= 1")

    @classmethod
    def from_layers(cls, name: str, layers: list[GemmWorkload],
                    family: str = "",
                    counts: list[int] | None = None) -> "ModelWorkload":
        """Build from a layer list, merging identical shapes.

        ``counts`` (default: 1 each) gives every entry's multiplicity, so
        a block repeated ``n`` times can be passed once with count ``n``.
        A merged shape keeps its first entry's layer (and name).
        """
        if counts is None:
            counts = [1] * len(layers)
        merged: dict[tuple[int, int, int], tuple[GemmWorkload, int]] = {}
        order: list[tuple[int, int, int]] = []
        for layer, times in zip(layers, counts, strict=True):
            key = (layer.m, layer.n, layer.k)
            if key in merged:
                existing, count = merged[key]
                merged[key] = (existing, count + times)
            else:
                merged[key] = (layer, times)
                order.append(key)
        kept = [merged[key] for key in order]
        return cls(name=name,
                   layers=tuple(layer for layer, _ in kept),
                   counts=tuple(count for _, count in kept),
                   family=family)

    # ------------------------------------------------------------------
    @property
    def num_unique_layers(self) -> int:
        return len(self.layers)

    @property
    def num_layers(self) -> int:
        return int(sum(self.counts))

    @property
    def total_macs(self) -> int:
        return int(sum(layer.macs * count
                       for layer, count in zip(self.layers, self.counts)))

    def layer_array(self) -> np.ndarray:
        """Unique layers as an (L, 3) int array of (M, N, K)."""
        return np.array([[l.m, l.n, l.k] for l in self.layers], dtype=np.int64)

    def count_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64)

    def __str__(self) -> str:
        return (f"ModelWorkload({self.name}: {self.num_layers} layers, "
                f"{self.num_unique_layers} unique, "
                f"{self.total_macs / 1e9:.2f} GMACs)")
