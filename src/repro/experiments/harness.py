"""Experiment harness: scales, seeding, caching and table rendering.

Every table/figure runner takes an :class:`ExperimentScale`, which fixes
dataset size, training epochs and model width.  Three presets:

* ``tiny``  — seconds; used by the test suite to exercise every code path.
* ``small`` — minutes; the default for ``benchmarks/`` and the scale of
  the paper-fidelity record (ROADMAP open item 1).
* ``full``  — the paper-faithful 80K/20K split and long training; hours on
  CPU, provided for completeness.

A :class:`Workspace` caches generated datasets and trained models on disk
(keyed by scale + seed) so that the per-figure benchmarks share one
training run instead of re-training seven times.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..core import ModelConfig

__all__ = ["ExperimentScale", "SCALES", "get_scale", "Workspace", "render_table"]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for wall-clock time."""

    name: str
    train_samples: int
    test_samples: int
    stage1_epochs: int
    stage2_epochs: int
    baseline_epochs: int
    d_model: int
    embed_dim: int
    n_heads: int
    n_layers: int
    bo_iterations: int
    deployment_models: tuple[str, ...]
    seed: int = 0

    def model_config(self, **overrides) -> ModelConfig:
        """The AIRCHITECT v2 model configuration at this scale."""
        base = dict(d_model=self.d_model, embed_dim=self.embed_dim,
                    n_heads=self.n_heads, n_layers=self.n_layers)
        base.update(overrides)
        return ModelConfig(**base)

    def with_seed(self, seed: int) -> "ExperimentScale":
        return replace(self, seed=seed)


SCALES: dict[str, ExperimentScale] = {
    "tiny": ExperimentScale(
        name="tiny", train_samples=800, test_samples=200,
        stage1_epochs=3, stage2_epochs=3, baseline_epochs=3,
        d_model=16, embed_dim=8, n_heads=2, n_layers=1,
        bo_iterations=10,
        deployment_models=("resnet50_224", "bert_base_seq192")),
    "small": ExperimentScale(
        name="small", train_samples=8000, test_samples=2000,
        stage1_epochs=20, stage2_epochs=16, baseline_epochs=25,
        d_model=48, embed_dim=16, n_heads=4, n_layers=2,
        bo_iterations=48,
        deployment_models=("resnet50_224", "llama2_7b_seq2048",
                           "llama3_8b_seq2048", "bert_base_seq192",
                           "gpt2_xl_seq2048", "vit_h14_224",
                           "mobilenetv2_10_192", "vgg16_256")),
    "full": ExperimentScale(
        name="full", train_samples=80000, test_samples=20000,
        stage1_epochs=120, stage2_epochs=60, baseline_epochs=80,
        d_model=96, embed_dim=32, n_heads=8, n_layers=3,
        bo_iterations=200,
        deployment_models=("resnet50_224", "llama2_7b_seq2048",
                           "llama3_8b_seq2048", "bert_base_seq192",
                           "gpt2_xl_seq2048", "vit_h14_224",
                           "mobilenetv2_10_192", "vgg16_256")),
}


def get_scale(name_or_scale) -> ExperimentScale:
    """Resolve a scale by name, defaulting from $REPRO_SCALE, else 'small'."""
    if isinstance(name_or_scale, ExperimentScale):
        return name_or_scale
    if name_or_scale is None:
        name_or_scale = os.environ.get("REPRO_SCALE", "small")
    try:
        return SCALES[name_or_scale]
    except KeyError:
        raise KeyError(f"unknown scale {name_or_scale!r}; "
                       f"choose from {sorted(SCALES)}") from None


class Workspace:
    """Disk cache for datasets and trained models, keyed by scale + seed.

    The root defaults to ``$REPRO_CACHE`` or ``.repro_cache`` under the
    current directory.  Trained models persist through the workspace's
    :attr:`registry` (a :class:`~repro.registry.ModelRegistry` rooted at
    the cache directory), so every cached model is a self-describing
    artifact discoverable by ``repro serve --registry``.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root or os.environ.get("REPRO_CACHE", ".repro_cache"))
        self.root.mkdir(parents=True, exist_ok=True)
        self._registry = None

    @property
    def registry(self):
        """The workspace's model registry (created lazily)."""
        if self._registry is None:
            from ..registry import ModelRegistry
            self._registry = ModelRegistry(self.root)
        return self._registry

    def path(self, *parts: str) -> Path:
        p = self.root.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        return p

    def dataset_key(self, scale: ExperimentScale, split: str) -> Path:
        return self.path(f"{scale.name}_s{scale.seed}", f"dataset_{split}.npz")

    def model_key(self, scale: ExperimentScale, tag: str) -> Path:
        return self.path(f"{scale.name}_s{scale.seed}", f"model_{tag}.npz")

    def model_id(self, scale: ExperimentScale, tag: str) -> str:
        """The registry id for a cached model (same file as ``model_key``).

        Pre-registry workspaces keep working: the id resolves to the path
        the old ``save_module`` cache used, and the registry loads
        manifest-less archives bit-identically.
        """
        return f"{scale.name}_s{scale.seed}/model_{tag}"

    def checkpoint_key(self, scale: ExperimentScale, tag: str) -> Path:
        """Path *stem* for in-flight training checkpoints of a model.

        Trainers append a stage suffix and ``.npz``; the whole family is
        deleted once the final model is cached.
        """
        return self.path(f"{scale.name}_s{scale.seed}", f"ckpt_{tag}")

    def has(self, path: Path) -> bool:
        return path.exists()


def render_table(headers: list[str], rows: list[list],
                 title: str = "") -> str:
    """Plain-text table rendering for benchmark/README output."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([f"{v:.2f}" if isinstance(v, float) else str(v)
                      for v in row])
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    for r, row in enumerate(cells):
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if r == 0:
            lines.append(sep)
    return "\n".join(lines)
