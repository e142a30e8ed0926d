"""The workload registry: 105 training models + held-out evaluation models.

The paper's dataset is built from **105 real DNN workloads** and its
generalisation study (Fig. 7) evaluates on *unseen* models — representative
DNNs and LLMs [32]-[34].  This registry enumerates exactly 105 named
training workloads (CNN and transformer families at several input
resolutions / sequence lengths) and a disjoint evaluation set containing
ResNet-50, Llama2-7B, Llama3-8B and friends.

``training_workloads()`` / ``evaluation_workloads()`` build the actual
:class:`ModelWorkload` objects (lazily, each model once per call —
building all 105 takes ~30 ms on a 2-vCPU x86 host).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .cnn_zoo import (alexnet, cifar_resnet, densenet, lenet5, mobilenet_v1,
                      mobilenet_v2, resnet, squeezenet, vgg)  # noqa: F401
from .model import ModelWorkload
from .transformer_zoo import bert, gpt2, llama, t5_encoder, vit

__all__ = ["TRAINING_MODEL_COUNT", "training_registry", "evaluation_registry",
           "training_workloads", "evaluation_workloads", "build_workload",
           "all_training_layers"]

TRAINING_MODEL_COUNT = 105


def _training_factories() -> list[Callable[[], ModelWorkload]]:
    """The 105 training-model builders, in registry order (unbuilt)."""
    factories: list[Callable[[], ModelWorkload]] = []
    add = factories.append

    # --- CNNs ----------------------------------------------------------
    for depth in (11, 13, 16, 19):                         # 16 VGGs
        for size in (224, 192, 160, 128):
            add(lambda d=depth, s=size: vgg(d, s))
    for depth in (18, 34, 101, 152):                       # 16 ResNets
        for size in (224, 192, 160, 128):
            add(lambda d=depth, s=size: resnet(d, s))
    for size in (192, 160, 128):                           # 3 ResNet-50s
        add(lambda s=size: resnet(50, s))                  # (224 held out)
    for width in (0.25, 0.5, 0.75, 1.0):                   # 8 MobileNetV1
        for size in (224, 160):
            add(lambda w=width, s=size: mobilenet_v1(w, s))
    for width in (0.5, 0.75, 1.0, 1.4):                    # 8 MobileNetV2
        for size in (224, 160):
            add(lambda w=width, s=size: mobilenet_v2(w, s))
    for depth in (121, 169, 201):                          # 6 DenseNets
        for size in (224, 160):
            add(lambda d=depth, s=size: densenet(d, s))
    for size in (224, 160):                                # 2 SqueezeNets
        add(lambda s=size: squeezenet(s))
    add(lambda: alexnet(224))                              # 1
    add(lambda: lenet5(32))                                # 1
    for depth in (20, 32, 44, 56, 110):                    # 5 CIFAR ResNets
        add(lambda d=depth: cifar_resnet(d))
    for depth in (11, 13, 16, 19):                         # 4 small VGGs
        add(lambda d=depth: vgg(d, 96))

    # --- Transformers ---------------------------------------------------
    for size in ("base", "large"):                         # 8 BERTs
        for seq in (128, 256, 384, 512):
            add(lambda z=size, q=seq: bert(z, q))
    for size in ("small", "medium", "large", "xl"):        # 12 GPT-2s
        for seq in (256, 512, 1024):
            add(lambda z=size, q=seq: gpt2(z, q))
    for size in ("s16", "b16", "l16"):                     # 6 ViTs
        for res in (224, 192):
            add(lambda z=size, r=res: vit(z, r))
    for size in ("small", "base", "large"):                # 3 T5 encoders
        add(lambda z=size: t5_encoder(z, 512))
    for variant in ("llama2_13b", "llama2_70b"):           # 4 Llama-2
        for seq in (1024, 2048):                           # (7B held out)
            add(lambda v=variant, q=seq: llama(v, q))
    for seq in (1024, 2048):                               # 2 Llama-3 70B
        add(lambda q=seq: llama("llama3_70b", q))          # (8B held out)

    return factories


def _evaluation_specs() -> dict[str, Callable[[], ModelWorkload]]:
    """Held-out models for the Fig. 7 generalisation study."""
    factories = [
        lambda: resnet(50, 224),
        lambda: llama("llama2_7b", 2048),
        lambda: llama("llama3_8b", 2048),
        lambda: bert("base", 192),
        lambda: gpt2("xl", 2048),
        lambda: vit("h14", 224),
        # Unseen small/heterogeneous models: their layers exercise the
        # interior of the design space where methods actually disagree.
        lambda: mobilenet_v2(1.0, 192),
        lambda: vgg(16, 256),
    ]
    return {factory().name: factory for factory in factories}


def _training_models() -> tuple[list[Callable[[], ModelWorkload]],
                                list[ModelWorkload]]:
    """Build every training model once; validate names and count."""
    factories = _training_factories()
    models = [factory() for factory in factories]
    names = [model.name for model in models]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate workloads {duplicates}")
    if len(models) != TRAINING_MODEL_COUNT:
        raise AssertionError(
            f"training registry has {len(models)} models, expected "
            f"{TRAINING_MODEL_COUNT}")
    overlap = set(evaluation_registry()) & set(names)
    if overlap:
        raise AssertionError(f"evaluation models leak into training: {overlap}")
    return factories, models


@lru_cache(maxsize=1)
def training_registry() -> dict[str, Callable[[], ModelWorkload]]:
    """Name -> builder for the 105 training models (validated count)."""
    factories, models = _training_models()
    return {model.name: factory for factory, model in zip(factories, models)}


@lru_cache(maxsize=1)
def evaluation_registry() -> dict[str, Callable[[], ModelWorkload]]:
    return _evaluation_specs()


def build_workload(name: str) -> ModelWorkload:
    """Build a workload by name from either registry."""
    for registry in (training_registry(), evaluation_registry()):
        if name in registry:
            return registry[name]()
    raise KeyError(f"unknown workload {name!r}")


def training_workloads() -> list[ModelWorkload]:
    """Materialise all 105 training models (each built once)."""
    return _training_models()[1]


def evaluation_workloads() -> list[ModelWorkload]:
    """Materialise the held-out evaluation models."""
    return [factory() for factory in evaluation_registry().values()]


def all_training_layers():
    """Stacked (L, 3) array of unique (M, N, K) layers across all 105 models."""
    import numpy as np

    arrays = [model.layer_array() for model in training_workloads()]
    return np.concatenate(arrays, axis=0)
