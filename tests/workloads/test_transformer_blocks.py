"""One block per transformer equals every block merged, bit for bit."""

from __future__ import annotations

import pytest

from repro.workloads import (all_training_layers, evaluation_registry,
                             training_registry)

from .flat_zoo import flat_zoo

_TRANSFORMER_FAMILIES = {"bert", "gpt2", "vit", "t5", "llama"}
_FACTORIES = {name: factory
              for name, factory in {**training_registry(),
                                    **evaluation_registry()}.items()
              if factory().family in _TRANSFORMER_FAMILIES}


def test_registries_cover_every_transformer_variant():
    models = [factory() for factory in _FACTORIES.values()]
    assert {m.family for m in models} == _TRANSFORMER_FAMILIES
    names = {m.name for m in models}
    # ViT's extra patch embed, Llama's GQA (70B, 3-8B) and gated FFN.
    assert any(m.layers[0].name == "patch_embed" for m in models
               if m.family == "vit")
    assert {"llama2_70b_seq2048", "llama3_8b_seq2048",
            "llama2_7b_seq2048"} <= names


@pytest.mark.parametrize("name", sorted(_FACTORIES))
def test_model_equals_flat_construction(name):
    factory = _FACTORIES[name]
    with flat_zoo():
        expected = factory()
    assert factory() == expected


def test_all_training_layers_bytes_equal_flat_construction():
    with flat_zoo():
        expected = all_training_layers().tobytes()
    assert all_training_layers().tobytes() == expected
