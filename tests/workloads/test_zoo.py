"""Workload zoo: registry integrity, lowering maths, known model shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.maestro import GemmWorkload
from repro.workloads import (TRAINING_MODEL_COUNT, ModelWorkload, alexnet,
                             bert, build_workload, cifar_resnet, conv2d_gemm,
                             conv_out_size, densenet, evaluation_registry,
                             evaluation_workloads, gpt2, lenet5, linear_gemm,
                             llama, mobilenet_v1, mobilenet_v2, resnet,
                             squeezenet, t5_encoder, training_registry,
                             training_workloads, vgg, vit)


class TestLowering:
    def test_conv_out_size(self):
        assert conv_out_size(224, 7, 2, 3) == 112
        assert conv_out_size(224, 3, 1, 1) == 224
        assert conv_out_size(32, 5, 1, 0) == 28

    def test_conv_out_size_invalid(self):
        with pytest.raises(ValueError):
            conv_out_size(2, 7, 1, 0)

    def test_conv2d_gemm_dims(self):
        g = conv2d_gemm(out_ch=64, in_ch=3, kernel=7, out_h=112, out_w=112)
        assert (g.m, g.k, g.n) == (64, 3 * 49, 112 * 112)

    def test_linear_gemm_dims(self):
        g = linear_gemm(out_features=1000, in_features=2048, tokens=1)
        assert (g.m, g.k, g.n) == (1000, 2048, 1)


class TestModelWorkload:
    def test_merging_counts_identical_layers(self):
        layers = [GemmWorkload(8, 8, 8)] * 3 + [GemmWorkload(4, 4, 4)]
        model = ModelWorkload.from_layers("m", layers)
        assert model.num_unique_layers == 2
        assert model.num_layers == 4
        assert model.counts == (3, 1)

    def test_entry_counts_add_up_and_first_name_wins(self):
        layers = [GemmWorkload(8, 8, 8, "a"), GemmWorkload(4, 4, 4),
                  GemmWorkload(8, 8, 8, "b")]
        model = ModelWorkload.from_layers("m", layers, counts=[2, 1, 3])
        assert model.layers == (layers[0], layers[1])
        assert model.counts == (5, 1)
        with pytest.raises(ValueError):
            ModelWorkload.from_layers("m", layers, counts=[1, 1])

    def test_total_macs(self):
        layers = [GemmWorkload(2, 2, 2)] * 2
        model = ModelWorkload.from_layers("m", layers)
        assert model.total_macs == 16

    def test_layer_array_shape(self):
        model = resnet(18, 224)
        arr = model.layer_array()
        assert arr.shape == (model.num_unique_layers, 3)
        assert (arr > 0).all()

    def test_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            ModelWorkload("m", (GemmWorkload(1, 1, 1),), (1, 2))


class TestRegistry:
    def test_exactly_105_training_models(self):
        assert len(training_registry()) == TRAINING_MODEL_COUNT == 105

    def test_training_workloads_materialise(self):
        models = training_workloads()
        assert len(models) == 105
        assert all(m.num_layers > 0 for m in models)

    def test_no_duplicate_names(self):
        names = [m.name for m in training_workloads()]
        assert len(names) == len(set(names))

    def test_evaluation_set_disjoint(self):
        train_names = set(training_registry())
        eval_names = set(evaluation_registry())
        assert not (train_names & eval_names)

    def test_evaluation_contains_paper_models(self):
        names = set(evaluation_registry())
        assert "resnet50_224" in names
        assert any("llama2_7b" in n for n in names)
        assert any("llama3_8b" in n for n in names)

    def test_build_workload_by_name(self):
        model = build_workload("resnet50_224")
        assert model.name == "resnet50_224"

    def test_build_workload_unknown(self):
        with pytest.raises(KeyError):
            build_workload("resnet9000")

    def test_all_layer_dims_positive(self):
        for model in evaluation_workloads():
            arr = model.layer_array()
            assert (arr >= 1).all(), model.name

    def test_all_training_layers_builds_each_model_once(self, monkeypatch):
        from repro.workloads import all_training_layers, registry

        calls = []

        def counted_bert(*args):
            calls.append(args)
            return bert(*args)

        evaluation_registry()      # its one BERT is not a training build
        training_registry.cache_clear()
        monkeypatch.setattr(registry, "bert", counted_bert)
        try:
            all_training_layers()
        finally:
            training_registry.cache_clear()
        # 8 BERTs in the training set, one build each.
        assert len(calls) == 8
        assert len(set(calls)) == 8


class TestKnownShapes:
    """Spot checks against published architecture numbers."""

    def test_resnet50_macs_about_4_gmacs(self):
        macs = resnet(50, 224).total_macs
        assert 3.5e9 < macs < 4.7e9

    def test_resnet18_macs_about_1_8_gmacs(self):
        macs = resnet(18, 224).total_macs
        assert 1.4e9 < macs < 2.2e9

    def test_vgg16_macs_about_15_gmacs(self):
        macs = vgg(16, 224).total_macs
        assert 13e9 < macs < 17e9

    def test_mobilenetv1_much_lighter_than_vgg(self):
        assert mobilenet_v1(1.0, 224).total_macs * 10 < vgg(16, 224).total_macs

    def test_mobilenet_width_multiplier_scales(self):
        assert mobilenet_v1(0.5, 224).total_macs < \
            mobilenet_v1(1.0, 224).total_macs

    def test_vgg_depth_ordering(self):
        assert vgg(11, 224).total_macs < vgg(19, 224).total_macs

    def test_resnet_depth_ordering(self):
        assert resnet(18, 224).total_macs < resnet(34, 224).total_macs \
            < resnet(101, 224).total_macs

    def test_resolution_scaling(self):
        assert resnet(18, 128).total_macs < resnet(18, 224).total_macs

    def test_lenet_is_tiny(self):
        assert lenet5().total_macs < 1e7

    def test_bert_base_layer_count(self):
        model = bert("base", 128)
        # 12 layers x (QKV + scores/context per head + out + 2 FFN)
        assert model.num_layers == 12 * (3 + 12 + 12 + 1 + 2)

    def test_bert_projection_shape(self):
        model = bert("base", 128)
        qproj = [l for l in model.layers if l.m == 768 and l.k == 768]
        assert any(l.n == 128 for l in qproj)

    def test_gpt2_sizes_ordered(self):
        assert gpt2("small", 256).total_macs < gpt2("xl", 256).total_macs

    def test_llama2_7b_prefill_macs(self):
        """~ params(6.7e9) * tokens MACs for prefill."""
        model = llama("llama2_7b", 2048)
        expected = 6.6e9 * 2048
        assert 0.7 * expected < model.total_macs < 1.4 * expected

    def test_llama3_gqa_shrinks_kv(self):
        l3 = llama("llama3_8b", 1024)
        kv = [l for l in l3.layers if l.m == 1024 and l.k == 4096]
        assert kv, "GQA K/V projections (8 kv-heads x 128) must exist"

    def test_vit_token_count(self):
        model = vit("b16", 224)
        seq = (224 // 16) ** 2 + 1
        assert any(l.n == seq for l in model.layers)

    def test_cifar_resnet_depth_rule(self):
        with pytest.raises(ValueError):
            cifar_resnet(21)

    def test_densenet_and_squeezenet_build(self):
        assert densenet(121).total_macs > 0
        assert squeezenet().total_macs > 0
        assert t5_encoder("small").total_macs > 0
        assert alexnet().total_macs > 0
        assert mobilenet_v2(1.0).total_macs > 0
