"""AIRCHITECT v2 model: architecture shapes, head styles, prediction APIs."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import HEAD_STYLES, AirchitectV2, ModelConfig
from repro.experiments.harness import get_scale


def _tiny_config(**overrides):
    base = dict(d_model=16, n_layers=1, n_heads=2, embed_dim=8,
                head_hidden=16, num_buckets=8)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def inputs(problem, rng):
    return problem.sample_inputs(10, rng)


class TestArchitecture:
    def test_embedding_shape(self, problem, rng, inputs):
        model = AirchitectV2(_tiny_config(), problem, rng)
        z = model.embed(inputs)
        assert z.shape == (10, 8)

    def test_forward_returns_all_outputs(self, problem, rng, inputs):
        model = AirchitectV2(_tiny_config(), problem, rng)
        z, perf, (pe, l2) = model(inputs)
        assert z.shape == (10, 8)
        assert perf.shape == (10,)
        assert pe.shape == (10, 8) and l2.shape == (10, 8)

    def test_uov_heads_sized_by_buckets(self, problem, rng, inputs):
        model = AirchitectV2(_tiny_config(num_buckets=6), problem, rng)
        _, _, (pe, l2) = model(inputs)
        assert pe.shape[-1] == 6 and l2.shape[-1] == 6

    def test_classification_heads_sized_by_choices(self, problem, rng, inputs):
        model = AirchitectV2(_tiny_config(head_style="classification"),
                             problem, rng)
        _, _, (pe, l2) = model(inputs)
        assert pe.shape[-1] == 64 and l2.shape[-1] == 12

    def test_joint_head_covers_product_space(self, problem, rng, inputs):
        model = AirchitectV2(_tiny_config(head_style="joint"), problem, rng)
        _, _, (pe, l2) = model(inputs)
        assert pe.shape[-1] == 768 and l2 is None

    def test_regression_heads_scalar(self, problem, rng, inputs):
        model = AirchitectV2(_tiny_config(head_style="regression"),
                             problem, rng)
        _, _, (pe, l2) = model(inputs)
        assert pe.shape[-1] == 1 and l2.shape[-1] == 1

    def test_invalid_head_style(self):
        with pytest.raises(ValueError):
            ModelConfig(head_style="linear-probe")

    def test_uov_head_smaller_than_classification(self, problem, rng):
        uov = AirchitectV2(_tiny_config(num_buckets=16), problem, rng)
        cls = AirchitectV2(_tiny_config(head_style="classification"),
                           problem, rng)
        assert uov.head_parameter_count() < cls.head_parameter_count()


class TestPrediction:
    @pytest.mark.parametrize("style", ["uov", "classification", "joint",
                                       "regression"])
    def test_predict_indices_in_range(self, problem, rng, inputs, style):
        model = AirchitectV2(_tiny_config(head_style=style), problem, rng)
        pe, l2 = model.predict_indices(inputs)
        assert pe.shape == (10,) and l2.shape == (10,)
        assert (pe >= 0).all() and (pe < 64).all()
        assert (l2 >= 0).all() and (l2 < 12).all()

    def test_prediction_deterministic_in_eval(self, problem, rng, inputs):
        model = AirchitectV2(_tiny_config(), problem, rng)
        a = model.predict_indices(inputs)
        b = model.predict_indices(inputs)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_predict_batching_consistent(self, problem, rng):
        model = AirchitectV2(_tiny_config(), problem, rng)
        inputs = problem.sample_inputs(30, rng)
        full = model.predict_indices(inputs)
        chunked = np.concatenate([model.predict_indices(inputs[i:i + 7])[0]
                                  for i in range(0, 30, 7)])
        np.testing.assert_array_equal(full[0], chunked)


class TestTiledInference:
    """Inference runs in cache-sized tiles; a row's logits must not
    depend on which tile (or how many rows) it shares a forward with."""

    @pytest.mark.parametrize("style", HEAD_STYLES)
    @pytest.mark.parametrize("scale", ["tiny", "small", "full"])
    def test_tiled_logits_equal_one_row_forward(self, problem, scale, style):
        config = get_scale(scale).model_config(head_style=style)
        model = AirchitectV2(config, problem, np.random.default_rng(1))
        inputs = problem.sample_inputs(model.tile_rows + 7,
                                       np.random.default_rng(2))
        tiles = list(model.tile_logits(inputs))
        assert len(tiles) == 2
        singles = [next(model.tile_logits(row)) for row in inputs]
        for head in (1, 2):
            if tiles[0][head] is None:      # joint: one head covers both
                continue
            tiled = np.concatenate([t[head].numpy() for t in tiles])
            one_by_one = np.concatenate([s[head].numpy() for s in singles])
            np.testing.assert_array_equal(tiled, one_by_one)

    def test_predict_indices_skips_the_performance_head(self, problem, rng,
                                                        inputs, monkeypatch):
        model = AirchitectV2(_tiny_config(), problem, rng)

        def boom(*_):
            raise AssertionError("performance head ran")

        monkeypatch.setattr(model.perf_head, "forward", boom)
        pe, l2 = model.predict_indices(inputs)
        assert pe.shape == l2.shape == (10,)

    def test_predict_performance_tiles_like_one_pass(self, problem, rng):
        model = AirchitectV2(_tiny_config(), problem, rng)
        inputs = problem.sample_inputs(2 * model.tile_rows + 3, rng)
        tiled = model.predict_performance(inputs, denormalise=False)
        with nn.no_grad():
            one_pass = model.perf_head(model.embed(inputs)).numpy()
        np.testing.assert_array_equal(tiled, one_pass)

    def test_gradient_reaches_encoder_and_decoder(self, problem, rng, inputs):
        model = AirchitectV2(_tiny_config(), problem, rng)
        _, perf, (pe, l2) = model(inputs)
        ((pe ** 2).sum() + (l2 ** 2).sum() + (perf ** 2).sum()).backward()
        grads = [p.grad is not None for p in model.parameters()]
        assert np.mean(grads) > 0.9

    def test_state_dict_roundtrip_preserves_predictions(self, problem, rng,
                                                        inputs):
        m1 = AirchitectV2(_tiny_config(), problem, rng)
        m2 = AirchitectV2(_tiny_config(), problem, np.random.default_rng(4))
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_array_equal(m1.predict_indices(inputs)[0],
                                      m2.predict_indices(inputs)[0])
