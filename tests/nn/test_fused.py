"""Bit-identity of the fused kernels vs the op-by-op reference path.

Every fused kernel must produce the exact same forward bits AND the exact
same gradient bits (values and accumulation grouping) as the composed
chain it replaces — ``np.testing.assert_array_equal``, no tolerances.
The end-to-end classes extend the same contract to whole training runs:
fused on vs fused off must give identical loss histories and weights.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn import fused


def _pair(shape, seed, requires_grad=True):
    """The same leaf tensor twice (for reference/fused graph pairs)."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    return (nn.Tensor(data.copy(), requires_grad=requires_grad),
            nn.Tensor(data.copy(), requires_grad=requires_grad))


def _check(build, *leaf_pairs):
    """Run ``build`` under both modes and compare outputs and gradients."""
    ref_leaves = [p[0] for p in leaf_pairs]
    fused_leaves = [p[1] for p in leaf_pairs]
    with fused.fused_kernels(False):
        ref_out = build(*ref_leaves)
        ref_out.backward(np.ones_like(ref_out.data))
    with fused.fused_kernels(True):
        fused_out = build(*fused_leaves)
        fused_out.backward(np.ones_like(fused_out.data))
    np.testing.assert_array_equal(fused_out.data, ref_out.data)
    for ref_leaf, fused_leaf in zip(ref_leaves, fused_leaves):
        if ref_leaf.requires_grad:
            assert (ref_leaf.grad is None) == (fused_leaf.grad is None)
            if ref_leaf.grad is not None:
                np.testing.assert_array_equal(fused_leaf.grad, ref_leaf.grad)


class TestKernels:
    @pytest.mark.parametrize("shape", [(6, 5), (3, 4, 5)])
    def test_linear(self, shape):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(shape[-1], 7))
        b = rng.normal(size=7)
        xr, xf = _pair(shape, 2)
        with fused.fused_kernels(False):
            layer_r = nn.Linear(shape[-1], 7, np.random.default_rng(1))
            layer_r.weight.data[...] = w
            layer_r.bias.data[...] = b
            out_r = (layer_r(xr) * 2.0).sum()
            out_r.backward()
        with fused.fused_kernels(True):
            layer_f = nn.Linear(shape[-1], 7, np.random.default_rng(1))
            layer_f.weight.data[...] = w
            layer_f.bias.data[...] = b
            out_f = (layer_f(xf) * 2.0).sum()
            out_f.backward()
        np.testing.assert_array_equal(out_f.data, out_r.data)
        np.testing.assert_array_equal(xf.grad, xr.grad)
        np.testing.assert_array_equal(layer_f.weight.grad, layer_r.weight.grad)
        np.testing.assert_array_equal(layer_f.bias.grad, layer_r.bias.grad)

    def test_linear_no_bias(self):
        xr, xf = _pair((5, 3), 3)
        with fused.fused_kernels(False):
            lr = nn.Linear(3, 4, np.random.default_rng(1), bias=False)
            (lr(xr) * 3.0).sum().backward()
        with fused.fused_kernels(True):
            lf = nn.Linear(3, 4, np.random.default_rng(1), bias=False)
            (lf(xf) * 3.0).sum().backward()
        np.testing.assert_array_equal(xf.grad, xr.grad)
        np.testing.assert_array_equal(lf.weight.grad, lr.weight.grad)

    @pytest.mark.parametrize("shape", [(7, 9), (2, 5, 6)])
    def test_gelu(self, shape):
        _check(lambda x: (F.gelu(x) * 1.7).sum(), _pair(shape, 4))

    @pytest.mark.parametrize("shape", [(6, 8), (3, 4, 8)])
    def test_layer_norm(self, shape):
        xr, xf = _pair(shape, 5)
        with fused.fused_kernels(False):
            ln_r = nn.LayerNorm(shape[-1])
            ((ln_r(xr)) * 1.3).sum().backward()
        with fused.fused_kernels(True):
            ln_f = nn.LayerNorm(shape[-1])
            ((ln_f(xf)) * 1.3).sum().backward()
        np.testing.assert_array_equal(xf.grad, xr.grad)
        np.testing.assert_array_equal(ln_f.gamma.grad, ln_r.gamma.grad)
        np.testing.assert_array_equal(ln_f.beta.grad, ln_r.beta.grad)

    @pytest.mark.parametrize("shape", [(5, 9), (2, 3, 4, 6)])
    def test_softmax(self, shape):
        _check(lambda x: (F.softmax(x) * 0.7).sum(), _pair(shape, 6))

    @pytest.mark.parametrize("shape", [(5, 9), (4, 3, 7)])
    def test_log_softmax(self, shape):
        _check(lambda x: (F.log_softmax(x) * 0.9).sum(), _pair(shape, 7))

    def test_normalize(self):
        _check(lambda x: (F.normalize(x) * 1.1).sum(), _pair((6, 5), 8))

    def test_scaled_and_plain_matmul(self):
        ar, af = _pair((2, 3, 4, 5), 9)
        br, bf = _pair((2, 3, 5, 4), 10)

        def build_ref():
            with fused.fused_kernels(False):
                out = ((ar @ br) * 0.25 + (ar @ br)).sum()
                out.backward()

        def build_fused():
            with fused.fused_kernels(True):
                out = (fused.scaled_matmul(af, bf, 0.25)
                       + fused.matmul(af, bf)).sum()
                out.backward()

        build_ref()
        build_fused()
        np.testing.assert_array_equal(af.grad, ar.grad)
        np.testing.assert_array_equal(bf.grad, br.grad)

    def test_split_merge_heads(self):
        xr, xf = _pair((3, 4, 8), 11)
        with fused.fused_kernels(False):
            s = xr.reshape(3, 4, 2, 4).swapaxes(1, 2)
            (s.swapaxes(1, 2).reshape(3, 4, 8) * 1.5).sum().backward()
        with fused.fused_kernels(True):
            s = fused.split_heads(xf, 2, 4)
            (fused.merge_heads(s) * 1.5).sum().backward()
        np.testing.assert_array_equal(xf.grad, xr.grad)

    def test_bce_with_logits(self):
        targets = np.random.default_rng(12).random((6, 7))
        _check(lambda x: (nn.binary_cross_entropy_with_logits(x, targets)
                          * 0.6).sum(),
               _pair((6, 7), 13))

    def test_losses(self):
        rng = np.random.default_rng(14)
        target = rng.normal(size=(8, 3))
        _check(lambda x: nn.mse_loss(x, target), _pair((8, 3), 15))
        _check(lambda x: nn.l1_loss(x, target), _pair((8, 3), 16))
        classes = rng.integers(0, 5, size=8)
        _check(lambda x: nn.cross_entropy(x, classes), _pair((8, 5), 17))

    def test_unification_loss(self):
        rng = np.random.default_rng(18)
        q = np.zeros((9, 6))
        q[np.arange(9), rng.integers(0, 6, size=9)] = rng.random(9)
        loss = nn.UnificationLoss(alpha=0.75, gamma=1.0)
        _check(lambda x: loss(x, q), _pair((9, 6), 19))

    def test_unification_loss_gamma_falls_back(self):
        """gamma != 1 keeps the composed path under fused mode."""
        rng = np.random.default_rng(20)
        q = rng.random((4, 5))
        loss = nn.UnificationLoss(alpha=0.75, gamma=2.0)
        _check(lambda x: loss(x, q), _pair((4, 5), 21))

    def test_frozen_inputs_receive_no_grad(self):
        x = nn.Tensor(np.random.default_rng(22).normal(size=(4, 6)),
                      requires_grad=False)
        layer = nn.Linear(6, 3, np.random.default_rng(0))
        out = layer(x).sum()
        out.backward()
        assert x.grad is None
        assert layer.weight.grad is not None


class TestInferencePaths:
    """The 2-D GEMM linear and the in-place no-grad kernels keep the
    reference's bits; inference rows do not depend on their batch."""

    @pytest.mark.parametrize("lead", [1, 3, 7, 200])
    @pytest.mark.parametrize("inner", [(4,), (2, 4)], ids=["3d", "4d"])
    def test_linear_forward_matches_reference(self, lead, inner):
        rng = np.random.default_rng(lead)
        w = nn.Tensor(rng.normal(size=(16, 48)), requires_grad=True)
        b = nn.Tensor(rng.normal(size=48), requires_grad=True)
        x = nn.Tensor(rng.normal(size=(lead, *inner, 16)), requires_grad=True)
        reference = (x @ w + b).data
        np.testing.assert_array_equal(fused.linear(x, w, b).data, reference)
        with nn.no_grad():
            np.testing.assert_array_equal(fused.linear(x, w, b).data,
                                          reference)

    @pytest.mark.parametrize("width", [1, 12, 16, 768])
    def test_inference_linear_rows_independent_of_batch(self, width):
        rng = np.random.default_rng(width)
        w = nn.Tensor(rng.normal(size=(192, width)), requires_grad=True)
        x = rng.normal(size=(203, 192))
        with nn.no_grad():
            batched = fused.linear(nn.Tensor(x), w, None).data
            for rows in (1, 2, 3, 17, 170):
                parts = [fused.linear(nn.Tensor(x[i:i + rows]), w, None).data
                         for i in range(0, len(x), rows)]
                np.testing.assert_array_equal(np.concatenate(parts), batched)

    @pytest.mark.parametrize("shape", [(7, 9), (2, 5, 6), (170, 4, 192)])
    def test_no_grad_gelu_and_layer_norm_match_grad_mode(self, shape):
        rng = np.random.default_rng(11)
        x = nn.Tensor(rng.normal(size=shape), requires_grad=True)
        gamma = nn.Tensor(rng.normal(size=shape[-1]), requires_grad=True)
        beta = nn.Tensor(rng.normal(size=shape[-1]), requires_grad=True)
        gelu = fused.gelu(x)
        norm = fused.layer_norm(x, gamma, beta, 1e-5)
        assert gelu.requires_grad and norm.requires_grad
        with nn.no_grad():
            np.testing.assert_array_equal(fused.gelu(x).data, gelu.data)
            np.testing.assert_array_equal(
                fused.layer_norm(x, gamma, beta, 1e-5).data, norm.data)
        frozen = nn.Tensor(x.data)      # needs no grad: same in-place path
        np.testing.assert_array_equal(fused.gelu(frozen).data, gelu.data)


class TestEndToEnd:
    """Whole-model fused-vs-reference bit-identity (the benchmark's
    contract, in miniature, inside tier-1)."""

    def _histories(self, fused_mode):
        from repro.core import (AirchitectV2, ModelConfig, Stage1Config,
                                Stage1Trainer, Stage2Config, Stage2Trainer)
        from repro.dse import DSEProblem, generate_random_dataset

        problem = DSEProblem()
        data = generate_random_dataset(problem, 96,
                                       np.random.default_rng(3))
        config = ModelConfig(d_model=16, n_layers=1, n_heads=2, embed_dim=8,
                             head_hidden=16, num_buckets=8)
        with fused.fused_kernels(fused_mode):
            model = AirchitectV2(config, problem, np.random.default_rng(0))
            h1 = Stage1Trainer(model, Stage1Config(epochs=2)).train(data)
            h2 = Stage2Trainer(model, Stage2Config(epochs=2)).train(data)
            weights = {k: p.data.copy() for k, p in model.named_parameters()}
        return h1, h2, weights

    def test_two_stage_training_identical(self):
        h1_ref, h2_ref, w_ref = self._histories(False)
        h1_fused, h2_fused, w_fused = self._histories(True)
        assert h1_fused == h1_ref
        assert h2_fused == h2_ref
        for key, value in w_ref.items():
            np.testing.assert_array_equal(w_fused[key], value, err_msg=key)

    def test_stage2_with_dropout_stays_identical(self):
        """Active encoder dropout disables the embedding cache (a cached
        embedding would freeze one dropout mask); fused and reference must
        still match bit for bit."""
        from repro.core import (AirchitectV2, ModelConfig, Stage2Config,
                                Stage2Trainer)
        from repro.core.stage2 import _Stage2Task
        from repro.dse import DSEProblem, generate_random_dataset

        problem = DSEProblem()
        data = generate_random_dataset(problem, 64, np.random.default_rng(4))
        config = ModelConfig(d_model=16, n_layers=1, n_heads=2, embed_dim=8,
                             head_hidden=16, num_buckets=8, dropout=0.25)
        histories = {}
        for mode in (False, True):
            with fused.fused_kernels(mode):
                model = AirchitectV2(config, problem,
                                     np.random.default_rng(0))
                trainer = Stage2Trainer(model, Stage2Config(epochs=2))
                assert not _Stage2Task(trainer, data)._embed_cacheable
                histories[mode] = trainer.train(data)
        assert histories[True] == histories[False]
