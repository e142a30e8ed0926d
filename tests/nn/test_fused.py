"""The fused kernels' numeric contract vs the op-by-op reference path.

The reference is the test oracle in ``tests/nn/reference.py``: one
composed twin per kernel, swapped in by ``reference_path()``.  Every
fused kernel produces the exact same forward bits as the composed
chain it replaces.  Gradients match the chain's bit for bit too, except
where a backward pass reassociates sums: Linear's are 2-D GEMMs over the
collapsed leading dims, so they are held to ``rtol=1e-12``.  The hot
kernels' gradients are also checked against
central finite differences.  The end-to-end classes extend the contract
to whole training runs: the fast path and the reference path agree
within ``rtol=1e-12`` in loss histories and weights, and the same path
gives identical bits run to run.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn import fused

from ..conftest import finite_difference_gradient
from .reference import KERNELS, PATCHES, reference_path

RTOL = 1e-12


def _assert_close(actual, desired, err_msg="", scale=None):
    """``rtol=1e-12``, with entries that cancel to near zero judged at
    ``scale`` (default: the array's largest magnitude): a sum
    reassociated at one ulp per term moves such an entry by ~1e-15
    absolute, which is a large share of itself."""
    desired = np.asarray(desired)
    if scale is None:
        scale = np.abs(desired).max()
    np.testing.assert_allclose(actual, desired, rtol=RTOL,
                               atol=RTOL * scale, err_msg=err_msg)


def _pair(shape, seed, requires_grad=True):
    """The same leaf tensor twice (for reference/fused graph pairs)."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    return (nn.Tensor(data.copy(), requires_grad=requires_grad),
            nn.Tensor(data.copy(), requires_grad=requires_grad))


def _check(build, *leaf_pairs):
    """Run ``build`` on both paths and compare outputs and gradients."""
    ref_leaves = [p[0] for p in leaf_pairs]
    fused_leaves = [p[1] for p in leaf_pairs]
    with reference_path():
        ref_out = build(*ref_leaves)
        ref_out.backward(np.ones_like(ref_out.data))
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
        with reference_path():
            layer_r = nn.Linear(shape[-1], 7, np.random.default_rng(1))
            layer_r.weight.data[...] = w
            layer_r.bias.data[...] = b
            out_r = (layer_r(xr) * 2.0).sum()
            out_r.backward()
        layer_f = nn.Linear(shape[-1], 7, np.random.default_rng(1))
        layer_f.weight.data[...] = w
        layer_f.bias.data[...] = b
        out_f = (layer_f(xf) * 2.0).sum()
        out_f.backward()
        np.testing.assert_array_equal(out_f.data, out_r.data)
        _assert_close(xf.grad, xr.grad)
        _assert_close(layer_f.weight.grad, layer_r.weight.grad)
        _assert_close(layer_f.bias.grad, layer_r.bias.grad)

    @pytest.mark.parametrize("lead", [1, 3, 7, 200])
    @pytest.mark.parametrize("inner", [(), (4,), (2, 4)],
                             ids=["2d", "3d", "4d"])
    def test_linear_gradients_match_reference(self, lead, inner):
        """Forward bitwise equal to ``x @ W + b``; input, weight and bias
        gradients (2-D GEMMs over the collapsed leading dims) within
        ``rtol=1e-12`` of the composed op's."""
        rng = np.random.default_rng(lead)
        data = rng.normal(size=(lead, *inner, 16))
        w_data, b_data = rng.normal(size=(16, 48)), rng.normal(size=48)
        upstream = rng.normal(size=(lead, *inner, 48))
        leaves = {}
        for name, op in (("ref", KERNELS["linear"]),
                         ("fused", fused.linear)):
            x = nn.Tensor(data.copy(), requires_grad=True)
            w = nn.Tensor(w_data.copy(), requires_grad=True)
            b = nn.Tensor(b_data.copy(), requires_grad=True)
            out = op(x, w, b)
            out.backward(upstream)
            leaves[name] = (out, x, w, b)
        (out_r, *ref), (out_f, *fast) = leaves["ref"], leaves["fused"]
        np.testing.assert_array_equal(out_f.data, out_r.data)
        for leaf_f, leaf_r, name in zip(fast, ref, ("x", "weight", "bias")):
            _assert_close(leaf_f.grad, leaf_r.grad, err_msg=name)

    def test_linear_no_bias(self):
        xr, xf = _pair((5, 3), 3)
        with reference_path():
            lr = nn.Linear(3, 4, np.random.default_rng(1), bias=False)
            (lr(xr) * 3.0).sum().backward()
        lf = nn.Linear(3, 4, np.random.default_rng(1), bias=False)
        (lf(xf) * 3.0).sum().backward()
        _assert_close(xf.grad, xr.grad)
        _assert_close(lf.weight.grad, lr.weight.grad)

    def test_ndarray_input_yields_tensor(self):
        """Layers and losses take ndarrays through their kernels: the
        result is a Tensor, bitwise the Tensor input's, and autograd
        still reaches the parameters."""
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 4))
        layer = nn.Linear(4, 3, np.random.default_rng(0))
        out = layer(x)
        assert type(out) is nn.Tensor
        np.testing.assert_array_equal(out.data, layer(nn.Tensor(x)).data)
        out.sum().backward()
        assert layer.weight.grad is not None
        norm = nn.LayerNorm(4)
        np.testing.assert_array_equal(norm(x).data, norm(nn.Tensor(x)).data)
        target = rng.normal(size=(2, 4))
        for loss in (nn.mse_loss, nn.l1_loss,
                     nn.binary_cross_entropy_with_logits):
            value = loss(x, target)
            assert type(value) is nn.Tensor
            np.testing.assert_array_equal(
                value.data, loss(nn.Tensor(x), target).data)

    def test_linear_1d_input_matches_reference(self):
        rng = np.random.default_rng(24)
        w, b = rng.normal(size=(4, 3)), rng.normal(size=3)
        xr, xf = _pair((4,), 25)
        layers = []
        for x, scope in ((xr, reference_path()),
                         (xf, contextlib.nullcontext())):
            with scope:
                layer = nn.Linear(4, 3, np.random.default_rng(1))
                layer.weight.data[...] = w
                layer.bias.data[...] = b
                out = layer(x)
                (out * 2.0).sum().backward()
            layers.append((out, layer))
        (out_r, layer_r), (out_f, layer_f) = layers
        assert out_f.shape == (3,)
        np.testing.assert_array_equal(out_f.data, out_r.data)
        _assert_close(xf.grad, xr.grad)
        _assert_close(layer_f.weight.grad, layer_r.weight.grad)
        _assert_close(layer_f.bias.grad, layer_r.bias.grad)

    @pytest.mark.parametrize("shape", [(7, 9), (2, 5, 6)])
    def test_gelu(self, shape):
        _check(lambda x: (F.gelu(x) * 1.7).sum(), _pair(shape, 4))

    @pytest.mark.parametrize("shape", [(6, 8), (3, 4, 8)])
    def test_layer_norm(self, shape):
        xr, xf = _pair(shape, 5)
        with reference_path():
            ln_r = nn.LayerNorm(shape[-1])
            ((ln_r(xr)) * 1.3).sum().backward()
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

        def build(a, b):
            (fused.scaled_matmul(a, b, 0.25) + fused.matmul(a, b)) \
                .sum().backward()

        with reference_path():
            build(ar, br)
        build(af, bf)
        np.testing.assert_array_equal(af.grad, ar.grad)
        np.testing.assert_array_equal(bf.grad, br.grad)

    def test_split_merge_heads(self):
        xr, xf = _pair((3, 4, 8), 11)
        with reference_path():
            s = fused.split_heads(xr, 2, 4)
            (fused.merge_heads(s) * 1.5).sum().backward()
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
        """gamma != 1 runs the composed focal weights around the BCE
        kernel on both paths."""
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


class TestFiniteDifferences:
    """Each hot kernel's analytic gradient vs central differences of its
    float64 forward, for every differentiable input."""

    @staticmethod
    def _check(kernel, arrays, tol=1e-6):
        rng = np.random.default_rng(99)
        tensors = [nn.Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = kernel(*tensors)
        weights = rng.normal(size=out.shape)     # a generic upstream grad
        (out * weights).sum().backward()
        for i, tensor in enumerate(tensors):
            def loss(value, i=i):
                inputs = [nn.Tensor(a) for a in arrays]
                inputs[i] = nn.Tensor(value)
                return float((kernel(*inputs).data * weights).sum())
            numeric = finite_difference_gradient(loss, arrays[i].copy())
            np.testing.assert_allclose(tensor.grad, numeric, rtol=tol,
                                       atol=tol, err_msg=f"input {i}")

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4), (2, 2, 3, 4)],
                             ids=["2d", "3d", "4d"])
    def test_linear(self, shape):
        rng = np.random.default_rng(1)
        self._check(fused.linear, [rng.normal(size=shape),
                                   rng.normal(size=(4, 3)),
                                   rng.normal(size=3)])

    @pytest.mark.parametrize("shape", [(5, 6), (2, 3, 6)], ids=["2d", "3d"])
    def test_layer_norm(self, shape):
        rng = np.random.default_rng(2)
        self._check(lambda x, g, b: fused.layer_norm(x, g, b, 1e-5),
                    [rng.normal(size=shape), rng.normal(size=shape[-1]),
                     rng.normal(size=shape[-1])])

    @pytest.mark.parametrize("shape", [(5, 6), (2, 3, 6)], ids=["2d", "3d"])
    def test_gelu(self, shape):
        self._check(fused.gelu, [np.random.default_rng(3).normal(size=shape)])


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


def _tiny_fit(config=None, samples=96, epochs=2):
    """A stage-1 + stage-2 fit of a small model: (histories, weights)."""
    from repro.core import (AirchitectV2, ModelConfig, Stage1Config,
                            Stage1Trainer, Stage2Config, Stage2Trainer)
    from repro.dse import DSEProblem, generate_random_dataset

    problem = DSEProblem()
    data = generate_random_dataset(problem, samples, np.random.default_rng(3))
    config = config or ModelConfig(d_model=16, n_layers=1, n_heads=2,
                                   embed_dim=8, head_hidden=16,
                                   num_buckets=8)
    model = AirchitectV2(config, problem, np.random.default_rng(0))
    h1 = Stage1Trainer(model, Stage1Config(epochs=epochs)).train(data)
    h2 = Stage2Trainer(model, Stage2Config(epochs=epochs)).train(data)
    weights = {k: p.data.copy() for k, p in model.named_parameters()}
    return h1, h2, weights


class TestEndToEnd:
    """Whole-model fast-vs-reference agreement (the benchmark's
    contract, in miniature, inside tier-1) and same-path determinism."""

    @staticmethod
    def _histories(fast, config=None, samples=96, epochs=2):
        if fast:
            return _tiny_fit(config, samples, epochs)
        with reference_path():
            return _tiny_fit(config, samples, epochs)

    def test_two_stage_training_identical(self):
        """Fast and reference fits agree within ``rtol=1e-12``."""
        h1_ref, h2_ref, w_ref = self._histories(False)
        h1_fused, h2_fused, w_fused = self._histories(True)
        for fast, ref in ((h1_fused, h1_ref), (h2_fused, h2_ref)):
            assert fast.keys() == ref.keys()
            for key in ref:
                _assert_close(fast[key], ref[key], err_msg=key)
        # Weights are judged at the model's scale: the attention key
        # bias gets an exactly-zero true gradient (softmax ignores a
        # per-query shift), so on either path it trains on roundoff
        # and holds only ~1e-14 noise.
        scale = max(np.abs(value).max() for value in w_ref.values())
        assert w_fused.keys() == w_ref.keys()
        for key, value in w_ref.items():
            _assert_close(w_fused[key], value, err_msg=key, scale=scale)

    def test_same_path_is_bit_identical_run_to_run(self):
        """Two identical ``small``-width fits on the fast path (default
        BLAS threading) give identical history and weight bits."""
        from repro.experiments.harness import get_scale
        config = get_scale("small").model_config()
        first = self._histories(True, config, samples=512, epochs=1)
        second = self._histories(True, config, samples=512, epochs=1)
        assert first[0] == second[0]
        assert first[1] == second[1]
        for key, value in first[2].items():
            np.testing.assert_array_equal(second[2][key], value, err_msg=key)

    def test_stage2_with_dropout_stays_identical(self):
        """Active encoder dropout disables the embedding cache (a cached
        embedding would freeze one dropout mask); fast and reference must
        still agree."""
        from repro.core import (AirchitectV2, ModelConfig, Stage2Config,
                                Stage2Trainer)
        from repro.core.stage2 import _Stage2Task
        from repro.dse import DSEProblem, generate_random_dataset

        problem = DSEProblem()
        data = generate_random_dataset(problem, 64, np.random.default_rng(4))
        config = ModelConfig(d_model=16, n_layers=1, n_heads=2, embed_dim=8,
                             head_hidden=16, num_buckets=8, dropout=0.25)

        def fit():
            model = AirchitectV2(config, problem, np.random.default_rng(0))
            trainer = Stage2Trainer(model, Stage2Config(epochs=2))
            assert not _Stage2Task(trainer, data)._embed_cacheable
            return trainer.train(data)

        with reference_path():
            reference = fit()
        _assert_close(fit()["loss"], reference["loss"])


def _observed_fit(reference: bool) -> dict:
    """A tiny two-stage fit with every fast mechanism instrumented.

    Counts calls into the real ``repro.nn.fused`` kernels (wrapped
    before the oracle is swapped in, so the oracle's twins replace the
    wrappers), records each optimiser, each loader batch and, per
    stage-2 step, whether the embedding cache is in use.
    """
    from repro.core.stage2 import _Stage2Task
    from repro.nn.data import DataLoader
    from repro.nn.optim import Optimizer

    calls = {name: 0 for name in fused.__all__}
    optimizers, batches, cache_used = [], [], []

    def counting(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    real_init = Optimizer.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        optimizers.append(self)

    real_step = _Stage2Task.batch_step

    def recording_step(self, batch, step, rng):
        out = real_step(self, batch, step, rng)
        assert self._embed_cacheable
        cache_used.append(self._embed_cache is not None)
        return out

    with contextlib.ExitStack() as stack:
        for name in fused.__all__:
            stack.enter_context(mock.patch.object(
                fused, name, counting(name, getattr(fused, name))))
        stack.enter_context(
            mock.patch.object(Optimizer, "__init__", recording_init))
        stack.enter_context(
            mock.patch.object(_Stage2Task, "batch_step", recording_step))
        if reference:
            stack.enter_context(reference_path())
        real_iter = DataLoader.__iter__

        def recording_iter(loader):
            for batch in real_iter(loader):
                batches.append((batch, loader.dataset.arrays))
                yield batch

        stack.enter_context(
            mock.patch.object(DataLoader, "__iter__", recording_iter))
        _tiny_fit(samples=64, epochs=1)
    return {"calls": calls, "optimizers": optimizers, "batches": batches,
            "cache_used": cache_used}


class TestReferencePath:
    """``reference_path()`` replaces every fast mechanism and is an
    exception-safe, nestable scope."""

    @staticmethod
    def _current():
        return [owner.__dict__[attribute] for owner, attribute, _ in PATCHES]

    def test_oracle_is_complete(self):
        """Under the oracle a fit calls no real kernel, builds no arena,
        gets writable batch copies and never fills the embedding cache."""
        seen = _observed_fit(reference=True)
        assert seen["calls"] == {name: 0 for name in fused.__all__}
        assert len(seen["optimizers"]) >= 2
        assert all(opt._arena is None for opt in seen["optimizers"])
        assert seen["batches"]
        for batch, sources in seen["batches"]:
            for array in batch:
                assert array.flags.writeable
                assert not any(np.shares_memory(array, source)
                               for source in sources)
        assert seen["cache_used"] and not any(seen["cache_used"])

    def test_instrumentation_sees_the_fast_path(self):
        """The same instrumentation without the oracle sees every
        mechanism at work, so the zeros above are not vacuous."""
        seen = _observed_fit(reference=False)
        assert sum(seen["calls"].values()) > 0
        assert all(opt._arena is not None for opt in seen["optimizers"])
        assert all(not array.flags.writeable
                   for batch, _ in seen["batches"] for array in batch)
        assert seen["cache_used"] and all(seen["cache_used"])

    def test_restores_every_attribute_after_a_raise(self):
        originals = self._current()
        with pytest.raises(RuntimeError):
            with reference_path():
                assert all(fused.__dict__[name] is kernel
                           for name, kernel in KERNELS.items())
                raise RuntimeError("boom")
        assert all(now is was for now, was in zip(self._current(), originals))

    def test_nested_scopes_restore(self):
        originals = self._current()
        with reference_path():
            swapped = self._current()
            with reference_path():
                pass
            assert all(now is was
                       for now, was in zip(self._current(), swapped))
        assert all(now is was for now, was in zip(self._current(), originals))

    def test_every_kernel_has_a_twin(self):
        assert set(KERNELS) == set(fused.__all__)
