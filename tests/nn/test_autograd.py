"""Gradient checks: every Tensor op against central finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor, concat, stack, where

from ..conftest import finite_difference_gradient


def check_gradient(op, *shapes, arg_index=0, positive=False, tol=1e-5,
                   seed=0):
    """Compare autograd gradient of sum(op(xs)) with finite differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) if not positive else rng.uniform(0.5, 2.0, size=s)
              for s in shapes]

    def scalar_fn(x):
        inputs = [a.copy() for a in arrays]
        inputs[arg_index] = x
        with nn.no_grad():
            tensors = [Tensor(a) for a in inputs]
            return float(op(*tensors).sum().numpy())

    tensors = [Tensor(a, requires_grad=(i == arg_index))
               for i, a in enumerate(arrays)]
    out = op(*tensors).sum()
    out.backward()
    numeric = finite_difference_gradient(scalar_fn, arrays[arg_index].copy())
    analytic = tensors[arg_index].grad
    np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


class TestArithmeticGradients:
    def test_add(self):
        check_gradient(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        check_gradient(lambda a, b: a + b, (3, 4), (4,), arg_index=1)

    def test_add_scalar_broadcast(self):
        check_gradient(lambda a, b: a + b, (2, 3, 4), (1, 1, 4), arg_index=1)

    def test_sub(self):
        check_gradient(lambda a, b: a - b, (5,), (5,), arg_index=1)

    def test_mul(self):
        check_gradient(lambda a, b: a * b, (3, 4), (3, 4))

    def test_mul_broadcast(self):
        check_gradient(lambda a, b: a * b, (3, 1), (1, 4), arg_index=0)

    def test_div(self):
        check_gradient(lambda a, b: a / b, (3, 4), (3, 4), arg_index=0,
                       positive=True)

    def test_div_denominator(self):
        check_gradient(lambda a, b: a / b, (3, 4), (3, 4), arg_index=1,
                       positive=True)

    def test_neg(self):
        check_gradient(lambda a: -a, (4, 3))

    def test_pow(self):
        check_gradient(lambda a: a ** 3, (3, 3))

    def test_pow_fractional(self):
        check_gradient(lambda a: a ** 0.5, (6,), positive=True)


class TestMatmulGradients:
    def test_matmul_2d(self):
        check_gradient(lambda a, b: a @ b, (3, 4), (4, 5), arg_index=0)

    def test_matmul_2d_rhs(self):
        check_gradient(lambda a, b: a @ b, (3, 4), (4, 5), arg_index=1)

    def test_matmul_batched(self):
        check_gradient(lambda a, b: a @ b, (2, 3, 4), (2, 4, 5), arg_index=0)

    def test_matmul_batched_rhs(self):
        check_gradient(lambda a, b: a @ b, (2, 3, 4), (2, 4, 5), arg_index=1)

    def test_matmul_broadcast_rhs(self):
        check_gradient(lambda a, b: a @ b, (2, 3, 4), (4, 5), arg_index=1)

    def test_matmul_vector_rhs(self):
        check_gradient(lambda a, b: a @ b, (3, 4), (4,), arg_index=0)

    def test_matmul_vector_lhs(self):
        check_gradient(lambda a, b: a @ b, (4,), (4, 5), arg_index=0)


class TestElementwiseGradients:
    def test_exp(self):
        check_gradient(lambda a: a.exp(), (3, 4))

    def test_log(self):
        check_gradient(lambda a: a.log(), (3, 4), positive=True)

    def test_sqrt(self):
        check_gradient(lambda a: a.sqrt(), (3, 4), positive=True)

    def test_abs(self):
        # Away from zero, |x| is differentiable.
        check_gradient(lambda a: (a + 5.0).abs(), (3, 4), positive=True)

    def test_tanh(self):
        check_gradient(lambda a: a.tanh(), (3, 4))

    def test_sigmoid(self):
        check_gradient(lambda a: a.sigmoid(), (3, 4))

    def test_relu(self):
        check_gradient(lambda a: (a + 3.0).relu(), (3, 4), positive=True)

    def test_clip_interior(self):
        check_gradient(lambda a: a.clip(-10.0, 10.0), (3, 4))

    def test_maximum(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        b = a + rng.choice([-1.0, 1.0], size=(4, 4))  # no ties
        ta = Tensor(a, requires_grad=True)
        out = ta.maximum(Tensor(b)).sum()
        out.backward()
        np.testing.assert_allclose(ta.grad, (a > b).astype(float))


class TestReductionGradients:
    def test_sum_all(self):
        check_gradient(lambda a: a.sum(), (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda a: a.sum(axis=1), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda a: a.sum(axis=0, keepdims=True), (3, 4))

    def test_mean(self):
        check_gradient(lambda a: a.mean(), (3, 4))

    def test_mean_axis(self):
        check_gradient(lambda a: a.mean(axis=-1), (2, 3, 4))

    def test_max(self):
        rng = np.random.default_rng(11)
        x = rng.permutation(12).astype(float).reshape(3, 4)  # unique values
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        expected = (x == x.max(axis=1, keepdims=True)).astype(float)
        np.testing.assert_allclose(t.grad, expected)

    def test_min(self):
        rng = np.random.default_rng(12)
        x = rng.permutation(12).astype(float).reshape(3, 4)
        t = Tensor(x, requires_grad=True)
        t.min(axis=0).sum().backward()
        expected = (x == x.min(axis=0, keepdims=True)).astype(float)
        np.testing.assert_allclose(t.grad, expected)


class TestShapeGradients:
    def test_reshape(self):
        check_gradient(lambda a: (a.reshape(2, 6) ** 2), (3, 4))

    def test_transpose(self):
        check_gradient(lambda a: a.transpose() * 2.0, (3, 4))

    def test_transpose_axes(self):
        check_gradient(lambda a: a.transpose((2, 0, 1)) ** 2, (2, 3, 4))

    def test_swapaxes(self):
        check_gradient(lambda a: a.swapaxes(1, 2) ** 2, (2, 3, 4))

    def test_getitem_slice(self):
        check_gradient(lambda a: a[1:3] ** 2, (5, 4))

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])  # repeated index accumulates
        x = np.arange(12.0).reshape(4, 3)
        t = Tensor(x, requires_grad=True)
        t[idx].sum().backward()
        expected = np.zeros_like(x)
        np.testing.assert_allclose(t.grad[0], 1.0)
        np.testing.assert_allclose(t.grad[2], 2.0)
        np.testing.assert_allclose(t.grad[1], 0.0)

    def test_expand_squeeze(self):
        check_gradient(lambda a: a.expand_dims(1).squeeze(1) ** 2, (3, 4))

    def test_concat(self):
        check_gradient(lambda a, b: concat([a, b], axis=1) ** 2,
                       (3, 2), (3, 4), arg_index=1)

    def test_stack(self):
        check_gradient(lambda a, b: stack([a, b], axis=0) ** 2,
                       (3, 4), (3, 4), arg_index=0)

    def test_where(self):
        cond = np.array([[True, False], [False, True]])
        check_gradient(lambda a, b: where(cond, a, b), (2, 2), (2, 2),
                       arg_index=0)
        check_gradient(lambda a, b: where(cond, a, b), (2, 2), (2, 2),
                       arg_index=1)


class TestFunctionalGradients:
    def test_softmax(self):
        check_gradient(lambda a: nn.functional.softmax(a, axis=-1), (3, 5))

    def test_log_softmax(self):
        check_gradient(lambda a: nn.functional.log_softmax(a, axis=-1), (3, 5))

    def test_gelu(self):
        check_gradient(lambda a: nn.functional.gelu(a), (3, 4))

    def test_silu(self):
        check_gradient(lambda a: nn.functional.silu(a), (3, 4))

    def test_normalize(self):
        check_gradient(lambda a: nn.functional.normalize(a), (3, 4))

    def test_logsumexp(self):
        check_gradient(lambda a: nn.functional.logsumexp(a, axis=1), (3, 5))


class TestGraphMechanics:
    def test_grad_accumulation_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0  # x used twice
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2.0
        b = x.exp()
        out = (a * b).sum()
        out.backward()
        expected = 2.0 * np.exp(1.5) + 2.0 * 1.5 * np.exp(1.5)
        np.testing.assert_allclose(x.grad, [expected], rtol=1e-10)

    def test_backward_requires_grad_flag(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_detach_cuts_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3.0).detach() * x
        y.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_second_backward_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        (x * 3.0).backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_twice_on_one_graph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x.exp() * 2.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()
        # A consumed intermediate also refuses a new root built on it.
        y = x * 3.0
        y.sum().backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            (y * 2.0).sum().backward()

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_with_gradient_argument(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_integer_input_promoted(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float64
