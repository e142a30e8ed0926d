"""A small reverse-mode automatic differentiation engine over numpy arrays.

This module provides the :class:`Tensor` class used by every neural-network
component in the reproduction.  It implements the subset of operations needed
by the AIRCHITECT v2 stack (transformer encoder/decoder, contrastive and
unification losses) with full broadcasting support, and is validated against
central finite differences in ``tests/nn/test_autograd.py``.

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` (a plain ``numpy.ndarray``)
  by :meth:`Tensor.backward`, which walks the recorded computation graph in
  reverse topological order.
* The DFS post-order used by ``backward`` is deterministic: it fixes the
  arrival order of gradient contributions into shared tensors, so a given
  execution path produces the same gradient bits run to run (the
  numeric contract is spelled out in :mod:`repro.nn.fused`).
* Broadcasting in binary operations is handled by summing the upstream
  gradient over the broadcast axes (:func:`_unbroadcast`).
* A module-level ``no_grad`` context manager disables graph recording for
  inference-time code paths.
* Optimisers may pin a preallocated gradient buffer onto a tensor
  (``_grad_buf``); accumulation then happens in place into that buffer, so
  flat-arena optimisers see every gradient land in one contiguous array
  without per-step allocations (see :class:`repro.nn.optim.Optimizer`).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor", "concat", "stack", "where"]


_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient graph construction."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED[-1]


def records(parents: Sequence["Tensor"]) -> bool:
    """Whether :meth:`Tensor._make` will record an op over ``parents``.

    True when the op joins the autograd graph.  Kernels use this to skip
    saving backward intermediates (and to work in place) when no backward
    can ever run.
    """
    return _GRAD_ENABLED[-1] and any(p.requires_grad for p in parents)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``.

    ``shape`` is the original operand shape; the returned array has exactly
    that shape so it can be accumulated into the operand's gradient.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(data, dtype=None) -> np.ndarray:
    if isinstance(data, Tensor):
        data = data.data
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype.kind in "iub":  # promote integers/bools to float for autograd
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  Integer inputs are promoted to
        float64 so that gradients are always well-defined.
    requires_grad:
        If True, operations involving this tensor are recorded so that
        :meth:`backward` can compute ``d(output)/d(this)``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_grad_buf", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_buf: np.ndarray | None = None
        self.name = name

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None] | None) -> "Tensor":
        """Create a result tensor, recording the graph edge if needed."""
        out = Tensor(data)
        if records(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            buf = self._grad_buf
            if buf is not None and buf.shape == grad.shape:
                # Flat-arena fast path: land the gradient in the optimiser's
                # preallocated view (same values as the astype copy below).
                np.copyto(buf, grad)
                self.grad = buf
            else:
                self.grad = grad.astype(self.data.dtype, copy=True)
        elif self.grad is self._grad_buf:
            # In-place accumulation is bit-identical to ``grad + grad`` and
            # keeps the arena view bound.
            np.add(self.grad, grad, out=self.grad)
        else:
            self.grad = self.grad + grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Accumulate a gradient the caller hands over outright.

        Same values as :meth:`_accumulate`, but the first arrival adopts
        ``grad`` without the defensive copy.  Only the fused kernels call
        this, for arrays they freshly allocated (never a view of a live
        array) and no longer touch — intermediate tensors receive ~40
        first-arrivals per training step, so eliding those copies is a
        measurable win.
        """
        if self.grad is None:
            buf = self._grad_buf
            if buf is not None and buf.shape == grad.shape:
                np.copyto(buf, grad)
                self.grad = buf
            else:
                self.grad = grad
        elif self.grad is self._grad_buf:
            np.add(self.grad, grad, out=self.grad)
        else:
            self.grad = self.grad + grad

    def backward(self, gradient: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        gradient:
            Upstream gradient.  Defaults to ones (scalar outputs typically
            call ``loss.backward()`` with no argument).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if gradient is None:
            gradient = np.ones_like(self.data)
        else:
            gradient = np.asarray(gradient, dtype=self.data.dtype)
            gradient = np.broadcast_to(gradient, self.data.shape).copy()

        # Reverse topological order over the graph reachable from self.
        # The post-order produced by this DFS (parents pushed in
        # declaration order, explored LIFO) fixes the arrival order of
        # gradient contributions into shared tensors; floating-point
        # addition is not associative, so this order is what makes a
        # backward pass reproducible to the bit.  Leaf tensors never
        # fire, so they are not collected.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            if node._backward is not None:
                stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(gradient)
        for node in reversed(topo):
            if node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(out_data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor ** only supports scalar exponents")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    # (..., n) @ (n,) -> (...,): grad_a = grad[..., None] * b
                    ga = np.expand_dims(grad, -1) * b
                else:
                    ga = grad @ np.swapaxes(b, -1, -2)
                if a.ndim == 1 and ga.ndim > 1:
                    ga = ga.sum(axis=tuple(range(ga.ndim - 1)))
                self._accumulate(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.multiply.outer(a, grad) if grad.ndim == 1 else a[:, None] * grad
                else:
                    g = grad if grad.ndim > 1 else np.expand_dims(grad, -1)
                    a_t = np.swapaxes(a, -1, -2)
                    gb = a_t @ g
                    if b.ndim == 1:
                        gb = gb.squeeze(-1)
                        gb = gb.sum(axis=tuple(range(gb.ndim - 1))) if gb.ndim > 1 else gb
                other._accumulate(_unbroadcast(gb, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other).__matmul__(self)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic function.
        out_data = np.where(self.data >= 0,
                            1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60))),
                            np.exp(np.clip(self.data, -60, 60))
                            / (1.0 + np.exp(np.clip(self.data, -60, 60))))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside the range."""
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def maximum(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = np.maximum(self.data, other.data)
        # Ties split the gradient evenly, matching the subgradient convention.
        self_mask = (self.data > other.data) + 0.5 * (self.data == other.data)
        other_mask = 1.0 - self_mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * self_mask, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * other_mask, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                out = np.expand_dims(out, axis=axis)
            mask = (self.data == out)
            # Split gradient across ties to keep the estimator unbiased.
            counts = mask.sum(axis=axis if axis is not None else None, keepdims=True)
            self._accumulate(np.broadcast_to(g, self.shape) * mask / counts)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(in_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        out_data = self.data.transpose(axes)
        if axes is None:
            inverse = None
        else:
            inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out_data = self.data.swapaxes(a, b)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.swapaxes(a, b))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(out_data, (self,), backward)

    def squeeze(self, axis: int) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.expand_dims(grad, axis=axis))

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no-op for existing tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor._accumulate(slab)

    return Tensor._make(out_data, tensors, backward)


def where(condition, a, b) -> Tensor:
    """Elementwise select: ``condition ? a : b``.

    ``condition`` is data-only (no gradient flows through it).
    """
    cond = np.asarray(condition.data if isinstance(condition, Tensor) else condition, dtype=bool)
    a = as_tensor(a)
    b = as_tensor(b)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (~cond), b.shape))

    return Tensor._make(out_data, (a, b), backward)
