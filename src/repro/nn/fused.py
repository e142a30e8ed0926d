"""Fused forward/backward kernels for the ``repro.nn`` training hot path.

Every kernel here collapses a chain of 4-10 autograd nodes — an op-by-op
composition of :class:`Tensor` primitives — into ONE graph node with a
hand-written backward.  These kernels are the only implementation of
their ops: layers, functionals and losses call them unconditionally.
The payoff is Python overhead, not FLOPs: each composed op allocates a
result ``Tensor``, a backward closure and graph bookkeeping, and the
training models are small enough that this per-op overhead dominates the
step time.

Numeric contract
----------------
Training runs on a three-part contract (asserted in
``tests/nn/test_fused.py`` and ``tests/nn/test_autograd.py``):

* **Same path, same bits.**  The fused path gives identical bits run to
  run: every kernel is a fixed sequence of numpy calls, and
  :meth:`Tensor.backward`'s DFS fixes the arrival order of gradient
  contributions into shared operands.
* **Kernels match the composed reference within ``rtol=1e-12``.**
  The reference is the op-by-op composition of :class:`Tensor`
  primitives each kernel replaces; it lives in the test suite
  (``tests/nn/reference.py``), which swaps it in for this module's
  attributes.  Forward outputs stay bitwise equal to the compositions.
  Backward passes may reassociate sums where that is much faster:
  :func:`linear` computes its weight, input and bias gradients as 2-D
  GEMMs and one reduction over the collapsed leading dims instead of a
  batched product summed over the batch.  The hot kernels' gradients
  (linear, layer norm, GELU) are also checked against central finite
  differences.
* **Accuracy parity.**  The reassociation moves gradients by about
  1e-15 relative; a trained model's accuracy and regret match the
  composed reference's.

Memory: each kernel's backward closure saves only the arrays it reads.
:meth:`Tensor.backward` drops a node's closure once it has fired, so
what a closure saves is freed then; anything saved but recomputable
from a smaller saved array (GELU's ``x * x`` and ``tanh + 1``) is
recomputed in backward by the same expression, so the bits match.

Callers look kernels up at call time (``fused.linear(...)``, never
``from .fused import linear``), so the test oracle and the benchmark's
tracing wrappers can replace them on this module.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _unbroadcast, records

__all__ = ["linear", "gelu", "layer_norm", "softmax", "log_softmax",
           "normalize", "matmul", "scaled_matmul", "bce_with_logits",
           "l1_mean", "mse_mean", "nll_mean", "unification_loss",
           "split_heads", "merge_heads"]


def _row_invariant_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-D ``a @ b`` whose rows do not depend on how many rows share it.

    OpenBLAS runs a one-row product as GEMV, and products narrower than
    8 columns (or with a ragged last 8-column block) through kernels
    whose summation order shifts with the row count; either way a row's
    result would change with its batch.  Padding to at least two rows
    and whole 8-column blocks keeps every call on the GEMM path, whose
    rows are computed independently.
    """
    m, n = a.shape[0], b.shape[1]
    if m == 1:
        a = np.concatenate((a, a))
    if n % 8:
        b = np.concatenate((b, np.zeros((b.shape[0], -n % 8))), axis=1)
    out = a @ b
    return out if out.shape == (m, n) else out[:m, :n]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """``x @ W + b`` as one node (composed: matmul + broadcast add).

    The forward is one 2-D GEMM over the collapsed leading dims (bitwise
    the batched product, which numpy would issue as one BLAS call per
    sample); so are the three gradients.  Ops that no backward can reach
    use the row-invariant product, so an inference row's output is the
    same alone or batched.
    """
    xd, wd = x.data, weight.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    rows = xd.reshape(-1, xd.shape[-1])
    out = rows @ wd if records(parents) else _row_invariant_matmul(rows, wd)
    out = out.reshape(xd.shape[:-1] + (wd.shape[-1],))
    if bias is not None:
        np.add(out, bias.data, out=out)

    def backward(grad: np.ndarray) -> None:
        # One 2-D GEMM per gradient over the collapsed leading dims: the
        # composed op's batched (B, d_in, d_out) weight product summed
        # over the batch is the same sum, reassociated, 4-8x slower.
        g2 = grad.reshape(-1, grad.shape[-1])
        if bias is not None and bias.requires_grad:
            bias._accumulate_owned(g2.sum(axis=0))
        if x.requires_grad:
            x._accumulate_owned((g2 @ wd.T).reshape(xd.shape))
        if weight.requires_grad:
            weight._accumulate_owned(rows.T @ g2)

    return Tensor._make(out, parents, backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU as one node (composed: 9 elementwise nodes).

    When no backward can run, the same expressions run in the same order
    in place in one owned buffer, so the bits match.
    """
    xd = x.data
    if not records((x,)):
        out = xd * xd
        np.multiply(out, xd, out=out)
        np.multiply(out, 0.044715, out=out)
        np.add(xd, out, out=out)
        np.multiply(out, _GELU_C, out=out)
        np.tanh(out, out=out)
        np.add(out, 1.0, out=out)
        np.multiply(xd, out, out=out)
        np.multiply(out, 0.5, out=out)
        return Tensor._make(out, (x,), None)
    # Backward keeps only ``t``; ``xd * xd`` and ``t + 1.0`` are
    # recomputed there by the same expressions, so the bits match.
    t = np.tanh((xd + ((xd * xd) * xd) * 0.044715) * _GELU_C)
    out = xd * (t + 1.0)
    np.multiply(out, 0.5, out=out)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gp = grad * 0.5
        x._accumulate_owned(gp * (t + 1.0))          # from x * (tanh + 1)
        gs = gp
        np.multiply(gs, xd, out=gs)                  # gp is dead: reuse
        np.multiply(gs, 1.0 - t ** 2, out=gs)
        np.multiply(gs, _GELU_C, out=gs)
        x._accumulate_owned(gs.copy())               # from x + 0.044715 x^3
        gx3 = gs
        np.multiply(gx3, 0.044715, out=gx3)
        x._accumulate_owned(gx3 * (xd * xd))         # from x^2 * x
        gq = gx3
        np.multiply(gq, xd, out=gq)
        np.multiply(gq, xd, out=gq)
        x._accumulate_owned(gq)                      # from x * x (both
        x._accumulate(gq)                            #  operand slots)

    return Tensor._make(out, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Last-axis layer norm as one node (composed: ~10 nodes).

    When no backward can run, the centred input is normalised, scaled
    and shifted in place: one owned buffer plus the squares' temporary.
    """
    xd, gd = x.data, gamma.data
    inv = 1.0 / xd.shape[-1]
    mean = xd.sum(axis=-1, keepdims=True) * inv
    if not records((x, gamma, beta)):
        out = xd - mean
        var = (out * out).sum(axis=-1, keepdims=True) * inv
        np.divide(out, np.sqrt(var + eps), out=out)
        np.multiply(out, gd, out=out)
        np.add(out, beta.data, out=out)
        return Tensor._make(out, (x, gamma, beta), None)
    centred = xd - mean
    var = (centred * centred).sum(axis=-1, keepdims=True) * inv
    sd = np.sqrt(var + eps)
    normed = centred / sd
    out = normed * gd
    np.add(out, beta.data, out=out)

    def backward(grad: np.ndarray) -> None:
        if beta.requires_grad:
            beta._accumulate_owned(_unbroadcast(grad, beta.data.shape))
        gn = grad * gd
        if gamma.requires_grad:
            gamma._accumulate_owned(_unbroadcast(grad * normed, gd.shape))
        gc = gn / sd
        gsd = _unbroadcast(-gn * centred / (sd ** 2), sd.shape)
        gsq = np.broadcast_to((gsd * 0.5 / sd) * inv, xd.shape)
        gc = gc + gsq * centred
        gc = gc + gsq * centred
        if x.requires_grad:
            x._accumulate_owned(gc)
            gsum1 = _unbroadcast(-gc, mean.shape) * inv
            x._accumulate(np.broadcast_to(gsum1, xd.shape))

    return Tensor._make(out, (x, gamma, beta), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax as one node (composed: shift/exp/sum/div)."""
    xd = x.data
    exps = np.exp(xd - xd.max(axis=axis, keepdims=True))
    s = exps.sum(axis=axis, keepdims=True)
    out = exps / s

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        ge = grad / s
        gs = _unbroadcast(-grad * exps / (s ** 2), s.shape)
        ge = ge + np.broadcast_to(gs, exps.shape)
        x._accumulate_owned(ge * exps)

    return Tensor._make(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted log-softmax as one node (composed: shift + logsumexp)."""
    xd = x.data
    shifted = xd - xd.max(axis=axis, keepdims=True)
    m2 = shifted.max(axis=axis, keepdims=True)
    e = np.exp(shifted - m2)
    se = e.sum(axis=axis, keepdims=True)
    lse = np.log(se) + m2
    out = shifted - lse

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gse = _unbroadcast(-grad, lse.shape) / se
        gt = np.broadcast_to(gse, e.shape) * e
        x._accumulate_owned(grad + gt)

    return Tensor._make(out, (x,), backward)


def normalize(x: Tensor, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """L2 normalisation as one node (composed: square/sum/sqrt/add/div)."""
    xd = x.data
    q = xd * xd
    norm = np.sqrt(q.sum(axis=axis, keepdims=True))
    den = norm + eps
    out = xd / den

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        x._accumulate_owned(grad / den)
        gden = _unbroadcast(-grad * xd / (den ** 2), den.shape)
        gq = np.broadcast_to((gden * 0.5 / norm), q.shape)
        gx = gq * xd
        x._accumulate(gx)
        x._accumulate(gx)

    return Tensor._make(out, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for ndim >= 2 operands as one node with owned-gradient
    handover (the composed ``__matmul__``'s expressions, minus the
    defensive first-arrival copies)."""
    ad, bd = a.data, b.data
    out = ad @ bd

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_owned(_unbroadcast(grad @ np.swapaxes(bd, -1, -2),
                                             ad.shape))
        if b.requires_grad:
            g = grad if grad.ndim > 1 else np.expand_dims(grad, -1)
            b._accumulate_owned(_unbroadcast(np.swapaxes(ad, -1, -2) @ g,
                                             bd.shape))

    return Tensor._make(out, (a, b), backward)


def scaled_matmul(a: Tensor, b: Tensor, scale: float) -> Tensor:
    """``(a @ b) * scale`` as one node (attention score kernel).

    Both operands must be ndim >= 2, as attention's are (the composed
    matmul's 1-D special cases are not replicated here).
    """
    ad, bd = a.data, b.data
    out = ad @ bd
    np.multiply(out, scale, out=out)

    def backward(grad: np.ndarray) -> None:
        gm = grad * scale
        if a.requires_grad:
            a._accumulate_owned(_unbroadcast(gm @ np.swapaxes(bd, -1, -2),
                                             ad.shape))
        if b.requires_grad:
            g = gm if gm.ndim > 1 else np.expand_dims(gm, -1)
            b._accumulate_owned(_unbroadcast(np.swapaxes(ad, -1, -2) @ g,
                                             bd.shape))

    return Tensor._make(out, (a, b), backward)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise stable BCE-from-logits as one node (composed: 9 nodes).

    Replays ``softplus(x) - x * q`` with softplus(x) =
    ``relu(x) + log(1 + exp(-|x|))``.  Gradient arrivals into ``logits``
    follow the composed DFS order: relu slot, abs slot, then the ``x * q``
    product slot.
    """
    xd = logits.data
    mask = xd > 0
    e = np.exp(-np.abs(xd))
    v = e + 1.0
    out = xd * mask + np.log(v) - xd * targets

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        logits._accumulate_owned(grad * mask)
        gax = -(grad / v * e)
        logits._accumulate(gax * np.sign(xd))
        logits._accumulate(-grad * targets)

    return Tensor._make(out, (logits,), backward)


def l1_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    """``|pred - target|.mean()`` as one node (composed: sub/abs/sum/mul)."""
    d = pred.data - target
    a = np.abs(d)
    n = a.size
    out = a.sum() * (1.0 / n)

    def backward(grad: np.ndarray) -> None:
        if not pred.requires_grad:
            return
        ga = np.broadcast_to(grad * (1.0 / n), a.shape)
        pred._accumulate_owned(_unbroadcast(ga * np.sign(d), pred.data.shape))

    return Tensor._make(out, (pred,), backward)


def mse_mean(pred: Tensor, target: np.ndarray) -> Tensor:
    """``((pred - target) ** 2).mean()`` as one node."""
    d = pred.data - target
    sq = d * d
    n = sq.size
    out = sq.sum() * (1.0 / n)

    def backward(grad: np.ndarray) -> None:
        if not pred.requires_grad:
            return
        gsq = np.broadcast_to(grad * (1.0 / n), sq.shape)
        gd = gsq * d
        gd = gd + gsq * d
        pred._accumulate_owned(_unbroadcast(gd, pred.data.shape))

    return Tensor._make(out, (pred,), backward)


def unification_loss(logits: Tensor, q: np.ndarray, alpha: float) -> Tensor:
    """The paper's Unification Loss (gamma == 1) as one node.

    Collapses the composed sigmoid + BCE + focal-weighting + ``where`` +
    reduction chain (~15 nodes per head).  The backward replays the
    composed DFS firing order: the ``where``/product slots, the ``q - u``
    and ``u * (1 - alpha)`` arrivals into the sigmoid output, the sigmoid
    slot, and finally the BCE chain's three arrivals into ``logits``.
    """
    xd = logits.data
    # Sigmoid, replaying the composed numerically-stable form.
    clipped = np.clip(xd, -60, 60)
    eneg = np.exp(-clipped)
    epos = np.exp(clipped)
    u = np.where(xd >= 0, 1.0 / (1.0 + eneg), epos / (1.0 + epos))
    # Elementwise BCE from logits (same expressions as bce_with_logits).
    mask = xd > 0
    e = np.exp(-np.abs(xd))
    v = e + 1.0
    bce = xd * mask + np.log(v) - xd * q
    d = q - u
    gap = np.abs(d)
    m1 = gap * alpha
    m3 = u * (1.0 - alpha)
    pos = q > 0
    w = np.where(pos, m1 * bce, m3 * bce)
    s1 = w.sum(axis=-1)
    n = s1.size
    out = s1.sum() * (1.0 / n)

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        gs1 = np.broadcast_to(grad * (1.0 / n), s1.shape)
        gw = np.broadcast_to(np.expand_dims(gs1, -1), w.shape)
        gm2 = _unbroadcast(gw * pos, w.shape)
        gm4 = _unbroadcast(gw * ~pos, w.shape)
        gbce = gm2 * m1
        gd = (gm2 * bce) * alpha * np.sign(d)
        gu = -gd
        gbce = gbce + gm4 * m3
        gu = gu + (gm4 * bce) * (1.0 - alpha)
        logits._accumulate_owned(gu * u * (1.0 - u))
        logits._accumulate(gbce * mask)
        gax = -(gbce / v * e)
        logits._accumulate(gax * np.sign(xd))
        logits._accumulate(-gbce * q)

    return Tensor._make(out, (logits,), backward)


def split_heads(x: Tensor, num_heads: int, head_dim: int) -> Tensor:
    """(batch, seq, dim) -> (batch, heads, seq, head_dim) as one node.

    Pure data movement (reshape + swapaxes), so bit-identity is automatic;
    fusing just drops one node and closure per projection.
    """
    b, s, dim = x.data.shape
    out = x.data.reshape(b, s, num_heads, head_dim).swapaxes(1, 2)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad.swapaxes(1, 2).reshape(b, s, dim))

    return Tensor._make(out, (x,), backward)


def merge_heads(x: Tensor) -> Tensor:
    """(batch, heads, seq, head_dim) -> (batch, seq, dim) as one node."""
    b, h, s, hd = x.data.shape
    out = x.data.swapaxes(1, 2).reshape(b, s, h * hd)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad.reshape(b, s, h, hd).swapaxes(1, 2))

    return Tensor._make(out, (x,), backward)


def nll_mean(log_probs: Tensor, onehot: np.ndarray) -> Tensor:
    """``-(log_probs * onehot).sum(-1).mean()`` as one node (CE tail)."""
    p = log_probs.data * onehot
    s1 = p.sum(axis=-1)
    n = s1.size
    out = -(s1.sum() * (1.0 / n))

    def backward(grad: np.ndarray) -> None:
        if not log_probs.requires_grad:
            return
        gs1 = np.broadcast_to((-grad) * (1.0 / n), s1.shape)
        gp = np.broadcast_to(np.expand_dims(gs1, -1), p.shape)
        log_probs._accumulate_owned(gp * onehot)

    return Tensor._make(out, (log_probs,), backward)
