"""Loss functions, including the two losses specific to AIRCHITECT v2.

* :class:`InfoNCELoss` — the balanced InfoNCE variant of Eq. (1): for each
  anchor, positives are same-UOV-bucket samples in the batch and negatives
  are different-bucket samples; temperature tau = 0.4 in the paper.
* :class:`UnificationLoss` — Eq. (3)/(4): a generalized-focal-style weighted
  binary cross-entropy over predicted vs. ground-truth Unified Ordinal
  Vectors, with alpha = 0.75 and gamma = 1 empirically set by the paper.

Plus the standard losses used by baselines and the stage-1 performance
predictor (L1/MSE/cross-entropy/BCE).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import fused
from .module import Module
from .tensor import Tensor, as_tensor, where

__all__ = [
    "mse_loss",
    "l1_loss",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "InfoNCELoss",
    "UnificationLoss",
]


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error."""
    return fused.mse_mean(as_tensor(pred), as_tensor(target).data)


def l1_loss(pred: Tensor, target) -> Tensor:
    """Mean absolute error — the paper's performance-prediction loss L_perf."""
    return fused.l1_mean(as_tensor(pred), as_tensor(target).data)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean categorical cross-entropy from logits and integer class indices."""
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = F.log_softmax(logits, axis=-1)
    onehot = F.one_hot(targets, logits.shape[-1])
    return fused.nll_mean(log_probs, onehot)


def binary_cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Elementwise stable BCE from logits: softplus(x) - x * q.

    Returns the *elementwise* loss tensor (caller reduces), because the
    unification loss needs per-element weighting before reduction.
    """
    return fused.bce_with_logits(as_tensor(logits), as_tensor(targets).data)


class InfoNCELoss(Module):
    """Balanced InfoNCE contrastive loss over a batch of embeddings (Eq. 1).

    For an anchor ``p`` with embedding ``lambda_p``::

        L_C = -log(  sum_{p+} exp(l_p . l_p+ / tau)
                   / (sum_{p+} exp(l_p . l_p+ / tau) + sum_{p-} exp(l_p . l_p- / tau)) )

    Positives share the anchor's class label (same UOV bucket pair in
    stage-1 training); negatives do not.  Anchors with no positive in the
    batch contribute nothing.  Embeddings are L2-normalised internally so
    the dot product is a cosine similarity.
    """

    def __init__(self, temperature: float = 0.4):
        super().__init__()
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature

    def forward(self, embeddings: Tensor, labels: np.ndarray) -> Tensor:
        labels = np.asarray(labels)
        n = embeddings.shape[0]
        if labels.shape[0] != n:
            raise ValueError("labels must have one entry per embedding")

        z = F.normalize(embeddings, axis=-1)
        sim = (z @ z.transpose()) * (1.0 / self.temperature)

        # Stability shift: the positive/total ratio is invariant to a
        # per-row constant, so subtract the detached row max.
        sim = sim - sim.max(axis=-1, keepdims=True).detach()
        exp_sim = sim.exp()

        eye = np.eye(n, dtype=bool)
        same = labels[:, None] == labels[None, :]
        pos_mask = (same & ~eye).astype(np.float64)
        all_mask = (~eye).astype(np.float64)

        pos_sum = (exp_sim * Tensor(pos_mask)).sum(axis=-1)
        all_sum = (exp_sim * Tensor(all_mask)).sum(axis=-1)

        has_pos = pos_mask.sum(axis=-1) > 0
        if not has_pos.any():
            # Degenerate batch (every sample its own class): zero loss that
            # still participates in the graph.
            return (embeddings * 0.0).sum()

        ratio = (pos_sum / (all_sum + 1e-12)).clip(1e-12, 1.0)
        per_anchor = -(ratio.log())
        weights = has_pos.astype(np.float64) / has_pos.sum()
        return (per_anchor * Tensor(weights)).sum()


class UnificationLoss(Module):
    """The paper's Unification Loss (Eq. 3) for UOV heads.

    Given predicted UOV logits ``x`` (u = sigmoid(x)) and ground-truth UOV
    ``q`` in [0, 1]::

        L_o = sum_i  alpha * |q_i - u_i|^gamma * BCE(u_i, q_i)   if q_i > 0
                     (1 - alpha) * u_i^gamma    * BCE(u_i, q_i)   otherwise

    The |q - u|^gamma factor focusses training on buckets whose prediction is
    far from the ground truth, and the u^gamma factor on confidently-wrong
    zero buckets — penalising predictions far from the true bucket more
    heavily, exactly as described in §III-D.
    """

    def __init__(self, alpha: float = 0.75, gamma: float = 1.0):
        super().__init__()
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self.gamma = gamma

    def forward(self, logits: Tensor, target_uov) -> Tensor:
        logits = as_tensor(logits)
        q = as_tensor(target_uov).detach()
        if self.gamma == 1.0:
            return fused.unification_loss(logits, q.data, self.alpha)
        u = logits.sigmoid()
        bce = binary_cross_entropy_with_logits(logits, q)
        pos_weight = (q - u).abs() ** self.gamma
        neg_weight = u ** self.gamma
        positive = q.data > 0
        weighted = where(positive,
                         pos_weight * self.alpha * bce,
                         neg_weight * (1.0 - self.alpha) * bce)
        # Sum over the K buckets, mean over batch/heads.
        per_sample = weighted.sum(axis=-1)
        return per_sample.mean()
