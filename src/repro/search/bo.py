"""Bayesian optimisation with a Gaussian-process surrogate.

Used three ways in the reproduction:

* raw design-space search (a search baseline);
* **VAESA + BO** [11]: BO over the VAE latent space (Fig. 7, Fig. 8a);
* **contrastive + BO**: BO over AIRCHITECT v2's stage-1 embedding space —
  the Fig. 8(a) study showing the contrastive space is smoother/more
  uniform and converges faster.

Standard machinery: RBF-kernel GP posterior (Cholesky solves via scipy)
and Expected Improvement acquisition maximised over a random candidate
pool — adequate for the low-dimensional (2-8 D) spaces involved.

BO is the package's only scipy user, so scipy is imported inside the
functions that call it and loads on the first GP fit: importing
:mod:`repro`, serving and the paper pipeline skip its ~1 s import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["BOConfig", "GaussianProcess", "expected_improvement",
           "bayesian_optimization", "BOResult"]


@dataclass(frozen=True)
class BOConfig:
    """BO budget and surrogate hyper-parameters."""

    init_points: int = 8
    iterations: int = 40
    candidate_pool: int = 256
    length_scale: float = 0.5
    signal_var: float = 1.0
    noise: float = 1e-6
    xi: float = 0.01          # EI exploration margin


@dataclass
class BOResult:
    """Best point found and the best-so-far trace."""

    x: np.ndarray
    cost: float
    history: list[float]
    evaluated_x: np.ndarray
    evaluated_y: np.ndarray


class GaussianProcess:
    """Zero-mean GP regression with an RBF kernel (targets z-scored)."""

    def __init__(self, length_scale: float = 0.5, signal_var: float = 1.0,
                 noise: float = 1e-6):
        self.length_scale = length_scale
        self.signal_var = signal_var
        self.noise = noise
        self._x: np.ndarray | None = None
        self._chol = None
        self._alpha: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return self.signal_var * np.exp(-0.5 * sq / self.length_scale ** 2)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        from scipy import linalg

        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std() + 1e-12)
        z = (y - self._y_mean) / self._y_std
        k = self._kernel(x, x) + self.noise * np.eye(len(x))
        self._chol = linalg.cho_factor(k, lower=True)
        self._alpha = linalg.cho_solve(self._chol, z)
        self._x = x
        return self

    def predict(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation (de-standardised)."""
        from scipy import linalg

        if self._x is None:
            raise RuntimeError("GP must be fit before predicting")
        xq = np.atleast_2d(np.asarray(xq, dtype=np.float64))
        ks = self._kernel(xq, self._x)
        mu = ks @ self._alpha
        v = linalg.cho_solve(self._chol, ks.T)
        var = np.maximum(self.signal_var - np.einsum("ij,ji->i", ks, v), 1e-12)
        return (mu * self._y_std + self._y_mean,
                np.sqrt(var) * self._y_std)


def expected_improvement(mu: np.ndarray, std: np.ndarray, best: float,
                         xi: float = 0.01) -> np.ndarray:
    """EI for *minimisation*: E[max(best - f - xi, 0)]."""
    from scipy.stats import norm

    gap = best - mu - xi
    z = gap / std
    return gap * norm.cdf(z) + std * norm.pdf(z)


def bayesian_optimization(func: Callable[[np.ndarray], float],
                          bounds: np.ndarray, rng: np.random.Generator,
                          config: BOConfig | None = None) -> BOResult:
    """Minimise ``func`` over the box ``bounds`` (shape (d, 2)).

    Returns the best point, cost and a best-so-far history with one entry
    per function evaluation (init points included) — the Fig. 8(a) x-axis.
    """
    cfg = config or BOConfig()
    bounds = np.asarray(bounds, dtype=np.float64)
    dim = len(bounds)
    span = bounds[:, 1] - bounds[:, 0]

    def sample(count: int) -> np.ndarray:
        return bounds[:, 0] + rng.random((count, dim)) * span

    xs = sample(cfg.init_points)
    ys = np.array([func(x) for x in xs])
    history: list[float] = list(np.minimum.accumulate(ys))

    gp = GaussianProcess(cfg.length_scale, cfg.signal_var, cfg.noise)
    for _ in range(cfg.iterations):
        # Log-scale the surrogate targets: latency costs are heavy-tailed.
        gp.fit(xs, np.log(np.maximum(ys, 1e-12)))
        candidates = sample(cfg.candidate_pool)
        mu, std = gp.predict(candidates)
        best_log = float(np.log(max(ys.min(), 1e-12)))
        ei = expected_improvement(mu, std, best_log, cfg.xi)
        x_next = candidates[int(np.argmax(ei))]
        y_next = func(x_next)
        xs = np.vstack([xs, x_next])
        ys = np.append(ys, y_next)
        history.append(float(ys.min()))

    best_idx = int(np.argmin(ys))
    return BOResult(x=xs[best_idx], cost=float(ys[best_idx]), history=history,
                    evaluated_x=xs, evaluated_y=ys)
