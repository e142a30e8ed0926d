"""Optimisers and learning-rate schedules.

Adam is the workhorse for every trained model in the reproduction; SGD is
kept for baselines and tests.  Schedules are deliberately simple function
objects (callable epoch -> lr multiplier) attached via :class:`LRScheduler`.

Flat arenas
-----------
Every optimiser packs its parameters into one contiguous float64 buffer
(and registers a matching contiguous *gradient* buffer on each
parameter, which ``Tensor._accumulate`` fills in place).  ``step``,
``zero_grad`` and gradient clipping then run as a handful of whole-arena
vectorised ops instead of a Python loop over dozens of small arrays.  The
arena update applies the *same elementwise expressions* as the per-
parameter loop, so results are bit-identical; whenever the fast path's
preconditions fail (a parameter is frozen, received no gradient this
step, or had ``.data``/``.grad`` rebound externally), the optimiser falls
back to the per-parameter loop with the exact legacy semantics (skipped
moments for gradient-less parameters included).  The checkpoint format is
unchanged: ``state_dict`` still returns per-parameter arrays, and
snapshots written by the pre-arena optimisers load bit-identically.
The per-parameter loop is also the whole update when no arena can be
built (no parameters, non-float64 data, duplicates).
"""

from __future__ import annotations

import math

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "AdamW", "LRScheduler",
           "cosine_schedule", "step_schedule", "warmup_cosine_schedule",
           "clip_grad_norm"]


def _grad_norm(grads: list[np.ndarray]) -> float:
    """Global L2 norm, accumulated per-array (the numeric contract: one
    reduction per parameter, summed in parameter order)."""
    return math.sqrt(sum(float((g * g).sum()) for g in grads))


def clip_grad_norm(parameters: list[Parameter], max_norm: float) -> float:
    """Clip the global gradient L2 norm in place; returns the pre-clip norm."""
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = _grad_norm(grads)
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in parameters:
            if p.grad is None:
                continue
            if p.grad is p._grad_buf:
                # Arena view: scale in place so the flat buffer stays bound.
                np.multiply(p.grad, scale, out=p.grad)
            else:
                p.grad = p.grad * scale
    return total


class _FlatArena:
    """Contiguous parameter + gradient storage with per-parameter views.

    Parameter data is moved into one float64 buffer (``flat_params``) and
    each ``Parameter.data`` is rebound to a reshaped view of it; a second
    buffer (``flat_grads``) is registered as each parameter's
    ``_grad_buf`` so backward accumulation lands contiguously.  External
    code may rebind ``.data`` (e.g. a checkpoint load); :meth:`sync`
    detects that and re-packs the current values, so the arena is
    self-healing rather than a correctness hazard.
    """

    def __init__(self, parameters: list[Parameter]):
        self.parameters = parameters
        sizes = [p.data.size for p in parameters]
        self.size = int(sum(sizes))
        self.flat_params = np.empty(self.size, dtype=np.float64)
        self.flat_grads = np.zeros(self.size, dtype=np.float64)
        self.param_views: list[np.ndarray] = []
        self.grad_views: list[np.ndarray] = []
        offset = 0
        for p, n in zip(parameters, sizes):
            pv = self.flat_params[offset:offset + n].reshape(p.data.shape)
            pv[...] = p.data
            p.data = pv
            gv = self.flat_grads[offset:offset + n].reshape(p.data.shape)
            p._grad_buf = gv
            self.param_views.append(pv)
            self.grad_views.append(gv)
            offset += n

    @staticmethod
    def build(parameters: list[Parameter]) -> "_FlatArena | None":
        """An arena for ``parameters``, or None when ineligible.

        Requires at least one parameter, all-float64 data, and no
        duplicate parameters (views would overlap).
        """
        if not parameters:
            return None
        if any(p.data.dtype != np.float64 for p in parameters):
            return None
        if len({id(p) for p in parameters}) != len(parameters):
            return None
        return _FlatArena(parameters)

    def sync(self) -> None:
        """Re-adopt parameters whose ``.data``/``_grad_buf`` were rebound."""
        for p, pv, gv in zip(self.parameters, self.param_views,
                             self.grad_views):
            if p.data is not pv:
                pv[...] = p.data
                p.data = pv
            if p._grad_buf is not gv:
                p._grad_buf = gv

    def grads_ready(self) -> bool:
        """True when every parameter's gradient landed in its arena view
        this step (the whole-arena update is then exactly the per-parameter
        loop, elementwise)."""
        return all(p.requires_grad and p.grad is gv
                   for p, gv in zip(self.parameters, self.grad_views))

    def zeros(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """A zeroed flat buffer plus per-parameter views (moment storage)."""
        flat = np.zeros(self.size, dtype=np.float64)
        views = []
        offset = 0
        for p in self.parameters:
            n = p.data.size
            views.append(flat[offset:offset + n].reshape(p.data.shape))
            offset += n
        return flat, views


class Optimizer:
    """Base optimiser holding a parameter list and a learning rate."""

    def __init__(self, parameters: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        self.lr = lr
        self._arena = _FlatArena.build(self.parameters)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Arena-aware global-norm clipping over this optimiser's params.

        The norm itself is accumulated per parameter (same reductions, same
        order as :func:`clip_grad_norm`); only the rescale is collapsed to
        one whole-arena multiply when every gradient is resident.
        """
        arena = self._arena
        if arena is not None:
            arena.sync()
            if arena.grads_ready():
                total = _grad_norm(arena.grad_views)
                if total > max_norm and total > 0:
                    np.multiply(arena.flat_grads, max_norm / total,
                                out=arena.flat_grads)
                return total
        return clip_grad_norm(self.parameters, max_norm)

    def _arena_ready(self) -> bool:
        """Sync the arena and report whether the flat fast path applies."""
        arena = self._arena
        if arena is None:
            return False
        arena.sync()
        return arena.grads_ready()

    # ------------------------------------------------------------------
    # Persistence (the contract behind resumable training checkpoints:
    # array lists map onto ``self.parameters`` order, scalars are ints).
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Internal optimiser state (moments, step counts); empty by default."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict`."""
        if state:
            raise ValueError(f"{type(self).__name__} carries no state, "
                             f"got keys {sorted(state)}")

    def _check_arrays(self, arrays: list, what: str) -> list[np.ndarray]:
        if len(arrays) != len(self.parameters):
            raise ValueError(f"{what} count {len(arrays)} does not match "
                             f"{len(self.parameters)} parameters")
        out = []
        for arr, p in zip(arrays, self.parameters):
            arr = np.asarray(arr)
            if arr.shape != p.data.shape:
                raise ValueError(f"{what} shape {arr.shape} does not match "
                                 f"parameter shape {p.data.shape}")
            out.append(arr.astype(np.float64, copy=True))
        return out

    def _moment_slot(self) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """Flat + per-parameter moment storage (arena-backed when active)."""
        if self._arena is not None:
            return self._arena.zeros()
        return None, [np.zeros_like(p.data) for p in self.parameters]

    @staticmethod
    def _load_moments(views: list[np.ndarray],
                      arrays: list[np.ndarray]) -> list[np.ndarray]:
        """Write checkpointed moments into existing views (keeps any flat
        backing bound); returns the view list unchanged."""
        for view, arr in zip(views, arrays):
            np.copyto(view, arr)
        return views


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: list[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity_flat, self._velocity = self._moment_slot()

    def step(self) -> None:
        if self._arena_ready():
            arena = self._arena
            grad = arena.flat_grads
            if self.weight_decay:
                grad = grad + self.weight_decay * arena.flat_params
            if self.momentum:
                v = self._velocity_flat
                v *= self.momentum
                v += grad
                grad = v
            arena.flat_params -= self.lr * grad
            return
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None or not p.requires_grad:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            np.subtract(p.data, self.lr * grad, out=p.data)

    def state_dict(self) -> dict:
        return {"velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        self._velocity = self._load_moments(
            self._velocity, self._check_arrays(state["velocity"], "velocity"))


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(self, parameters: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m_flat, self._m = self._moment_slot()
        self._v_flat, self._v = self._moment_slot()
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        if self._arena_ready():
            arena = self._arena
            grad = arena.flat_grads
            if self.weight_decay:
                grad = grad + self.weight_decay * arena.flat_params
            m, v = self._m_flat, self._v_flat
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bc1
            v_hat = v / bc2
            arena.flat_params -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            return
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None or not p.requires_grad:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bc1
            v_hat = v / bc2
            np.subtract(p.data, self.lr * m_hat / (np.sqrt(v_hat) + self.eps),
                        out=p.data)

    def state_dict(self) -> dict:
        return {"step": self._t,
                "m": [m.copy() for m in self._m],
                "v": [v.copy() for v in self._v]}

    def load_state_dict(self, state: dict) -> None:
        self._t = int(state["step"])
        self._m = self._load_moments(
            self._m, self._check_arrays(state["m"], "first moment"))
        self._v = self._load_moments(
            self._v, self._check_arrays(state["v"], "second moment"))


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter 2019)."""

    def step(self) -> None:
        if self.weight_decay:
            decay_mult = 1.0 - self.lr * self.weight_decay
            if self._arena_ready():
                self._arena.flat_params *= decay_mult
            else:
                for p in self.parameters:
                    if p.requires_grad and p.grad is not None:
                        np.multiply(p.data, decay_mult, out=p.data)
        decay, self.weight_decay = self.weight_decay, 0.0
        try:
            super().step()
        finally:
            self.weight_decay = decay


class LRScheduler:
    """Multiplies the optimiser's base lr by ``schedule(epoch)`` each step."""

    def __init__(self, optimizer: Optimizer, schedule):
        self.optimizer = optimizer
        self.schedule = schedule
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> float:
        """Advance one epoch and return the new learning rate."""
        self.epoch += 1
        lr = self.base_lr * self.schedule(self.epoch)
        self.optimizer.lr = lr
        return lr


def cosine_schedule(total_epochs: int, min_mult: float = 0.01):
    """Cosine decay from 1.0 down to ``min_mult`` over ``total_epochs``."""

    def schedule(epoch: int) -> float:
        t = min(epoch, total_epochs) / max(total_epochs, 1)
        return min_mult + 0.5 * (1.0 - min_mult) * (1.0 + math.cos(math.pi * t))

    return schedule


def step_schedule(step_size: int, gamma: float = 0.1):
    """Multiply lr by ``gamma`` every ``step_size`` epochs."""

    def schedule(epoch: int) -> float:
        return gamma ** (epoch // step_size)

    return schedule


def warmup_cosine_schedule(warmup_epochs: int, total_epochs: int, min_mult: float = 0.01):
    """Linear warmup for ``warmup_epochs`` then cosine decay to ``min_mult``."""
    cosine = cosine_schedule(max(total_epochs - warmup_epochs, 1), min_mult)

    def schedule(epoch: int) -> float:
        if epoch <= warmup_epochs:
            return epoch / max(warmup_epochs, 1)
        return cosine(epoch - warmup_epochs)

    return schedule
