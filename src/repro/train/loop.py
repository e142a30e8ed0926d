"""The unified training runtime shared by every trainer in the repo.

Before this package the reproduction carried five hand-rolled copies of
the same epoch/batch loop (stage-1, stage-2, AIRCHITECT v1, GANDSE and
VAESA).  :class:`TrainLoop` is the single runtime they all run on now:

* epoch/batch driving over a task-supplied :class:`~repro.nn.DataLoader`,
* Adam optimisers (one per :class:`OptimSpec`; GANDSE's alternating
  generator/discriminator steps use two) with optional per-spec cosine
  schedules and gradient clipping,
* per-epoch loss-history accounting and verbose reporting,
* a callback system (:mod:`repro.train.callbacks`) for checkpoint/resume,
  early stopping and throughput statistics.

A :class:`TrainTask` describes *what* one trainer does per batch; the loop
owns *when*.  Porting was done seed-for-seed: every task consumes its
``numpy`` generator in exactly the order the original loop did, so loss
histories are bit-identical to the pre-refactor code (asserted by
``tests/train/test_parity.py``).
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import nn

__all__ = ["OptimSpec", "StepContext", "TrainTask", "TrainLoop"]


@dataclass
class OptimSpec:
    """One optimiser slot of a task: parameters, lr, schedule, clipping.

    ``schedule`` is an epoch -> lr-multiplier callable (e.g.
    :func:`repro.nn.cosine_schedule`); ``None`` keeps the lr constant.
    """

    params: list[nn.Parameter]
    lr: float
    schedule: Callable[[int], float] | None = None
    grad_clip: float | None = None


class StepContext:
    """Handed to :meth:`TrainTask.batch_step`; applies optimiser updates.

    When the loop carries a :class:`~repro.obs.PhaseProfiler`
    (``profiler`` is set), :meth:`apply` additionally times the backward
    pass and the optimiser update into it — this is where the
    forward/backward boundary is visible, so the loop can attribute the
    rest of ``batch_step`` to the forward phase by subtraction.
    """

    def __init__(self, optimizers: dict[str, nn.Optimizer],
                 specs: dict[str, OptimSpec]):
        self._optimizers = optimizers
        self._specs = specs
        self.profiler = None

    def apply(self, loss, name: str = "main"):
        """zero_grad -> backward -> clip -> step on the named optimiser.

        Clipping goes through the optimiser's arena-aware method: same
        per-parameter norm reductions as :func:`repro.nn.clip_grad_norm`
        (the optimiser holds ``spec.params`` in the same order), but the
        rescale collapses to one whole-arena multiply on the fast path.
        """
        opt = self._optimizers[name]
        spec = self._specs[name]
        profiler = self.profiler
        if profiler is None:
            opt.zero_grad()
            loss.backward()
            if spec.grad_clip is not None:
                opt.clip_grad_norm(spec.grad_clip)
            opt.step()
            return loss
        tic = time.perf_counter()
        opt.zero_grad()
        zero_s = time.perf_counter() - tic
        tic = time.perf_counter()
        loss.backward()
        profiler.record("backward", time.perf_counter() - tic)
        tic = time.perf_counter()
        if spec.grad_clip is not None:
            opt.clip_grad_norm(spec.grad_clip)
        opt.step()
        profiler.record("optimizer", zero_s + time.perf_counter() - tic)
        return loss


class TrainTask:
    """What one trainer does per batch; subclasses fill in the specifics.

    Required attributes: ``model`` (the :class:`~repro.nn.Module` being
    fitted), ``epochs`` and ``seed``.  ``history_keys`` names the per-epoch
    metrics ``batch_step`` returns; the loop averages them over batches.
    """

    name: str = "train"
    history_keys: tuple[str, ...] = ("loss",)
    model: nn.Module
    epochs: int
    seed: int

    def loader(self, rng: np.random.Generator) -> nn.DataLoader:
        """Build the mini-batch iterator (``rng`` drives shuffling)."""
        raise NotImplementedError

    def optim_specs(self) -> dict[str, OptimSpec]:
        """Named optimiser slots ('main' for single-optimiser tasks)."""
        raise NotImplementedError

    def batch_step(self, batch: tuple, step: StepContext,
                   rng: np.random.Generator) -> dict[str, float]:
        """Forward/backward one batch; returns a value per history key."""
        raise NotImplementedError

    def on_fit_begin(self) -> None:
        """After ``model.train()``, before data/optimisers (e.g. freezing)."""

    def on_fit_end(self) -> None:
        """Before ``model.eval()`` (e.g. unfreezing)."""

    def epoch_message(self, history: dict[str, list[float]]) -> str:
        """The verbose per-epoch report suffix."""
        key = self.history_keys[0]
        return f"{key}={history[key][-1]:.4f}"

    def extra_state(self) -> dict:
        """JSON-serialisable task state to carry through checkpoints."""
        return {}

    def load_extra_state(self, state: dict) -> None:
        """Restore :meth:`extra_state` on resume."""


class TrainLoop:
    """Drives a :class:`TrainTask` to completion (optionally resumable).

    ``fit`` returns the per-epoch history dict, exactly as the five
    pre-refactor loops did.  With ``checkpoint_path`` set, a resumable
    snapshot (model + optimiser moments + rng state + history) is written
    every ``checkpoint_every`` epochs and — when ``resume`` is true and the
    file exists — training continues from it instead of restarting,
    bit-identically to an uninterrupted run.
    """

    def __init__(self, task: TrainTask, callbacks: Sequence = ()):
        self.task = task
        self.callbacks = list(callbacks)
        self.rng: np.random.Generator | None = None
        self.optimizers: dict[str, nn.Optimizer] = {}
        self.schedulers: dict[str, nn.LRScheduler] = {}
        self.history: dict[str, list[float]] = {}
        self.epoch = -1
        self.start_epoch = 0
        self.should_stop = False
        self.active_callbacks: list = []
        self.last_epoch_seconds = 0.0
        self.last_epoch_samples = 0
        # Optional per-phase wall-time profiler; None keeps the loop on
        # its original un-instrumented path (zero added work per batch).
        self.profiler = None

    @property
    def model(self) -> nn.Module:
        return self.task.model

    def fit(self, verbose: bool = False, checkpoint_path=None,
            checkpoint_every: int = 1, resume: bool = True) -> dict:
        from .callbacks import Checkpointer
        from .checkpoint import (CheckpointCorruptError, checkpoint_exists,
                                 load_checkpoint, previous_checkpoint_path)

        task = self.task
        callbacks = list(self.callbacks)
        if checkpoint_path is not None:
            callbacks.append(Checkpointer(checkpoint_path,
                                          every=checkpoint_every))

        model = task.model
        self.rng = np.random.default_rng(task.seed)
        model.train()
        task.on_fit_begin()
        loader = task.loader(self.rng)

        self._specs = task.optim_specs()
        self.optimizers = {}
        self.schedulers = {}
        for name, spec in self._specs.items():
            opt = nn.Adam(spec.params, lr=spec.lr)
            self.optimizers[name] = opt
            if spec.schedule is not None:
                self.schedulers[name] = nn.LRScheduler(opt, spec.schedule)

        self.history = {key: [] for key in task.history_keys}
        self.epoch = -1
        self.start_epoch = 0
        self.should_stop = False
        self.active_callbacks = callbacks
        if resume and checkpoint_path is not None:
            # Newest generation first, then the Checkpointer's rolled-over
            # last-good one.  A corrupt candidate was already quarantined
            # by the loader; falling through to an older generation just
            # re-runs the missing epochs — bit-identical by construction.
            for candidate in (checkpoint_path,
                              previous_checkpoint_path(checkpoint_path)):
                if not checkpoint_exists(candidate):
                    continue
                try:
                    load_checkpoint(candidate, self)
                    break
                except CheckpointCorruptError as exc:
                    warnings.warn(f"{exc}", RuntimeWarning, stacklevel=2)

        step = StepContext(self.optimizers, self._specs)
        for cb in callbacks:
            cb.on_fit_begin(self)
        # Callbacks (e.g. ProfilerCallback) may have attached a profiler
        # in on_fit_begin; read it once and pin it on the step context.
        profiler = self.profiler
        step.profiler = profiler
        for epoch in range(self.start_epoch, task.epochs):
            if self.should_stop:
                break
            self.epoch = epoch
            tic = time.perf_counter()
            sums = dict.fromkeys(task.history_keys, 0.0)
            batches = 0
            samples = 0
            if profiler is None:
                for batch in loader:
                    metrics = task.batch_step(batch, step, self.rng)
                    for key in sums:
                        sums[key] += metrics[key]
                    batches += 1
                    samples += len(batch[0])
            else:
                iterator = iter(loader)
                while True:
                    tic_data = time.perf_counter()
                    try:
                        batch = next(iterator)
                    except StopIteration:
                        break
                    profiler.record("data",
                                    time.perf_counter() - tic_data)
                    profiler.start_batch()
                    tic_step = time.perf_counter()
                    metrics = task.batch_step(batch, step, self.rng)
                    step_s = time.perf_counter() - tic_step
                    # Forward by subtraction: batch_step minus whatever
                    # StepContext.apply booked as backward/optimizer.
                    profiler.record("forward",
                                    step_s - profiler.batch_seconds())
                    for key in sums:
                        sums[key] += metrics[key]
                    batches += 1
                    samples += len(batch[0])
            for scheduler in self.schedulers.values():
                scheduler.step()
            for key in self.history:
                self.history[key].append(sums[key] / max(batches, 1))
            self.last_epoch_seconds = time.perf_counter() - tic
            self.last_epoch_samples = samples
            if verbose:
                print(f"[{task.name}] epoch {epoch + 1}/{task.epochs} "
                      f"{task.epoch_message(self.history)}")
            for cb in callbacks:
                cb.on_epoch_end(self)
        task.on_fit_end()
        model.eval()
        for cb in callbacks:
            cb.on_fit_end(self)
        return self.history
