"""Callbacks for the unified :class:`~repro.train.TrainLoop`.

Four stock callbacks cover the runtime's side channels:

* :class:`Checkpointer` — periodic resumable snapshots (the loop attaches
  one automatically when ``fit(checkpoint_path=...)`` is given);
* :class:`EarlyStopping` — stop when a monitored history key stops
  improving;
* :class:`ThroughputMonitor` — per-epoch samples/sec accounting for
  benchmarks and the ``repro train`` CLI;
* :class:`ProfilerCallback` — per-phase (data/forward/backward/optimizer)
  wall-time histograms via :class:`~repro.obs.PhaseProfiler`, surfaced
  by ``repro train --json --profile``.
"""

from __future__ import annotations

import math
import os

from ..obs import PhaseProfiler
from .checkpoint import _normalise, previous_checkpoint_path, save_checkpoint

__all__ = ["Callback", "Checkpointer", "EarlyStopping", "ThroughputMonitor",
           "ProfilerCallback"]


class Callback:
    """Hooks into the loop's lifecycle; all methods are optional.

    Stateful callbacks (e.g. :class:`EarlyStopping`) implement
    ``state_dict``/``load_state_dict`` so their decisions survive a
    checkpoint/resume cycle; the loop saves and restores callback state
    automatically (matched by class name).
    """

    def on_fit_begin(self, loop) -> None:
        """After setup (and any resume), before the first epoch."""

    def on_epoch_end(self, loop) -> None:
        """After each epoch's history entry (and scheduler step)."""

    def on_fit_end(self, loop) -> None:
        """After the final epoch and ``model.eval()``."""

    def state_dict(self) -> dict:
        """JSON-serialisable state to carry through checkpoints."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` on resume."""


class Checkpointer(Callback):
    """Write a resumable snapshot every ``every`` epochs (and on the last).

    With ``registry`` and ``model_id`` set, every snapshot also registers
    the model's current weights as a
    :class:`~repro.registry.ModelRegistry` artifact — the manifest
    carries the task fingerprint plus the latest history entry as
    metrics, so in-flight training runs are discoverable (and servable)
    through the same registry as finished ones.

    With ``keep_previous`` (the default), the outgoing checkpoint is
    rotated to ``<path>.prev.npz`` before each save: the write itself is
    atomic, but a kill *after* the replace can still tear the new file
    on disk, and the last-good generation is what
    :meth:`~repro.train.TrainLoop.fit` rolls back to (re-running the
    missing epochs bit-identically) instead of restarting from scratch.
    """

    def __init__(self, path, every: int = 1, registry=None,
                 model_id: str | None = None, keep_previous: bool = True):
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if (registry is None) != (model_id is None):
            raise ValueError("registry and model_id must be given together")
        self.path = path
        self.every = every
        self.registry = registry
        self.model_id = model_id
        self.keep_previous = keep_previous
        self.saves = 0

    def on_epoch_end(self, loop) -> None:
        done = loop.epoch + 1
        if done % self.every == 0 or done == loop.task.epochs:
            if self.keep_previous:
                current = _normalise(self.path)
                if os.path.exists(current):
                    os.replace(current, previous_checkpoint_path(current))
            save_checkpoint(self.path, loop)
            if self.registry is not None:
                task = loop.task
                metrics = {key: values[-1]
                           for key, values in loop.history.items() if values}
                metrics["epochs_done"] = done
                self.registry.save(
                    task.model, self.model_id,
                    fingerprint={"task": task.name, "seed": int(task.seed),
                                 "epochs": int(task.epochs)},
                    metrics=metrics)
            self.saves += 1


class EarlyStopping(Callback):
    """Request a stop after ``patience`` epochs without improvement.

    ``monitor`` names a history key (lower is better); an epoch counts as
    an improvement when it beats the best seen by more than ``min_delta``.
    The best/patience counters are checkpointed, so a resumed run makes
    the same stopping decision as an uninterrupted one — including
    stopping immediately when resuming a run that already early-stopped.
    """

    def __init__(self, monitor: str = "loss", patience: int = 5,
                 min_delta: float = 0.0):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.monitor = monitor
        self.patience = patience
        self.min_delta = min_delta
        self.best = math.inf
        self.wait = 0
        self.stopped_epoch: int | None = None

    def on_fit_begin(self, loop) -> None:
        if self.stopped_epoch is not None:     # restored from a stopped run
            loop.should_stop = True

    def on_epoch_end(self, loop) -> None:
        value = loop.history[self.monitor][-1]
        if value < self.best - self.min_delta:
            self.best = value
            self.wait = 0
            return
        self.wait += 1
        if self.wait >= self.patience:
            self.stopped_epoch = loop.epoch
            loop.should_stop = True

    def state_dict(self) -> dict:
        return {"best": self.best, "wait": self.wait,
                "stopped_epoch": self.stopped_epoch}

    def load_state_dict(self, state: dict) -> None:
        self.best = float(state["best"])
        self.wait = int(state["wait"])
        stopped = state["stopped_epoch"]
        self.stopped_epoch = None if stopped is None else int(stopped)


class ThroughputMonitor(Callback):
    """Collect per-epoch wall-clock and samples/sec statistics."""

    def __init__(self):
        self.epochs: list[dict] = []

    def on_epoch_end(self, loop) -> None:
        seconds = loop.last_epoch_seconds
        self.epochs.append({
            "epoch": loop.epoch,
            "seconds": seconds,
            "samples": loop.last_epoch_samples,
            "samples_per_sec": loop.last_epoch_samples / max(seconds, 1e-12),
        })

    @property
    def total_seconds(self) -> float:
        return sum(e["seconds"] for e in self.epochs)

    @property
    def mean_samples_per_sec(self) -> float:
        if not self.epochs:
            return 0.0
        samples = sum(e["samples"] for e in self.epochs)
        return samples / max(self.total_seconds, 1e-12)


class ProfilerCallback(Callback):
    """Attach a :class:`~repro.obs.PhaseProfiler` to the loop.

    The loop stays on its un-instrumented fast path unless a profiler is
    attached, so profiling is strictly opt-in; with this callback every
    batch's data/forward/backward/optimizer wall time lands in per-phase
    histograms (see :meth:`snapshot`).  Pass a
    :class:`~repro.obs.MetricsRegistry` to additionally publish
    ``repro_train_phase_seconds{phase=...}`` for scraping.
    """

    def __init__(self, profiler: PhaseProfiler | None = None,
                 registry=None):
        self.profiler = profiler if profiler is not None \
            else PhaseProfiler(registry=registry)

    def on_fit_begin(self, loop) -> None:
        loop.profiler = self.profiler

    def snapshot(self) -> dict:
        """JSON-ready per-phase stats (count/mean/p50/p95/share)."""
        return self.profiler.snapshot()
