"""Per-phase wall-time profiling for the training loop.

:class:`PhaseProfiler` accumulates wall-clock per named phase —
``data`` (loader iteration), ``forward`` (the task's batch computation
net of autograd), ``backward`` (``loss.backward()``) and ``optimizer``
(zero-grad + clip + step) — into :class:`~repro.obs.LatencyHistogram`
buckets, so the CLI and benchmarks report p50/p95/p99 per phase instead
of a single opaque epoch time.

It also keeps *per-batch* running sums (reset by :meth:`start_batch`)
because ``forward`` is attributed by subtraction: the loop times the
whole ``batch_step`` and subtracts whatever the :class:`StepContext`
recorded as backward/optimizer time — the task API never exposes the
forward/backward boundary directly.

The training loop records every batch, with no opt-in: one batch's
bookkeeping is eight ``perf_counter`` reads and four O(1) histogram
records, a fraction of a percent of even a tiny fused train step.
"""

from __future__ import annotations

from .metrics import LatencyHistogram

__all__ = ["PhaseProfiler", "PHASES"]

PHASES = ("data", "forward", "backward", "optimizer")


class PhaseProfiler:
    """Accumulate per-phase wall time; not thread-safe (one loop owns it)."""

    def __init__(self):
        self._hists = {phase: LatencyHistogram() for phase in PHASES}
        self._batch_sums = dict.fromkeys(PHASES, 0.0)

    # ------------------------------------------------------------------
    def record(self, phase: str, seconds: float) -> None:
        """Book ``seconds`` (clamped at 0) to one of :data:`PHASES`."""
        seconds = max(float(seconds), 0.0)
        self._hists[phase].record(seconds)
        self._batch_sums[phase] += seconds

    def start_batch(self) -> None:
        """Reset the per-batch sums (the forward-by-subtraction basis)."""
        for phase in self._batch_sums:
            self._batch_sums[phase] = 0.0

    def batch_seconds(self) -> float:
        """This batch's accumulated backward + optimizer time."""
        return self._batch_sums["backward"] + self._batch_sums["optimizer"]

    # ------------------------------------------------------------------
    @property
    def batches(self) -> int:
        return self._hists["forward"].count

    def total_seconds(self, phase: str) -> float:
        return self._hists[phase].total_s

    def snapshot(self) -> dict:
        """JSON-ready per-phase stats plus each phase's share of the total."""
        phases = {phase: hist.snapshot()
                  for phase, hist in self._hists.items()}
        total = sum(p["total_s"] for p in phases.values())
        for doc in phases.values():
            doc["share"] = doc["total_s"] / total if total else 0.0
            del doc["buckets"]      # raw buckets are noise in CLI output
        return {"batches": self.batches, "total_s": total, "phases": phases}
