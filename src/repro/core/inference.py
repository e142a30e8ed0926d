"""One-shot DSE inference and prediction-quality metrics.

The paper's headline metric is *prediction accuracy*: the fraction of test
samples whose predicted design point matches the oracle optimum.  We report
it per head and jointly, plus two relaxed diagnostics (bucket-level match
and latency regret) that the ablation benches use.

Serving happens through two predictors sharing one forward and decode
path (:meth:`AirchitectV2.predict_indices`):

* :class:`DSEPredictor` — the simple per-call API;
* :class:`BatchedDSEPredictor` — the batched engine: one vectorised
  encoder→decoder pass per model tile under ``no_grad``, the tiles of a
  call spread over one thread per CPU.  Predictions are identical to the
  per-sample path by construction; only the throughput differs.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..dse import DSEDataset, DSEProblem, ExhaustiveOracle
from ..obs import current_engine_contexts
from .model import AirchitectV2

__all__ = ["PredictionMetrics", "evaluate_predictions", "evaluate_model",
           "DSEPredictor", "BatchedDSEPredictor"]


@dataclass
class PredictionMetrics:
    """Quality of predicted design points against oracle labels."""

    accuracy: float          # both heads exactly right (the paper's metric)
    pe_accuracy: float
    l2_accuracy: float
    bucket_accuracy: float   # both heads land in the right UOV bucket
    mean_regret: float       # mean (predicted metric / optimal metric) - 1

    def as_dict(self) -> dict:
        return {"accuracy": self.accuracy, "pe_accuracy": self.pe_accuracy,
                "l2_accuracy": self.l2_accuracy,
                "bucket_accuracy": self.bucket_accuracy,
                "mean_regret": self.mean_regret}


def evaluate_predictions(problem: DSEProblem, dataset: DSEDataset,
                         pe_pred: np.ndarray, l2_pred: np.ndarray,
                         pe_codec=None, l2_codec=None,
                         oracle: ExhaustiveOracle | None = None,
                         compute_regret: bool = True) -> PredictionMetrics:
    """Score arbitrary (pe_idx, l2_idx) predictions against a dataset."""
    pe_ok = pe_pred == dataset.pe_idx
    l2_ok = l2_pred == dataset.l2_idx
    both = pe_ok & l2_ok

    if pe_codec is not None and l2_codec is not None:
        bucket_ok = ((pe_codec.bucket_labels(pe_pred)
                      == pe_codec.bucket_labels(dataset.pe_idx))
                     & (l2_codec.bucket_labels(l2_pred)
                        == l2_codec.bucket_labels(dataset.l2_idx)))
        bucket_accuracy = float(bucket_ok.mean())
    else:
        bucket_accuracy = float(both.mean())

    if compute_regret:
        oracle = oracle or ExhaustiveOracle(problem)
        achieved = oracle.cost_at(dataset.inputs, pe_pred, l2_pred)
        regret = achieved / np.maximum(dataset.best_cost, 1e-12) - 1.0
        mean_regret = float(regret.mean())
    else:
        mean_regret = float("nan")

    return PredictionMetrics(accuracy=float(both.mean()),
                             pe_accuracy=float(pe_ok.mean()),
                             l2_accuracy=float(l2_ok.mean()),
                             bucket_accuracy=bucket_accuracy,
                             mean_regret=mean_regret)


def evaluate_model(model: AirchitectV2, dataset: DSEDataset,
                   oracle: ExhaustiveOracle | None = None,
                   compute_regret: bool = True) -> PredictionMetrics:
    """Run one-shot inference on a dataset (batched engine) and score it."""
    pe_pred, l2_pred = BatchedDSEPredictor(model).predict_indices(dataset.inputs)
    return evaluate_predictions(model.problem, dataset, pe_pred, l2_pred,
                                pe_codec=model.pe_codec, l2_codec=model.l2_codec,
                                oracle=oracle, compute_regret=compute_regret)


def _build_inputs(problem: DSEProblem, m, n, k, dataflow) -> np.ndarray:
    """Assemble (batch, 4) input tuples from workload dims (broadcasting)."""
    m, n, k = problem.clamp_inputs(m, n, k)
    dataflow = np.broadcast_to(np.asarray(dataflow, dtype=np.int64), m.shape)
    return np.stack([np.atleast_1d(m), np.atleast_1d(n),
                     np.atleast_1d(k), np.atleast_1d(dataflow)], axis=1)


class DSEPredictor:
    """User-facing one-shot DSE API: inputs in, hardware configs out."""

    def __init__(self, model: AirchitectV2):
        self.model = model
        self.problem = model.problem

    def predict(self, m, n, k, dataflow) -> tuple[np.ndarray, np.ndarray]:
        """Predict (num_pes, l2_kb) for workload(s); scalars broadcast."""
        inputs = _build_inputs(self.problem, m, n, k, dataflow)
        pe_idx, l2_idx = self.model.predict_indices(inputs)
        return self.problem.space.values(pe_idx, l2_idx)

    def predict_indices(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predict raw design-choice indices for pre-built input tuples."""
        return self.model.predict_indices(inputs)


# This process's tile threads, one per usable CPU, made on first use.  A
# forked child gets none of its parent's threads, so it starts afresh.
_TILE_POOL: ThreadPoolExecutor | None = None
_TILE_POOL_LOCK = threading.Lock()


def _forget_tile_pool() -> None:
    global _TILE_POOL, _TILE_POOL_LOCK
    _TILE_POOL, _TILE_POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_tile_pool)


def _tile_pool() -> ThreadPoolExecutor | None:
    """The process's tile threads; ``None`` where tiles run inline: on
    one CPU, or where OpenBLAS's threads cannot be held at one."""
    global _TILE_POOL
    with _TILE_POOL_LOCK:
        if (_TILE_POOL is None and nn.blas_threads() is not None
                and len(os.sched_getaffinity(0)) > 1):
            _TILE_POOL = ThreadPoolExecutor(len(os.sched_getaffinity(0)),
                                            thread_name_prefix="repro-tile")
        return _TILE_POOL


class BatchedDSEPredictor:
    """Batched one-shot DSE serving engine.

    Runs the full encoder→decoder pipeline over arbitrary-size workload
    batches, one vectorised forward pass per model tile under
    ``no_grad``.  Each pass goes through
    :meth:`AirchitectV2.predict_indices` — the same code the per-sample
    :class:`DSEPredictor` uses, and a row's logits do not depend on the
    rows it shares a pass with — so predictions are identical to the
    per-sample loop; only the throughput differs (see
    ``benchmarks/bench_batched_inference.py``).

    The model sets the rows per pass (:attr:`AirchitectV2.tile_rows`)
    from a byte budget rather than a row count, so a pass's temporaries
    fit in a core's L2 whatever the model's width.  Bigger passes are
    not better on CPU: for a 4096-row call of the ``small`` model,
    1024-row passes cost ~115-135 us per row and its 170-row tiles,
    run inline, ~105-135 us.  Fanned out over the tile threads, the same
    tiles cost ~87-92 us per row of wall time (3 runs of 8 repeats,
    2-vCPU x86-64, OpenBLAS 0.3.31 as bundled with numpy).

    Parameters
    ----------
    model:
        A (trained) :class:`AirchitectV2`.  Models without ``tile_rows``
        (the baselines, which chunk internally) get one pass per call.
    on_batch:
        Optional ``callback(rows, elapsed_s)`` invoked after every
        completed forward pass (one call per tile, in tile order, on the
        calling thread).  ``elapsed_s`` is the pass's own duration, so
        passes that ran side by side on the tile threads overlap.  The
        serving layer hangs its throughput counters off this hook
        (:meth:`repro.serving.ServingStats.record_forward`, served as
        the ``forward_*`` keys of ``/stats``).
    """

    def __init__(self, model: AirchitectV2, on_batch=None):
        self.model = model
        self.problem = model.problem
        self.on_batch = on_batch

    # ------------------------------------------------------------------
    def predict_indices(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised one-shot DSE over pre-built (batch, 4) input tuples.

        A call spanning two or more tiles runs them on the process's
        tile threads (one per CPU) with OpenBLAS held at one thread; a
        one-tile call runs inline.  Either way every tile writes its own
        output rows, and the ``on_batch`` hook and the active traces hear
        of every forward pass in tile order, from the calling thread.
        """
        contexts = current_engine_contexts()
        inputs = np.atleast_2d(np.asarray(inputs))
        pe_out = np.empty(len(inputs), dtype=np.int64)
        l2_out = np.empty(len(inputs), dtype=np.int64)
        step = getattr(self.model, "tile_rows", None) or max(len(inputs), 1)
        tiles = [slice(lo, min(lo + step, len(inputs)))
                 for lo in range(0, len(inputs), step)]

        def run(rows: slice) -> float:
            tick = time.perf_counter()
            pe_out[rows], l2_out[rows] = self.model.predict_indices(inputs[rows])
            return time.perf_counter() - tick

        pool = _tile_pool() if len(tiles) > 1 else None
        if pool is None:
            for rows in tiles:
                self._report(rows, run(rows), contexts)
            return pe_out, l2_out
        with nn.one_blas_thread():
            futures = [pool.submit(run, rows) for rows in tiles]
            try:
                for rows, future in zip(tiles, futures):
                    self._report(rows, future.result(), contexts)
            finally:
                for future in futures:
                    future.cancel()
                wait(futures)
        return pe_out, l2_out

    def _report(self, rows: slice, elapsed: float, contexts) -> None:
        """Tell the ``on_batch`` hook and the active traces of one pass."""
        count = rows.stop - rows.start
        if self.on_batch is not None:
            self.on_batch(count, elapsed)
        # One engine.forward span per trace sharing this coalesced
        # pass: that is how a request served in a batch of 64 still
        # sees "its" forward-pass time in its trace tree.
        for ctx in contexts:
            if ctx.tracer is not None:
                span = ctx.tracer.span("engine.forward", parent=ctx,
                                       attributes={"rows": count})
                span.start_time -= elapsed
                span.end(duration_s=elapsed)

    def predict(self, m, n, k, dataflow) -> tuple[np.ndarray, np.ndarray]:
        """Predict (num_pes, l2_kb) for workload(s); scalars broadcast."""
        inputs = _build_inputs(self.problem, m, n, k, dataflow)
        pe_idx, l2_idx = self.predict_indices(inputs)
        return self.problem.space.values(pe_idx, l2_idx)
