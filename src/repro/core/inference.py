"""One-shot DSE inference and prediction-quality metrics.

The paper's headline metric is *prediction accuracy*: the fraction of test
samples whose predicted design point matches the oracle optimum.  We report
it per head and jointly, plus two relaxed diagnostics (bucket-level match
and latency regret) that the ablation benches use.

Serving happens through two predictors sharing one forward and decode
path (:meth:`AirchitectV2.predict_indices`):

* :class:`DSEPredictor` — the simple per-call API;
* :class:`BatchedDSEPredictor` — the batched engine: one vectorised
  encoder→decoder pass per model tile under ``no_grad``, plus an optional
  cost-annotated sweep.  Predictions are identical to the per-sample path
  by construction; only the throughput differs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..dse import DSEDataset, DSEProblem, ExhaustiveOracle
from ..obs import current_engine_contexts
from .model import AirchitectV2

__all__ = ["PredictionMetrics", "evaluate_predictions", "evaluate_model",
           "DSEPredictor", "BatchedDSEPredictor", "BatchPrediction"]


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


@dataclass
class BatchPrediction:
    """Result of a batched design-space sweep.

    ``elapsed_s`` covers the whole sweep — prediction *and*, when
    ``with_cost`` was requested, the oracle cost evaluation —
    while ``predict_elapsed_s`` isolates the forward-pass phase.
    ``samples_per_sec`` is derived from the total.
    """

    inputs: np.ndarray          # (B, 4) the swept input tuples
    pe_idx: np.ndarray          # (B,) predicted PE-choice index
    l2_idx: np.ndarray          # (B,) predicted buffer-choice index
    num_pes: np.ndarray         # (B,) physical PE count
    l2_kb: np.ndarray           # (B,) physical buffer size (KB)
    predicted_cost: np.ndarray | None   # (B,) metric at the prediction
    elapsed_s: float
    samples_per_sec: float
    predict_elapsed_s: float = 0.0

    def __len__(self) -> int:
        return len(self.inputs)


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
    not better on CPU: a 1024-row pass of the ``small`` model makes each
    temporary a fresh ~6 MB array, faults ~18k pages back in from the OS
    and costs ~185 us per row.  Its 170-row tiles cost ~125 us per row,
    and ~95 us in a process that keeps its freed heap (``repro serve``
    does), where they fault no pages at all (2-core x86-64, OpenBLAS).

    Parameters
    ----------
    model:
        A (trained) :class:`AirchitectV2`.  Models without ``tile_rows``
        (the baselines, which chunk internally) get one pass per call.
    on_batch:
        Optional ``callback(rows, elapsed_s)`` invoked after every
        completed forward pass (one call per tile).  The serving layer
        hangs its throughput accounting off this hook
        (:meth:`repro.serving.ServingStats.record_forward`).
    """

    def __init__(self, model: AirchitectV2, on_batch=None):
        self.model = model
        self.problem = model.problem
        self.on_batch = on_batch
        self._default_oracle: ExhaustiveOracle | None = None

    # ------------------------------------------------------------------
    def predict_indices(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised one-shot DSE over pre-built (batch, 4) input tuples.

        Every forward pass reports to the ``on_batch`` hook and to the
        active traces.
        """
        contexts = current_engine_contexts()
        inputs = np.atleast_2d(np.asarray(inputs))
        pe_out = np.empty(len(inputs), dtype=np.int64)
        l2_out = np.empty(len(inputs), dtype=np.int64)
        step = getattr(self.model, "tile_rows", None) or max(len(inputs), 1)
        for start in range(0, len(inputs), step):
            chunk = inputs[start:start + step]
            tick = time.perf_counter()
            pe, l2 = self.model.predict_indices(chunk)
            elapsed = time.perf_counter() - tick
            if self.on_batch is not None:
                self.on_batch(len(chunk), elapsed)
            # One engine.forward span per trace sharing this coalesced
            # pass: that is how a request served in a batch of 64 still
            # sees "its" forward-pass time in its trace tree.
            for ctx in contexts:
                if ctx.tracer is not None:
                    span = ctx.tracer.span("engine.forward", parent=ctx,
                                           attributes={"rows": len(chunk)})
                    span.start_time -= elapsed
                    span.end(duration_s=elapsed)
            sl = slice(start, start + len(chunk))
            pe_out[sl], l2_out[sl] = pe, l2
        return pe_out, l2_out

    def predict(self, m, n, k, dataflow) -> tuple[np.ndarray, np.ndarray]:
        """Predict (num_pes, l2_kb) for workload(s); scalars broadcast."""
        inputs = _build_inputs(self.problem, m, n, k, dataflow)
        pe_idx, l2_idx = self.predict_indices(inputs)
        return self.problem.space.values(pe_idx, l2_idx)

    def sweep(self, inputs: np.ndarray, with_cost: bool = False,
              oracle: ExhaustiveOracle | None = None) -> BatchPrediction:
        """Full design-space sweep: predictions, physical configs, timing.

        ``with_cost=True`` also evaluates the optimisation metric at each
        predicted design point (via the — possibly cached — oracle); that
        evaluation is part of ``elapsed_s`` (the serving-visible latency),
        with the forward-pass share reported as ``predict_elapsed_s``.
        """
        inputs = np.atleast_2d(np.asarray(inputs))
        start = time.perf_counter()
        pe_idx, l2_idx = self.predict_indices(inputs)
        predict_elapsed = time.perf_counter() - start
        num_pes, l2_kb = self.problem.space.values(pe_idx, l2_idx)
        cost = None
        if with_cost:
            if oracle is None:
                # Keep one oracle per engine so its LRU label cache
                # persists across repeated sweeps.
                if self._default_oracle is None:
                    self._default_oracle = ExhaustiveOracle(self.problem)
                oracle = self._default_oracle
            cost = oracle.cost_at(inputs, pe_idx, l2_idx)
        elapsed = time.perf_counter() - start
        return BatchPrediction(inputs=inputs, pe_idx=pe_idx, l2_idx=l2_idx,
                               num_pes=num_pes, l2_kb=l2_kb,
                               predicted_cost=cost, elapsed_s=elapsed,
                               samples_per_sec=len(inputs) / max(elapsed, 1e-12),
                               predict_elapsed_s=predict_elapsed)
