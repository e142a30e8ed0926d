"""Shard large design-space sweeps across worker processes.

The in-process engine spreads one call's tiles over threads; this
executor spreads a sweep's shards over processes instead.  Each worker
holds OpenBLAS at one thread and runs its tiles inline, so processes x
threads x BLAS threads never oversubscribe the cores.  The executor:

* writes the model's state dict once (``save_module``) and has each
  worker rebuild + load it in its pool initializer — one model load per
  worker, amortised over every shard that worker serves;
* splits the sweep into contiguous shards, maps them over the pool, and
  reassembles the results by shard index so the output ordering matches
  the single-process :meth:`~repro.core.BatchedDSEPredictor.sweep`
  exactly;
* evaluates ``with_cost`` in the parent (the vectorised oracle pass is
  memory-bound, and keeping it in-parent lets the oracle's LRU/persistent
  cache keep accumulating);
* falls back to the single-process engine when ``num_workers <= 1``, the
  sweep is smaller than one shard, or the platform refuses to spawn a
  pool (sandboxes without ``fork``);
* survives worker failure: shards run under a
  :class:`~repro.faults.PoolSupervisor` with a per-shard timeout, so a
  SIGKILLed or hung worker costs one timeout + a pool rebuild (capped
  exponential backoff), the missing shards are re-dispatched, and after
  repeated pool failure the remainder degrades to the in-process
  engine — results bit-identical to the fault-free run either way,
  because shards are pure functions of their rows reassembled by index;
* with ``autoscale=True``, plans every sweep through an
  :class:`AutoscalePolicy`: worker count and shard size adapt to the
  sweep size and the observed per-worker throughput, and each plan is
  recorded in :attr:`ShardedSweepExecutor.decision_trace` (surfaced by
  the serving front-end's ``GET /stats``).

Predictions are bit-identical to the single-process sweep regardless of
the plan: sharding only partitions rows, and every row's forward pass is
deterministic — so the autoscaled path returns exactly what the
fixed-shard path would.

The worker pool and the model-state temp directory are torn down by
``close()`` (idempotent), by the context manager, or — as a last
resort — by a ``weakref.finalize`` hook at garbage collection or
interpreter exit, so abandoned executors never leak processes or
``repro_shard_*`` directories.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import tempfile
import time
import warnings
import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core import AirchitectV2, BatchedDSEPredictor, BatchPrediction
from ..dse import ExhaustiveOracle
from ..faults import PoolBrokenError, PoolSupervisor, RetryPolicy, fire
from ..nn import load_module, one_blas_thread, save_module

__all__ = ["ShardedSweepExecutor", "AutoscalePolicy", "AutoscaleDecision"]

# Per-worker-process model, installed by _init_worker (one per pool
# process; plain module global because pool workers are single-threaded).
_WORKER_MODEL: AirchitectV2 | None = None


def _init_worker(config, problem, state_path: str) -> None:
    global _WORKER_MODEL
    # A terminal Ctrl-C lands on the whole foreground process *group*,
    # workers included; dying mid-IPC can wedge the parent's
    # pool.terminate()/join().  The parent owns worker lifecycle, so
    # workers ignore SIGINT and wait to be terminated.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    model = AirchitectV2(config, problem, np.random.default_rng(0))
    load_module(model, state_path)
    model.eval()
    # One BLAS thread for the worker's whole life (never exited): the
    # pool's processes are the parallelism, and the model runs its
    # tiles inline on this thread.
    one_blas_thread().__enter__()
    _WORKER_MODEL = model


def _run_shard(args: tuple[int, np.ndarray]) -> tuple[int, np.ndarray, np.ndarray]:
    shard_idx, inputs = args
    hit = fire("pool.worker_crash")
    if hit is not None:
        os._exit(int(hit.get("exit_code", 47)))     # SIGKILL-equivalent
    hit = fire("pool.shard_hang")
    if hit is not None:
        time.sleep(float(hit.get("hang_s", 3600.0)))
    pe_idx, l2_idx = _WORKER_MODEL.predict_indices(inputs)
    return shard_idx, pe_idx, l2_idx


def _cleanup_dir(state_dir) -> None:
    """Remove the model-state temp dir (finalizer-safe: tolerates reruns)."""
    if state_dir is not None and os.path.isdir(state_dir.name):
        state_dir.cleanup()


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AutoscaleDecision:
    """One sweep's plan: how many workers, how big the shards, and why."""

    sweep_size: int
    workers: int            # target parallelism (1 = stay single-process)
    shard_size: int         # rows per shard when pooled
    reason: str

    def as_dict(self) -> dict:
        return {"sweep_size": self.sweep_size, "workers": self.workers,
                "shard_size": self.shard_size, "reason": self.reason}


class AutoscalePolicy:
    """Plan sweeps from their size and the observed per-worker throughput.

    The policy is a pure, deterministic function of its observations, so
    plans are reproducible and unit-testable.  Two exponentially-weighted
    throughput estimates feed it:

    * ``single_rows_per_s`` — rows/sec of the in-process fallback engine;
    * ``pooled_rows_per_worker_s`` — rows/sec *per worker* of pooled runs.

    Decision rules, in order:

    1. Sweeps under ``2 * min_shard_size`` rows stay single-process
       (fan-out costs more than it saves on tiny batches).
    2. Once the single-process rate is known, sweeps it would finish
       within ``min_pool_gain_s`` stay single-process — dispatching to a
       pool cannot win back less time than the dispatch costs.
    3. Once *both* rates are known, a sweep whose predicted
       single-process time beats the predicted pooled time (per-worker
       rate times the planned workers, plus ``min_pool_gain_s`` of
       dispatch) stays single-process.
    4. Otherwise the sweep is pooled on
       ``min(max_workers, sweep_size // min_shard_size)`` workers, with
       ``shards_per_worker`` shards each (a little oversharding lets the
       fast workers absorb the slow ones' tail), never below
       ``min_shard_size`` rows per shard.

    Only *whether and how* to shard is adaptive; the predictions are
    bit-identical under every plan.
    """

    def __init__(self, max_workers: int, min_shard_size: int = 256,
                 shards_per_worker: int = 2, min_pool_gain_s: float = 0.05,
                 ewma: float = 0.5):
        self.max_workers = max(1, int(max_workers))
        self.min_shard_size = max(1, int(min_shard_size))
        self.shards_per_worker = max(1, int(shards_per_worker))
        self.min_pool_gain_s = float(min_pool_gain_s)
        self.ewma = float(ewma)
        self.single_rows_per_s: float | None = None
        self.pooled_rows_per_worker_s: float | None = None

    # ------------------------------------------------------------------
    def _blend(self, current: float | None, sample: float) -> float:
        if current is None:
            return sample
        return (1.0 - self.ewma) * current + self.ewma * sample

    def observe_single(self, rows: int, elapsed_s: float) -> None:
        self.single_rows_per_s = self._blend(
            self.single_rows_per_s, rows / max(elapsed_s, 1e-9))

    def observe_pooled(self, rows: int, workers: int, elapsed_s: float) -> None:
        per_worker = rows / max(elapsed_s, 1e-9) / max(workers, 1)
        self.pooled_rows_per_worker_s = self._blend(
            self.pooled_rows_per_worker_s, per_worker)

    # ------------------------------------------------------------------
    def decide(self, sweep_size: int) -> AutoscaleDecision:
        n = int(sweep_size)
        if n < 2 * self.min_shard_size:
            return AutoscaleDecision(
                n, 1, n or 1,
                f"{n} rows below the {2 * self.min_shard_size}-row pool "
                f"threshold")
        if self.single_rows_per_s is not None:
            eta = n / self.single_rows_per_s
            if eta < self.min_pool_gain_s:
                return AutoscaleDecision(
                    n, 1, n,
                    f"single-process ETA {eta * 1e3:.1f}ms under the "
                    f"{self.min_pool_gain_s * 1e3:.0f}ms pool-gain floor")
        workers = min(self.max_workers, max(1, n // self.min_shard_size))
        shard_size = max(self.min_shard_size,
                         math.ceil(n / (workers * self.shards_per_worker)))
        if self.single_rows_per_s is not None \
                and self.pooled_rows_per_worker_s is not None:
            eta_single = n / self.single_rows_per_s
            eta_pooled = self.min_pool_gain_s \
                + n / (workers * self.pooled_rows_per_worker_s)
            if eta_single <= eta_pooled:
                return AutoscaleDecision(
                    n, 1, n,
                    f"single-process ETA {eta_single * 1e3:.1f}ms beats "
                    f"{workers}-worker pooled ETA {eta_pooled * 1e3:.1f}ms")
        basis = ("observed "
                 f"{self.pooled_rows_per_worker_s:.0f} rows/s/worker"
                 if self.pooled_rows_per_worker_s is not None
                 else "no pooled-throughput observation yet")
        return AutoscaleDecision(
            n, workers, shard_size,
            f"{workers} worker(s) x {self.shards_per_worker} shard(s) "
            f"of <= {shard_size} rows ({basis})")


class ShardedSweepExecutor:
    """Run :meth:`BatchedDSEPredictor.sweep`-equivalent sweeps on N processes.

    Parameters
    ----------
    model:
        The trained :class:`AirchitectV2` to replicate into workers.
    num_workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 8.  ``<= 1``
        means single-process (no pool is ever created).  With
        ``autoscale`` this is the *ceiling* — the policy may use fewer.
    min_shard_size:
        Sweeps smaller than this skip the pool: process fan-out costs
        more than it saves on tiny batches.
    mp_context:
        ``multiprocessing`` start method (default ``"fork"`` where
        available — workers inherit nothing mutable, so fork is safe and
        avoids re-importing the world per worker).
    autoscale:
        Plan each sweep through an :class:`AutoscalePolicy` (worker
        count and shard size adapt to sweep size and observed
        throughput) instead of the fixed one-shard-per-worker split.
        Results are bit-identical either way.
    policy:
        Optional pre-configured :class:`AutoscalePolicy` (implies
        ``autoscale=True``); built from ``num_workers`` /
        ``min_shard_size`` otherwise.
    registry / labels:
        Optional :class:`~repro.obs.MetricsRegistry` (plus label
        names/values, e.g. ``{"model": ...}``) into which every
        autoscale decision is published: sweeps by execution mode,
        planned workers, and observed throughput — the scrapeable twin
        of :attr:`decision_trace` — plus the supervisor's recovery
        counters (``repro_retry_total``, ``repro_pool_rebuilds_total``,
        ``repro_pool_degraded_total``).
    shard_timeout_s:
        Per-shard wall-clock budget; a shard with no result by then is
        treated as lost (its worker was killed or hung) and re-dispatched
        on a rebuilt pool.  ``None`` disables the timeout (a lost worker
        then blocks forever — only for debugging).  Spurious timeouts are
        safe: the retry recomputes the same rows bit-identically.
    retry:
        :class:`~repro.faults.RetryPolicy` governing pool rebuilds and
        backoff before degrading to in-process execution.
    """

    def __init__(self, model: AirchitectV2, num_workers: int | None = None,
                 min_shard_size: int = 256,
                 mp_context: str | None = None, autoscale: bool = False,
                 policy: AutoscalePolicy | None = None,
                 registry=None, labels: dict | None = None,
                 shard_timeout_s: float | None = 120.0,
                 retry: RetryPolicy | None = None):
        if num_workers is None:
            num_workers = min(os.cpu_count() or 1, 8)
        self.model = model
        self.problem = model.problem
        self.num_workers = max(1, int(num_workers))
        self.min_shard_size = max(1, int(min_shard_size))
        if mp_context is None:
            mp_context = "fork" if "fork" in \
                multiprocessing.get_all_start_methods() else "spawn"
        self.mp_context = mp_context
        self.policy = policy if policy is not None else (
            AutoscalePolicy(self.num_workers, self.min_shard_size)
            if autoscale else None)
        self.autoscale = self.policy is not None
        self.decision_trace: deque[dict] = deque(maxlen=64)
        self._metrics = None
        self._metric_labels = {str(k): str(v)
                               for k, v in (labels or {}).items()}
        if registry is not None:
            names = tuple(self._metric_labels)
            base = self._metric_labels
            self._metrics = {
                "sweeps": registry.counter(
                    "repro_autoscale_sweeps_total",
                    "Autoscaled sweeps run, by execution mode.",
                    names + ("pooled",)),
                "workers": registry.gauge(
                    "repro_autoscale_workers",
                    "Workers planned by the latest autoscale decision.",
                    names).labels(**base),
                "rows_per_sec": registry.gauge(
                    "repro_autoscale_rows_per_sec",
                    "Throughput of the latest autoscaled sweep.",
                    names).labels(**base),
                "per_worker": registry.gauge(
                    "repro_autoscale_pooled_rows_per_worker_sec",
                    "EWMA per-worker pooled-throughput estimate.",
                    names).labels(**base),
            }
        self._fallback = BatchedDSEPredictor(model)
        self._state_dir: tempfile.TemporaryDirectory | None = None
        self._state_finalizer: weakref.finalize | None = None
        self._default_oracle: ExhaustiveOracle | None = None
        self._supervisor = PoolSupervisor(
            self._make_pool, shard_timeout_s=shard_timeout_s, retry=retry,
            name="sweep-pool", registry=registry,
            labels={**self._metric_labels, "component": "sweep"}
            if registry is not None else None)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def _pool(self):
        """The supervisor's live pool (None when running single-process)."""
        return self._supervisor.pool

    def _make_pool(self):
        """Pool factory for the supervisor; ``None`` = stay single-process.

        Called again after every supervised teardown, so a rebuilt pool
        reuses the already-saved model state."""
        if self.num_workers <= 1:
            return None
        if self._state_dir is None:
            self._state_dir = tempfile.TemporaryDirectory(
                prefix="repro_shard_")
            # Last-resort cleanup at GC/interpreter exit: an abandoned
            # executor must not leak its state dir (the supervisor owns
            # the matching hook for worker processes).
            self._state_finalizer = weakref.finalize(self, _cleanup_dir,
                                                     self._state_dir)
            save_module(self.model,
                        os.path.join(self._state_dir.name, "model.npz"))
        state_path = os.path.join(self._state_dir.name, "model.npz")
        try:
            ctx = multiprocessing.get_context(self.mp_context)
            return ctx.Pool(
                self.num_workers, initializer=_init_worker,
                initargs=(self.model.config, self.problem, state_path))
        except (OSError, ValueError) as exc:
            warnings.warn(f"could not start a {self.num_workers}-worker "
                          f"pool ({exc}); falling back to single-process "
                          f"sweeps", RuntimeWarning, stacklevel=3)
            self.num_workers = 1
            return None

    def _ensure_pool(self):
        """Create the worker pool once; ``None`` means run single-process."""
        if self.num_workers <= 1:
            return None
        return self._supervisor.ensure()

    def close(self) -> None:
        """Terminate the pool and remove the state dir; idempotent and
        exception-safe even when the pool's workers have been killed."""
        self._supervisor.close()
        if self._state_finalizer is not None:
            self._state_finalizer()    # no-op if the finalizer already ran
            self._state_finalizer = None
        self._state_dir = None

    def __enter__(self) -> "ShardedSweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def shard(self, inputs: np.ndarray,
              shard_size: int | None = None) -> list[tuple[int, np.ndarray]]:
        """Contiguous, order-preserving shards.

        Defaults to one shard per worker (rounded up); an autoscale plan
        passes its own ``shard_size``.
        """
        if shard_size is None:
            shard_size = max(self.min_shard_size,
                             -(-len(inputs) // self.num_workers))
        shard_size = max(1, int(shard_size))
        return [(i, inputs[start:start + shard_size])
                for i, start in enumerate(range(0, len(inputs), shard_size))]

    def _run_pooled(self, inputs: np.ndarray,
                    shard_size: int | None) -> tuple[np.ndarray, np.ndarray, int]:
        """Map shards over the supervised pool; returns
        (pe_idx, l2_idx, num_shards).

        Shards reassemble by index, so completion order is irrelevant;
        shards the pool lost for good (worker churn outlasting the retry
        policy) are recomputed in-process — same rows, same deterministic
        forward pass, bit-identical output."""
        shards = self.shard(inputs, shard_size)
        pe_idx = np.empty(len(inputs), dtype=np.int64)
        l2_idx = np.empty(len(inputs), dtype=np.int64)
        offsets = np.cumsum([0] + [len(rows) for _, rows in shards])
        try:
            results = self._supervisor.run(_run_shard, shards)
        except PoolBrokenError as exc:
            results = exc.completed
            for idx in exc.pending:
                pe, l2 = self._fallback.predict_indices(shards[idx][1])
                results[idx] = (idx, pe, l2)
        for idx, pe, l2 in results.values():
            sl = slice(offsets[idx], offsets[idx + 1])
            pe_idx[sl], l2_idx[sl] = pe, l2
        return pe_idx, l2_idx, len(shards)

    def predict_indices(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sharded one-shot DSE over pre-built (batch, 4) input tuples."""
        inputs = np.atleast_2d(np.asarray(inputs))
        if self.autoscale:
            return self._predict_autoscaled(inputs)
        pool = self._ensure_pool() \
            if len(inputs) >= 2 * self.min_shard_size else None
        if pool is None:
            return self._fallback.predict_indices(inputs)
        pe_idx, l2_idx, _ = self._run_pooled(inputs, None)
        return pe_idx, l2_idx

    def _predict_autoscaled(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Plan, run, observe, and trace one sweep under the policy."""
        decision = self.policy.decide(len(inputs))
        pool = self._ensure_pool() if decision.workers > 1 else None
        record = decision.as_dict()
        start = time.perf_counter()
        if pool is None:
            if decision.workers > 1:   # pool refused to start (no fork)
                record["reason"] += "; pool unavailable, ran single-process"
            pe_idx, l2_idx = self._fallback.predict_indices(inputs)
            elapsed = time.perf_counter() - start
            self.policy.observe_single(len(inputs), elapsed)
            record.update(pooled=False, num_shards=1)
        else:
            pe_idx, l2_idx, num_shards = self._run_pooled(
                inputs, decision.shard_size)
            elapsed = time.perf_counter() - start
            # Actual parallelism is bounded by the pool, not the plan:
            # the pool has num_workers processes and every shard can land
            # on a distinct one.
            self.policy.observe_pooled(
                len(inputs), min(self.num_workers, num_shards), elapsed)
            record.update(pooled=True, num_shards=num_shards,
                          pool_size=self.num_workers)
        record.update(
            elapsed_s=elapsed,
            rows_per_sec=len(inputs) / max(elapsed, 1e-9),
            single_rows_per_sec=self.policy.single_rows_per_s,
            pooled_rows_per_worker_sec=self.policy.pooled_rows_per_worker_s)
        self.decision_trace.append(record)
        if self._metrics is not None:
            self._metrics["sweeps"].labels(
                **self._metric_labels,
                pooled="true" if record["pooled"] else "false").inc()
            self._metrics["workers"].set(decision.workers)
            self._metrics["rows_per_sec"].set(record["rows_per_sec"])
            if self.policy.pooled_rows_per_worker_s is not None:
                self._metrics["per_worker"].set(
                    self.policy.pooled_rows_per_worker_s)
        return pe_idx, l2_idx

    def sweep(self, inputs: np.ndarray, with_cost: bool = False,
              oracle: ExhaustiveOracle | None = None) -> BatchPrediction:
        """Sharded drop-in for :meth:`BatchedDSEPredictor.sweep`."""
        inputs = np.atleast_2d(np.asarray(inputs))
        start = time.perf_counter()
        pe_idx, l2_idx = self.predict_indices(inputs)
        predict_elapsed = time.perf_counter() - start
        num_pes, l2_kb = self.problem.space.values(pe_idx, l2_idx)
        cost = None
        if with_cost:
            if oracle is None:
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
