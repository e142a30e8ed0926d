"""Parallel oracle labelling: shard dataset generation across processes.

Labelling is the dominant cost of building the paper's 100K-sample dataset
(§IV): every sample needs a full 64 x 12 design-grid evaluation.  The grid
solve is pure single-threaded numpy, so it scales with *processes*:

* each pool worker builds one :class:`ExhaustiveOracle` clone (same
  problem, cost model and tolerance) in its initializer;
* the input batch is split into contiguous shards, dispatched through a
  :class:`~repro.faults.PoolSupervisor`, and reassembled by shard index,
  so the output ordering matches the serial
  :meth:`ExhaustiveOracle.solve` exactly;
* labels are **bit-identical** to the serial path: sharding only
  partitions rows, and the grid evaluation is deterministic — including
  when a killed/hung worker forces shard retries on a rebuilt pool, or
  when repeated pool failure degrades the remaining shards to the serial
  path (the supervisor's self-healing);
* solved labels are imported back into the parent oracle's LRU cache, so
  later serial solves (and the persistent cache snapshot) stay warm;
* ``num_workers <= 1``, small batches, and platforms that refuse to spawn
  a pool all fall back to the serial path.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings

import numpy as np

from ..faults import PoolBrokenError, PoolSupervisor, RetryPolicy, fire
from .oracle import ExhaustiveOracle, OracleResult

__all__ = ["ShardedLabeller", "label_inputs"]

# Per-worker-process oracle, installed by _init_worker (one per pool
# process; plain module global because pool workers are single-threaded).
_WORKER_ORACLE: ExhaustiveOracle | None = None


def _init_worker(problem, cost_model, tolerance: float) -> None:
    global _WORKER_ORACLE
    # cache_size=0: each worker sees every row exactly once, so the LRU
    # would only add bookkeeping overhead.
    _WORKER_ORACLE = ExhaustiveOracle(problem, cost_model, tolerance,
                                      cache_size=0)


def _label_shard(args: tuple[int, np.ndarray]):
    shard_idx, rows = args
    hit = fire("pool.worker_crash")
    if hit is not None:
        os._exit(int(hit.get("exit_code", 47)))     # SIGKILL-equivalent
    hit = fire("pool.shard_hang")
    if hit is not None:
        time.sleep(float(hit.get("hang_s", 3600.0)))
    result = _WORKER_ORACLE.solve(rows)
    return shard_idx, result.pe_idx, result.l2_idx, result.best_cost


class ShardedLabeller:
    """Fan :meth:`ExhaustiveOracle.solve` across worker processes.

    Parameters
    ----------
    oracle:
        The parent oracle; workers clone its problem/cost-model/tolerance
        (i.e. its :meth:`~ExhaustiveOracle.labelling_fingerprint`), and
        sharded results warm its cache.
    num_workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 8.  ``<= 1``
        means serial (no pool is ever created).
    min_shard_size / max_shard_size:
        Batches smaller than ``2 * min_shard_size`` skip the pool; larger
        batches are cut into shards of at most ``max_shard_size`` rows,
        which bounds each worker's grid-evaluation memory and balances
        load across uneven workers.
    mp_context:
        ``multiprocessing`` start method (default ``"fork"`` where
        available).
    shard_timeout_s:
        Per-shard wall-clock budget before a shard is declared lost and
        re-dispatched on a rebuilt pool.  Labelling shards run a full
        grid evaluation over up to ``max_shard_size`` rows, hence the
        generous default.  ``None`` disables the timeout.
    retry:
        :class:`~repro.faults.RetryPolicy` governing pool rebuilds and
        backoff before the remainder degrades to serial labelling.
    """

    def __init__(self, oracle: ExhaustiveOracle, num_workers: int | None = None,
                 min_shard_size: int = 256, max_shard_size: int = 4096,
                 mp_context: str | None = None,
                 shard_timeout_s: float | None = 600.0,
                 retry: RetryPolicy | None = None):
        if num_workers is None:
            num_workers = min(os.cpu_count() or 1, 8)
        self.oracle = oracle
        self.num_workers = max(1, int(num_workers))
        self.min_shard_size = max(1, int(min_shard_size))
        self.max_shard_size = max(self.min_shard_size, int(max_shard_size))
        if mp_context is None:
            mp_context = "fork" if "fork" in \
                multiprocessing.get_all_start_methods() else "spawn"
        self.mp_context = mp_context
        self._supervisor = PoolSupervisor(
            self._make_pool, shard_timeout_s=shard_timeout_s, retry=retry,
            name="labelling-pool")

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def _pool(self):
        """The supervisor's live pool (None when running serially)."""
        return self._supervisor.pool

    def _make_pool(self):
        """Pool factory for the supervisor; ``None`` = stay serial."""
        if self.num_workers <= 1:
            return None
        try:
            ctx = multiprocessing.get_context(self.mp_context)
            return ctx.Pool(
                self.num_workers, initializer=_init_worker,
                initargs=(self.oracle.problem, self.oracle.cost_model,
                          self.oracle.tolerance))
        except (OSError, ValueError) as exc:
            warnings.warn(f"could not start a {self.num_workers}-worker "
                          f"labelling pool ({exc}); falling back to serial "
                          f"labelling", RuntimeWarning, stacklevel=3)
            self.num_workers = 1
            return None

    def _ensure_pool(self):
        """Create the worker pool once; ``None`` means run serially."""
        if self.num_workers <= 1:
            return None
        return self._supervisor.ensure()

    def close(self) -> None:
        """Terminate the pool; idempotent and exception-safe even when
        the pool's workers have already crashed or been killed."""
        self._supervisor.close()

    def __enter__(self) -> "ShardedLabeller":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def shard(self, inputs: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Contiguous, order-preserving shards."""
        shard_size = max(self.min_shard_size,
                         -(-len(inputs) // self.num_workers))
        shard_size = min(shard_size, self.max_shard_size)
        return [(i, inputs[start:start + shard_size])
                for i, start in enumerate(range(0, len(inputs), shard_size))]

    def label(self, inputs: np.ndarray) -> OracleResult:
        """Sharded drop-in for :meth:`ExhaustiveOracle.solve`."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=np.int64))
        pool = self._ensure_pool() \
            if len(inputs) >= 2 * self.min_shard_size else None
        if pool is None:
            return self.oracle.solve(inputs)

        shards = self.shard(inputs)
        pe_idx = np.empty(len(inputs), dtype=np.int64)
        l2_idx = np.empty(len(inputs), dtype=np.int64)
        best = np.empty(len(inputs), dtype=np.float64)
        offsets = np.cumsum([0] + [len(rows) for _, rows in shards])
        # Shards reassemble by index, so completion order is irrelevant;
        # shards the pool lost for good are solved serially — the same
        # deterministic grid evaluation, bit-identical labels.
        try:
            results = self._supervisor.run(_label_shard, shards)
        except PoolBrokenError as exc:
            results = exc.completed
            for idx in exc.pending:
                solved = self.oracle.solve(shards[idx][1])
                results[idx] = (idx, solved.pe_idx, solved.l2_idx,
                                solved.best_cost)
        for idx, pe, l2, cost in results.values():
            sl = slice(offsets[idx], offsets[idx + 1])
            pe_idx[sl], l2_idx[sl], best[sl] = pe, l2, cost
        # Warm the parent cache: later serial solves (and persistent-cache
        # snapshots) reuse these labels instead of recomputing them.
        self.oracle.import_cache(inputs, pe_idx, l2_idx, best)
        return OracleResult(pe_idx=pe_idx, l2_idx=l2_idx, best_cost=best,
                            cost_grid=None)


def label_inputs(oracle: ExhaustiveOracle, inputs: np.ndarray,
                 num_workers: int | None = 1) -> OracleResult:
    """Label a batch, sharding across ``num_workers`` processes when > 1."""
    if num_workers is not None and num_workers > 1:
        with ShardedLabeller(oracle, num_workers=num_workers) as labeller:
            return labeller.label(inputs)
    return oracle.solve(inputs)
