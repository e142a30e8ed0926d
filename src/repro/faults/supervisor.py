"""Self-healing process-pool supervision.

:class:`PoolSupervisor` is the self-healing core of
:class:`repro.dse.ShardedLabeller`: it owns the ``multiprocessing.Pool``,
dispatches pure index-tagged shards with a per-shard timeout, and — when
a worker is lost (SIGKILL), hangs, or a shard raises — retries exactly
the missing shards on a *rebuilt* pool with capped exponential backoff.
After :class:`~repro.faults.RetryPolicy.max_rebuilds` rebuilds it gives
up and raises :class:`PoolBrokenError` carrying everything that *did*
complete, so the caller can finish the remainder in-process — results
stay bit-identical to the fault-free path because shards are pure
functions of their rows and are reassembled by index.

Why per-shard ``apply_async`` handles instead of ``imap_unordered``: a
SIGKILLed worker's in-flight task simply never produces a result —
``Pool`` silently respawns the worker but the iterator would block
forever.  Individual handles give us a place to hang a timeout and an
exact inventory of which shards are missing.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import weakref

from ..obs import get_logger
from .retry import RetryPolicy

#: Once one shard has failed, surviving handles get this much grace to
#: deliver before their shards are declared missing and re-dispatched.
HARVEST_TIMEOUT_S = 0.25


class PoolBrokenError(RuntimeError):
    """The pool could not complete the batch.  ``completed`` maps shard
    index -> result for everything that finished; ``pending`` lists the
    shard indices the caller must compute in-process."""

    def __init__(self, message: str, completed: dict | None = None,
                 pending=None):
        super().__init__(message)
        self.completed = dict(completed or {})
        self.pending = list(pending or [])


#: How long graceful ``Pool.terminate`` gets before teardown is forced.
TEARDOWN_TIMEOUT_S = 5.0


def _terminate_pool(pool, timeout_s: float = TEARDOWN_TIMEOUT_S) -> None:
    """Tear down a pool without deadlocking on its shared queue lock.

    ``Pool.terminate`` flushes the task queue under ``inqueue._rlock``;
    a worker SIGKILLed while holding that lock leaves it locked forever,
    so the graceful path runs on a daemon thread with a deadline.  Past
    the deadline the workers are SIGKILLed directly and the pool's
    atexit finalizer is cancelled — it would hit the same deadlock at
    interpreter shutdown — leaving only daemon threads to abandon.
    """
    done = threading.Event()

    def _graceful():
        try:
            pool.terminate()
            pool.join()
        except Exception:   # crashed pool: teardown is best-effort
            pass
        done.set()

    thread = threading.Thread(target=_graceful, daemon=True,
                              name="repro-pool-teardown")
    thread.start()
    if done.wait(timeout_s):
        return
    for proc in list(getattr(pool, "_pool", []) or []):
        if proc.pid is not None and proc.is_alive():
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except OSError:
                pass
    finalizer = getattr(pool, "_terminate", None)
    if finalizer is not None and hasattr(finalizer, "cancel"):
        try:
            finalizer.cancel()
        except Exception:
            pass


class PoolSupervisor:
    """Owns, monitors, rebuilds and retires one process pool.

    ``factory`` builds a fresh ``multiprocessing.Pool`` (or returns None
    when pooling is impossible — no usable start method, fd exhaustion);
    the supervisor then reports itself *degraded* and every ``run``
    raises :class:`PoolBrokenError` immediately so callers fall back to
    in-process execution.
    """

    def __init__(self, factory, *, shard_timeout_s: float | None = 120.0,
                 retry: RetryPolicy | None = None, name: str = "pool",
                 sleep=time.sleep):
        self._factory = factory
        self.shard_timeout_s = shard_timeout_s
        self.retry = retry or RetryPolicy()
        self._name = name
        self._sleep = sleep
        self._log = get_logger("faults.pool")
        self._pool = None
        self._pool_finalizer = None
        self.degraded = False
        self.degraded_reason: str | None = None
        self.retries = 0        # shards re-dispatched
        self.rebuilds = 0       # pools rebuilt after a failure

    # -- pool lifecycle ---------------------------------------------------

    @property
    def pool(self):
        return self._pool

    def ensure(self):
        """The live pool, building one if needed; None when degraded or
        the factory declines to build one."""
        if self.degraded:
            return None
        if self._pool is None:
            pool = self._factory()
            if pool is None:
                self._mark_degraded("pool factory declined to build a pool")
                return None
            self._pool = pool
            self._pool_finalizer = weakref.finalize(self, _terminate_pool,
                                                    pool)
        return self._pool

    def worker_pids(self) -> list[int]:
        """PIDs of the current pool's workers (for chaos tests that kill
        real processes)."""
        if self._pool is None:
            return []
        return [proc.pid for proc in getattr(self._pool, "_pool", [])
                if proc.pid is not None]

    def close(self) -> None:
        """Idempotent, exception-safe teardown — callable on a pool whose
        workers have already been killed."""
        self._teardown()

    def _teardown(self) -> None:
        pool, self._pool = self._pool, None
        finalizer, self._pool_finalizer = self._pool_finalizer, None
        if finalizer is not None:
            finalizer.detach()
        if pool is not None:
            _terminate_pool(pool)

    def _mark_degraded(self, reason: str) -> None:
        if not self.degraded:
            self.degraded = True
            self.degraded_reason = reason
            self._log.warning("%s: degrading to in-process execution: %s",
                              self._name, reason)

    # -- supervised execution ---------------------------------------------

    def run(self, func, tasks) -> dict:
        """Run ``func((idx, payload))`` for every ``(idx, payload)`` in
        ``tasks`` on the pool; returns {idx: result}.  Missing/failed
        shards are retried on rebuilt pools per the retry policy; raises
        :class:`PoolBrokenError` (carrying partial results) when the pool
        cannot finish."""
        pending = {int(idx): payload for idx, payload in tasks}
        results: dict = {}
        attempt = 0
        while pending:
            pool = self.ensure()
            if pool is None:
                raise PoolBrokenError(
                    f"{self._name}: process pool unavailable "
                    f"({self.degraded_reason}); {len(pending)} shard(s) "
                    f"left for in-process fallback", results,
                    sorted(pending))
            failure = self._dispatch(pool, func, pending, results)
            if not pending:
                break
            self.retries += len(pending)
            self._teardown()
            if attempt >= self.retry.max_rebuilds:
                self._mark_degraded(
                    f"{len(pending)} shard(s) still failing after "
                    f"{attempt + 1} pool build(s); last error: {failure!r}")
                raise PoolBrokenError(
                    f"{self._name}: {len(pending)} shard(s) failed after "
                    f"{attempt + 1} pool build(s) (last error: {failure!r})",
                    results, sorted(pending))
            delay = self.retry.backoff_s(attempt)
            self._log.warning(
                "%s: %d shard(s) failed (%r); rebuilding pool "
                "(rebuild %d/%d) after %.2fs backoff", self._name,
                len(pending), failure, attempt + 1,
                self.retry.max_rebuilds, delay)
            if delay > 0:
                self._sleep(delay)
            attempt += 1
            self.rebuilds += 1
        return results

    def _dispatch(self, pool, func, pending: dict, results: dict):
        """One dispatch round: returns the first failure (or None) and
        moves finished shards from ``pending`` into ``results``."""
        try:
            handles = [(idx, pool.apply_async(func, ((idx, pending[idx]),)))
                       for idx in sorted(pending)]
        except Exception as exc:        # pool already broken at dispatch
            return exc
        failure = None
        for idx, handle in handles:
            timeout = (HARVEST_TIMEOUT_S if failure is not None
                       else self.shard_timeout_s)
            try:
                out = handle.get(timeout)
            except multiprocessing.TimeoutError:
                if failure is None:
                    failure = TimeoutError(
                        f"shard {idx}: no result within {timeout:g}s "
                        f"(worker lost or hung)")
            except Exception as exc:
                if failure is None:
                    failure = exc
            else:
                results[idx] = out
                pending.pop(idx)
        return failure
