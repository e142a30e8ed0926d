"""``repro.faults`` — fault injection and the self-healing it exercises.

Three cooperating pieces:

* :mod:`~repro.faults.injection` — a deterministic, seedable registry of
  named injection points (``pool.worker_crash``, ``pool.shard_hang``,
  ``storage.torn_write``, ``engine.transient_error``) armed via
  :func:`inject_faults` or the ``REPRO_FAULTS`` environment variable,
  with a zero-overhead disarmed path.
* :mod:`~repro.faults.supervisor` — :class:`PoolSupervisor`, the
  self-healing core of the labelling process pool: per-shard
  timeouts, retry-on-rebuilt-pool with :class:`RetryPolicy` backoff,
  graceful degradation to in-process execution.
* :mod:`~repro.faults.breaker` — the per-route serving
  :class:`CircuitBreaker` (closed → open → half-open).

See the README's "Fault tolerance" section for the operational story.
"""

from .breaker import STATE_CODES, CircuitBreaker
from .injection import (POINTS, FaultRegistry, TransientEngineError, active,
                        arm_from_env, fire, inject_faults)
from .retry import RetryPolicy
from .supervisor import PoolBrokenError, PoolSupervisor

__all__ = [
    "POINTS", "FaultRegistry", "TransientEngineError",
    "active", "arm_from_env", "fire", "inject_faults",
    "RetryPolicy", "CircuitBreaker", "STATE_CODES",
    "PoolSupervisor", "PoolBrokenError",
]
