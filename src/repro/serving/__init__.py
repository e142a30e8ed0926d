"""``repro.serving`` — the multi-model DSE serving subsystem.

Turns the batched inference engine (:class:`repro.core.BatchedDSEPredictor`)
into a serving stack:

* :class:`DynamicBatcher` / :class:`RequestQueue` — coalesce concurrent
  single-workload requests into engine batches (work-conserving:
  each batch is whatever queued while the engine was busy, up to a cap;
  per-request futures);
* :class:`ShardedSweepExecutor` — split huge sweeps across worker
  processes and reassemble the shards in order; with
  :class:`AutoscalePolicy`, worker count and shard size adapt to sweep
  size and observed per-worker throughput (decision-traced, results
  bit-identical to the fixed-shard path);
* :class:`PersistentOracleCache` — snapshot/restore the oracle's label
  cache across runs, fingerprint-guarded against stale labels;
* :class:`DSEServer` — the asyncio HTTP front-end hosting a
  :class:`~repro.registry.ModelRegistry` of models as :class:`ModelRoute`
  entries (``POST /predict`` routed by ``"model"``, streaming
  ``POST /sweep``, ``GET /models``, ``GET /healthz``, ``GET /stats``,
  ``GET /metrics``), with per-model :class:`ServingStats` accounting
  (including p50/p95/p99 service latency via :class:`LatencyHistogram`),
  bounded per-route admission (429 + Retry-After), per-request timeouts
  (504), stalled-request reads (408) and graceful drain on shutdown.

``python -m repro serve`` is the CLI entry point.
"""

from .batcher import DynamicBatcher, RequestQueue, ServedPrediction
from .cache import (CorruptCacheWarning, PersistentOracleCache,
                    StaleCacheWarning)
from .server import DSEServer, ModelRoute
from .sharded import AutoscaleDecision, AutoscalePolicy, ShardedSweepExecutor
from .stats import LatencyHistogram, ServingStats

__all__ = [
    "DynamicBatcher", "RequestQueue", "ServedPrediction",
    "ShardedSweepExecutor", "AutoscalePolicy", "AutoscaleDecision",
    "PersistentOracleCache", "StaleCacheWarning", "CorruptCacheWarning",
    "DSEServer", "ModelRoute",
    "ServingStats", "LatencyHistogram",
]
