"""Dataflow definitions and spatial-mapping analysis.

The paper's input feature ``dataflow`` is a choice among three canonical
styles (Table I):

* **Weight stationary** (WS, NVDLA [6]):     the ``B`` operand (weights,
  K x N) is pinned in PE-local storage; the ``M`` dimension streams through.
* **Output stationary** (OS, ShiDianNao [8]): the ``C`` operand (outputs,
  M x N) is pinned; the ``K`` (reduction) dimension streams through.
* **Row stationary** (RS, Eyeriss [7]):       input rows (``A``, M x K) are
  pinned; the ``N`` dimension streams through.  (For GEMM this captures
  RS's property of maximising input-operand reuse.)

Each dataflow therefore spatially tiles a different pair of GEMM dimensions
across the PE array and streams the third — which is what makes the optimal
hardware configuration depend on the *shape* of the layer, the core
phenomenon AIRCHITECT v2 learns.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

import numpy as np

__all__ = ["Dataflow", "array_dims", "spatial_analysis", "SpatialAnalysis"]


class Dataflow(enum.IntEnum):
    """The three dataflow choices of Table I (encoded 0/1/2 as features)."""

    WEIGHT_STATIONARY = 0
    OUTPUT_STATIONARY = 1
    ROW_STATIONARY = 2

    @property
    def short_name(self) -> str:
        return {Dataflow.WEIGHT_STATIONARY: "ws",
                Dataflow.OUTPUT_STATIONARY: "os",
                Dataflow.ROW_STATIONARY: "rs"}[self]

    @classmethod
    def from_any(cls, value) -> "Dataflow":
        """Accept a Dataflow, int, or name string ('ws'/'os'/'rs')."""
        if isinstance(value, cls):
            return value
        if isinstance(value, (int, np.integer)):
            return cls(int(value))
        key = str(value).lower()
        for df in cls:
            if key in (df.short_name, df.name.lower()):
                return df
        raise ValueError(f"unknown dataflow: {value!r}")


@lru_cache(maxsize=4096)
def array_dims(num_pes: int) -> tuple[int, int]:
    """Factor ``num_pes`` into the most square (rows, cols) PE array.

    Returns the largest divisor pair ``(a1, a2)`` with ``a1 <= a2`` and
    ``a1 * a2 == num_pes``.  Near-square arrays minimise the NoC diameter
    (fill/drain latency grows with a1 + a2).
    """
    if num_pes < 1:
        raise ValueError("num_pes must be >= 1")
    a1 = int(math.isqrt(num_pes))
    while a1 > 1 and num_pes % a1 != 0:
        a1 -= 1
    return a1, num_pes // a1


class SpatialAnalysis:
    """Vectorised spatial-mapping statistics for one dataflow.

    MAESTRO models a *flexible* accelerator: a flat pool of P PEs connected
    by a NoC (not a rigid 2-D grid), so a stationary set occupies up to P
    work units regardless of how the spatial dims factor.  For a dataflow
    that spatially maps GEMM dims ``(d1, d2)`` and streams dimension ``s``:

    * ``work``             — total spatial work units, d1 * d2
    * ``steps``            — stationary-set swaps: ceil(work / P)
    * ``stream``           — cycles of streaming per stationary set (s)
    * ``fill``             — NoC fill/drain per set: 2 * (ceil(sqrt(P)) - 1),
                             the network diameter of a P-PE mesh
    * ``compute_cycles``   — steps * (stream + fill)
    * ``utilization``      — work / (steps * P)

    All attributes are numpy arrays broadcast over the inputs.
    """

    #: dataflow -> (spatial dims, streamed dim) as index into (M, N, K)
    _MAPPING = {
        Dataflow.WEIGHT_STATIONARY: ((2, 1), 0),   # spatial (K, N), stream M
        Dataflow.OUTPUT_STATIONARY: ((0, 1), 2),   # spatial (M, N), stream K
        Dataflow.ROW_STATIONARY: ((0, 2), 1),      # spatial (M, K), stream N
    }

    def __init__(self, dataflow: Dataflow, m, n, k, pes):
        dims = np.stack(np.broadcast_arrays(
            np.asarray(m, dtype=np.int64),
            np.asarray(n, dtype=np.int64),
            np.asarray(k, dtype=np.int64)))
        pes = np.asarray(pes, dtype=np.int64)

        (i1, i2), i_s = self._MAPPING[Dataflow.from_any(dataflow)]
        d1, d2 = dims[i1], dims[i2]
        stream = dims[i_s]

        d1, d2, stream, pes = np.broadcast_arrays(d1, d2, stream, pes)
        side = np.ceil(np.sqrt(pes.astype(np.float64))).astype(np.int64)

        self.work = d1 * d2
        self.steps = -(-self.work // pes)  # ceil division
        self.stream = stream
        self.rows = side
        self.cols = side
        # NoC fill/drain: operands ripple across the mesh diameter.
        self.fill = 2 * (side - 1)
        self.compute_cycles = self.steps * (stream + self.fill)
        self.utilization = self.work / (self.steps * pes)


def spatial_analysis(dataflow, m, n, k, pes) -> SpatialAnalysis:
    """Convenience constructor accepting any dataflow designator."""
    return SpatialAnalysis(Dataflow.from_any(dataflow), m, n, k, pes)

