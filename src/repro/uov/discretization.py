"""Space Increasing Discretization (SID) for UOV bucketisation.

The paper employs Space Increasing Discretization [30] to split a DSE
output range into K buckets whose widths *increase* with the index —
fine resolution where design points are dense (small configurations) and
coarse where the metric is flat (large configurations).

Following the OccDepth formulation, the bucket boundaries over a range
``[0, extent)`` are::

    r_i = extent * i * (i + 1) / (K * (K + 1)),   i = 0 .. K

so bucket ``i`` spans ``[r_i, r_{i+1})`` with width proportional to
``i + 1``.  The discretisation here operates in *choice-index space*
(e.g. [0, 64) for the PE head): design choices themselves are already a
non-linear (hardware-meaningful) quantisation of the physical range, and
index space is what the decoder's heads predict.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SpaceIncreasingDiscretization"]


class SpaceIncreasingDiscretization:
    """SID bucketisation of the half-open range ``[0, extent)``.

    Parameters
    ----------
    extent:
        Size of the value range (number of design choices for that head).
    num_buckets:
        K, the number of buckets.  ``K = 1`` degenerates to pure regression
        over the whole range; ``K = extent`` approaches pure classification
        (one value per bucket) — exactly the spectrum Fig. 8(b) sweeps.
    """

    def __init__(self, extent: float, num_buckets: int):
        if extent <= 0:
            raise ValueError("extent must be positive")
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.extent = float(extent)
        self.num_buckets = int(num_buckets)
        i = np.arange(self.num_buckets + 1, dtype=np.float64)
        self.boundaries = self.extent * i * (i + 1) / (self.num_buckets * (self.num_buckets + 1))
        self.widths = np.diff(self.boundaries)

    # ------------------------------------------------------------------
    def bucket_of(self, values) -> np.ndarray:
        """Bucket index for each value (values clipped into range)."""
        values = np.clip(np.asarray(values, dtype=np.float64), 0.0, np.nextafter(self.extent, 0))
        idx = np.searchsorted(self.boundaries, values, side="right") - 1
        return np.clip(idx, 0, self.num_buckets - 1)

    def to_coordinate(self, values) -> np.ndarray:
        """Map values to normalised bucket coordinates ``u in [0, K)``.

        ``u = n + (v - r_n) / w_n`` where ``n`` is the containing bucket.
        Within-bucket position is linear regardless of the physical bucket
        width, which keeps the ordinal encoding's ``1 - exp(-.)`` term
        well-resolved.
        """
        values = np.clip(np.asarray(values, dtype=np.float64), 0.0, np.nextafter(self.extent, 0))
        n = self.bucket_of(values)
        offset = (values - self.boundaries[n]) / self.widths[n]
        return n + np.clip(offset, 0.0, np.nextafter(1.0, 0))

    def from_coordinate(self, u) -> np.ndarray:
        """Inverse of :meth:`to_coordinate`."""
        u = np.clip(np.asarray(u, dtype=np.float64), 0.0, np.nextafter(self.num_buckets, 0))
        n = np.clip(u.astype(np.int64), 0, self.num_buckets - 1)
        return self.boundaries[n] + (u - n) * self.widths[n]
