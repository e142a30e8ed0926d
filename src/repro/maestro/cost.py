"""The MAESTRO-style analytical cost model: latency, energy, utilisation.

Latency is a roofline over three engines plus tile-phase overhead::

    latency = max(compute_cycles, noc_cycles, dram_cycles)
              + switches * l2_access_latency(l2_kb) + fill

* ``compute_cycles`` comes from the dataflow's spatial analysis
  (:mod:`repro.maestro.dataflow`): stationary-set swaps, streaming length
  and systolic fill/drain.
* ``noc_cycles`` counts elements crossing the L2 <-> PE-array NoC:
  ``steps * (P + stream * (rows + cols))`` elements.
* ``dram_cycles`` comes from the tiling analysis
  (:mod:`repro.maestro.tiling`).
* the L2 pipeline term grows logarithmically with buffer size, so
  over-provisioned buffers are (mildly) harmful — this yields the interior
  optima and long-tailed label distribution the paper observes (Fig. 3).

Everything broadcasts: the oracle evaluates the full 64 x 12 design grid
for batches of layers in a single numpy pass (``evaluate_grid``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accelerator import AcceleratorConfig, Technology
from .dataflow import Dataflow, SpatialAnalysis
from .tiling import analyze_tiling
from .workload import GemmWorkload

__all__ = ["CostBreakdown", "CostModel"]


@dataclass
class CostBreakdown:
    """Vectorised cost-model outputs (broadcast numpy arrays)."""

    latency_cycles: np.ndarray
    compute_cycles: np.ndarray
    noc_cycles: np.ndarray
    dram_cycles: np.ndarray
    overhead_cycles: np.ndarray
    energy_pj: np.ndarray
    utilization: np.ndarray

    @property
    def edp(self) -> np.ndarray:
        """Energy-delay product (pJ * cycles)."""
        return self.energy_pj * self.latency_cycles

    def bound_by(self) -> np.ndarray:
        """Which engine dominates: 0=compute, 1=noc, 2=dram."""
        stacked = np.stack([self.compute_cycles, self.noc_cycles, self.dram_cycles])
        return np.argmax(stacked, axis=0)


class CostModel:
    """Analytical latency/energy model for GEMM on the Table-I accelerator."""

    def __init__(self, technology: Technology | None = None):
        self.technology = technology or Technology()

    # ------------------------------------------------------------------
    # Vectorised core
    # ------------------------------------------------------------------
    def evaluate(self, m, n, k, dataflow, pes, l2_kb) -> CostBreakdown:
        """Evaluate the model with full broadcasting over all arguments.

        ``dataflow`` must be a single :class:`Dataflow` designator (use
        :meth:`evaluate_mixed` for per-sample dataflow arrays).
        """
        tech = self.technology
        dataflow = Dataflow.from_any(dataflow)

        m = np.asarray(m, dtype=np.int64)
        n = np.asarray(n, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        pes = np.asarray(pes, dtype=np.int64)
        l2_kb = np.asarray(l2_kb, dtype=np.float64)
        m, n, k, pes, l2_kb = np.broadcast_arrays(m, n, k, pes, l2_kb)

        spatial = SpatialAnalysis(dataflow, m, n, k, pes)
        capacity = l2_kb * 1024.0 / tech.element_bytes
        tiles = analyze_tiling(dataflow, m, n, k, capacity)

        compute = spatial.compute_cycles.astype(np.float64)

        # NoC traffic: every stationary element crosses once (total = work),
        # plus per-set streaming through the array boundary (~2 * sqrt(P)
        # lanes in/out).
        noc_elems = (spatial.work
                     + spatial.steps * spatial.stream * (spatial.rows + spatial.cols))
        noc_cycles = noc_elems * tech.element_bytes / tech.noc_bandwidth

        dram_bytes = tiles.dram_elems * tech.element_bytes
        dram_cycles = dram_bytes / tech.dram_bandwidth

        l2_latency = (tech.l2_latency_base
                      + tech.l2_latency_slope * np.log2(np.maximum(l2_kb / 16.0, 1.0)))
        overhead = tiles.switches * l2_latency + spatial.fill

        latency = np.maximum(np.maximum(compute, noc_cycles), dram_cycles) + overhead

        macs = (m * n * k).astype(np.float64)
        l2_energy_rate = (tech.e_l2_base
                          + tech.e_l2_slope * np.log2(np.maximum(l2_kb / 16.0, 1.0)))
        noc_bytes = noc_elems * tech.element_bytes
        energy = (macs * tech.e_mac
                  + 3.0 * macs * tech.e_l1
                  + noc_bytes * tech.e_noc
                  + (noc_bytes + dram_bytes) * l2_energy_rate
                  + dram_bytes * tech.e_dram)

        return CostBreakdown(latency_cycles=latency,
                             compute_cycles=compute,
                             noc_cycles=noc_cycles,
                             dram_cycles=dram_cycles,
                             overhead_cycles=overhead,
                             energy_pj=energy,
                             utilization=spatial.utilization)

    def evaluate_mixed(self, m, n, k, dataflow_idx, pes, l2_kb) -> CostBreakdown:
        """Like :meth:`evaluate` but ``dataflow_idx`` is a per-sample array.

        Each dataflow is evaluated only on the samples that use it.  The
        model is elementwise, so this equals evaluating every dataflow on
        every sample and selecting per sample, bit for bit.
        """
        m, n, k, dataflow_idx, pes, l2_kb = np.broadcast_arrays(
            np.asarray(m, dtype=np.int64), np.asarray(n, dtype=np.int64),
            np.asarray(k, dtype=np.int64),
            np.asarray(dataflow_idx, dtype=np.int64),
            np.asarray(pes, dtype=np.int64),
            np.asarray(l2_kb, dtype=np.float64))
        if ((dataflow_idx < 0) | (dataflow_idx >= len(Dataflow))).any():
            raise ValueError("dataflow_idx must be in 0.."
                             f"{len(Dataflow) - 1}")
        if dataflow_idx.size == 0:          # no rows: empty fields
            return self.evaluate(m, n, k, 0, pes, l2_kb)
        out = {}
        for df in Dataflow:
            mask = dataflow_idx == df
            if not mask.any():
                continue
            part = self.evaluate(m[mask], n[mask], k[mask], df, pes[mask],
                                 l2_kb[mask])
            for field, values in vars(part).items():
                if field not in out:
                    out[field] = np.empty(dataflow_idx.shape, values.dtype)
                out[field][mask] = values
        return CostBreakdown(**out)

    # ------------------------------------------------------------------
    # Convenience scalar / grid APIs
    # ------------------------------------------------------------------
    def latency(self, workload: GemmWorkload, dataflow,
                config: AcceleratorConfig) -> float:
        """Scalar latency in cycles for one (layer, dataflow, config)."""
        result = self.evaluate(workload.m, workload.n, workload.k, dataflow,
                               config.num_pes, config.l2_kb)
        return float(result.latency_cycles)

    def energy(self, workload: GemmWorkload, dataflow,
               config: AcceleratorConfig) -> float:
        """Scalar energy in pJ for one (layer, dataflow, config)."""
        result = self.evaluate(workload.m, workload.n, workload.k, dataflow,
                               config.num_pes, config.l2_kb)
        return float(result.energy_pj)

    def evaluate_grid(self, m, n, k, dataflow, pe_choices: np.ndarray,
                      l2_choices: np.ndarray) -> CostBreakdown:
        """Evaluate a batch of layers over the full design grid.

        Parameters
        ----------
        m, n, k:
            Arrays of shape ``(batch,)``.
        dataflow:
            A single dataflow designator.
        pe_choices, l2_choices:
            1-D arrays of the discrete design choices.

        Returns
        -------
        CostBreakdown with arrays of shape ``(batch, len(pe_choices),
        len(l2_choices))``.
        """
        m = np.asarray(m).reshape(-1, 1, 1)
        n = np.asarray(n).reshape(-1, 1, 1)
        k = np.asarray(k).reshape(-1, 1, 1)
        pes = np.asarray(pe_choices).reshape(1, -1, 1)
        l2 = np.asarray(l2_choices).reshape(1, 1, -1)
        return self.evaluate(m, n, k, dataflow, pes, l2)
