"""Benchmark: regenerate Figure 7 (model-level latency on unseen models).

Paper shape: AIRCHITECT v2 achieves the lowest latency on every held-out
DNN/LLM; VAESA+BO is the closest baseline; the mean baseline-to-v2 latency
ratio is around 1.7x.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import run_fig7


def test_fig7_deployment_latency(benchmark, run_once, scale, workspace):
    out = run_once(run_fig7, scale, workspace)
    print("\n" + out["table"])
    print(f"mean baseline/v2 ratio: folded {out['mean_baseline_ratio']:.2f}x, "
          f"per-layer {out['mean_baseline_ratio_per_layer']:.2f}x")

    benchmark.extra_info["mean_baseline_ratio"] = round(
        out["mean_baseline_ratio"], 3)
    benchmark.extra_info["mean_baseline_ratio_per_layer"] = round(
        out["mean_baseline_ratio_per_layer"], 3)
    benchmark.extra_info["normalized_per_layer"] = {
        model: {k: round(v, 3) for k, v in entry.items()}
        for model, entry in out["normalized_per_layer"].items()}

    # Folded (Method 1): v2 never loses badly on any model — Method-1
    # folding is robust for every technique (see repro.experiments.fig7).
    for model, entry in out["normalized"].items():
        for method in ("airchitect_v1", "gandse", "vaesa_bo"):
            assert entry[method] >= 0.93, (model, method)
    # Per-layer (no candidate-pool rescue): v2's predictions must win on
    # average — this is where raw prediction quality shows.
    assert out["mean_baseline_ratio_per_layer"] >= 1.0
