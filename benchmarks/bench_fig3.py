"""Benchmark: regenerate Figure 3 (dataset landscape + long-tail evidence).

Shape to reproduce: (a) the latency landscape over the design grid is
non-convex (multiple local minima) with a wide dynamic range; (b) the
optimal-design histogram is long-tailed (high Gini, few head classes).
"""

from __future__ import annotations

from repro.experiments import run_fig3


def test_fig3_dataset_pathologies(benchmark, run_once, scale, workspace):
    out = run_once(run_fig3, scale, workspace)
    print("\n" + out["table"])

    landscape = out["landscape"]
    tail = out["longtail"]
    benchmark.extra_info["landscape"] = {
        k: round(v, 3) for k, v in landscape.items()}
    benchmark.extra_info["gini"] = round(tail.gini, 3)

    assert landscape["mean_local_minima"] >= 1.0       # non-convex
    assert landscape["mean_dynamic_range"] > 5.0       # non-uniform
    assert tail.gini > 0.6                             # long-tailed
    assert tail.head_share_top5 > 0.1
