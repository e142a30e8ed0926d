"""Benchmark: regenerate Table III (accuracy vs learning-based baselines).

Paper: GANDSE 84.39 | AIRCHITECT v1 77.60 | AIRCHITECT v2 91.17 (%).
Shape to reproduce: v2 is the most accurate technique, with the lowest
latency regret.
"""

from __future__ import annotations

from repro.experiments import run_table3


def test_table3_baseline_comparison(benchmark, run_once, scale, workspace):
    out = run_once(run_table3, scale, workspace)
    print("\n" + out["table"])

    results = out["results"]
    benchmark.extra_info["accuracy_pct"] = {
        name: round(100 * metrics.accuracy, 2)
        for name, metrics in results.items()}

    v2 = results["airchitect_v2"]
    assert v2.accuracy >= results["airchitect_v1"].accuracy
    assert v2.accuracy >= results["gandse"].accuracy
