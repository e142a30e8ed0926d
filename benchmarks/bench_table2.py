"""Benchmark: regenerate Table II (stage-1 loss ablation).

Paper rows (accuracy %): none 79.43 | L_perf 81.27 | L_C 89.97 | both 91.17.
Shape to reproduce: none < perf < contrastive < both, with the contrastive
term contributing the larger share of the gain.
"""

from __future__ import annotations

from repro.experiments import run_table2


def test_table2_stage1_ablation(benchmark, run_once, scale, workspace):
    out = run_once(run_table2, scale, workspace)
    print("\n" + out["table"])

    results = out["results"]
    benchmark.extra_info["accuracy_pct"] = {
        name: round(100 * metrics.accuracy, 2)
        for name, metrics in results.items()}

    # Both-losses must beat the no-extra-losses baseline.
    assert results["both"].accuracy >= results["none"].accuracy
    # Contrastive learning must provide a real improvement on its own.
    assert results["contrastive"].accuracy > results["none"].accuracy
