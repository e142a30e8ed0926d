"""Benchmark: regenerate Figure 8(b) (UOV bucket-count sweep).

Paper shape: accuracy rises with the number of buckets and saturates
around K = 16, while model size grows monotonically with K — motivating
the K = 16 choice.
"""

from __future__ import annotations

from repro.experiments import run_fig8b


def test_fig8b_bucket_sweep(benchmark, run_once, scale, workspace):
    out = run_once(run_fig8b, scale, workspace)
    print("\n" + out["table"])

    sweep = out["sweep"]
    results = out["results"]
    benchmark.extra_info["accuracy_pct"] = {
        k: round(100 * results[k]["metrics"].accuracy, 2) for k in sweep}

    # Model size strictly grows with K.
    sizes = [results[k]["head_params"] for k in sweep]
    assert sizes == sorted(sizes)
    assert sizes[-1] > sizes[0]
    # Enough buckets must beat very coarse bucketisation.
    accs = {k: results[k]["metrics"].accuracy for k in sweep}
    assert max(accs[k] for k in sweep if k >= 16) >= accs[sweep[0]]
