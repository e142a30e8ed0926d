"""Benchmark: regenerate Figure 4 (problem-space complexity).

Shape to reproduce: the input-PCA to output-bucket map is irregular —
nearby inputs frequently demand different configurations — over an input
space of O(1e9) complexity, justifying a learned model over simple
classifiers.
"""

from __future__ import annotations

from repro.experiments import run_fig4


def test_fig4_problem_complexity(benchmark, run_once, scale, workspace):
    out = run_once(run_fig4, scale, workspace)
    print(f"\nFig. 4: input complexity {out['input_space_complexity']:.2e}, "
          f"{out['num_distinct_buckets']} output buckets in use, "
          f"NN-label disagreement {out['nn_label_disagreement']:.2f}")

    benchmark.extra_info["nn_label_disagreement"] = round(
        out["nn_label_disagreement"], 3)

    assert out["input_space_complexity"] > 1e9
    assert out["num_distinct_buckets"] >= 10
    # Irregularity: even nearest-neighbour inputs often disagree on buckets.
    assert out["nn_label_disagreement"] > 0.1
