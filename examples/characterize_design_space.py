#!/usr/bin/env python
"""Explore the DSE landscape with the cost model alone (no training).

Reproduces the paper's motivation figures numerically: the non-uniform,
non-convex latency landscape (Fig. 3a), the long-tailed optimal-design
distribution (Fig. 3b), and how the winning dataflow changes with layer
shape (Fig. 1) — all from the MAESTRO-style analytical model.

Run:  python examples/characterize_design_space.py  (~30 seconds)
"""

from __future__ import annotations

import numpy as np

from repro.analysis import grid_landscape_stats, longtail_stats
from repro.dse import DSEProblem, ExhaustiveOracle
from repro.maestro import CostModel, Dataflow


def ascii_heatmap(grid: np.ndarray, title: str) -> None:
    """Log-scaled ASCII rendering of a (PE x L2) latency grid."""
    shades = " .:-=+*#%@"
    logs = np.log(grid)
    norm = (logs - logs.min()) / max(logs.max() - logs.min(), 1e-12)
    print(title)
    print("      L2: 16KB " + " " * 14 + "-> 32MB")
    for r in range(0, grid.shape[0], 8):
        row = "".join(shades[int(v * (len(shades) - 1))] for v in norm[r])
        print(f"  PE {8 * (r + 1):4d} |{row}|")
    print()


def main() -> None:
    problem = DSEProblem()
    cost_model = CostModel()
    oracle = ExhaustiveOracle(problem)
    rng = np.random.default_rng(3)
    space = problem.space

    print("== 1. Latency landscapes (dark = fast) for three layer shapes\n")
    shapes = [("small edge layer", 16, 64, 32),
              ("ResNet-ish conv", 128, 784, 576),
              ("LLM FFN slice", 256, 1677, 1024)]
    for name, m, n, k in shapes:
        out = cost_model.evaluate_grid(np.array([m]), np.array([n]),
                                       np.array([k]), "os",
                                       space.pe_choices, space.l2_choices)
        grid = out.latency_cycles[0]
        stats = grid_landscape_stats(grid)
        ascii_heatmap(grid, f"{name}: M={m} N={n} K={k}  "
                      f"({stats.num_local_minima} local minima, "
                      f"{stats.dynamic_range:.0f}x latency range)")

    print("== 2. Long-tailed optimal-design distribution (Fig. 3b)")
    inputs = problem.sample_inputs(5000, rng)
    labels_result = oracle.solve(inputs)
    labels = labels_result.pe_idx * space.n_l2 + labels_result.l2_idx
    tail = longtail_stats(labels, space.size)
    print(f"   {tail.num_classes_used} of {space.size} design points are "
          f"ever optimal")
    print(f"   top-5 classes hold {100 * tail.head_share_top5:.0f}% of "
          f"samples; gini = {tail.gini:.2f}")
    counts = np.sort(np.bincount(labels, minlength=space.size))[::-1]
    bar_max = counts[0]
    for i in [0, 1, 2, 10, 50, 100]:
        bar = "#" * int(40 * counts[i] / bar_max)
        print(f"   rank {i + 1:4d}: {bar} {counts[i]}")

    print("\n== 3. The winning dataflow depends on layer shape (Fig. 1)")
    config_pe, config_l2 = 128, 512
    for name, m, n, k in [("tall (big M)", 256, 32, 32),
                          ("wide (big N)", 32, 1600, 32),
                          ("deep (big K)", 32, 32, 1100)]:
        lats = {df.short_name: float(cost_model.evaluate(
            m, n, k, df, config_pe, config_l2).latency_cycles)
            for df in Dataflow}
        winner = min(lats, key=lats.get)
        pretty = ", ".join(f"{d}={v:,.0f}" for d, v in lats.items())
        print(f"   {name:14s}: {pretty}  -> winner: {winner}")


if __name__ == "__main__":
    main()
