#!/usr/bin/env python
"""Survey every DSE technique in the repository on one workload.

Search-based (GP-BO over the raw design space) and learning-based
(AIRCHITECT v1 / GANDSE / VAESA+BO / AIRCHITECT v2) methods all optimise
the same Table-I hardware assignment for a ResNet-50 bottleneck layer —
the Fig. 1 story: search methods pay per-query evaluations, learned
methods amortise them into training.

Run:  python examples/compare_dse_methods.py  (~3 minutes)
"""

from __future__ import annotations

import numpy as np

from repro.baselines import (GANDSE, GANDSEConfig, AirchitectV1, V1Config,
                             VAESA, VAESAConfig, train_gandse, train_v1,
                             train_vaesa)
from repro.core import (AirchitectV2, ModelConfig, Stage1Config, Stage1Trainer,
                        Stage2Config, Stage2Trainer)
from repro.dse import DSEProblem, ExhaustiveOracle, generate_random_dataset
from repro.search import BOConfig, bayesian_optimization


def main() -> None:
    rng = np.random.default_rng(2)
    problem = DSEProblem()
    oracle = ExhaustiveOracle(problem)
    space = problem.space

    # ResNet-50 layer3 3x3 conv lowered to GEMM, weight-stationary mapping.
    target = np.array([256, 196, 2304 // 2, 0])
    target[2] = min(target[2], problem.bounds.k_max)
    truth = oracle.solve(target.reshape(1, 4))
    optimum = float(truth.best_cost[0])
    print(f"Target layer: M={target[0]} N={target[1]} K={target[2]} (WS)")
    print(f"Oracle optimum: {space.pe_choices[truth.pe_idx[0]]} PEs, "
          f"{space.l2_choices[truth.l2_idx[0]]} KB -> {optimum:,.0f} cycles\n")

    rows: list[tuple[str, float, str]] = []

    def record(name, cost, note):
        rows.append((name, cost / optimum, note))

    # ---------------- search-based ------------------------------------
    bo_res = bayesian_optimization(
        lambda x: float(oracle.cost_at(target.reshape(1, 4),
                                       [int(round(x[0]))],
                                       [int(round(x[1]))])[0]),
        np.array([[0, space.n_pe - 1], [0, space.n_l2 - 1]], dtype=float),
        rng, BOConfig(init_points=8, iterations=40))
    record("GP-BO (raw space)", bo_res.cost, f"{len(bo_res.history)} evals")

    # ---------------- learning-based ----------------------------------
    print("Training the learned methods on a shared 4000-sample dataset ...")
    train = generate_random_dataset(problem, 4000, rng, oracle=oracle)

    v1 = AirchitectV1(V1Config(epochs=15), problem, rng)
    train_v1(v1, train)
    pe, l2 = v1.predict_indices(target.reshape(1, 4))
    record("AIRCHITECT v1", float(oracle.cost_at(target.reshape(1, 4),
                                                 pe, l2)[0]), "one-shot")

    gan = GANDSE(GANDSEConfig(epochs=15), problem, rng)
    train_gandse(gan, train)
    pe, l2 = gan.predict_indices(target.reshape(1, 4))
    record("GANDSE", float(oracle.cost_at(target.reshape(1, 4),
                                          pe, l2)[0]), "one-shot")

    vae = VAESA(VAESAConfig(epochs=15), problem, rng)
    train_vaesa(vae, train)
    pe_i, l2_i, _ = vae.search(target, rng, BOConfig(iterations=40),
                               oracle=oracle)
    record("VAESA + BO", float(oracle.cost_at(target.reshape(1, 4),
                                              [pe_i], [l2_i])[0]),
           "48 evals in latent space")

    v2 = AirchitectV2(ModelConfig(d_model=32, embed_dim=16), problem, rng)
    Stage1Trainer(v2, Stage1Config(epochs=12)).train(train)
    Stage2Trainer(v2, Stage2Config(epochs=12)).train(train)
    pe, l2 = v2.predict_indices(target.reshape(1, 4))
    record("AIRCHITECT v2", float(oracle.cost_at(target.reshape(1, 4),
                                                 pe, l2)[0]), "one-shot")

    print(f"\n{'method':24s} {'latency vs optimum':>20s}   cost")
    print("-" * 60)
    for name, ratio, note in rows:
        print(f"{name:24s} {ratio:19.3f}x   {note}")


if __name__ == "__main__":
    main()
