#!/usr/bin/env python
"""Deployment scenario: size an accelerator for an unseen LLM (§III-E).

The workload the paper's intro motivates: an engineer must pick one
(PE count, L2 buffer) configuration to serve a *new* model that was never
in the training set.  This script trains AIRCHITECT v2 on the 105-model
zoo dataset, then deploys it for Llama2-7B prefill using both paper
methods, comparing against the exhaustive deployment oracle.

Run:  python examples/deploy_llm_accelerator.py  (~3-4 minutes)
"""

from __future__ import annotations

import numpy as np

from repro.core import (AirchitectV2, DeploymentEvaluator, ModelConfig,
                        Stage1Config, Stage1Trainer, Stage2Config,
                        Stage2Trainer)
from repro.dse import DSEProblem, generate_workload_dataset
from repro.workloads import all_training_layers, llama


def main() -> None:
    rng = np.random.default_rng(1)
    problem = DSEProblem()

    print("== 1. Train on layers from the 105-model workload zoo")
    dataset = generate_workload_dataset(problem, all_training_layers(), rng,
                                        target_count=5000)
    model = AirchitectV2(ModelConfig(d_model=32, embed_dim=16), problem, rng)
    Stage1Trainer(model, Stage1Config(epochs=10)).train(dataset)
    Stage2Trainer(model, Stage2Config(epochs=10)).train(dataset)

    print("== 2. The unseen target: Llama2-7B prefill @ 2048 tokens")
    workload = llama("llama2_7b", seq=2048)
    print(f"   {workload}")

    evaluator = DeploymentEvaluator(problem)
    tuples = evaluator.layer_inputs(workload)
    pe_idx, l2_idx = model.predict_indices(tuples)

    print("== 3. Per-layer one-shot recommendations")
    space = problem.space
    for layer, count, p, l in zip(workload.layers, workload.counts,
                                  pe_idx, l2_idx):
        print(f"   {layer.name:24s} x{count:4d}  (M={layer.m:5d} N={layer.n:5d}"
              f" K={layer.k:5d}) -> {space.pe_choices[p]:4d} PEs,"
              f" {space.l2_choices[l]:6d} KB")

    print("== 4. Fold into one configuration (deployment methods)")
    m1 = evaluator.method1(workload, pe_idx, l2_idx)
    m2 = evaluator.method2(workload, pe_idx, l2_idx)
    oracle = evaluator.oracle_deployment(workload)
    print(f"   Method 1 (min model latency) : {m1.num_pes:4d} PEs "
          f"{m1.l2_kb:6d} KB -> {m1.total_latency:,.0f} cycles")
    print(f"   Method 2 (bottleneck layer)  : {m2.num_pes:4d} PEs "
          f"{m2.l2_kb:6d} KB -> {m2.total_latency:,.0f} cycles")
    print(f"   Exhaustive oracle            : {oracle.num_pes:4d} PEs "
          f"{oracle.l2_kb:6d} KB -> {oracle.total_latency:,.0f} cycles")
    print(f"   Method 1 vs oracle gap       : "
          f"{100 * (m1.total_latency / oracle.total_latency - 1):.1f}%")

    print(f"   One-shot v2 needed {len(tuples)} forward passes — "
          "no search loop at deployment time.")


if __name__ == "__main__":
    main()
