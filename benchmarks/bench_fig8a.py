"""Benchmark: regenerate Figure 8(a) (BO on contrastive vs VAE embedding).

Paper shape: Bayesian optimisation over the contrastive embedding space
converges to a lower normalised latency than over the VAE latent space at
the same sample budget (on a Llama2-7B target).
"""

from __future__ import annotations

from repro.experiments import run_fig8a


def test_fig8a_bo_convergence(benchmark, run_once, scale, workspace):
    out = run_once(run_fig8a, scale, workspace)
    print(f"\nFig. 8(a) target: {out['target_model']}")
    for name, curve in out["curves"].items():
        marks = [curve[min(i, len(curve) - 1)]
                 for i in (0, len(curve) // 2, len(curve) - 1)]
        print(f"  {name}: start {marks[0]:.3f} -> mid {marks[1]:.3f} "
              f"-> final {marks[2]:.3f} (x optimum)")

    benchmark.extra_info["final"] = {k: round(v, 4)
                                     for k, v in out["final"].items()}

    # Contrastive search must end at least as close to the optimum.
    assert out["final"]["contrastive_bo"] <= out["final"]["vaesa_bo"] + 0.02
    # Both curves are valid best-so-far traces bounded by the optimum.
    for curve in out["curves"].values():
        assert curve[-1] >= 1.0 - 1e-9
