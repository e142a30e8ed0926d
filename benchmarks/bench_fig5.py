"""Benchmark: regenerate Figure 5 (embedding space w/ vs w/o contrastive).

Shape to reproduce: the contrastive encoder produces a more *uniform*
embedding (lower log-potential) with better class *separation* than the
identical encoder trained without L_C.
"""

from __future__ import annotations

from repro.experiments import run_fig5


def test_fig5_embedding_quality(benchmark, run_once, scale, workspace):
    out = run_once(run_fig5, scale, workspace)
    print("\n" + out["table"])

    with_c = out["with_contrastive"]["stats"]
    without_c = out["without_contrastive"]["stats"]
    benchmark.extra_info["separation"] = {
        "with": round(with_c.separation, 3),
        "without": round(without_c.separation, 3)}

    assert with_c.uniformity < without_c.uniformity
    assert with_c.separation > without_c.separation
