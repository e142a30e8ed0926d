"""Tiny-scale smoke + structure tests of every table/figure runner.

These validate the *structure* each experiment must produce (keys, shapes,
invariants that hold at any scale).  Quantitative orderings are asserted by
the ``benchmarks/bench_*.py`` runs at the 'small' scale (ROADMAP open
item 1), not here — tiny-scale training is too noisy for strict ordering
assertions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (DEFAULT_BUCKET_SWEEP, run_fig3, run_fig4,
                               run_fig5, run_fig7, run_fig8a, run_fig8b,
                               run_fig9, run_table2, run_table3)


class TestTable2:
    def test_structure(self, session_workspace):
        out = run_table2("tiny", session_workspace)
        assert set(out["results"]) == {"none", "perf", "contrastive", "both"}
        assert len(out["rows"]) == 4
        for metrics in out["results"].values():
            assert 0.0 <= metrics.accuracy <= 1.0


class TestTable3:
    def test_structure(self, session_workspace):
        out = run_table3("tiny", session_workspace)
        assert set(out["results"]) == {"gandse", "airchitect_v1",
                                       "airchitect_v2"}
        for metrics in out["results"].values():
            assert 0.0 <= metrics.accuracy <= 1.0
        assert "accuracy" in out["table"]


class TestFig3:
    def test_structure_and_claims(self, session_workspace):
        out = run_fig3("tiny", session_workspace)
        n = len(out["pca_coords"])
        assert out["pca_coords"].shape == (n, 2)
        assert out["normalized_latency"].shape == (n,)
        assert 0 <= out["normalized_latency"].min()
        assert out["normalized_latency"].max() <= 1.0
        # Non-convexity: local minima exist on average.
        assert out["landscape"]["mean_local_minima"] >= 1.0
        # Long tail: few classes dominate.
        assert out["longtail"].gini > 0.5


class TestFig4:
    def test_structure(self, session_workspace):
        out = run_fig4("tiny", session_workspace)
        assert out["output_buckets"].max() < 16 * 16
        assert out["num_distinct_buckets"] > 5
        assert 0.0 <= out["nn_label_disagreement"] <= 1.0
        assert out["input_space_complexity"] > 1e9
        assert out["output_space_size"] == 768


class TestFig5:
    def test_structure_and_uniformity_claim(self, session_workspace):
        out = run_fig5("tiny", session_workspace)
        with_c = out["with_contrastive"]["stats"]
        without_c = out["without_contrastive"]["stats"]
        # The robust part of the Fig. 5 claim, visible even at tiny scale:
        # contrastive embeddings are more uniform and better separated.
        assert with_c.uniformity < without_c.uniformity
        assert with_c.separation > without_c.separation


class TestFig7:
    def test_structure(self, session_workspace):
        out = run_fig7("tiny", session_workspace)
        for model, entry in out["latencies"].items():
            assert set(entry) == {"airchitect_v2", "airchitect_v1", "gandse",
                                  "vaesa_bo", "oracle"}
            assert all(v > 0 for v in entry.values())
            # The oracle lower-bounds every technique (folded view).
            assert entry["oracle"] <= min(v for k, v in entry.items()
                                          if k != "oracle") + 1e-6
        for entry in out["normalized"].values():
            assert entry["airchitect_v2"] == pytest.approx(1.0)

    def test_per_layer_view(self, session_workspace):
        out = run_fig7("tiny", session_workspace)
        for model, entry in out["per_layer_latencies"].items():
            # Per-layer oracle lower-bounds per-layer deployments too.
            assert entry["oracle"] <= min(v for k, v in entry.items()
                                          if k != "oracle") * 1.001
        assert out["mean_baseline_ratio_per_layer"] > 0


class TestFig8a:
    def test_structure(self, session_workspace):
        out = run_fig8a("tiny", session_workspace)
        assert set(out["curves"]) == {"contrastive_bo", "vaesa_bo"}
        for curve in out["curves"].values():
            assert (np.diff(curve) <= 1e-9).all()   # best-so-far monotone
            assert curve[-1] >= 1.0 - 1e-9           # bounded by the optimum


class TestFig8b:
    def test_structure(self, session_workspace):
        out = run_fig8b("tiny", session_workspace, sweep=(1, 8, 16))
        assert set(out["results"]) == {1, 8, 16}
        sizes = [out["results"][k]["head_params"] for k in (1, 8, 16)]
        assert sizes == sorted(sizes)  # model size grows with K
        for entry in out["results"].values():
            assert 0.0 <= entry["metrics"].accuracy <= 1.0


class TestFig9:
    def test_structure_and_size_claim(self, session_workspace):
        out = run_fig9("tiny", session_workspace)
        assert set(out["results"]) == {"v1_classification", "v1_uov",
                                       "v2_classification", "v2_uov"}
        # UOV heads must be smaller than classification heads (both models).
        assert out["results"]["v1_uov"]["head_params"] < \
            out["results"]["v1_classification"]["head_params"]
        assert out["results"]["v2_uov"]["head_params"] < \
            out["results"]["v2_classification"]["head_params"]
