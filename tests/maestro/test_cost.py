"""Cost model: roofline structure, landscape properties, vectorised APIs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.maestro import (AcceleratorConfig, CostModel, Dataflow,
                           GemmWorkload, Technology)


@pytest.fixture(scope="module")
def cost_model():
    return CostModel()


class TestBasicProperties:
    def test_latency_positive(self, cost_model, rng):
        m = rng.integers(1, 300, 50)
        n = rng.integers(1, 300, 50)
        k = rng.integers(1, 300, 50)
        for df in Dataflow:
            out = cost_model.evaluate(m, n, k, df, 64, 256)
            assert (out.latency_cycles > 0).all()
            assert (out.energy_pj > 0).all()

    def test_latency_at_least_roofline_terms(self, cost_model):
        out = cost_model.evaluate(64, 128, 96, "os", 64, 256)
        lat = float(out.latency_cycles)
        assert lat >= float(out.compute_cycles)
        assert lat >= float(out.noc_cycles)
        assert lat >= float(out.dram_cycles)

    def test_bigger_workload_costs_more(self, cost_model):
        small = cost_model.latency(GemmWorkload(16, 16, 16), "os",
                                   AcceleratorConfig(64, 256))
        large = cost_model.latency(GemmWorkload(256, 256, 256), "os",
                                   AcceleratorConfig(64, 256))
        assert large > small

    def test_energy_grows_with_macs(self, cost_model):
        small = cost_model.energy(GemmWorkload(16, 16, 16), "ws",
                                  AcceleratorConfig(64, 256))
        large = cost_model.energy(GemmWorkload(128, 128, 128), "ws",
                                  AcceleratorConfig(64, 256))
        assert large > small

    def test_utilization_bounded(self, cost_model, rng):
        m = rng.integers(1, 300, 30)
        out = cost_model.evaluate(m, 64, 64, "os", 128, 256)
        assert (out.utilization <= 1.0 + 1e-12).all()

    def test_edp_is_product(self, cost_model):
        out = cost_model.evaluate(64, 64, 64, "rs", 64, 256)
        np.testing.assert_allclose(out.edp,
                                   out.energy_pj * out.latency_cycles)


class TestLandscapeStructure:
    """The properties that make this DSE problem non-trivial."""

    def test_interior_pe_optimum_for_small_layers(self, cost_model, problem):
        """A tiny layer must not want the maximum PE count."""
        space = problem.space
        out = cost_model.evaluate_grid(np.array([4]), np.array([8]),
                                       np.array([16]), "os",
                                       space.pe_choices, space.l2_choices)
        lat = out.latency_cycles[0]
        best_pe = np.unravel_index(np.argmin(lat), lat.shape)[0]
        assert best_pe < space.n_pe - 1

    def test_large_layers_want_more_pes(self, cost_model, problem):
        space = problem.space
        out = cost_model.evaluate_grid(
            np.array([4, 256]), np.array([8, 1024]), np.array([16, 1024]),
            "os", space.pe_choices, space.l2_choices)
        best = [np.unravel_index(np.argmin(out.latency_cycles[i]),
                                 out.latency_cycles[i].shape)[0]
                for i in range(2)]
        assert best[1] > best[0]

    def test_oversized_buffer_hurts(self, cost_model):
        """Beyond the working set, larger L2 strictly increases latency
        (log-growing access latency) — the interior buffer optimum."""
        lat_small = cost_model.latency(GemmWorkload(32, 32, 32), "os",
                                       AcceleratorConfig(64, 64))
        lat_huge = cost_model.latency(GemmWorkload(32, 32, 32), "os",
                                      AcceleratorConfig(64, 32768))
        assert lat_huge > lat_small

    def test_undersized_buffer_hurts(self, cost_model):
        """Below the working set, small L2 increases DRAM traffic/latency."""
        lat_tiny = cost_model.latency(GemmWorkload(256, 1024, 1024), "os",
                                      AcceleratorConfig(256, 16))
        lat_fit = cost_model.latency(GemmWorkload(256, 1024, 1024), "os",
                                     AcceleratorConfig(256, 2048))
        assert lat_tiny > lat_fit

    def test_dataflow_choice_matters(self, cost_model):
        """Different shapes favour different dataflows (Fig. 1 motivation)."""
        config = AcceleratorConfig(128, 512)
        winners = set()
        for m, n, k in [(256, 8, 8), (8, 8, 1024), (8, 1024, 8)]:
            w = GemmWorkload(m, n, k)
            lats = {df: cost_model.latency(w, df, config) for df in Dataflow}
            winners.add(min(lats, key=lats.get))
        assert len(winners) >= 2

    def test_nonconvex_along_pe_axis(self, cost_model, problem):
        """Strict interior local minima along the PE axis exist for layers
        whose spatial work sits near stationary-step boundaries."""
        space = problem.space
        out = cost_model.evaluate_grid(np.array([100]), np.array([333]),
                                       np.array([77]), "os",
                                       space.pe_choices, space.l2_choices)
        lat = out.latency_cycles[0][:, 6]
        minima = sum(1 for j in range(1, len(lat) - 1)
                     if lat[j] < lat[j - 1] and lat[j] < lat[j + 1])
        assert minima >= 2

    def test_nonconvex_across_dataset_grids(self, cost_model, problem, rng):
        """On average over random layers, the (PE x L2) grid has several
        strict local minima (the Fig. 3a non-convexity claim)."""
        from repro.analysis import grid_landscape_stats
        space = problem.space
        m = rng.integers(1, 257, 32)
        n = rng.integers(1, 1678, 32)
        k = rng.integers(1, 1186, 32)
        out = cost_model.evaluate_grid(m, n, k, "ws",
                                       space.pe_choices, space.l2_choices)
        counts = [grid_landscape_stats(g).num_local_minima
                  for g in out.latency_cycles]
        assert np.mean(counts) >= 1.5


class TestVectorisedAPIs:
    def test_grid_shape(self, cost_model, problem):
        space = problem.space
        out = cost_model.evaluate_grid(np.arange(1, 6), np.arange(1, 6) * 7,
                                       np.arange(1, 6) * 3, "ws",
                                       space.pe_choices, space.l2_choices)
        assert out.latency_cycles.shape == (5, space.n_pe, space.n_l2)

    def test_grid_matches_scalar(self, cost_model, problem):
        space = problem.space
        out = cost_model.evaluate_grid(np.array([33]), np.array([77]),
                                       np.array([55]), "rs",
                                       space.pe_choices, space.l2_choices)
        scalar = cost_model.latency(
            GemmWorkload(33, 77, 55), "rs",
            AcceleratorConfig(int(space.pe_choices[10]),
                              int(space.l2_choices[3])))
        assert float(out.latency_cycles[0, 10, 3]) == pytest.approx(scalar)

    def test_evaluate_mixed_selects_per_sample(self, cost_model):
        m = np.array([64, 64])
        n = np.array([128, 128])
        k = np.array([96, 96])
        df = np.array([0, 1])
        mixed = cost_model.evaluate_mixed(m, n, k, df, 64, 256)
        ws = cost_model.evaluate(64, 128, 96, 0, 64, 256)
        os_ = cost_model.evaluate(64, 128, 96, 1, 64, 256)
        assert float(mixed.latency_cycles[0]) == pytest.approx(
            float(ws.latency_cycles))
        assert float(mixed.latency_cycles[1]) == pytest.approx(
            float(os_.latency_cycles))

    @pytest.mark.parametrize("n_rows", [0, 1, 8, 1024])
    def test_evaluate_mixed_is_bitwise_per_dataflow_evaluate(
            self, cost_model, problem, n_rows):
        rng = np.random.default_rng(n_rows)
        inputs = problem.sample_inputs(n_rows, rng)
        df = np.arange(n_rows) % len(Dataflow)      # every dataflow mixed
        rng.shuffle(df)
        pes, l2_kb = problem.space.values(
            rng.integers(0, problem.space.n_pe, n_rows),
            rng.integers(0, problem.space.n_l2, n_rows))
        mixed = cost_model.evaluate_mixed(inputs[:, 0], inputs[:, 1],
                                          inputs[:, 2], df, pes, l2_kb)
        per_dataflow = [cost_model.evaluate(inputs[:, 0], inputs[:, 1],
                                            inputs[:, 2], d, pes, l2_kb)
                        for d in Dataflow]
        for field, values in vars(mixed).items():
            expected = np.choose(df, [getattr(r, field)
                                      for r in per_dataflow])
            assert values.dtype == expected.dtype, field
            np.testing.assert_array_equal(values, expected, err_msg=field)

    def test_evaluate_mixed_rejects_unknown_dataflow(self, cost_model):
        with pytest.raises(ValueError, match="dataflow_idx"):
            cost_model.evaluate_mixed(64, 128, 96, np.array([0, 3]), 64, 256)

    def test_bound_by_classification(self, cost_model):
        out = cost_model.evaluate(256, 1024, 512, "os", 8, 32768)
        assert int(out.bound_by()) in (0, 1, 2)


class TestTechnologyAndConfig:
    def test_l2_latency_grows_with_size(self):
        tech = Technology()
        assert tech.l2_access_latency(1024) > tech.l2_access_latency(16)

    def test_l2_energy_grows_with_size(self):
        tech = Technology()
        assert tech.l2_access_energy(1024) > tech.l2_access_energy(16)

    def test_area_additive(self):
        config = AcceleratorConfig(100, 64)
        tech = config.technology
        assert config.area == pytest.approx(100 * tech.area_per_pe
                                            + 64 * tech.area_per_l2_kb)

    def test_with_resources(self):
        config = AcceleratorConfig(64, 256)
        other = config.with_resources(num_pes=128)
        assert other.num_pes == 128 and other.l2_kb == 256

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(0, 256)
        with pytest.raises(ValueError):
            AcceleratorConfig(64, 0)

    def test_faster_dram_helps_bandwidth_bound_layer(self):
        slow = CostModel(Technology(dram_bandwidth=1.0))
        fast = CostModel(Technology(dram_bandwidth=64.0))
        w = GemmWorkload(16, 1600, 1100)  # low reuse, bandwidth-bound
        config = AcceleratorConfig(512, 64)
        assert fast.latency(w, "os", config) < slow.latency(w, "os", config)
