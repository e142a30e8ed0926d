"""Bayesian optimisation: GP surrogate, EI acquisition and the BO loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.search import (BOConfig, GaussianProcess, bayesian_optimization,
                          expected_improvement)


class TestGaussianProcess:
    def test_interpolates_training_points(self, rng):
        x = rng.uniform(-2, 2, size=(12, 2))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2
        gp = GaussianProcess(length_scale=1.0).fit(x, y)
        mu, _ = gp.predict(x)
        np.testing.assert_allclose(mu, y, atol=1e-3)

    def test_uncertainty_higher_away_from_data(self, rng):
        x = rng.uniform(-1, 1, size=(10, 1))
        y = x[:, 0] ** 2
        gp = GaussianProcess(length_scale=0.3).fit(x, y)
        _, std_near = gp.predict(np.array([[0.0]]))
        _, std_far = gp.predict(np.array([[5.0]]))
        assert std_far > std_near

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))


class TestExpectedImprovement:
    def test_zero_when_mean_far_worse(self):
        ei = expected_improvement(np.array([10.0]), np.array([0.01]), best=0.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-12)

    def test_positive_when_mean_better(self):
        ei = expected_improvement(np.array([-1.0]), np.array([0.1]), best=0.0)
        assert ei[0] > 0.9

    def test_uncertainty_adds_value(self):
        low = expected_improvement(np.array([0.5]), np.array([0.01]), best=0.0)
        high = expected_improvement(np.array([0.5]), np.array([2.0]), best=0.0)
        assert high[0] > low[0]


class TestBayesianOptimization:
    def test_minimises_quadratic(self, rng):
        result = bayesian_optimization(
            lambda x: float(((x - 0.3) ** 2).sum()),
            np.array([[-1.0, 1.0], [-1.0, 1.0]]), rng,
            BOConfig(init_points=6, iterations=25))
        assert result.cost < 0.05

    def test_history_monotone(self, rng):
        result = bayesian_optimization(
            lambda x: float(np.sin(3 * x[0]) + x[0] ** 2),
            np.array([[-2.0, 2.0]]), rng, BOConfig(init_points=4,
                                                   iterations=10))
        assert (np.diff(result.history) <= 1e-12).all()

    def test_beats_random_on_smooth_function(self, rng):
        bounds = np.array([[-3.0, 3.0]] * 2)
        func = lambda x: float((x ** 2).sum() + np.sin(5 * x[0]))
        bo = bayesian_optimization(func, bounds, np.random.default_rng(3),
                                   BOConfig(init_points=5, iterations=20))
        rand_rng = np.random.default_rng(3)
        rand_best = min(func(rand_rng.uniform(-3, 3, 2)) for _ in range(25))
        assert bo.cost <= rand_best
