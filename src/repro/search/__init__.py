"""``repro.search`` — GP-based Bayesian optimisation.

BO serves the paper's Fig. 8(a) study (contrastive + BO) and the VAESA+BO
baseline; dataset labels come from the exhaustive oracle
(:mod:`repro.dse.oracle`), not from a searcher.
"""

from .bo import (BOConfig, BOResult, GaussianProcess, bayesian_optimization,
                 expected_improvement)

__all__ = [
    "BOConfig", "BOResult", "GaussianProcess", "bayesian_optimization",
    "expected_improvement",
]
