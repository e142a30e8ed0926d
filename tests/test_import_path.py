"""Start-up work: serving and the paper pipeline never import scipy.

scipy serves Bayesian optimisation only (``repro.search.bo``) and costs
about a second and ~65 MB of RSS to import, so the package imports it on
the first GP fit instead of at import time.
"""

from __future__ import annotations

import os
import subprocess
import sys

_PROGRAM = """
import sys
import numpy as np
import repro, repro.cli, repro.core, repro.serving
repro.workloads.all_training_layers()
print("before_bo", "scipy" in sys.modules)
from repro.search import BOConfig, bayesian_optimization
bayesian_optimization(lambda x: float((x ** 2).sum()),
                      np.array([[-1.0, 1.0]]), np.random.default_rng(0),
                      BOConfig(init_points=3, iterations=1))
print("after_bo", "scipy" in sys.modules)
"""


def test_package_and_workload_zoo_import_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _PROGRAM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # The second line shows the first check can see scipy once loaded.
    assert done.stdout.split("\n")[:2] == ["before_bo False", "after_bo True"]
