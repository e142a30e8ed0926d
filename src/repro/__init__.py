"""Reproduction of **AIRCHITECT v2** (Seo, Ramachandran et al., DATE 2025).

Learning the hardware accelerator design space through unified
representations: an encoder-decoder transformer with contrastive stage-1
training and Unified-Ordinal-Vector output heads, plus every substrate the
paper depends on (MAESTRO-style cost model, Scale-Sim systolic model,
ConfuciuX/GAMMA/BO search, GANDSE/VAESA/AIRCHITECT-v1 baselines, a
105-model workload zoo) — all in numpy.  scipy serves BO
(:mod:`repro.search.bo`) only and loads on the first GP fit, so importing
the package, serving and the paper pipeline never import it.

Quickstart::

    import numpy as np
    from repro.dse import DSEProblem, generate_random_dataset
    from repro.core import ModelConfig, AirchitectV2, Stage1Trainer, Stage2Trainer

    rng = np.random.default_rng(0)
    problem = DSEProblem()
    data = generate_random_dataset(problem, 4000, rng)
    model = AirchitectV2(ModelConfig(), problem, rng)
    Stage1Trainer(model).train(data)
    Stage2Trainer(model).train(data)
    pe_idx, l2_idx = model.predict_indices(data.inputs[:8])

See README.md for the architecture; ``python -m repro --help`` lists the
experiment runners.
"""

__version__ = "1.0.0"

from . import analysis, baselines, core, dse, faults, maestro, nn, registry
from . import scalesim, search, train, uov, workloads

__all__ = ["analysis", "baselines", "core", "dse", "faults", "maestro", "nn",
           "registry", "scalesim", "search", "train", "uov", "workloads",
           "__version__"]
