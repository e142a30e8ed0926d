"""Benchmark configuration.

Every benchmark regenerates one table/figure of the paper at the scale
given by ``$REPRO_SCALE`` (default: ``small``) and shares one on-disk
training cache (``$REPRO_CACHE``, default ``.repro_cache``): the first
benchmark that needs a model trains it, later ones load it.  Run with

    pytest benchmarks/bench_*.py --benchmark-only -s

(-s shows the regenerated tables).  ``benchmarks/`` is not a package, so
the benches take the shared ``run_once`` helper as a fixture rather than
import it.  The paper-fidelity record (ROADMAP open item 1) is taken at
the 'small' scale.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import Workspace, get_scale


@pytest.fixture(scope="session")
def scale():
    return get_scale(os.environ.get("REPRO_SCALE"))


@pytest.fixture(scope="session")
def workspace():
    return Workspace(os.environ.get("REPRO_CACHE", ".repro_cache"))


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""
    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                                  iterations=1)
    return run
