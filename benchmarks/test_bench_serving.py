"""The serving smoke's tracing-overhead statistic on synthetic latencies.

:func:`bench_serving.tracing_overhead` must fail a real 5% slowdown of
traced requests and pass pure noise, including drift between rounds and
one disturbed round, against the smoke's 3% gate over 8 rounds of 192
requests a side.
"""

from __future__ import annotations

import numpy as np
import pytest
from bench_serving import OBS_OVERHEAD_LIMIT, tracing_overhead

ROUNDS = 8
PER_SIDE = 192


def _rounds(seed: int, traced_scale: float, disturbed: float = 1.0):
    """Per-round (plain, traced) latencies around 5 ms with 5% jitter;
    each round drifts as a whole, and the traced side of round 0 is
    slowed by ``disturbed`` (a GC pause hitting one population)."""
    rng = np.random.default_rng(seed)
    out = []
    for r in range(ROUNDS):
        base = 5e-3 * np.exp(rng.normal(0.0, 0.4))
        plain = base * np.exp(rng.normal(0.0, 0.05, PER_SIDE))
        traced = base * traced_scale * np.exp(rng.normal(0.0, 0.05, PER_SIDE))
        if r == 0:
            traced = traced * disturbed
        out.append((plain.tolist(), traced.tolist()))
    return out


@pytest.mark.parametrize("seed", range(10))
def test_five_percent_shift_fails_the_gate(seed):
    assert tracing_overhead(_rounds(seed, 1.05)) > OBS_OVERHEAD_LIMIT


@pytest.mark.parametrize("seed", range(10))
def test_noise_passes_the_gate(seed):
    assert abs(tracing_overhead(_rounds(seed, 1.0))) <= OBS_OVERHEAD_LIMIT
    # One round with its traced side 30% slower moves the median of the
    # per-round ratios by one rank, not by 30%.
    assert tracing_overhead(_rounds(seed, 1.0, disturbed=1.3)) \
        <= OBS_OVERHEAD_LIMIT


def test_equal_rounds_read_zero():
    same = [([1e-3, 2e-3, 3e-3], [1e-3, 2e-3, 3e-3])] * ROUNDS
    assert tracing_overhead(same) == 0.0
