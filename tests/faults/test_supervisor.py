"""Self-healing pools under real chaos: SIGKILLed workers, hangs, rebuilds.

These tests kill actual pool processes (via the ``pool.worker_crash``
and ``pool.shard_hang`` injection points) and assert the headline
robustness contract: recovered results are bit-identical to the
fault-free run.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.dse import ExhaustiveOracle, ShardedLabeller
from repro.faults import (PoolBrokenError, PoolSupervisor, RetryPolicy,
                          inject_faults)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")

# Fast-failure knobs: chaos tests should recover in seconds, not minutes.
FAST_RETRY = RetryPolicy(max_rebuilds=2, backoff_base_s=0.0)
SHARD_TIMEOUT_S = 8.0


def _echo_shard(args):
    idx, payload = args
    return idx, payload * 2


def _boom_shard(args):
    raise RuntimeError(f"shard {args[0]} boomed")


class TestSupervisorUnit:
    @fork_only
    def test_happy_path_runs_all_shards(self):
        sup = PoolSupervisor(
            lambda: multiprocessing.get_context("fork").Pool(2),
            shard_timeout_s=SHARD_TIMEOUT_S, retry=FAST_RETRY)
        try:
            results = sup.run(_echo_shard, [(0, 1), (1, 2), (2, 3)])
        finally:
            sup.close()
        assert results == {0: (0, 2), 1: (1, 4), 2: (2, 6)}
        assert sup.retries == 0 and not sup.degraded

    @fork_only
    def test_persistent_failure_raises_with_partial_results(self):
        sup = PoolSupervisor(
            lambda: multiprocessing.get_context("fork").Pool(2),
            shard_timeout_s=SHARD_TIMEOUT_S,
            retry=RetryPolicy(max_rebuilds=1, backoff_base_s=0.0))
        try:
            with pytest.raises(PoolBrokenError) as excinfo:
                sup.run(_boom_shard, [(0, 1), (1, 2)])
        finally:
            sup.close()
        assert excinfo.value.pending == [0, 1]
        assert excinfo.value.completed == {}
        assert sup.degraded and sup.rebuilds == 1
        # A degraded supervisor short-circuits instead of rebuilding.
        with pytest.raises(PoolBrokenError):
            sup.run(_echo_shard, [(0, 1)])

    def test_declining_factory_degrades_immediately(self):
        sup = PoolSupervisor(lambda: None, retry=FAST_RETRY)
        with pytest.raises(PoolBrokenError) as excinfo:
            sup.run(_echo_shard, [(0, 1), (1, 2)])
        assert sup.degraded
        assert excinfo.value.pending == [0, 1]


class TestLabellerChaos:
    @fork_only
    def test_sigkilled_labelling_worker_recovers_bit_identically(self,
                                                                 problem):
        inputs = problem.sample_inputs(96, np.random.default_rng(3))
        expected = ExhaustiveOracle(problem).solve(inputs)
        oracle = ExhaustiveOracle(problem)
        with ShardedLabeller(oracle, num_workers=2, min_shard_size=16,
                             mp_context="fork",
                             shard_timeout_s=SHARD_TIMEOUT_S,
                             retry=FAST_RETRY) as labeller:
            with inject_faults({"pool.worker_crash": 1}):
                result = labeller.label(inputs)
            assert labeller._supervisor.retries >= 1
        np.testing.assert_array_equal(result.pe_idx, expected.pe_idx)
        np.testing.assert_array_equal(result.l2_idx, expected.l2_idx)
        np.testing.assert_array_equal(result.best_cost, expected.best_cost)

    @fork_only
    def test_hung_worker_times_out_and_recovers(self, problem):
        inputs = problem.sample_inputs(96, np.random.default_rng(5))
        expected = ExhaustiveOracle(problem).solve(inputs)
        oracle = ExhaustiveOracle(problem)
        with ShardedLabeller(oracle, num_workers=2, min_shard_size=16,
                             mp_context="fork", shard_timeout_s=3.0,
                             retry=FAST_RETRY) as labeller:
            with inject_faults({"pool.shard_hang":
                                {"times": 1, "hang_s": 600.0}}):
                result = labeller.label(inputs)
            assert labeller._supervisor.retries >= 1
            assert not labeller._supervisor.degraded
        np.testing.assert_array_equal(result.pe_idx, expected.pe_idx)
        np.testing.assert_array_equal(result.l2_idx, expected.l2_idx)
        np.testing.assert_array_equal(result.best_cost, expected.best_cost)

    @fork_only
    def test_externally_killed_workers_recover(self, problem):
        """Kill real PIDs from outside (no injection hooks in the loop):
        the supervisor's timeout + rebuild still completes the labels."""
        inputs = problem.sample_inputs(96, np.random.default_rng(6))
        expected = ExhaustiveOracle(problem).solve(inputs)
        with ShardedLabeller(ExhaustiveOracle(problem), num_workers=2,
                             min_shard_size=16, mp_context="fork",
                             shard_timeout_s=SHARD_TIMEOUT_S,
                             retry=FAST_RETRY) as labeller:
            labeller.label(inputs)              # builds the pool
            pids = labeller._supervisor.worker_pids()
            assert pids
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            result = labeller.label(inputs)
        np.testing.assert_array_equal(result.pe_idx, expected.pe_idx)
        np.testing.assert_array_equal(result.l2_idx, expected.l2_idx)
        np.testing.assert_array_equal(result.best_cost, expected.best_cost)

    @fork_only
    def test_labeller_close_is_safe_on_a_crashed_pool(self, problem):
        oracle = ExhaustiveOracle(problem)
        labeller = ShardedLabeller(oracle, num_workers=2, min_shard_size=16,
                                   mp_context="fork",
                                   shard_timeout_s=SHARD_TIMEOUT_S,
                                   retry=FAST_RETRY)
        labeller.label(problem.sample_inputs(64, np.random.default_rng(4)))
        for pid in labeller._supervisor.worker_pids():
            os.kill(pid, signal.SIGKILL)
        labeller.close()
        labeller.close()
        assert labeller._pool is None
