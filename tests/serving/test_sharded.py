"""Sharded sweep executor: exact parity with the single-process engine."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import nn
from repro.core import BatchedDSEPredictor
from repro.faults import RetryPolicy
from repro.serving import AutoscalePolicy, ShardedSweepExecutor
from repro.serving import sharded as sharded_mod

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _exploding_shard(args):
    """Module-level so the pool can pickle it by reference (fork test)."""
    raise RuntimeError(f"shard {args[0]} exploded")


class TestSharding:
    def test_shards_are_contiguous_and_cover_everything(self, serve_model,
                                                        problem, rng):
        ex = ShardedSweepExecutor(serve_model, num_workers=4,
                                  min_shard_size=10)
        inputs = problem.sample_inputs(103, rng)
        shards = ex.shard(inputs)
        reassembled = np.concatenate([rows for _, rows in shards])
        np.testing.assert_array_equal(reassembled, inputs)
        assert [idx for idx, _ in shards] == list(range(len(shards)))
        assert len(shards) <= 4

    def test_small_sweeps_skip_the_pool(self, serve_model, problem, rng):
        ex = ShardedSweepExecutor(serve_model, num_workers=4,
                                  min_shard_size=256)
        ex.predict_indices(problem.sample_inputs(64, rng))
        assert ex._pool is None        # fallback path, no fork cost
        ex.close()


class TestParity:
    def test_10k_sweep_matches_single_process_exactly(self, serve_model,
                                                      problem):
        """The acceptance gate: 10k workloads, bit-identical shards."""
        inputs = problem.sample_inputs(10_000, np.random.default_rng(7))
        single = BatchedDSEPredictor(serve_model).sweep(inputs)
        with ShardedSweepExecutor(serve_model, num_workers=3,
                                  min_shard_size=64) as ex:
            sharded = ex.sweep(inputs)
        np.testing.assert_array_equal(sharded.pe_idx, single.pe_idx)
        np.testing.assert_array_equal(sharded.l2_idx, single.l2_idx)
        np.testing.assert_array_equal(sharded.num_pes, single.num_pes)
        np.testing.assert_array_equal(sharded.l2_kb, single.l2_kb)

    def test_with_cost_matches_and_reuses_parent_oracle(self, serve_model,
                                                        problem, rng):
        inputs = problem.sample_inputs(300, rng)
        single = BatchedDSEPredictor(serve_model).sweep(inputs,
                                                        with_cost=True)
        with ShardedSweepExecutor(serve_model, num_workers=2,
                                  min_shard_size=32) as ex:
            sharded = ex.sweep(inputs, with_cost=True)
            np.testing.assert_allclose(sharded.predicted_cost,
                                       single.predicted_cost, rtol=1e-12)
            # The cost pass runs in the parent so its oracle accumulates.
            assert ex._default_oracle is not None

    def test_pool_is_reused_across_sweeps(self, serve_model, problem, rng):
        with ShardedSweepExecutor(serve_model, num_workers=2,
                                  min_shard_size=32) as ex:
            ex.predict_indices(problem.sample_inputs(200, rng))
            pool = ex._pool
            ex.predict_indices(problem.sample_inputs(200, rng))
            assert ex._pool is pool    # workers load the model once

    @pytest.mark.skipif(nn.blas_threads() is None,
                        reason="no OpenBLAS thread controls")
    def test_workers_run_one_blas_thread(self, serve_model):
        """Processes are the pool's parallelism: a worker holds OpenBLAS
        at one thread, so processes x BLAS threads fit the cores."""
        with ShardedSweepExecutor(serve_model, num_workers=2) as ex:
            assert ex._ensure_pool().apply(nn.blas_threads) == 1

    def test_single_worker_never_forks(self, serve_model, problem, rng):
        ex = ShardedSweepExecutor(serve_model, num_workers=1)
        inputs = problem.sample_inputs(600, rng)
        pe, l2 = ex.predict_indices(inputs)
        assert ex._pool is None
        reference = BatchedDSEPredictor(serve_model).predict_indices(inputs)
        np.testing.assert_array_equal(pe, reference[0])
        np.testing.assert_array_equal(l2, reference[1])

    def test_timing_fields_populated(self, serve_model, problem, rng):
        with ShardedSweepExecutor(serve_model, num_workers=2,
                                  min_shard_size=32) as ex:
            result = ex.sweep(problem.sample_inputs(200, rng),
                              with_cost=True)
        assert result.elapsed_s >= result.predict_elapsed_s > 0
        assert result.samples_per_sec > 0


class TestAutoscalePolicy:
    """The policy is a pure function of (sweep size, observations)."""

    def test_tiny_sweeps_stay_single_process(self):
        policy = AutoscalePolicy(max_workers=8, min_shard_size=256)
        decision = policy.decide(100)
        assert decision.workers == 1
        assert "below" in decision.reason

    def test_worker_count_scales_with_sweep_size(self):
        policy = AutoscalePolicy(max_workers=8, min_shard_size=256)
        assert policy.decide(600).workers == 2
        assert policy.decide(1100).workers == 4
        assert policy.decide(100_000).workers == 8     # capped at the ceiling

    def test_shard_size_oversharding_and_floor(self):
        policy = AutoscalePolicy(max_workers=4, min_shard_size=100,
                                 shards_per_worker=2)
        decision = policy.decide(8000)
        assert decision.workers == 4
        assert decision.shard_size == 1000             # 8000 / (4 * 2)
        # The floor wins when oversharding would under-fill shards
        # (700 rows / 8 planned shards = 88-row shards, below the floor).
        assert policy.decide(700).shard_size == 100

    def test_fast_observed_throughput_keeps_sweeps_single_process(self):
        policy = AutoscalePolicy(max_workers=8, min_shard_size=64,
                                 min_pool_gain_s=0.05)
        assert policy.decide(1000).workers > 1
        policy.observe_single(rows=100_000, elapsed_s=0.1)  # 1M rows/s
        decision = policy.decide(1000)                      # ETA 1ms
        assert decision.workers == 1
        assert "ETA" in decision.reason
        # Big enough sweeps still pool despite the fast single rate.
        assert policy.decide(1_000_000).workers == 8

    def test_observations_blend_with_ewma(self):
        policy = AutoscalePolicy(max_workers=4, ewma=0.5)
        policy.observe_pooled(rows=1000, workers=2, elapsed_s=1.0)  # 500/w/s
        policy.observe_pooled(rows=3000, workers=2, elapsed_s=1.0)  # 1500/w/s
        assert policy.pooled_rows_per_worker_s == pytest.approx(1000.0)

    def test_pooled_throughput_feeds_the_plan(self):
        """Observed per-worker rate is part of the decision, not just the
        reason string: a pool observed to be slower than single-process
        (IPC-bound shards) keeps subsequent sweeps in-process."""
        policy = AutoscalePolicy(max_workers=4, min_shard_size=64,
                                 min_pool_gain_s=0.05)
        policy.observe_single(rows=10_000, elapsed_s=1.0)    # 10k rows/s
        policy.observe_pooled(rows=1000, workers=4, elapsed_s=1.0)  # 250/w/s
        decision = policy.decide(2000)
        assert decision.workers == 1
        assert "beats" in decision.reason
        # A pool observed to actually help keeps pooling.
        fast = AutoscalePolicy(max_workers=4, min_shard_size=64,
                               min_pool_gain_s=0.05)
        fast.observe_single(rows=10_000, elapsed_s=1.0)
        fast.observe_pooled(rows=40_000, workers=4, elapsed_s=1.0)
        assert fast.decide(100_000).workers == 4


class TestAutoscaledExecutor:
    def test_autoscaled_results_bit_identical_to_fixed_shards(
            self, serve_model, problem):
        """The acceptance gate: the plan changes, the bits do not."""
        inputs = problem.sample_inputs(3000, np.random.default_rng(17))
        with ShardedSweepExecutor(serve_model, num_workers=3,
                                  min_shard_size=64) as fixed:
            ref_pe, ref_l2 = fixed.predict_indices(inputs)
        with ShardedSweepExecutor(serve_model, num_workers=3,
                                  min_shard_size=64, autoscale=True) as ex:
            pe, l2 = ex.predict_indices(inputs)
            again_pe, again_l2 = ex.predict_indices(inputs)  # warmed policy
        np.testing.assert_array_equal(pe, ref_pe)
        np.testing.assert_array_equal(l2, ref_l2)
        np.testing.assert_array_equal(again_pe, ref_pe)
        np.testing.assert_array_equal(again_l2, ref_l2)

    def test_decision_trace_records_every_sweep(self, serve_model, problem,
                                                rng):
        # min_pool_gain_s=0 disables the ETA shortcut so the 600-row sweep
        # demonstrably pools even on a fast machine.
        policy = AutoscalePolicy(max_workers=2, min_shard_size=64,
                                 min_pool_gain_s=0.0)
        with ShardedSweepExecutor(serve_model, num_workers=2,
                                  min_shard_size=64, policy=policy) as ex:
            ex.predict_indices(problem.sample_inputs(40, rng))     # single
            ex.predict_indices(problem.sample_inputs(600, rng))    # pooled
            trace = list(ex.decision_trace)
        assert len(trace) == 2
        small, big = trace
        assert small["sweep_size"] == 40 and not small["pooled"]
        assert small["workers"] == 1
        assert big["sweep_size"] == 600 and big["pooled"]
        assert big["workers"] == 2 and big["num_shards"] >= 2
        for record in trace:
            assert record["elapsed_s"] > 0 and record["rows_per_sec"] > 0
            assert "reason" in record

    def test_single_process_observations_feed_the_policy(self, serve_model,
                                                         problem, rng):
        with ShardedSweepExecutor(serve_model, num_workers=2,
                                  autoscale=True) as ex:
            ex.predict_indices(problem.sample_inputs(50, rng))
            assert ex.policy.single_rows_per_s is not None


class TestFailurePaths:
    def test_close_is_idempotent(self, serve_model, problem, rng):
        ex = ShardedSweepExecutor(serve_model, num_workers=2,
                                  min_shard_size=32)
        ex.predict_indices(problem.sample_inputs(200, rng))
        assert ex._pool is not None
        state_dir = ex._state_dir.name
        ex.close()
        assert ex._pool is None and not os.path.isdir(state_dir)
        ex.close()                      # second close is a no-op
        ex.close()

    def test_close_without_pool_is_a_noop(self, serve_model):
        ex = ShardedSweepExecutor(serve_model, num_workers=1)
        ex.close()
        ex.close()

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_worker_crash_recovers_in_process(self, serve_model, problem,
                                              rng, monkeypatch):
        """A shard blowing up in every worker no longer raises: the
        supervisor retries on rebuilt pools, then degrades to in-process
        execution with bit-identical results."""
        monkeypatch.setattr(sharded_mod, "_run_shard", _exploding_shard)
        inputs = problem.sample_inputs(200, rng)
        expected = BatchedDSEPredictor(serve_model).predict_indices(inputs)
        with ShardedSweepExecutor(serve_model, num_workers=2,
                                  min_shard_size=32, mp_context="fork",
                                  retry=RetryPolicy(max_rebuilds=1,
                                                    backoff_base_s=0.0)) as ex:
            pe_idx, l2_idx = ex.predict_indices(inputs)
            assert ex._supervisor.degraded
        np.testing.assert_array_equal(pe_idx, expected[0])
        np.testing.assert_array_equal(l2_idx, expected[1])
        assert ex._pool is None         # context exit cleaned up regardless

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_state_dir_cleaned_up_on_interpreter_exit(self, serve_model,
                                                      tmp_path):
        """An executor abandoned without close() must not leak its
        repro_shard_* state dir (the weakref.finalize backstop)."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.core import AirchitectV2, ModelConfig
            from repro.dse import DSEProblem
            from repro.serving import ShardedSweepExecutor
            problem = DSEProblem()
            model = AirchitectV2(ModelConfig(d_model=16, n_layers=1,
                                             n_heads=2, embed_dim=8),
                                 problem, np.random.default_rng(0))
            ex = ShardedSweepExecutor(model, num_workers=2, min_shard_size=32)
            ex.predict_indices(problem.sample_inputs(128,
                                                     np.random.default_rng(1)))
            print(ex._state_dir.name, flush=True)
            # exits WITHOUT calling ex.close()
        """)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        state_dir = out.stdout.strip().splitlines()[-1]
        assert state_dir.startswith("/") and "repro_shard_" in state_dir
        assert not os.path.isdir(state_dir)
