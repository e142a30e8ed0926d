"""Batched serving engine: parity with the per-sample predictor.

The engine's contract is *bitwise-identical predictions* to the
per-sample :class:`DSEPredictor` — only throughput may differ.  Parity is
checked across random model seeds, head styles, and inputs spanning
several of the model's inference tiles.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro import nn
from repro.core import (AirchitectV2, BatchedDSEPredictor, DSEPredictor,
                        ModelConfig, evaluate_model, evaluate_predictions)
from repro.core.inference import _tile_pool
from repro.core.model import TILE_BYTES
from repro.serving import DSEServer


def _model(problem, seed: int, head_style: str = "uov") -> AirchitectV2:
    config = ModelConfig(d_model=16, n_layers=1, n_heads=2, embed_dim=8,
                         head_style=head_style)
    return AirchitectV2(config, problem, np.random.default_rng(seed))


class TestParityWithPerSamplePredictor:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_identical_to_per_sample_loop(self, problem, small_dataset, seed):
        """Engine output == DSEPredictor called one row at a time."""
        model = _model(problem, seed)
        engine = BatchedDSEPredictor(model)
        loop = DSEPredictor(model)
        inputs = small_dataset.inputs[:96]

        pe_b, l2_b = engine.predict_indices(inputs)
        parts = [loop.predict_indices(row) for row in inputs]
        np.testing.assert_array_equal(pe_b, np.concatenate([p for p, _ in parts]))
        np.testing.assert_array_equal(l2_b, np.concatenate([l for _, l in parts]))

    @pytest.mark.parametrize("seed", [0, 42])
    def test_rows_spanning_three_tiles_match_per_row_loop(self, problem,
                                                          seed):
        """Tile boundaries never change a prediction: three tiles (the
        last one ragged) equal the one-row-at-a-time loop."""
        model = _model(problem, seed)
        inputs = problem.sample_inputs(2 * model.tile_rows + 9,
                                       np.random.default_rng(seed))
        pe, l2 = BatchedDSEPredictor(model).predict_indices(inputs)
        parts = [DSEPredictor(model).predict_indices(row) for row in inputs]
        np.testing.assert_array_equal(pe, np.concatenate([p for p, _ in parts]))
        np.testing.assert_array_equal(l2, np.concatenate([l for _, l in parts]))

    @pytest.mark.parametrize("head_style", ["uov", "classification", "joint",
                                            "regression"])
    def test_parity_across_head_styles(self, problem, small_dataset,
                                       head_style):
        """decode_logits is shared, so every head style stays in parity."""
        model = _model(problem, 3, head_style=head_style)
        engine = BatchedDSEPredictor(model)
        inputs = small_dataset.inputs[:64]

        pe, l2 = engine.predict_indices(inputs)
        reference = model.predict_indices(inputs)
        np.testing.assert_array_equal(pe, reference[0])
        np.testing.assert_array_equal(l2, reference[1])

    def test_predict_matches_simple_predictor(self, problem):
        model = _model(problem, 11)
        engine = BatchedDSEPredictor(model)
        simple = DSEPredictor(model)
        m = np.array([8, 64, 200])
        args = (m, m * 3, m * 2, np.array([0, 1, 2]))
        np.testing.assert_array_equal(engine.predict(*args)[0],
                                      simple.predict(*args)[0])
        np.testing.assert_array_equal(engine.predict(*args)[1],
                                      simple.predict(*args)[1])


class TestSweepAPI:
    def test_sweep_with_cost_matches_oracle_cost_at(self, problem,
                                                    small_dataset, oracle):
        """A sweep with ``with_cost`` prices the engine's picks exactly as
        ``oracle.cost_at`` does."""
        model = _model(problem, 5)
        inputs = small_dataset.inputs[:50]
        body = {"workloads": [{"m": int(r[0]), "n": int(r[1]),
                               "k": int(r[2]), "dataflow": int(r[3])}
                              for r in inputs],
                "chunk_size": 16, "with_cost": True}
        with DSEServer(model, port=0, oracle=oracle) as srv:
            header, docs = srv.prepare_sweep(body)
            served = [p for doc in docs for p in doc.get("predictions", [])]
        assert header["with_cost"] and len(served) == 50
        pe_idx, l2_idx = BatchedDSEPredictor(model).predict_indices(inputs)
        assert [p["pe_idx"] for p in served] == pe_idx.tolist()
        assert [p["l2_idx"] for p in served] == l2_idx.tolist()
        np.testing.assert_allclose(
            [p["predicted_cost"] for p in served],
            oracle.cost_at(inputs, pe_idx, l2_idx), rtol=1e-12)


class TestTileRows:
    def test_tile_rows_fit_the_byte_budget(self, problem):
        """Tiles are sized by bytes: the widest per-row activation (FFN
        hidden over 4 tokens, or the 768-way joint head) times the tile
        rows stays within TILE_BYTES, and one more row would not."""
        for style, widest in (("uov", 4 * 64), ("joint", 768)):
            model = _model(problem, 0, head_style=style)
            assert model.tile_rows * widest * 8 <= TILE_BYTES
            assert (model.tile_rows + 1) * widest * 8 > TILE_BYTES


class TestOnBatchHook:
    def test_hook_sees_every_tile(self, problem):
        calls: list[tuple[int, float]] = []
        model = _model(problem, 5, head_style="joint")
        engine = BatchedDSEPredictor(
            model, on_batch=lambda rows, s: calls.append((rows, s)))
        tile = model.tile_rows
        inputs = problem.sample_inputs(2 * tile + 22,
                                       np.random.default_rng(5))
        engine.predict_indices(inputs)
        assert [rows for rows, _ in calls] == [tile, tile, 22]
        assert all(elapsed >= 0 for _, elapsed in calls)

    def test_hooked_engine_predictions_unchanged(self, problem,
                                                 small_dataset):
        model = _model(problem, 8)
        inputs = small_dataset.inputs[:100]
        plain = BatchedDSEPredictor(model)
        hooked = BatchedDSEPredictor(model, on_batch=lambda *a: None)
        np.testing.assert_array_equal(hooked.predict_indices(inputs),
                                      plain.predict_indices(inputs))


needs_tile_threads = pytest.mark.skipif(
    _tile_pool() is None,
    reason="tiles run inline: one CPU, or no OpenBLAS thread controls")


def _record_tile_threads(model: AirchitectV2) -> list[str]:
    """Shadow ``model.predict_indices`` to log the thread of each tile."""
    names: list[str] = []
    inline = model.predict_indices

    def predict_indices(inputs):
        names.append(threading.current_thread().name)
        return inline(inputs)

    model.predict_indices = predict_indices
    return names


def _predict_in_forked_child(engine, inputs, expected) -> int | None:
    """Exit code of a forked child that runs ``engine`` over ``inputs``
    and checks it against ``expected``; ``None`` if it hung."""
    def child():
        pe, l2 = engine.predict_indices(inputs)
        ok = np.array_equal(pe, expected[0]) and np.array_equal(l2, expected[1])
        raise SystemExit(0 if ok else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
        return None
    return proc.exitcode


@needs_tile_threads
class TestTileThreads:
    @pytest.mark.parametrize("tiles", [0, 1, 2, 7])
    def test_fan_out_equals_inline_bit_for_bit(self, problem, tiles):
        """1 row, one full tile, two tiles plus 22 rows, and seven
        tiles: the engine's output equals the model's inline tile loop,
        and calls spanning two or more tiles run on the tile threads."""
        model = _model(problem, 4)
        tile = model.tile_rows
        rows = {0: 1, 1: tile, 2: 2 * tile + 22, 7: 7 * tile}[tiles]
        inputs = problem.sample_inputs(rows, np.random.default_rng(rows))
        inline = model.predict_indices(inputs)
        names = _record_tile_threads(model)
        pe, l2 = BatchedDSEPredictor(model).predict_indices(inputs)
        np.testing.assert_array_equal(pe, inline[0])
        np.testing.assert_array_equal(l2, inline[1])
        on_tile_threads = [name.startswith("repro-tile") for name in names]
        assert on_tile_threads == [tiles > 1] * len(names)

    def test_blas_threads_restored_after_fan_out(self, problem):
        before = nn.blas_threads()
        model = _model(problem, 4)
        engine = BatchedDSEPredictor(model)
        engine.predict_indices(problem.sample_inputs(
            3 * model.tile_rows, np.random.default_rng(0)))
        assert nn.blas_threads() == before

    def test_blas_threads_restored_after_a_tile_raises(self, problem):
        before = nn.blas_threads()
        model = _model(problem, 4)
        inputs = problem.sample_inputs(4 * model.tile_rows,
                                       np.random.default_rng(0))
        expected = model.predict_indices(inputs)
        inline = model.predict_indices
        calls = []

        def failing(rows):
            calls.append(len(rows))
            if len(calls) == 2:
                raise RuntimeError("tile failed")
            return inline(rows)

        model.predict_indices = failing
        engine = BatchedDSEPredictor(model)
        with pytest.raises(RuntimeError, match="tile failed"):
            engine.predict_indices(inputs)
        assert nn.blas_threads() == before
        model.predict_indices = inline
        np.testing.assert_array_equal(engine.predict_indices(inputs),
                                      expected)

    def test_blas_threads_restored_after_concurrent_fan_outs(self, problem):
        before = nn.blas_threads()
        model = _model(problem, 4)
        inputs = problem.sample_inputs(5 * model.tile_rows + 3,
                                       np.random.default_rng(0))
        expected = model.predict_indices(inputs)
        engine = BatchedDSEPredictor(model)
        start = threading.Barrier(2)
        results = []

        def call():
            start.wait(timeout=30)
            for _ in range(3):
                results.append(engine.predict_indices(inputs))

        callers = [threading.Thread(target=call) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
        assert not any(caller.is_alive() for caller in callers)
        assert len(results) == 6
        for pe, l2 in results:
            np.testing.assert_array_equal(pe, expected[0])
            np.testing.assert_array_equal(l2, expected[1])
        assert nn.blas_threads() == before

    def test_forked_child_fans_out_on_threads_of_its_own(self, problem):
        """The parent's tile threads do not exist in a forked child:
        its multi-tile calls must start their own instead of queueing
        work for threads that will never run it."""
        model = _model(problem, 4)
        engine = BatchedDSEPredictor(model)
        inputs = problem.sample_inputs(3 * model.tile_rows + 5,
                                       np.random.default_rng(0))
        expected = engine.predict_indices(inputs)     # parent's threads up
        assert _predict_in_forked_child(engine, inputs, expected) == 0


class TestEvaluateModelUsesBatchedPath:
    def test_metrics_identical_to_per_sample_scoring(self, problem,
                                                     small_dataset, oracle):
        model = _model(problem, 9)
        batched = evaluate_model(model, small_dataset, oracle=oracle,
                                 compute_regret=True)
        parts = [DSEPredictor(model).predict_indices(row)
                 for row in small_dataset.inputs]
        per_sample = evaluate_predictions(
            problem, small_dataset, np.concatenate([p for p, _ in parts]),
            np.concatenate([l for _, l in parts]), pe_codec=model.pe_codec,
            l2_codec=model.l2_codec, oracle=oracle, compute_regret=True)
        assert batched.as_dict() == per_sample.as_dict()
