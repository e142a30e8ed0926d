"""Tests of the benchmark itself.

The fast tests check that each correctness check can fail.  The
``slow`` tests run the smoke-sized workloads end to end and check that
every metric named in ``BENCHMARK.json`` is emitted with its unit::

    PYTHONPATH=src python -m pytest perfbench/tests -m ""
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import traffic  # noqa: E402
from repro.dse import DSEProblem, ExhaustiveOracle  # noqa: E402
from repro.core import DSEPredictor  # noqa: E402
from run import PLANS, Run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# The correctness checks can fail
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def model():
    return traffic.reference_model(3)


def _response(req, pe_idx, l2_idx, oracle=False) -> bytes:
    preds = []
    for row, pe, l2 in zip(req.rows, pe_idx, l2_idx):
        pred = {"m": int(row[0]), "n": int(row[1]), "k": int(row[2]),
                "dataflow": int(row[3]), "pe_idx": int(pe),
                "l2_idx": int(l2), "queue_wait_ms": 1.0, "batch_size": 1}
        if oracle:
            pred["oracle_cost"] = 1.0
        preds.append(pred)
    return json.dumps({"predictions": preds}).encode()


def test_predict_check_rejects_wrong_outputs(model):
    mix = traffic.PredictTraffic(3, model)
    req = next(r for r in mix.rung(100.0, 50) if len(r.rows) > 1)
    pe_idx, l2_idx = req.expected
    good = _response(req, pe_idx, l2_idx)
    assert traffic.check_predict(req, 200, good)[0]
    assert not traffic.check_predict(req, 500, good)[0]
    assert not traffic.check_predict(req, 200, b"not json")[0]
    wrong = l2_idx.copy()
    wrong[-1] = (wrong[-1] + 1) % 12
    assert not traffic.check_predict(req, 200,
                                     _response(req, pe_idx, wrong))[0]
    short = traffic.Request(0.0, req.rows[:1], expected=(pe_idx, l2_idx))
    assert not traffic.check_predict(short, 200, good)[0]


def test_predict_check_requires_oracle_fields(model):
    mix = traffic.PredictTraffic(3, model)
    req = next(r for r in mix.rung(100.0, 200) if r.oracle == "miss")
    pe_idx, l2_idx = req.expected
    assert traffic.check_predict(req, 200, _response(req, pe_idx, l2_idx,
                                                     oracle=True))[0]
    assert not traffic.check_predict(req, 200,
                                     _response(req, pe_idx, l2_idx))[0]


def _sweep_lines(rows: int, seed: int, model, oracle) -> list[bytes]:
    inputs = DSEProblem().sample_inputs(rows, np.random.default_rng(seed))
    pe_idx, l2_idx = DSEPredictor(model).predict_indices(inputs)
    cost = oracle.cost_at(inputs, pe_idx, l2_idx)
    size = traffic.SWEEP_CHUNK
    docs = [{"count": rows}]
    for index, lo in enumerate(range(0, rows, size)):
        docs.append({"chunk": index, "start": lo, "predictions": [
            {"m": int(r[0]), "n": int(r[1]), "k": int(r[2]),
             "dataflow": int(r[3]), "pe_idx": int(pe_idx[lo + i]),
             "l2_idx": int(l2_idx[lo + i]),
             "predicted_cost": float(cost[lo + i])}
            for i, r in enumerate(inputs[lo:lo + size])]})
    docs.append({"done": True, "count": rows})
    return [json.dumps(doc).encode() + b"\n" for doc in docs]


def test_sweep_check_rejects_wrong_outputs(model):
    oracle = ExhaustiveOracle(DSEProblem())
    rows, seed = traffic.SWEEP_CHUNK * 2 + 5, 9
    lines = _sweep_lines(rows, seed, model, oracle)
    assert traffic._check_sweep(lines, rows, seed, model, oracle) == ""

    swapped = [lines[0], lines[2], lines[1], *lines[3:]]
    assert "order" in traffic._check_sweep(swapped, rows, seed, model, oracle)
    assert traffic._check_sweep(lines[:-2] + lines[-1:], rows, seed, model,
                                oracle)
    assert traffic._check_sweep(lines, rows, seed + 1, model, oracle)

    doc = json.loads(lines[1])
    for pred in doc["predictions"]:         # every row, so the sample hits
        pred["predicted_cost"] *= 1.5
    tampered = [lines[0], json.dumps(doc).encode(), *lines[2:]]
    assert "differs" in traffic._check_sweep(tampered, rows, seed, model,
                                             oracle)


def test_pipeline_check_rejects_nondeterministic_labels():
    run = Run("pipeline", 1, 1.0, smoke=True)
    try:
        run.check_pipeline([
            {"checksum": "a", "accuracy": 0.5, "mean_regret": 0.1},
            {"checksum": "b", "accuracy": 0.5, "mean_regret": 0.1}])
    finally:
        run.close()
    assert run.failed == 2
    assert "checksum" in run.errors[0]


def test_plans_cover_the_declared_workloads():
    assert sorted(PLANS) == sorted(w["name"] for w in SPEC["workloads"])
    for plan in PLANS.values():
        assert plan.pipeline + plan.serve + plan.sweep == pytest.approx(1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# Smoke-sized runs emit every declared metric
# ----------------------------------------------------------------------
def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "4", "--seconds", "4", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.slow
@pytest.mark.parametrize("workload,trace", [("pipeline", 0), ("serve", 0),
                                            ("pipeline", 1)])
def test_smoke_run_emits_every_metric(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
