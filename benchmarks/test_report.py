"""``report.py --check`` reads the gate of every formatted record.

A ``BENCH_batched_inference.json`` whose recorded run lost bit-identity
with the per-row loop (or fell short of its speedup target) must fail
``--check``; the same record with a passing run must not.  A
``BENCH_train_step.json`` row shows the fused and reference traced peaks
when the record carries them.
"""

from __future__ import annotations

import json

import pytest
from report import main

PASSING = {"samples": 1000, "loop_samples_per_sec": 600.0,
           "batched_samples_per_sec": 18000.0, "speedup": 30.0,
           "identical_predictions": True, "speedup_target": 5.0}


@pytest.mark.parametrize("overrides, code", [
    ({}, 0),
    ({"identical_predictions": False}, 1),
    ({"speedup": 4.0}, 1),
])
def test_check_reads_the_batched_inference_gate(tmp_path, capsys, overrides,
                                                code):
    doc = {**PASSING, **overrides}
    (tmp_path / "BENCH_batched_inference.json").write_text(json.dumps(doc))
    assert main(["--dir", str(tmp_path), "--check"]) == code
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("| batched_inference "))
    assert row.rstrip(" |").endswith("pass" if code == 0 else "**FAIL**")


TRAIN_STEP = {"speedup": 2.2, "fused_step_ms": 18.0, "reference_step_ms": 40.0,
              "speedup_target": 2.0, "history_rtol": 1e-12,
              "history_close": True}


@pytest.mark.parametrize("memory, shown", [
    ({}, False),
    ({"fused_peak_traced_mb": 26.16, "reference_peak_traced_mb": 49.57}, True),
])
def test_train_step_row_shows_traced_peaks_when_recorded(tmp_path, capsys,
                                                         memory, shown):
    doc = {**TRAIN_STEP, **memory}
    (tmp_path / "BENCH_train_step.json").write_text(json.dumps(doc))
    assert main(["--dir", str(tmp_path), "--check"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("| train_step "))
    assert ("peak traced 26.2MB vs 49.6MB" in row) == shown
