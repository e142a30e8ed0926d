"""LatencyHistogram edge cases: overflow buckets, merges,
percentile monotonicity, and exact total_s accounting."""

from __future__ import annotations

import random

import pytest

from repro.obs import LatencyHistogram

_TOP_EDGE = LatencyHistogram._BOUNDS[-1]


class TestOverflowBucket:
    def test_samples_beyond_top_edge_land_in_overflow(self):
        hist = LatencyHistogram()
        hist.record(_TOP_EDGE * 10)
        assert hist._counts[-1] == 1
        assert sum(hist._counts[:-1]) == 0

    def test_overflow_percentiles_clamp_to_observed_max(self):
        """The overflow bucket has no upper edge; percentiles falling into
        it must report the observed maximum, not infinity or an edge."""
        hist = LatencyHistogram()
        big = _TOP_EDGE * 3
        for _ in range(100):
            hist.record(big)
        snap = hist.snapshot()
        assert snap["p50_ms"] == pytest.approx(big * 1e3)
        assert snap["p99_ms"] == pytest.approx(big * 1e3)
        assert snap["max_ms"] == pytest.approx(big * 1e3)

    def test_mixed_overflow_keeps_low_percentiles_in_buckets(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.record(1e-3)
        hist.record(_TOP_EDGE * 5)                    # one straggler
        snap = hist.snapshot()
        assert snap["p50_ms"] < 2.0                   # still bucket-bound
        assert snap["max_ms"] == pytest.approx(_TOP_EDGE * 5 * 1e3)
        # p99 over 100 samples targets rank 99 -> still the 1ms mass.
        assert snap["p99_ms"] < 2.0


class TestMergeSnapshots:
    def test_merge_sums_exact_total_s(self):
        """Satellite fix: merged total_s must be the exact sum, not a
        reconstruction from the rounded mean_ms."""
        parts = []
        expect = 0.0
        for seed in range(3):
            hist = LatencyHistogram()
            rng = random.Random(seed)
            for _ in range(1000):
                value = rng.random() * 1e-3 + 1e-7
                hist.record(value)
                expect += value
            parts.append(hist.snapshot())
        merged = LatencyHistogram.merge_snapshots(parts)
        assert merged["total_s"] == pytest.approx(expect, rel=1e-12)
        assert merged["count"] == 3000

    def test_merge_rejects_a_different_bucket_layout(self):
        hist = LatencyHistogram()
        hist.record(1e-4)
        short = hist.snapshot()
        short["buckets"] = short["buckets"][:10]
        with pytest.raises(ValueError):
            LatencyHistogram.merge_snapshots([short])

    def test_merge_empty_and_none_docs(self):
        hist = LatencyHistogram()
        hist.record(0.01)
        merged = LatencyHistogram.merge_snapshots(
            [None, {}, hist.snapshot()])
        assert merged["count"] == 1


class TestPercentileMonotonicity:
    @pytest.mark.parametrize("seed", range(5))
    def test_p50_le_p95_le_p99_le_max(self, seed):
        hist = LatencyHistogram()
        rng = random.Random(seed)
        for _ in range(2000):
            # Heavy-tailed mix: bucketed mass, sub-range, and overflow.
            draw = rng.random()
            if draw < 0.8:
                hist.record(rng.random() * 0.05)
            elif draw < 0.95:
                hist.record(rng.random() * 2.0)
            else:
                hist.record(_TOP_EDGE * (1 + rng.random()))
        snap = hist.snapshot()
        assert snap["p50_ms"] <= snap["p95_ms"] <= snap["p99_ms"] \
            <= snap["max_ms"]
        assert 0.0 < snap["mean_ms"] <= snap["max_ms"]

    def test_percentiles_conservative_within_one_bucket(self):
        hist = LatencyHistogram()
        for _ in range(1000):
            hist.record(1e-3)
        # The estimate is the holding bucket's upper edge: never below
        # the true value, at most one bucket ratio above it.
        assert 1.0 <= hist.percentile(50) * 1e3 <= 1.25

    def test_empty_histogram_reports_zeros(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["p50_ms"] == snap["p99_ms"] == snap["max_ms"] == 0.0
        assert snap["total_s"] == 0.0
