"""Consolidate ``BENCH_*.json`` records into one markdown trend table.

Every benchmark in this directory writes its result as a JSON document
(``--output BENCH_<name>.json``); this script reads all of them and
prints a single markdown report on stdout — the headline metric, the
gate each benchmark enforces, and whether the recorded run passed it —
so the perf trajectory of the repo is reviewable at a glance::

    PYTHONPATH=src python benchmarks/report.py              # repo root
    PYTHONPATH=src python benchmarks/report.py --dir /path/to/records

Unknown ``BENCH_*.json`` files are listed with their raw headline keys
rather than skipped, so new benchmarks show up without touching this
script (add a formatter when you want a nicer row).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _fmt(value, digits: int = 2) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _gate(ok: bool) -> str:
    return "pass" if ok else "**FAIL**"


def _rows_dataset_gen(doc: dict) -> list[tuple[str, str, str, str]]:
    return [(
        "dataset_gen",
        f"{_fmt(doc['speedup'])}x label speedup "
        f"({doc['workers']} workers, {doc['samples']} samples)",
        f">= {_fmt(doc['speedup_target'], 1)}x, identical labels",
        _gate(doc["speedup"] >= doc["speedup_target"]
              and doc["identical_labels"]),
    )]


def _rows_train_step(doc: dict) -> list[tuple[str, str, str, str]]:
    memory = ""
    if "fused_peak_traced_mb" in doc:
        memory = (f"; peak traced {_fmt(doc['fused_peak_traced_mb'], 1)}MB "
                  f"vs {_fmt(doc['reference_peak_traced_mb'], 1)}MB")
    return [(
        "train_step",
        f"{_fmt(doc['speedup'])}x fused step speedup "
        f"({_fmt(doc['fused_step_ms'])}ms vs "
        f"{_fmt(doc['reference_step_ms'])}ms{memory})",
        f">= {_fmt(doc['speedup_target'], 1)}x, history within "
        f"rtol={doc['history_rtol']:g}",
        _gate(doc["speedup"] >= doc["speedup_target"]
              and doc["history_close"]),
    )]


def _rows_batched_inference(doc: dict) -> list[tuple[str, str, str, str]]:
    return [(
        "batched_inference",
        f"{_fmt(doc['speedup'])}x tiled-engine speedup "
        f"({_fmt(doc['batched_samples_per_sec'], 0)} vs "
        f"{_fmt(doc['loop_samples_per_sec'], 0)} samples/s)",
        f">= {_fmt(doc['speedup_target'], 1)}x, identical predictions",
        _gate(doc["speedup"] >= doc["speedup_target"]
              and doc["identical_predictions"]),
    )]


def _rows_serving(doc: dict) -> list[tuple[str, str, str, str]]:
    rows = [(
        "serving/batcher",
        f"{_fmt(doc['speedup'])}x batched throughput "
        f"({_fmt(doc['batched_requests_per_sec'], 0)} vs "
        f"{_fmt(doc['loop_requests_per_sec'], 0)} req/s)",
        f">= {_fmt(doc['speedup_target'], 1)}x, identical predictions",
        _gate(doc["speedup"] >= doc["speedup_target"]
              and doc["identical_predictions"]),
    )]
    sustained = doc.get("sustained")
    if sustained:
        rows.append((
            "serving/sustained",
            f"p99 {_fmt(sustained['client_p99_ms'])}ms at "
            f"{_fmt(sustained['requests_per_sec'], 0)} req/s "
            f"({sustained['clients']} clients)",
            f"p99 <= {sustained['p99_limit_s'] * 1e3:.0f}ms, all 200s",
            _gate(sustained["p99_ok"]
                  and not sustained["non_200_responses"]),
        ))
    saturation = doc.get("saturation")
    if saturation:
        rows.append((
            "serving/saturation",
            f"{saturation['responses_429']} x 429 + Retry-After, "
            f"recovered={_fmt(saturation['recovered_after_burst'])}",
            ">= 1 x 429, no other errors, recovers",
            _gate(saturation["backpressure_ok"]),
        ))
    obs = doc.get("observability")
    if obs:
        rows.append((
            "serving/tracing",
            f"{obs['obs_overhead'] * 100:.2f}% traced-request overhead "
            f"(p50 {_fmt(obs['traced_p50_ms'])}ms vs "
            f"{_fmt(obs['plain_p50_ms'])}ms, "
            f"{obs['spans_recorded']} spans)",
            f"<= {obs['overhead_limit'] * 100:.0f}%, spans recorded",
            _gate(obs["overhead_ok"] and obs["spans_recorded"] > 0),
        ))
    return rows


_FORMATTERS = {
    "BENCH_batched_inference.json": _rows_batched_inference,
    "BENCH_dataset_gen.json": _rows_dataset_gen,
    "BENCH_train_step.json": _rows_train_step,
    "BENCH_serving.json": _rows_serving,
}


def _rows_generic(name: str, doc: dict) -> list[tuple[str, str, str, str]]:
    headline = ", ".join(f"{k}={_fmt(v)}" for k, v in list(doc.items())[:4]
                         if not isinstance(v, (dict, list)))
    return [(name.removeprefix("BENCH_").removesuffix(".json"),
             headline or "(nested record)", "-", "-")]


def build_report(directory: str) -> tuple[str, bool]:
    """Render the markdown report; returns (text, every-gate-passed)."""
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    rows: list[tuple[str, str, str, str]] = []
    skipped: list[str] = []
    for path in paths:
        name = os.path.basename(path)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            skipped.append(f"{name}: {exc}")
            continue
        formatter = _FORMATTERS.get(name)
        try:
            rows.extend(formatter(doc) if formatter
                        else _rows_generic(name, doc))
        except KeyError as exc:    # stale record missing a field
            skipped.append(f"{name}: missing key {exc}")

    lines = ["# Benchmark trend report", ""]
    if not rows:
        lines.append(f"No BENCH_*.json records found in {directory}.")
        return "\n".join(lines) + "\n", True
    widths = [max(len(r[i]) for r in
                  rows + [("benchmark", "headline", "gate", "status")])
              for i in range(4)]
    header = ("benchmark", "headline", "gate", "status")
    lines.append("| " + " | ".join(h.ljust(w)
                                   for h, w in zip(header, widths)) + " |")
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in rows:
        lines.append("| " + " | ".join(c.ljust(w)
                                       for c, w in zip(row, widths)) + " |")
    if skipped:
        lines.append("")
        for item in skipped:
            lines.append(f"- skipped {item}")
    all_ok = all(r[3] != "**FAIL**" for r in rows)
    lines.append("")
    lines.append("All gates pass." if all_ok
                 else "One or more recorded runs FAILED their gate.")
    return "\n".join(lines) + "\n", all_ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=".",
                        help="directory holding BENCH_*.json (default: "
                             "current directory)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any recorded run failed its gate")
    args = parser.parse_args(argv)
    text, all_ok = build_report(args.dir)
    print(text, end="")
    return 0 if all_ok or not args.check else 1


if __name__ == "__main__":
    sys.exit(main())
