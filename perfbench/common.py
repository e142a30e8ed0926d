"""Shared helpers: repository discovery, scratch space, statistics and
provenance.

Everything the benchmark writes goes under ``<checkout>/.perfbench_tmp``
(one fresh sub-directory per run, removed when the run ends), so a run
reads and writes only inside its checkout.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import socket
import statistics
import subprocess
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. the program sources are missing)."""


def require_program() -> None:
    """Fail fast when the checkout does not hold the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}; run from "
                         f"a full checkout of the repository")


def child_env(scratch: Path) -> dict:
    """Environment for every process the benchmark starts: the program
    importable from ``src``, temp files kept inside the checkout, and no
    fault injection or training cache inherited from the caller."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(scratch)
    env["REPRO_CACHE"] = str(scratch / "cache")
    env.pop("REPRO_FAULTS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def make_scratch() -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()             # only when no other run is using it
    except OSError:
        pass


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(count: int) -> float | None:
    """The highest of p99.9/p99/p95/p90 with at least ten samples beyond
    it, or ``None`` when even p90 is not supported."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if count * (1.0 - q / 100.0) >= 10:
            return q
    return None


def summarize(values) -> dict:
    """Median, spread and the supported tail percentile of a sample."""
    values = [float(v) for v in values]
    doc = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        doc["iqr"] = q3 - q1
    tail = tail_percentile(len(values))
    if tail is not None:
        doc[f"p{tail:g}"] = percentile(values, tail)
    return doc


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    try:
        # The ceiling keeps git from reporting an enclosing repository
        # when the checkout itself is not one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: float, trace: bool,
               repeats: dict) -> dict:
    """Which build, host and settings produced a result.

    Outside a git repository (e.g. an exported tree) the commit is
    ``null`` and the dirty flag ``null``.
    """
    import numpy
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"commit": commit,
            "dirty": None if status is None else bool(status),
            "host": socket.gethostname(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "repeats": repeats}
