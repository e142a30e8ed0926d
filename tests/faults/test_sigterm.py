"""``repro serve`` must drain gracefully on SIGTERM.

Orchestrators (Kubernetes, systemd, docker stop) stop services with
SIGTERM; a server that only handles Ctrl-C would be killed mid-request
after the grace period.  These tests boot the real CLI in a subprocess,
SIGTERM it, and require a clean exit through the shutdown path.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGTERM"),
                                reason="needs POSIX signals")

_BOOT_TIMEOUT_S = 90
_EXIT_TIMEOUT_S = 30


def _spawn_serve(extra_args=()):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               PYTHONUNBUFFERED="1")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--untrained", "--scale", "tiny", *extra_args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _wait_for_boot(proc) -> str:
    """Read stderr until the server announces its bound address."""
    lines = []
    deadline = time.monotonic() + _BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            break
        lines.append(line)
        if "serving one-shot DSE predictions on http://" in line:
            return "".join(lines)
    proc.kill()
    raise AssertionError(f"server never booted; stderr so far: "
                         f"{''.join(lines)!r}")


def test_sigterm_drains_gracefully():
    # --async is a no-op kept for old command lines (the benchmark's
    # server launcher still passes it); it must keep booting.
    proc = _spawn_serve(("--async",))
    try:
        _wait_for_boot(proc)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=_EXIT_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, (stdout, stderr)
    assert "shutting down" in stderr


def test_sigterm_snapshots_the_oracle_cache(tmp_path):
    cache = tmp_path / "labels.npz"
    proc = _spawn_serve(("--oracle-cache", str(cache)))
    try:
        _wait_for_boot(proc)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=_EXIT_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, (stdout, stderr)
    assert "oracle cache: saved" in stderr
    assert cache.exists()
