"""A ``repro serve --async`` subprocess: spawn, readiness, peak memory, stop.

The server is launched as ``python -m repro serve --async --untrained
--scale small --seed S --port 0`` (traced runs go through
``serve_traced.py``, which installs the layer wrappers and then calls
``repro.cli.serve_main`` with the same arguments).  The bound port is
read from the ready banner on stderr; traffic starts only after
``GET /healthz`` answers 200.  The server is stopped with SIGINT — the
graceful path — and its exit code is recorded: a nonzero exit fails the
run.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import BENCH_DIR

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
_BANNER = re.compile(r"on http://([\d.]+):(\d+)")


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """One server subprocess: ``start()``, traffic, ``stop()``."""

    def __init__(self, seed: int, env: dict, spans_out: Path | None = None):
        self.seed = seed
        self.env = env
        self.spans_out = spans_out
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.stderr_lines: list[str] = []
        self.exit_code: int | None = None
        self._reader: threading.Thread | None = None
        self._segments = 0

    def argv(self) -> list[str]:
        serve = ["--async", "--untrained", "--scale", "small",
                 "--seed", str(self.seed), "--port", "0"]
        if self.spans_out is None:
            return [sys.executable, "-m", "repro", "serve", *serve]
        return [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                "--spans-out", str(self.spans_out), "--", *serve]

    def start(self) -> "ServerProcess":
        self.proc = subprocess.Popen(self.argv(), env=self.env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        found = threading.Event()

        def read_stderr():
            for line in self.proc.stderr:
                self.stderr_lines.append(line)
                match = _BANNER.search(line)
                if match and self.port is None:
                    self.port = int(match.group(2))
                    found.set()
            found.set()

        self._reader = threading.Thread(target=read_stderr, daemon=True)
        self._reader.start()
        try:
            self._wait_ready(found)
        except BaseException:
            self.stop()
            raise
        return self

    def _wait_ready(self, found: threading.Event) -> None:
        if not found.wait(READY_TIMEOUT_S) or self.port is None:
            raise ServerError("server printed no ready banner: "
                              + "".join(self.stderr_lines[-20:]))
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise ServerError("server never answered /healthz")
            time.sleep(0.01)

    def connection(self, timeout: float = 30.0) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)

    def get(self, path: str) -> tuple[int, bytes]:
        conn = self.connection(5.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self.get("/stats")
        if status != 200:
            raise ServerError(f"/stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` (peak resident set) of the server process."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM not found")

    def next_segment(self) -> None:
        """Traced servers only: close the current span segment (SIGUSR1)
        and wait until the launcher has written it out."""
        self._segments += 1
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + 10.0
        while self._written_segments() < self._segments:
            if time.perf_counter() > deadline:
                raise ServerError("traced server did not flush its spans")
            time.sleep(0.01)

    def _written_segments(self) -> int:
        try:
            return len(self.spans_out.read_text().splitlines())
        except FileNotFoundError:
            return 0

    def segments(self) -> list[dict]:
        """Per-segment span summaries written by a traced server."""
        return [json.loads(line)
                for line in self.spans_out.read_text().splitlines()]

    def stop(self) -> int:
        """SIGINT, wait, and return the exit code (killed: -9)."""
        if self.proc is None or self.exit_code is not None:
            return self.exit_code or 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._reader is not None:
            self._reader.join(5.0)
        self.exit_code = self.proc.returncode
        return self.exit_code
