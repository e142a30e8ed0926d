"""Launch ``repro serve`` with the serving-layer wrappers installed.

    python3 perfbench/serve_traced.py --spans-out FILE -- <repro serve args>

Installs :func:`tracing.install_serving` in this process, then hands the
remaining arguments to ``repro.cli.serve_main``.  Spans are segmented:
each SIGUSR1 appends the summary of the spans recorded since the
previous segment to ``FILE`` as one JSON line, and the final segment is
appended when the server exits.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from tracing import SpanRecorder, install_serving


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] \
        else args.serve_args

    recorder = SpanRecorder()
    install_serving(recorder)
    mark = 0

    def flush_segment(*_):
        nonlocal mark
        end = len(recorder.spans)
        summary = recorder.summary(start=mark, end=end)
        mark = end
        with open(args.spans_out, "a") as handle:
            handle.write(json.dumps(summary) + "\n")

    signal.signal(signal.SIGUSR1, flush_segment)
    from repro.cli import serve_main
    code = serve_main(serve_args)
    signal.signal(signal.SIGUSR1, signal.SIG_IGN)
    flush_segment()
    return code


if __name__ == "__main__":
    sys.exit(main())
