#!/usr/bin/env python3
"""Start the run service through its public ``serve`` entry point.

Usage::

    python3 perfbench/serverboot.py [--trace-dir DIR] -- serve --store-dir ...

Everything after ``--`` goes to ``repro.cli.main``.  With ``--trace-dir``
the layer wrappers of :mod:`layers` are installed first, every protocol
request becomes a span carrying its tenant as request id, and the tracer's
data is written to ``DIR/server-<pid>.json`` when the server exits.  Pool
workers are forked from this process, so they inherit the wrappers; each
rewrites ``DIR/worker-<pid>.json`` after every computation.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ensure_src_on_path  # noqa: E402


def _instrument(trace_dir: Path):
    import layers
    import repro.service.server as server

    tracer = layers.install(layers.Tracer(timing=True), experiments=False)
    serve_request = server.RunService._serve_request

    @functools.wraps(serve_request)
    async def traced_request(self, req, send):
        token = tracer.request_id.set(req.get("tenant") or req.get("op"))
        start = time.perf_counter()
        try:
            return await serve_request(self, req, send)
        finally:
            tracer.add_span(f"service.request.{req.get('op')}", "service",
                            start, time.perf_counter(), None)
            tracer.request_id.reset(token)

    server.RunService._serve_request = traced_request

    task = server._run_computation_task

    @functools.wraps(task)
    def traced_task(scenario_json):
        if tracer.pid != os.getpid():  # first task in a forked worker
            tracer.__init__(timing=True)
        try:
            return task(scenario_json)
        finally:
            tracer.dump(trace_dir / f"worker-{tracer.pid}.json")

    server._run_computation_task = traced_task
    return tracer


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    trace_dir = Path(own[own.index("--trace-dir") + 1]) \
        if "--trace-dir" in own else None
    ensure_src_on_path()
    tracer = _instrument(trace_dir) if trace_dir is not None else None
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(trace_dir / f"server-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main())
