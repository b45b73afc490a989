"""Start the consensus service with the benchmark's span wrappers installed.

The traced ``serve`` run launches this instead of ``repro serve``::

    python3 perfbench/serve_traced.py --port 8737 --spans out.jsonl

It installs :func:`tracing.install` in this process, then calls
``repro.service.server.serve`` with the default ``ServiceConfig``.  On
SIGTERM it stops serving and writes every span to ``--spans``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
from pathlib import Path

from harness import program_root


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()
    program_root()
    import tracing
    from repro.service.server import serve

    tracer = tracing.install(tracing.Tracer())

    async def run() -> None:
        task = asyncio.ensure_future(serve("127.0.0.1", args.port))
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, task.cancel)
        try:
            await task
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(run())
    finally:
        tracer.uninstall()
        tracer.write_jsonl(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
