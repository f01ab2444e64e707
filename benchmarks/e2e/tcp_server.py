#!/usr/bin/env python3
"""The server child of the TCP workloads.

Serves ``/svc/d<k>/n<j>`` (an unsharded degree-1 tree — ``protocol.py``
has no sharding) through the public :class:`NamingService` on an
ephemeral loopback port, prints ``LISTENING <host> <port>`` and waits
for SIGTERM.

With ``--trace-out FILE`` it installs the same shims as the parent.
SIGUSR1 resets and starts its recorder, SIGUSR2 stops it (each
acknowledged with a ``TRACE 1`` / ``TRACE 0`` line on stdout, so the
parent knows the switch happened before its next frame); on SIGTERM the
aggregates are written to FILE.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.model.context import context_object  # noqa: E402
from repro.model.entities import Entity, ObjectEntity  # noqa: E402
from repro.transport.service import NamingService  # noqa: E402


def build_namespace(directories: int, leaves: int) -> Entity:
    root = context_object("root")
    svc = context_object("svc")
    root.state.bind("svc", svc)
    for k in range(directories):
        directory = context_object(f"d{k}")
        svc.state.bind(f"d{k}", directory)
        for j in range(leaves):
            directory.state.bind(f"n{j}", ObjectEntity(f"d{k}.n{j}"))
    return root


async def serve(args: argparse.Namespace, recorder) -> None:
    service = NamingService(build_namespace(args.directories, args.leaves))
    address = await service.start("127.0.0.1", 0)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    if recorder is not None:
        def switch(on: bool) -> None:
            if on:
                recorder.reset()
            recorder.active = on
            print(f"TRACE {int(on)}", flush=True)
        loop.add_signal_handler(signal.SIGUSR1, switch, True)
        loop.add_signal_handler(signal.SIGUSR2, switch, False)
    print(f"LISTENING {address.host} {address.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await service.aclose()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--directories", type=int, required=True)
    parser.add_argument("--leaves", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    recorder = saved = None
    if args.trace_out:
        import tracing
        recorder = tracing.Recorder(tree_ops=0)
        saved = tracing.install(recorder)
    try:
        asyncio.run(serve(args, recorder))
    finally:
        if saved is not None:
            tracing.restore(saved)
            Path(args.trace_out).write_text(
                json.dumps(recorder.aggregates()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
