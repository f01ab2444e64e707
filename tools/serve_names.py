#!/usr/bin/env python3
"""Serve (and exercise) the naming protocol over real localhost sockets.

The multi-process demo for the transport subsystem: the *unchanged*
resolver/retry/lease protocol code (``repro.nameservice.protocol``)
runs over ``repro.transport.aio`` TCP instead of the simulator.

Subcommands:

* ``serve`` — host a namespace on a real socket::

      PYTHONPATH=src python tools/serve_names.py serve --port 4640

* ``session`` — run the scripted client session against a running
  server (lookups, a lease grant, a rebind that breaks the lease over
  the socket) and assert every step::

      PYTHONPATH=src python tools/serve_names.py session --port 4640

* ``demo`` — the two in one: fork a server subprocess, run the
  session against it over localhost, tear down.  Exits nonzero if any
  assertion fails (this is the CI ``transport-smoke`` entry point)::

      PYTHONPATH=src python tools/serve_names.py demo --trace artifacts/transport_trace.json

``--trace FILE`` dumps the client's spans, metrics and frame counters
as JSON — the flight-recorder artifact CI uploads.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.model.context import context_object  # noqa: E402
from repro.model.entities import Entity, ObjectEntity  # noqa: E402
from repro.nameservice.retry import RetryPolicy  # noqa: E402
from repro.obs.export import span_to_dict  # noqa: E402
from repro.obs.instrument import Instrumentation  # noqa: E402
from repro.transport.service import (NamingService,  # noqa: E402
                                     RemoteNameClient)

#: The demo namespace always contains these fixed paths.
FIXED_PATHS = ["/usr/bin/python", "/usr/bin/ls", "/etc/passwd"]


def build_namespace(names: int = 50) -> Entity:
    """The served tree: a small unix-flavoured skeleton plus *names*
    synthetic leaves under ``/svc``."""
    root = context_object("root")
    usr = context_object("usr")
    bin_ = context_object("bin")
    etc = context_object("etc")
    svc = context_object("svc")
    root.state.bind("usr", usr)
    root.state.bind("etc", etc)
    root.state.bind("svc", svc)
    usr.state.bind("bin", bin_)
    bin_.state.bind("python", ObjectEntity("python3"))
    bin_.state.bind("ls", ObjectEntity("ls"))
    etc.state.bind("passwd", ObjectEntity("passwd"))
    for index in range(names):
        svc.state.bind(f"name-{index}", ObjectEntity(f"object-{index}"))
    return root


# -- serve ----------------------------------------------------------------


async def run_server(args: argparse.Namespace) -> None:
    service = NamingService(
        build_namespace(args.names), seed=args.seed,
        lease_term=args.lease_term,
        retry_policy=RetryPolicy(max_attempts=2, base_backoff=0.05,
                                 max_backoff=0.5))
    address = await service.start(args.host, args.port)
    # Machine-readable hello for the demo driver; flush so a piping
    # parent sees it immediately.
    print(f"LISTENING {address.host} {address.port} {address.label}",
          flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        await service.aclose()


# -- session --------------------------------------------------------------


class SessionError(AssertionError):
    pass


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SessionError(what)


async def run_session(args: argparse.Namespace) -> dict:
    """The scripted smoke session; returns the result summary."""
    obs = Instrumentation()
    client = RemoteNameClient(
        [(args.host, args.port)], seed=args.seed, obs=obs,
        timeout=args.timeout,
        retry_policy=RetryPolicy(max_attempts=3, base_backoff=0.05,
                                 max_backoff=0.5))
    results: dict = {"lookups": [], "ok": False}
    started = time.monotonic()
    try:
        root = await client.connect()
        check(root is not None and root.is_defined(), "no root proxy")

        async def lookup(path: str):
            """One lookup, with the frames and served steps it cost."""
            served = (await client.stats())["requests_served"]
            sent = client.transport.frames_sent
            delivered = client.transport.frames_delivered
            outcome = await client.resolve(path)
            frames = (client.transport.frames_sent - sent,
                      client.transport.frames_delivered - delivered)
            served = (await client.stats())["requests_served"] - served
            results["lookups"].append(
                {"name": path, "ok": outcome.ok,
                 "entity": outcome.entity.label, "steps": outcome.steps,
                 "request_frames": frames[0], "reply_frames": frames[1],
                 "steps_served": served})
            return outcome, frames, served

        # 1. Plain lookups over the socket.  The server holds the whole
        #    tree, so it walks the suffix each request ships: one round
        #    trip per lookup, however many steps it serves.
        for path in FIXED_PATHS:
            outcome, frames, served = await lookup(path)
            check(outcome.ok, f"lookup failed: {path}: {outcome.reason}")
            # (Every step but the root binding is the server's.)
            check(frames == (1, 1) and served == outcome.steps - 1,
                  f"{path}: expected 1 request + 1 reply frame for "
                  f"{outcome.steps - 1} served steps, got {frames} for "
                  f"{served}")
        check(results["lookups"][0]["steps_served"] == 3,
              "/usr/bin/python must advance requests_served by 3")
        sample, _, _ = await lookup("/svc/name-0")
        check(sample.ok, "synthetic lookup failed")
        missing, frames, served = await lookup("/usr/bin/does-not-exist")
        check(not missing.ok and not missing.failed,
              "missing name must resolve undefined, not error")
        check(frames == (1, 1) and served == 3,
              f"missing name: expected one round trip, got {frames} "
              f"frames for {served} served steps")

        # 2. Lease the /usr binding, then rebind it server-side: the
        #    break callback must arrive over the socket and revoke the
        #    client's grant before the rebound reply lands.
        dep = client.dep_for(root, "usr")
        await client.lease(dep)
        check(client.lease_table.fresh(dep, client.transport.now()),
              "lease not fresh after grant")
        report = await client.rebind(["usr"], label="usr-v2",
                                     directory=True)
        check(report.get("notified") == 1,
              f"expected 1 notified holder, got {report}")
        check(client.client.lease_callbacks == 1,
              "client never saw the break callback")
        check(not client.lease_table.fresh(dep, client.transport.now()),
              "lease still fresh after break")

        # 3. Rebind-triggered invalidation is visible: the old subtree
        #    is gone, the new directory resolves.
        stale = await client.resolve("/usr/bin/python")
        check(not stale.ok, "old subtree still resolves after rebind")
        fresh = await client.resolve("/usr")
        check(fresh.ok and fresh.entity.label == "usr-v2",
              f"rebound directory wrong: {fresh.entity!r}")

        stats = await client.stats()
        check(stats["requests_served"] >= 5, "server served too little")
        check(stats["leases"]["acks"] == 1, "server missed the ack")
        results.update(
            ok=True, seconds=round(time.monotonic() - started, 3),
            lease_callbacks=client.client.lease_callbacks,
            server=stats,
            frames={"sent": client.transport.frames_sent,
                    "delivered": client.transport.frames_delivered,
                    "dropped": client.transport.frames_dropped})
        return results
    finally:
        if args.trace:
            dump_trace(args.trace, obs, client, results)
        await client.aclose()


def dump_trace(path: str, obs: Instrumentation,
               client: RemoteNameClient, results: dict) -> None:
    spans = [span_to_dict(span) for span in obs.tracer.spans]
    artifact = {"schema": "repro-transport-trace/2",
                "results": results, "spans": spans,
                "metrics": obs.metrics.snapshot(),
                "frames": {"sent": client.transport.frames_sent,
                           "delivered": client.transport.frames_delivered,
                           "dropped": client.transport.frames_dropped}}
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(artifact, indent=2, sort_keys=True,
                                 default=str))
    print(f"trace artifact: {target} ({len(spans)} spans)")


# -- demo -----------------------------------------------------------------


def run_demo(args: argparse.Namespace) -> int:
    """Fork a server, run the session against it, tear down."""
    server = subprocess.Popen(
        [sys.executable, __file__, "serve", "--host", args.host,
         "--port", str(args.port), "--names", str(args.names),
         "--seed", str(args.seed)],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ,
             "PYTHONPATH": str(Path(__file__).resolve().parent.parent
                               / "src")})
    try:
        hello = server.stdout.readline().split()
        if not hello or hello[0] != "LISTENING":
            raise SessionError(f"server never came up: {hello}")
        args.host, args.port = hello[1], int(hello[2])
        print(f"server pid {server.pid} on {args.host}:{args.port}")
        results = asyncio.run(run_session(args))
        print(json.dumps(results, indent=2, sort_keys=True))
        print("transport demo: PASS")
        return 0
    except SessionError as exc:
        print(f"transport demo: FAIL — {exc}", file=sys.stderr)
        return 1
    finally:
        server.terminate()
        try:
            server.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover
            server.kill()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=0,
                       help="0 picks a free port (printed on stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--names", type=int, default=50,
                       help="synthetic leaves under /svc")

    serve = sub.add_parser("serve", help="host a namespace on a socket")
    common(serve)
    serve.add_argument("--lease-term", type=float, default=30.0)

    session = sub.add_parser("session",
                             help="scripted client session + assertions")
    common(session)
    session.add_argument("--timeout", type=float, default=2.0)
    session.add_argument("--trace", default="",
                         help="write the client trace artifact here")

    demo = sub.add_parser("demo", help="serve + session, two processes")
    common(demo)
    demo.add_argument("--timeout", type=float, default=2.0)
    demo.add_argument("--trace", default="")

    args = parser.parse_args(argv)
    if args.command == "serve":
        asyncio.run(run_server(args))
        return 0
    if args.command == "session":
        results = asyncio.run(run_session(args))
        print(json.dumps(results, indent=2, sort_keys=True))
        return 0 if results["ok"] else 1
    return run_demo(args)


if __name__ == "__main__":
    sys.exit(main())
