"""The two loopback-TCP workloads: one server child, N callers.

``tcp-serial`` is one caller on one connection; ``tcp-pipelined`` is 64
coroutine callers sharing one script over 2 connections.  Both run the
same code: every repeat starts a fresh :mod:`tcp_server` child on an
ephemeral port, connects :class:`RemoteNameClient` objects, warms up,
then times depth-3 lookups (3 remote steps, 6 frames each) with
``perf_counter_ns`` around every ``await client.resolve``.

Both processes are pinned.  ``tcp-serial`` puts client and server on
*one* CPU: a lookup's six hand-offs are then context switches, not
cross-CPU wake-ups out of an idle state, whose cost follows the host's
power management and was seen to move 3x between quiet and busy hours.
``tcp-pipelined`` keeps both CPUs busy anyway and gives each process
its own.

Cleanliness is part of the oracle: the child's teardown sits in
``finally``, a per-op timeout is a failed op (never a hang), and every
repeat must end with zero leaked asyncio tasks and zero child
processes.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from measure import child_cpu_clock, peak_rss_mb_of
from simloads import RepeatResult, _digest
from repro.transport.service import RemoteNameClient

__all__ = ["TcpLookups", "tcp_workload"]

_now = time.perf_counter_ns
_SERVER = Path(__file__).resolve().parent / "tcp_server.py"
OP_TIMEOUT_S = 10.0         #: a lookup that takes longer is a failed op
CHILD_TIMEOUT_S = 30.0      #: start-up / acknowledgement / exit of the child


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line of the child's stdout, or a RuntimeError after
    *timeout* seconds / at EOF — a stuck child must not hang the run."""
    deadline = time.monotonic() + timeout
    line = bytearray()
    fd = proc.stdout.fileno()
    while not line.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise RuntimeError("server child did not answer in time")
        chunk = os.read(fd, 1)
        if not chunk:
            raise RuntimeError("server child exited before answering")
        line += chunk
    return line.decode().strip()


class TcpLookups:
    """Closed-loop lookups against one ``NamingService`` child."""

    def __init__(self, *, callers: int, connections: int, slice_ops: int,
                 directories: int = 16, leaves: int = 256):
        self.callers = callers
        self.connections = connections
        #: Completed lookups between two ``(wall, cpu)`` marks.
        self.slice_ops = slice_ops
        self.directories = directories
        self.leaves = leaves

    def _cpus(self, allowed: set[int]) -> tuple[int, int]:
        """``(client CPU, server CPU)``: one shared CPU for the serial
        ping-pong, one each when many lookups are in flight."""
        cpus = sorted(allowed)
        return (cpus[-1], cpus[-1]) if self.callers == 1 \
            else (cpus[0], cpus[-1])

    def settings(self) -> dict:
        return {"loop": "closed", "callers": self.callers,
                "cpus": ("client and server share one" if self.callers == 1
                         else "client and server have one each"),
                "connections": self.connections,
                "directories": self.directories,
                "leaves_per_directory": self.leaves, "depth": 3,
                "name_choice": "uniform", "link": "loopback",
                "server": "one NamingService child, unsharded degree 1",
                "op_timeout_s": OP_TIMEOUT_S}

    def script(self, seed: int, ops: int, warmup: int) -> dict:
        rng = random.Random(seed)
        picks = [(rng.randrange(self.directories),
                  rng.randrange(self.leaves)) for _ in range(warmup + ops)]
        return {"names": [f"/svc/d{k}/n{j}" for k, j in picks],
                "labels": [f"d{k}.n{j}" for k, j in picks],
                "warmup": warmup}

    def repeat(self, script: dict, rec=None,
               trace_out: Path | None = None) -> tuple[float, RepeatResult]:
        """One repeat from scratch: ``(setup_s, result)``."""
        return asyncio.run(self._repeat(script, rec, trace_out))

    async def _lookups(self, clients, names, outcomes, cpu) -> tuple:
        """The closed loop: each caller takes the next script index as
        soon as its previous lookup completes.  Returns ``(marks,
        op_ns)``, both in completion order; *cpu* reads client plus
        server CPU."""
        cursor = iter(range(len(names)))
        slice_ops = self.slice_ops
        op_ns: list[int] = []
        marks = [(_now(), cpu())]

        async def caller(client: RemoteNameClient) -> None:
            resolve = client.resolve
            for index in cursor:
                t0 = _now()
                try:
                    outcome = await resolve(names[index],
                                            timeout=OP_TIMEOUT_S)
                except asyncio.TimeoutError:
                    outcome = None
                t1 = _now()
                op_ns.append(t1 - t0)
                outcomes[index] = outcome
                if len(op_ns) % slice_ops == 0:
                    marks.append((t1, cpu()))

        await asyncio.gather(*(caller(clients[c % len(clients)])
                               for c in range(self.callers)))
        if len(op_ns) % slice_ops:
            marks.append((_now(), cpu()))
        return marks, op_ns

    async def _repeat(self, script, rec, trace_out):
        names, labels = script["names"], script["labels"]
        warmup = script["warmup"]
        count = len(names) - warmup
        command = [sys.executable, str(_SERVER),
                   "--directories", str(self.directories),
                   "--leaves", str(self.leaves)]
        if rec is not None:
            command += ["--trace-out", str(trace_out)]
        problems: list[str] = []
        clients: list[RemoteNameClient] = []
        allowed = os.sched_getaffinity(0)
        client_cpu, server_cpu = self._cpus(allowed)
        setup0 = time.perf_counter()
        os.sched_setaffinity(0, {server_cpu})   # the child inherits it
        child = subprocess.Popen(command, stdout=subprocess.PIPE)
        os.sched_setaffinity(0, {client_cpu})
        try:
            hello = _read_line(child, CHILD_TIMEOUT_S).split()
            if len(hello) != 3 or hello[0] != "LISTENING":
                raise RuntimeError(f"server child said {hello!r}")
            address = (hello[1], int(hello[2]))
            for index in range(self.connections):
                client = RemoteNameClient([address], label=f"client{index}")
                clients.append(client)
                await client.connect()
            setup_s = time.perf_counter() - setup0

            server_cpu = child_cpu_clock(child.pid)

            def cpu() -> int:
                return time.process_time_ns() + server_cpu()

            await self._lookups(clients, names[:warmup], [None] * warmup,
                                cpu)

            outcomes: list = [None] * count
            if rec is not None:
                rec.single_flight = self.callers == 1
                child.send_signal(signal.SIGUSR1)
                if _read_line(child, CHILD_TIMEOUT_S) != "TRACE 1":
                    raise RuntimeError("server child did not start tracing")
                rec.active = True
            frames0 = sum(c.transport.frames_sent
                          + c.transport.frames_delivered for c in clients)
            server_cpu0 = server_cpu()
            marks, op_ns = await self._lookups(clients, names[warmup:],
                                               outcomes, cpu)
            server_cpu_ns = server_cpu() - server_cpu0
            frames = sum(c.transport.frames_sent
                         + c.transport.frames_delivered
                         for c in clients) - frames0
            if rec is not None:
                rec.active = False
                child.send_signal(signal.SIGUSR2)
                if _read_line(child, CHILD_TIMEOUT_S) != "TRACE 0":
                    raise RuntimeError("server child did not stop tracing")

            served = (await clients[0].stats())["requests_served"]
            if served != 3 * (warmup + count):
                problems.append(f"server served {served} steps, expected "
                                f"{3 * (warmup + count)}")
            server_rss = peak_rss_mb_of(child.pid)
        finally:
            for client in clients:
                await client.aclose()
            child.terminate()
            try:
                child.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            child.stdout.close()
            os.sched_setaffinity(0, allowed)

        leaked = [task for task in asyncio.all_tasks()
                  if task is not asyncio.current_task() and not task.done()]
        if leaked:
            problems.append(f"{len(leaked)} asyncio tasks leaked")
        try:
            os.waitpid(-1, os.WNOHANG)
            problems.append("a child process outlived the repeat")
        except ChildProcessError:
            pass                        # no children left: clean

        wrong = steps = resends = 0
        answers = []
        for outcome, label in zip(outcomes, labels[warmup:]):
            if outcome is None or not outcome.ok \
                    or outcome.entity.label != label:
                wrong += 1
                answers.append(("FAILED", 0))
                continue
            steps += outcome.steps
            resends += outcome.retries
            answers.append((outcome.entity.label, outcome.steps))
        stats = {"steps": steps, "resends": resends,
                 "late_replies": sum(c.client.late_replies for c in clients),
                 "frames_dropped": sum(c.transport.frames_dropped
                                       for c in clients),
                 "server_steps": 3 * count}
        if rec is not None:
            stats["server_trace"] = json.loads(trace_out.read_text())
            trace_out.unlink()          # it travels on in <workload>.trace.json
        result = RepeatResult(
            ops=count, marks=marks, op_ns=op_ns, failed=wrong, msgs=frames,
            digest=_digest(answers),
            deterministic={"frames": frames, "steps": steps},
            stats=stats, problems=problems, server_cpu_ns=server_cpu_ns,
            server_rss_mb=server_rss)
        return setup_s, result


def tcp_workload(name: str, smoke: bool) -> TcpLookups:
    """A slice is about 7 ms of one caller's lookups; with 64 in flight
    completions come in bursts of 64, and a slice must hold many bursts
    or the fastest of the repeats reads the burst, not the work."""
    if name == "tcp-serial":
        return TcpLookups(callers=1, connections=1, slice_ops=10)
    if name == "tcp-pipelined":
        return TcpLookups(callers=64, connections=2, slice_ops=1000)
    raise KeyError(name)
