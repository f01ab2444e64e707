"""Measurement plumbing: order statistics, process readings, noise.

Nothing here knows about naming — it is the part of the benchmark that
turns raw per-op nanosecond samples and ``/proc`` readings into the
numbers the report prints, and that records how quiet the machine was
while they were taken.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

__all__ = ["percentile_us", "summarize", "child_cpu_clock", "peak_rss_mb_of",
           "spin_rate", "environment", "close_environment"]

#: A p99 needs this many samples beyond it to be reported as gated.
TAIL_SAMPLES = 25


def percentile_us(sorted_ns: list[int], q: float) -> float:
    """Nearest-rank percentile of ascending nanosecond samples, in µs."""
    if not sorted_ns:
        return 0.0
    rank = max(1, math.ceil(len(sorted_ns) * q))
    return sorted_ns[rank - 1] / 1000.0


def summarize(values: list[float], unit: str) -> dict:
    """Median over repeats with quartiles, n and the per-repeat values."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values),
            "per_repeat": list(values)}


def child_cpu_clock(pid: int):
    """A zero-argument reader of live child *pid*'s user + system CPU
    in nanoseconds: the process's POSIX CPU-time clock (what
    ``clock_getcpuclockid(3)`` returns), which unlike the 10 ms ticks of
    ``/proc/<pid>/stat`` resolves a 100-op slice."""
    clock_id = ((~pid) << 3) | 2        # MAKE_PROCESS_CPUCLOCK(pid, SCHED)
    time.clock_gettime_ns(clock_id)     # fail here, not in the timed loop
    return lambda: time.clock_gettime_ns(clock_id)


def peak_rss_mb_of(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of this process or of child *pid*."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def spin_rate(bursts: int = 4, seconds: float = 0.05) -> float:
    """Iterations per second of a fixed pure-python loop: how fast this
    core runs the interpreter right now.  The best of a few short
    bursts, so a cold first burst or one preemption does not read as a
    slow machine."""
    best = 0.0
    for _ in range(bursts):
        done = 0
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            for _ in range(20_000):
                done += 1
        best = max(best, done / (time.perf_counter() - start))
    return best


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(root: Path, seed: int, seconds: float, smoke: bool) -> dict:
    """The noise record opened at the start of a run."""
    return {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "loadavg_1m_start": os.getloadavg()[0],
        "spin_rate_start": spin_rate(),
    }


def close_environment(env: dict, reference: Path) -> dict:
    """Close the noise record: a second loadavg and calibration, and
    the ``noisy`` stamp when loadavg exceeds nproc or a calibration is
    off by more than 15%.  Off from what: the fastest rate any run of
    this checkout has seen, kept in *reference* — a run that sits in a
    slow spell from start to end drifts from nothing, and must still
    not pass for quiet."""
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["spin_rate_end"] = spin_rate()
    slowest = min(env["spin_rate_start"], env["spin_rate_end"])
    best = max(env["spin_rate_start"], env["spin_rate_end"])
    try:
        best = max(best, json.loads(reference.read_text())["spin_rate_best"])
    except (OSError, ValueError, KeyError, TypeError):
        pass                            # no usable reference yet
    reference.parent.mkdir(parents=True, exist_ok=True)
    reference.write_text(json.dumps({"spin_rate_best": best}))
    env["spin_rate_best"] = best
    env["noisy"] = bool(
        max(env["loadavg_1m_start"], env["loadavg_1m_end"]) > env["nproc"]
        or slowest < 0.85 * best)
    return env
