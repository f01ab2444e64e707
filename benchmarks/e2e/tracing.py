"""Wrap-and-restore shims: layer spans recorded from outside the program.

``install(recorder)`` replaces every function listed in
:data:`spec.LAYERS` with a shim that, while the recorder is *active*,
records one span per call — layer, name, start, end, parent, op id —
and streams the per-layer aggregates (calls, self time).  Outside the
timed region the shim is one flag test.  ``restore`` puts back the very
objects that were there, so every wrapped attribute is ``is``-identical
to the original afterwards.

Self time is a span's duration minus the part its child spans cover;
a span with no parent is *top level* and its duration also adds to
``top_ns`` (the time the process spent inside any wrapped function).

Roots open an op.  ``DistributedResolver.resolve`` / ``rebind`` are
plain calls; ``RemoteNameClient.resolve`` is a coroutine, driven
segment by segment so that only the stretches in which it actually runs
count as its time — the stretches in which it is suspended belong to
whatever else the loop runs (other spans) or to nothing (the wait).
"""

from __future__ import annotations

import asyncio
import importlib
import time
from collections import defaultdict

import spec

__all__ = ["Recorder", "install", "restore", "self_times"]

SPAN_COLUMNS = ("layer", "name", "start_ns", "end_ns", "parent", "op")


class Recorder:
    """In-memory span store plus streamed per-layer aggregates."""

    def __init__(self, tree_ops: int = spec.TRACE_TREE_OPS,
                 clock=time.perf_counter_ns):
        self.clock = clock
        self.tree_ops = tree_ops
        self.active = False
        #: Frames of the spans now open: [start, child_ns, op, index].
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.target_calls: dict[str, int] = defaultdict(int)
        self.target_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_ns = 0
        self.ops = 0
        #: Op id given to top-level spans that no root encloses (the
        #: protocol's message handlers); the serial TCP loop has one op
        #: in flight, so the open op is theirs.  None = unattributed.
        self.loose_op: int | None = None
        self.single_flight = False
        self.spans: list[tuple | None] = []
        self.missing: list[str] = []

    def reset(self) -> None:
        for table in (self.calls, self.self_ns, self.target_calls,
                      self.target_ns, self.counts):
            table.clear()
        self.top_ns = self.ops = 0
        self.spans.clear()

    def aggregates(self) -> dict:
        """JSON-safe totals (what the server child dumps on exit)."""
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "target_calls": dict(self.target_calls),
                "target_ns": dict(self.target_ns),
                "counts": dict(self.counts), "top_ns": self.top_ns,
                "ops": self.ops, "missing": list(self.missing)}


def _sync_shim(rec: Recorder, layer: str, label: str, func, root: bool,
               tally: str | None):
    calls, self_ns = rec.calls, rec.self_ns
    target_calls, target_ns = rec.target_calls, rec.target_ns
    stack, spans, counts = rec.stack, rec.spans, rec.counts
    clock = rec.clock

    def shim(*args, **kwargs):
        if not rec.active:
            return func(*args, **kwargs)
        if stack:
            parent = stack[-1]
            op = parent[2]
        else:
            parent = None
            if root:
                op = rec.ops
                rec.ops = op + 1
            else:
                op = rec.loose_op
        frame = [0, 0, op, -1]
        if op is not None and op < rec.tree_ops:
            frame[3] = len(spans)
            spans.append(None)
        stack.append(frame)
        frame[0] = start = clock()
        try:
            result = func(*args, **kwargs)
            if tally is not None:
                counts[tally] += result
            return result
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            calls[layer] += 1
            self_ns[layer] += duration - frame[1]
            target_calls[label] += 1
            target_ns[label] += duration
            if parent is not None:
                parent[1] += duration
            else:
                rec.top_ns += duration
            if frame[3] >= 0:
                spans[frame[3]] = (layer, label, start, end,
                                   parent[3] if parent is not None else -1,
                                   op)

    shim.__wrapped__ = func
    return shim


class _TracedAwaitable:
    """Drives a root coroutine one running segment at a time; each
    segment is a top-level span of the root's layer."""

    def __init__(self, rec: Recorder, layer: str, label: str, coro):
        self.rec, self.layer, self.label, self.coro = rec, layer, label, coro

    def __await__(self):
        rec, layer, label, coro = self.rec, self.layer, self.label, self.coro
        stack, spans, clock = rec.stack, rec.spans, rec.clock
        op = rec.ops
        rec.ops = op + 1
        rec.calls[layer] += 1
        rec.target_calls[label] += 1
        if rec.single_flight:
            rec.loose_op = op
        keep = op < rec.tree_ops
        value, error = None, None
        try:
            while True:
                frame = [0, 0, op, -1]
                if keep:
                    frame[3] = len(spans)
                    spans.append(None)
                stack.append(frame)
                frame[0] = start = clock()
                try:
                    if error is not None:
                        yielded = coro.throw(error)
                    else:
                        yielded = coro.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    rec.self_ns[layer] += duration - frame[1]
                    rec.target_ns[label] += duration
                    rec.top_ns += duration
                    if keep:
                        spans[frame[3]] = (layer, label, start, end, -1, op)
                value, error = None, None
                try:
                    value = yield yielded
                except BaseException as thrown:  # forwarded, never kept
                    error = thrown
        finally:
            if rec.single_flight:
                rec.loose_op = None


def _async_root_shim(rec: Recorder, layer: str, label: str, func):
    def shim(*args, **kwargs):
        coro = func(*args, **kwargs)
        if not rec.active:
            return coro
        return _TracedAwaitable(rec, layer, label, coro)

    shim.__wrapped__ = func
    return shim


def _counting_shim(rec: Recorder, func, key: str, size_of=None):
    counts = rec.counts

    def shim(*args, **kwargs):
        if rec.active:
            counts[key] += 1
            if size_of is not None:
                counts[size_of] += len(args[-1])
        return func(*args, **kwargs)

    shim.__wrapped__ = func
    return shim


#: (module, owner, attribute, count key, byte-count key): calls that are
#: counted but get no span — too hot, or not the repo's own code.
COUNTED = (
    ("repro.nameservice.sharding", None, "binding_hash",
     "sharding.hash_calls", None),
    ("asyncio", "StreamWriter", "write", "aio.writes", "framing.bytes"),
)
#: Wrapped functions whose integer return value is summed into a count.
TALLIED = {"Simulator.run_until_settled": "kernel.events"}


def _owner_of(module_name: str, owner_name: str | None):
    module = importlib.import_module(module_name)
    return module if owner_name is None else getattr(module, owner_name)


def install(rec: Recorder) -> list[tuple]:
    """Install every shim; returns the restore list
    ``[(owner, attribute, original)]``.  A target that no longer exists
    is listed in ``rec.missing`` instead of failing the run."""
    saved: list[tuple] = []

    def patch(module_name, owner_name, attr, wrap):
        label = f"{owner_name or module_name.rsplit('.', 1)[1]}.{attr}"
        try:
            owner = _owner_of(module_name, owner_name)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            rec.missing.append(f"{module_name}:{label}")
            return
        inner = getattr(original, "__func__", original)
        shim = wrap(label, inner)
        if isinstance(original, (classmethod, staticmethod)):
            shim = type(original)(shim)
        saved.append((owner, attr, original))
        setattr(owner, attr, shim)

    for layer, targets in spec.LAYERS.items():
        for module_name, owner_name, attr in targets:
            root = (module_name, owner_name, attr) in spec.ROOTS

            def wrap(label, inner, layer=layer, root=root):
                if root and asyncio.iscoroutinefunction(inner):
                    return _async_root_shim(rec, layer, label, inner)
                return _sync_shim(rec, layer, label, inner, root,
                                  TALLIED.get(label))

            patch(module_name, owner_name, attr, wrap)
    for module_name, owner_name, attr, key, size_key in COUNTED:
        patch(module_name, owner_name, attr,
              lambda label, inner, key=key, size_key=size_key:
              _counting_shim(rec, inner, key, size_key))
    return saved


def restore(saved: list[tuple]) -> None:
    """Put every original back (reverse order, so a target patched
    twice ends on its first original)."""
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def self_times(rows: list[tuple]) -> dict[str, int]:
    """Per-layer self time of a finished span tree given as
    ``(layer, name, start, end, parent, op)`` rows, *parent* being a row
    index or -1 — the offline twin of the arithmetic the shims stream."""
    covered = [0] * len(rows)
    for _layer, _name, start, end, parent, _op in rows:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, int] = defaultdict(int)
    for index, (layer, _name, start, end, _parent, _op) in enumerate(rows):
        totals[layer] += (end - start) - covered[index]
    return dict(totals)
