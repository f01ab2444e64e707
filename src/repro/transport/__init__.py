"""The transport subsystem: one protocol, two substrates.

The naming protocol's coherence behaviour is defined over messages
and timeouts, so this package pins down the seam
(:mod:`~repro.transport.base`) and provides two implementations:

* :class:`SimTransport` — a thin adapter over the deterministic
  simulator kernel (virtual time, seeded RNG, pinned event order);
* :class:`AsyncioTransport` — real asyncio TCP over localhost with
  length-prefixed JSON framing (:mod:`~repro.transport.framing`),
  entity/lease wire codecs (:mod:`~repro.transport.wire`) and
  wall-clock timers.

``tests/transport/test_parity.py`` runs the same seeded
lookup/rebind/invalidate script on both and asserts identical
resolution outcomes and coherence-audit verdicts; see
``docs/transport.md`` for the design.
"""

from repro.transport.base import Endpoint, Envelope, Timer, Transport
from repro.transport.framing import (MAX_FRAME, FrameDecoder, FrameError,
                                     encode_frame, iter_frames)
from repro.transport.leases import AckWaiter, callback_fanout_async
from repro.transport.sim import SimEndpoint, SimTransport
from repro.transport.wire import (DirectoryRegistry, EntityProxyCache,
                                  RemoteContext, RemoteDirectory,
                                  RemoteEntity, WireCodec, describe_entity,
                                  remote_uid_of)

__all__ = [
    "Endpoint", "Envelope", "Timer", "Transport",
    "SimEndpoint", "SimTransport",
    "AsyncioTransport", "AsyncioEndpoint", "Address",
    "MAX_FRAME", "FrameDecoder", "FrameError", "encode_frame",
    "iter_frames",
    "DirectoryRegistry", "EntityProxyCache", "RemoteContext",
    "RemoteDirectory", "RemoteEntity", "WireCodec", "describe_entity",
    "remote_uid_of",
    "AckWaiter", "callback_fanout_async",
]


def __getattr__(name):  # lazy: keep sim-only imports asyncio-free
    if name in ("AsyncioTransport", "AsyncioEndpoint", "Address"):
        from repro.transport import aio
        return getattr(aio, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
