"""Length-prefixed JSON framing for the asyncio transport.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON.  The decoder is incremental: bytes may
arrive split at *any* boundary (TCP guarantees order, not framing)
and frames re-assemble identically — pinned by the hypothesis
round-trip suite in ``tests/transport/test_framing.py``, which splits
encoded streams at every byte offset.

The frame body is produced by :func:`dumps` with sorted keys and
compact separators, so identical payloads yield identical bytes —
useful for digests and for keeping the parity test's wire traffic
reproducible.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Iterator

__all__ = ["MAX_FRAME", "MAX_REST", "FrameError", "encode_frame",
           "FrameDecoder", "dumps", "loads", "iter_frames"]

#: Frames above this size are rejected on both encode and decode — a
#: corrupted length prefix must not make the reader buffer gigabytes.
MAX_FRAME = 16 * 1024 * 1024
#: Components a lookup request may ship beyond the one it asks — the
#: steps one frame may make its server walk (namespaces can be cyclic).
#: A longer name is finished by further asks.
MAX_REST = 256

_HEADER = struct.Struct(">I")


class FrameError(ValueError):
    """Raised on oversized or malformed frames."""


#: ``json.dumps`` builds a new encoder per call for these arguments.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dumps(obj: Any) -> bytes:
    """Canonical JSON bytes (sorted keys, compact separators)."""
    return _encode(obj).encode("utf-8")


def loads(data: bytes) -> Any:
    return json.loads(data.decode("utf-8"))


def encode_frame(obj: Any) -> bytes:
    """One wire frame: ``>I`` length header + canonical JSON body."""
    body = dumps(obj)
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds "
                         f"MAX_FRAME={MAX_FRAME}")
    return _HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    >>> decoder = FrameDecoder()
    >>> stream = encode_frame({"a": 1}) + encode_frame([2, 3])
    >>> [obj for i in range(len(stream))
    ...  for obj in decoder.feed(stream[i:i + 1])]
    [{'a': 1}, [2, 3]]
    """

    def __init__(self, max_frame: int = MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()
        self.frames_decoded = 0

    def feed(self, data: bytes) -> list[Any]:
        """Consume *data*; return every frame it completes (possibly
        none, possibly several), in arrival order."""
        buffer = self._buffer
        buffer.extend(data)
        frames: list[Any] = []
        while len(buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buffer)
            if length > self.max_frame:
                raise FrameError(f"frame length {length} exceeds "
                                 f"max_frame={self.max_frame}")
            end = _HEADER.size + length
            if len(buffer) < end:
                break
            body = bytes(buffer[_HEADER.size:end])
            del buffer[:end]
            self.frames_decoded += 1
            try:
                frames.append(loads(body))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FrameError(f"malformed frame body: {exc}") from exc
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    def __repr__(self) -> str:
        return (f"<FrameDecoder decoded={self.frames_decoded} "
                f"pending={self.pending_bytes}B>")


def iter_frames(stream: bytes) -> Iterator[Any]:
    """Decode a complete byte string of concatenated frames."""
    decoder = FrameDecoder()
    yield from decoder.feed(stream)
    if decoder.pending_bytes:
        raise FrameError(
            f"{decoder.pending_bytes} trailing bytes after last frame")
