"""Wire framing: length-prefixed JSON survives arbitrary chunking.

The core property (hypothesis-driven): any sequence of JSON payloads,
encoded to a frame stream and split at *every possible byte boundary*,
decodes back to exactly the same payloads in order.  TCP guarantees
byte order but not framing, so the decoder must not care where reads
land.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.framing import (MAX_FRAME, FrameDecoder, FrameError,
                                     dumps, encode_frame, iter_frames,
                                     loads)

json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-2**53, max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=32),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=16)


class TestRoundTrip:
    @given(payloads=st.lists(json_values, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_byte_at_a_time(self, payloads):
        """Feeding one byte at a time hits every split boundary."""
        stream = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i:i + 1]))
        assert out == loads(dumps(payloads))  # json-normalized equality
        assert decoder.pending_bytes == 0
        assert decoder.frames_decoded == len(payloads)

    @given(payloads=st.lists(json_values, min_size=1, max_size=4),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_chunking(self, payloads, data):
        """Hypothesis picks the chunk boundaries."""
        stream = b"".join(encode_frame(p) for p in payloads)
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(stream)),
            max_size=8)))
        decoder = FrameDecoder()
        out, last = [], 0
        for cut in cuts + [len(stream)]:
            out.extend(decoder.feed(stream[last:cut]))
            last = cut
        assert out == loads(dumps(payloads))
        assert decoder.pending_bytes == 0

    def test_every_boundary_exhaustively(self):
        """Deterministic two-frame stream, split at every single
        offset into exactly two reads."""
        frames = [{"lookup": {"request_id": 1, "directory": 7,
                              "component": "usr"}},
                  {"reply": {"request_id": 1, "entity": None}}]
        stream = b"".join(encode_frame(f) for f in frames)
        for cut in range(len(stream) + 1):
            decoder = FrameDecoder()
            out = decoder.feed(stream[:cut]) + decoder.feed(stream[cut:])
            assert out == frames, f"failed at byte boundary {cut}"

    def test_canonical_bytes_are_stable(self):
        """Same payload, same bytes — dict ordering never leaks."""
        a = encode_frame({"b": 1, "a": [2, {"z": 3, "y": 4}]})
        b = encode_frame({"a": [2, {"y": 4, "z": 3}], "b": 1})
        assert a == b


class TestCanonicalEncoder:
    @given(value=json_values | st.floats())
    @settings(max_examples=200, deadline=None)
    def test_dumps_is_json_dumps_with_sorted_compact_output(self, value):
        """The shared module-level encoder writes the bytes a fresh
        ``json.dumps`` call would, NaN and infinities included."""
        assert dumps(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":")).encode()


class TestErrors:
    def test_oversize_encode_rejected(self):
        with pytest.raises(FrameError):
            encode_frame("x" * (MAX_FRAME + 1))

    def test_oversize_length_prefix_rejected(self):
        decoder = FrameDecoder(max_frame=64)
        with pytest.raises(FrameError):
            decoder.feed((1 << 20).to_bytes(4, "big"))

    def test_malformed_body_rejected(self):
        body = b"not json at all"
        with pytest.raises(FrameError):
            FrameDecoder().feed(len(body).to_bytes(4, "big") + body)

    def test_iter_frames_trailing_bytes(self):
        stream = encode_frame(1) + b"\x00\x00"
        with pytest.raises(FrameError):
            list(iter_frames(stream))

    def test_iter_frames_clean_stream(self):
        stream = encode_frame(1) + encode_frame([2, "three"])
        assert list(iter_frames(stream)) == [1, [2, "three"]]
