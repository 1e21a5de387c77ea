"""Binary-framed batches into the service: a bad frame costs only itself.

A ``FRAME_EVENTS`` payload is validated at the wire edge before any of its
records reach a shard; a malformed one lands in the parse-error ring and
the frames after it on the same stream still apply.
"""

import io

from repro.core.encode import decode_frame, encode_frame
from repro.server import RaceDetectionService, ServiceConfig
from repro.server.protocol import FRAME_EVENTS, pack_frame
from repro.trace.io import iter_packed_frames

from .test_wire import reference  # noqa: F401 -- the shared pytest fixture


def test_corrupt_wire_frame_lands_in_the_parse_error_ring(reference):
    """A junk opcode inside a binary FRAME_EVENTS payload must be rejected
    at the edge as bad input -- connection and shards keep going."""
    text, expected = reference
    frames = list(iter_packed_frames(io.StringIO(text), 32))

    base, delta, records, extras = decode_frame(frames[0])
    records[0] = 99
    corrupt = encode_frame(base, delta, records, extras)

    config = ServiceConfig(n_shards=2)
    out = io.StringIO()
    buf = io.BytesIO()
    buf.write(pack_frame(FRAME_EVENTS, corrupt))  # rejected up front
    for frame in frames:
        buf.write(pack_frame(FRAME_EVENTS, frame))  # then the real stream
    buf.seek(0)
    with RaceDetectionService(config) as service:
        service.handle_stream(iter(["!binary\n"]), out, binary=buf)
        stats = service.stats()
        health = service.health()
    races = sorted(
        line for line in out.getvalue().splitlines() if line.startswith("race ")
    )
    assert races == expected  # the good frames all still applied
    assert stats.parse_errors == 1
    assert any("opcode" in line for line in health["last_parse_errors"])
