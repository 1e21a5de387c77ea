"""Trace-context propagation: ids, the wire envelope, and span stamping."""

import io
import json

from array import array

from repro.core.encode import (
    TRACE_VERSION,
    EventEncoder,
    decode_frame,
    encode_frame,
    format_trace_id,
    make_trace_id,
    parse_trace_id,
    split_trace,
    stamp_trace,
)
from repro.obs.tracing import ObsConfig
from repro.server.service import RaceDetectionService, ServiceConfig


def test_trace_ids_are_deterministic_and_roundtrip():
    a = make_trace_id("node0", 7)
    assert a == make_trace_id("node0", 7)
    assert a != make_trace_id("node1", 7)
    assert a != make_trace_id("node0", 8)
    text = format_trace_id(a)
    assert len(text) == 16
    assert parse_trace_id(text) == a


def _frame():
    encoder = EventEncoder()
    return encode_frame(1, encoder.interner.elements_since(1), array("q"), array("q"))


def test_stamp_and_split_roundtrip():
    frame = _frame()
    trace_id = make_trace_id("coordinator", 3)
    stamped = stamp_trace(trace_id, frame)
    assert stamped[0] == TRACE_VERSION
    recovered, payload = split_trace(stamped)
    assert recovered == trace_id
    assert payload == frame
    decode_frame(payload)  # downstream consumers always see v1 bytes


def test_split_passes_unstamped_frames_through():
    frame = _frame()
    recovered, payload = split_trace(frame)
    assert recovered is None
    assert payload is frame or payload == frame


def _spans_with(obs, lines):
    service = RaceDetectionService(
        ServiceConfig(flush_interval=0, obs=obs)
    )
    out = io.StringIO()
    service.handle_stream(io.StringIO("\n".join(lines) + "\n"), out)
    service.close()
    return out


def test_spans_carry_minted_trace_id_and_node(tmp_path):
    log = tmp_path / "spans.jsonl"
    _spans_with(
        ObsConfig(
            counters=True,
            trace=True,
            node="testnode",
            span_sample=1,
            span_log=str(log),
        ),
        ["1 0 write 1 data", "1 1 write 1 data"],
    )
    spans = [json.loads(line) for line in log.read_text().splitlines() if line]
    assert spans
    for span in spans:
        assert span["node"] == "testnode"
        assert len(span["trace_id"]) == 16
        # trace fields must not leak into the stage timing map
        assert "trace_id" not in span["stage_sec"]


def test_spans_without_trace_keep_their_schema(tmp_path):
    log = tmp_path / "spans.jsonl"
    _spans_with(
        ObsConfig(counters=True, span_sample=1, span_log=str(log)),
        ["1 0 write 1 data"],
    )
    spans = [json.loads(line) for line in log.read_text().splitlines() if line]
    assert spans
    for span in spans:
        assert "trace_id" not in span
        assert "node" not in span


def test_race_lines_identical_with_trace_on_and_off():
    lines = [
        "1 0 fork 2",
        "1 1 fork 3",
        "2 0 acq 10",
        "2 1 write 20 x",
        "2 2 rel 10",
        "3 0 write 20 x",
    ]
    plain = _spans_with(ObsConfig(counters=True), lines)
    traced = _spans_with(
        ObsConfig(counters=True, trace=True, node="n"), lines
    )
    races = lambda buf: sorted(
        line for line in buf.getvalue().splitlines() if line.startswith("race ")
    )
    assert races(plain) == races(traced)
    assert races(plain)
