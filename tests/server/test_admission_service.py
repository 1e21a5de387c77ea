"""Admission control through the service: verbs, parity, counters, frames."""

import base64
import collections
import io
import threading

import pytest

from repro.analysis.admission import build_admission_filter, record_workload
from repro.core.actions import Read, Write
from repro.core.encode import (
    FILTERED_VAR,
    FrameFormatError,
    EventEncoder,
    decode_frame,
    encode_frame,
)
from repro.obs.bridge import REQUIRED_METRICS, registry_from_stats
from repro.server.client import ServiceClient
from repro.server.protocol import format_race, parse_response, parse_summary
from repro.runtime.filters import field_key
from repro.server.service import RaceDetectionService, ServiceConfig, serve_tcp
from repro.trace.io import dump_trace, format_event


@pytest.fixture(scope="module")
def colt():
    events, objmap = record_workload("colt", scale="tiny")
    filt = build_admission_filter("colt", scale="tiny", objmap=objmap)
    return events, filt


def inline_service(**overrides):
    config = dict(n_shards=2)
    config.update(overrides)
    return RaceDetectionService(ServiceConfig(**config))


def engine_races(service, events):
    for event in events:
        service.engine.submit(event)
    return sorted(
        format_race(seq, report) for seq, report in service.engine.barrier()
    )


class TestEngineAdmission:
    def test_text_path_parity_and_counters(self, colt):
        events, filt = colt
        with inline_service() as baseline:
            base_races = engine_races(baseline, events)
            base_stats = baseline.stats()
        with inline_service(admit=filt.clone()) as admitted:
            adm_races = engine_races(admitted, events)
            stats = admitted.stats()
        assert adm_races == base_races
        assert stats.data_filtered > 0
        assert stats.data_admitted + stats.data_filtered == base_stats.data_routed
        assert stats.data_routed == stats.data_admitted
        assert stats.admit == "intersect"
        assert base_stats.admit == "off"

    def test_binary_wire_parity_server_side_filtering(self, colt):
        events, filt = colt

        def run(admit):
            service = inline_service(admit=admit)
            server = serve_tcp(service, "127.0.0.1", 0)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            client = ServiceClient.tcp("127.0.0.1", server.server_address[1])
            try:
                assert client.enable_binary()
                client.stream(events)
                client.flush()
                races = sorted(format_race(r.seq, r) for r in client.races)
                return races, service.stats()
            finally:
                client.close()
                server.shutdown()
                server.server_close()
                service.close()

        base_races, _ = run(None)
        adm_races, stats = run(filt.clone())
        assert adm_races == base_races
        assert stats.data_filtered > 0

    def test_filtered_accesses_still_consume_seq(self, colt):
        """Dropped accesses keep their sequence number, so race seq= tags
        match a baseline run -- the parity the other tests rely on."""
        events, filt = colt
        with inline_service(admit=filt.clone()) as service:
            for event in events:
                service.engine.submit(event)
            service.engine.barrier()
            stats = service.stats()
        assert stats.events_ingested == len(events)

    def test_reset_preserves_the_configured_filter(self, colt):
        events, filt = colt
        with inline_service(admit=filt.clone()) as service:
            engine_races(service, events)
            assert service.stats().data_filtered > 0
            service.engine.reset()
            engine_races(service, events)
            assert service.stats().data_filtered > 0


class CountingFilter:
    """Stands in for a filter and counts every call made on it, by method
    and arguments."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = collections.Counter()

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted(*args):
            self.calls[(name, *args)] += 1
            return attr(*args)

        return counted


class TestEdgeAsksOncePerVariable:
    """Each edge decides a variable once: one ``admit()`` per distinct
    variable, and no call at all for the accesses dropped after it."""

    @pytest.mark.parametrize("edge", ["text", "binary", "analyze"])
    def test_one_admit_call_per_variable(self, colt, edge, tmp_path, monkeypatch):
        events, filt = colt
        counting = CountingFilter(filt.clone())
        if edge == "text":
            body = "".join(format_event(e) + "\n" for e in events) + "!flush\n"
            with inline_service(admit=counting) as service:
                service.handle_stream(io.StringIO(body), io.StringIO())
        elif edge == "binary":
            service = inline_service(admit=counting)
            server = serve_tcp(service, "127.0.0.1", 0)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            client = ServiceClient.tcp("127.0.0.1", server.server_address[1])
            try:
                assert client.enable_binary()
                client.stream(events)
                client.flush()
            finally:
                client.close()
                server.shutdown()
                server.server_close()
                service.close()
        else:
            from repro.cli import main

            trace = str(tmp_path / "colt.trace")
            dump_trace(events, trace)
            monkeypatch.setattr(
                "repro.analysis.admission.load_admission_filter",
                lambda _path: counting,
            )
            assert main(["analyze", trace, "--admit", "colt.json"]) == 1
        accesses = [
            (e.action.var.obj.value, e.action.var.field)
            for e in events
            if isinstance(e.action, (Read, Write))
        ]
        assert len(set(accesses)) < len(accesses)
        per_variable = {call: n for call, n in counting.calls.items() if len(call) == 3}
        assert per_variable == {("admit", *access): 1 for access in set(accesses)}
        assert counting.refused


class TestAdmitVerb:
    def run_stream(self, service, text):
        out = io.StringIO()
        service.handle_stream(io.StringIO(text), out)
        return out.getvalue().splitlines()

    def test_status_install_and_off(self, colt):
        events, filt = colt
        blob = base64.b64encode(filt.to_json().encode("utf-8")).decode("ascii")
        text = "!admit\n" + f"!admit {blob}\n" + "!admit\n" + "!admit off\n"
        with inline_service() as service:
            lines = self.run_stream(service, text)
        payloads = [parse_response(line) for line in lines[:-1]]
        assert all(kind == "ok" for kind, _ in payloads)
        _, off_info = parse_summary(payloads[0][1])
        assert off_info["policy"] == "off"
        _, install_info = parse_summary(payloads[1][1])
        assert install_info["policy"] == "intersect"
        assert install_info["workload"] == "colt"
        _, status_info = parse_summary(payloads[2][1])
        assert status_info == {"policy": "intersect", "admitted": 0, "filtered": 0}
        _, disable_info = parse_summary(payloads[3][1])
        assert disable_info["policy"] == "off"

    def test_installed_filter_drops_accesses_with_parity(self, colt):
        events, filt = colt
        blob = base64.b64encode(filt.to_json().encode("utf-8")).decode("ascii")
        body = "\n".join(format_event(e) for e in events)
        with inline_service() as service:
            base_lines = self.run_stream(service, body + "\n!flush\n")
        with inline_service() as service:
            adm_lines = self.run_stream(
                service, f"!admit {blob}\n" + body + "\n!flush\n"
            )
            stats = service.stats()
        base_races = sorted(l for l in base_lines if l.startswith("race "))
        adm_races = sorted(l for l in adm_lines if l.startswith("race "))
        assert adm_races == base_races
        assert stats.data_filtered > 0

    def test_garbage_filter_is_an_error_line(self):
        with inline_service() as service:
            lines = self.run_stream(service, "!admit notbase64!!\n")
        assert parse_response(lines[0])[0] == "error"

    def test_health_reports_admit_section(self, colt):
        events, filt = colt
        with inline_service(admit=filt.clone()) as service:
            engine_races(service, events)
            payload = service.health()
        admit = payload["admit"]
        assert admit["policy"] == "intersect"
        assert admit["workload"] == "colt"
        assert admit["data_filtered"] > 0
        # each dropped variable once, array indices collapsed
        dropped = {
            (e.action.var.obj.value, field_key(e.action.var.field))
            for e in events
            if isinstance(e.action, (Read, Write))
            and not filt.clone().admit(e.action.var.obj.value, e.action.var.field)
        }
        assert admit["filtered_vars"] == len(dropped) > 0
        assert set(admit) == {
            "policy", "workload", "race_free_fields", "data_admitted",
            "data_filtered", "filtered_vars",
        }


class TestMetrics:
    def test_admission_counters_exposed(self, colt):
        events, filt = colt
        with inline_service(admit=filt.clone()) as service:
            engine_races(service, events)
            stats = service.stats()
        text = registry_from_stats(stats).render()
        for name in (
            "repro_ingest_data_admitted_total",
            "repro_ingest_data_filtered_total",
        ):
            assert name in REQUIRED_METRICS
            assert name in text
        assert 'repro_service_admit_info{policy="intersect"} 1' in text
        assert "repro_admit_" not in text

    def test_filtered_total_matches_stats(self, colt):
        events, filt = colt
        with inline_service(admit=filt.clone()) as service:
            engine_races(service, events)
            stats = service.stats()
        text = registry_from_stats(stats).render()
        assert (
            f"repro_ingest_data_filtered_total {stats.data_filtered}" in text
        )


class TestFrameFormatError:
    def encoder_frame(self, events):
        encoder = EventEncoder()
        from array import array

        cursor = len(encoder.interner)
        records = array("q")
        extras = array("q")
        for seq, event in enumerate(events):
            op, tid_id, index, a, b, extra = encoder.encode_event(event)
            if extra is not None:
                a = len(extras)
                extras.extend(extra)
            records.extend((op, seq, tid_id, index, a, b))
        return encode_frame(
            cursor, encoder.interner.elements_since(cursor), records, extras
        )

    def test_truncated_frame_is_a_typed_error(self, colt):
        events, _ = colt
        frame = self.encoder_frame(events[:8])
        with pytest.raises(FrameFormatError):
            decode_frame(frame[: len(frame) // 2])
        # still a ValueError, so existing handlers keep working
        with pytest.raises(ValueError):
            decode_frame(frame[: len(frame) // 2])

    def test_unknown_version_reports_the_kind_byte(self, colt):
        events, _ = colt
        frame = bytearray(self.encoder_frame(events[:8]))
        frame[0] = 0x7F
        with pytest.raises(FrameFormatError) as err:
            decode_frame(bytes(frame))
        assert err.value.kind == 0x7F

    def test_empty_frame_is_a_typed_error(self):
        with pytest.raises(FrameFormatError):
            decode_frame(b"")

    def test_torn_wire_frame_lands_in_parse_error_ring(self, colt):
        events, _ = colt
        service = inline_service()
        server = serve_tcp(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient.tcp("127.0.0.1", server.server_address[1])
        try:
            assert client.enable_binary()
            from repro.server.protocol import FRAME_EVENTS

            frame = self.encoder_frame(events[:8])
            base, delta, records, extras = decode_frame(frame)
            records[0] = 99
            junk = encode_frame(base, delta, records, extras)
            # a FRAME_EVENTS payload cut mid-record, then one whose first
            # record carries an unknown opcode: both are refused at the edge
            for bad, word in ((frame[: len(frame) - 7], "frame"), (junk, "opcode")):
                client.send_frame(FRAME_EVENTS, bad)
                reply = client._sock.recv(4096).decode("utf-8", "replace")
                assert reply.startswith("error")
                payload = service.health()
                assert any(word in line for line in payload["last_parse_errors"])
            assert payload["parse_errors"] >= 2
            assert client.ping()  # the connection survives both
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            service.close()

    def test_filtered_var_records_skipped_by_decoder(self):
        from array import array

        from repro.core.encode import FrameDecoder, OP_READ

        encoder = EventEncoder()
        records = array("q", [OP_READ, 0, 0, 0, FILTERED_VAR, 0])
        frame = encode_frame(0, [], records, array("q"))
        decoder = FrameDecoder()
        assert decoder.decode_payload(frame) == []
