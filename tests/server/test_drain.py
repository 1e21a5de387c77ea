"""Graceful drain: the SIGTERM path must not drop accepted events.

Satellite of the cluster PR: ``repro-serve`` nodes get stopped by
coordinators and init systems via SIGTERM, so the service grew
:meth:`RaceDetectionService.graceful_drain` -- the races nobody has
written yet, a flight-recorder flush, and one terminal ``ok drain ...``
line.
"""

import io
import signal

import pytest

from repro.obs.tracing import ObsConfig
from repro.server import RaceDetectionService, ServiceConfig
from repro.server.protocol import parse_response, parse_summary
from repro.trace import RandomTraceGenerator
from repro.trace.io import format_event

TRACE = RandomTraceGenerator(
    max_threads=5, steps_per_thread=40, p_discipline=0.3
).generate(seed=2)


def drain_info(line):
    kind, payload = parse_response(line)
    assert kind == "ok"
    command, info = parse_summary(payload)
    assert command == "drain"
    return info


def inline_service(**overrides):
    config = dict(n_shards=2)
    config.update(overrides)
    return RaceDetectionService(ServiceConfig(**config))


def test_drain_reports_races_from_accepted_events():
    """Races of accepted events that nobody polled are still written."""
    out = io.StringIO()
    with inline_service(batch_size=512) as service:
        for event in TRACE:
            service.submit_line(format_event(event))
        # No poll_reports() took the races: the drain must write them.
        line = service.graceful_drain(writer=out)
    summary = drain_info(line)
    assert summary["drained"] == 1
    assert summary["events"] == len(TRACE)
    assert summary["races"] > 0
    lines = out.getvalue().splitlines()
    races = [l for l in lines if l.startswith("race ")]
    assert len(races) == summary["races"]
    assert lines[-1] == line


def test_drain_is_idempotent_and_signals_shutdown():
    with inline_service() as service:
        first = service.graceful_drain()
        assert service.shutdown_requested
        second = service.graceful_drain()
    assert drain_info(first)["drained"] == 1
    assert drain_info(second)["drained"] == 1
    assert drain_info(second)["races"] == 0


def test_drain_flushes_flight_recorders(tmp_path):
    service = inline_service(
        obs=ObsConfig(flightrec_dir=str(tmp_path), flightrec_capacity=64)
    )
    with service:
        lines = [format_event(event) for event in TRACE[:200]]
        assert service.submit_lines(lines)[0] == len(lines)
        line = service.graceful_drain()
    summary = drain_info(line)
    assert summary["flightrec_dumps"] >= 1
    assert list(tmp_path.glob("*.flightrec"))


def test_sigterm_handler_drains_then_exits(capsys):
    """The installed handler runs the drain and exits 128+SIGTERM."""
    from repro.server.cli import _install_sigterm

    previous = signal.getsignal(signal.SIGTERM)
    try:
        with inline_service() as service:
            for event in TRACE[:50]:
                service.submit_line(format_event(event))
            _install_sigterm(service)
            handler = signal.getsignal(signal.SIGTERM)
            assert callable(handler) and handler is not previous
            with pytest.raises(SystemExit) as exc:
                handler(signal.SIGTERM, None)
            assert exc.value.code == 128 + signal.SIGTERM
            assert service.shutdown_requested
        err = capsys.readouterr().err
        assert "repro-serve sigterm:" in err and "drain" in err
    finally:
        signal.signal(signal.SIGTERM, previous)
