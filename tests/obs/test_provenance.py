"""Race provenance: the lockset-transfer chain behind each verdict.

Covers the acceptance gates of the observability PR: chains are captured
by the encoded kernel, race lines (seq included) are byte-identical with
provenance on vs off, the chain survives the flight
recorder round trip, and ``repro-race explain --race N`` renders it from
a ``.flightrec`` file -- recorded or re-derived by replay.
"""

import io

import pytest

from repro.core.kernel import EncodedGoldilocks
from repro.obs.flightrec import load_flightrec, replay_flightrec
from repro.obs.tracing import ObsConfig
from repro.server.protocol import format_race
from repro.server.service import RaceDetectionService, ServiceConfig
from repro.trace.io import parse_event

#: T2 writes x under L10; T3 churns L10 (two transfer rules); T4 races.
CHAIN_TRACE = [
    "1 0 fork 2",
    "1 1 fork 3",
    "1 2 fork 4",
    "2 0 acq 10",
    "2 1 write 20 x",
    "2 2 rel 10",
    "3 0 acq 10",
    "3 1 rel 10",
    "4 0 write 20 x",
]


def _events():
    return [parse_event(line) for line in CHAIN_TRACE]


@pytest.mark.parametrize("kernel_cls", [EncodedGoldilocks])
def test_kernel_captures_transfer_chain(kernel_cls):
    detector = kernel_cls(provenance=True)
    reports = detector.process_all(_events())
    assert len(reports) == 1
    chain = reports[0].provenance
    assert chain is not None
    assert chain["owned"] is False
    rules = [entry["rule"] for entry in chain["entries"]]
    assert rules == ["transfer", "transfer"]
    size = detector.events.segment_size
    for entry in chain["entries"]:
        assert entry["pos"] == entry["segment"] * size + entry["slot"]
    # The interner context names the owners and every transferred element.
    assert any("T3" in text for text in chain["elements"].values())


@pytest.mark.parametrize("kernel_cls", [EncodedGoldilocks])
def test_race_lines_identical_with_provenance_on_and_off(kernel_cls):
    plain = kernel_cls().process_all(_events())
    traced = kernel_cls(provenance=True).process_all(_events())
    # RaceReport excludes provenance from equality on purpose.
    assert plain == traced
    assert [str(r) for r in plain] == [str(r) for r in traced]
    assert all(r.provenance is None for r in plain)
    assert all(r.provenance is not None for r in traced)


def test_provenance_off_by_default():
    reports = EncodedGoldilocks().process_all(_events())
    assert reports and reports[0].provenance is None


def _record_service(tmp_path, provenance):
    d = tmp_path / f"frec-{provenance}"
    service = RaceDetectionService(
        ServiceConfig(
            obs=ObsConfig(
                counters=True, provenance=provenance, flightrec_dir=str(d)
            ),
        )
    )
    out = io.StringIO()
    service.handle_stream(io.StringIO("\n".join(CHAIN_TRACE) + "\n"), out)
    service.close()
    races = [
        line for line in out.getvalue().splitlines() if line.startswith("race ")
    ]
    (path,) = d.glob("*.flightrec")
    return races, str(path)


def test_flightrec_header_carries_chain_and_kernel_stats(tmp_path):
    races, path = _record_service(tmp_path, provenance=True)
    header = load_flightrec(path).header
    assert header["kernel_stats"] == {"frame_faults": 0}
    (chain,) = header["provenance"]
    assert chain is not None
    assert [entry["rule"] for entry in chain["entries"]] == ["transfer", "transfer"]
    assert header["races"] == races


def test_replay_derives_chain(tmp_path):
    races, path = _record_service(tmp_path, provenance=False)
    recording = load_flightrec(path)
    assert "provenance" not in recording.header
    result = replay_flightrec(recording, provenance=True)
    assert result.ok
    ((seq, report),) = result.reports
    assert format_race(seq, report) == races[0]
    assert [e["rule"] for e in report.provenance["entries"]] == [
        "transfer",
        "transfer",
    ]


def test_explain_race_renders_recorded_chain(tmp_path, capsys):
    from repro.cli import main as race_main

    _races, path = _record_service(tmp_path, provenance=True)
    assert race_main(["explain", "--race", "0", path]) == 0
    out = capsys.readouterr().out
    assert "race 20.x write:2:1:0 write:4:0:0 seq=8" in out
    assert "transfer" in out and "anchor" in out


def test_explain_race_falls_back_to_replay(tmp_path, capsys):
    from repro.cli import main as race_main

    _races, path = _record_service(tmp_path, provenance=False)
    assert race_main(["explain", "--race", "0", path]) == 0
    out = capsys.readouterr().out
    assert "transfer" in out


def test_explain_race_out_of_range(tmp_path, capsys):
    from repro.cli import main as race_main

    _races, path = _record_service(tmp_path, provenance=False)
    assert race_main(["explain", "--race", "7", path]) == 2
    assert "out of range" in capsys.readouterr().err


def test_service_counts_attached_chains(tmp_path):
    service = RaceDetectionService(
        ServiceConfig(
            obs=ObsConfig(counters=True, provenance=True),
        )
    )
    out = io.StringIO()
    service.handle_stream(io.StringIO("\n".join(CHAIN_TRACE) + "\n"), out)
    stats = service.stats()
    health = service.health()
    service.close()
    assert stats.races_reported == 1
    assert stats.provenance_attached == 1
    assert health["provenance_attached"] == 1
