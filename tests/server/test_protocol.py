"""Wire-protocol round trips and stats serialization."""

import pytest

from repro.core import Obj, Tid
from repro.core.actions import DataVar
from repro.core.report import AccessRef, RaceReport
from repro.server.protocol import (
    RaceLine,
    format_race,
    is_control,
    parse_control,
    parse_race,
    parse_response,
    parse_summary,
    race_to_report,
    summary_line,
)
from repro.server.stats import ServiceStats, ShardStats


def sample_report():
    return RaceReport(
        var=DataVar(Obj(3), "[7]"),
        first=AccessRef(Tid(1), 4, "read", False),
        second=AccessRef(Tid(2), 9, "commit", True),
    )


def test_race_line_round_trip():
    line = format_race(42, sample_report())
    race = parse_race(line)
    assert race.seq == 42
    assert race.var == DataVar(Obj(3), "[7]")
    assert race.first == AccessRef(Tid(1), 4, "read", False)
    assert race.second == AccessRef(Tid(2), 9, "commit", True)
    report = race_to_report(race)
    assert (report.var, report.first, report.second) == (
        race.var, race.first, race.second
    )


def test_parse_race_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_race("race nope")
    with pytest.raises(ValueError):
        parse_race("ok flush")


def test_control_lines():
    assert is_control("!stats")
    assert not is_control("1 0 acq 5")
    assert parse_control("!STATS") == ("stats", "")
    assert parse_control("! flush  now ") == ("flush", "now")


def test_response_classification():
    assert parse_response("race 1.d a:1:0:0 b:2:0:0 seq=1")[0] == "race"
    assert parse_response("stats {}") == ("stats", "{}")
    assert parse_response("ok pong") == ("ok", "pong")
    assert parse_response("error boom") == ("error", "boom")
    assert parse_response("unexpected noise")[0] == "other"


def test_summary_line_round_trip():
    line = summary_line("eof", events=10, races=2)
    assert line == "ok eof events=10 races=2"
    command, info = parse_summary(parse_response(line)[1])
    assert command == "eof"
    assert info == {"events": 10, "races": 2}


def test_race_line_str_is_readable():
    race = parse_race(format_race(7, sample_report()))
    assert isinstance(race, RaceLine)
    assert "o3.[7]" in str(race)


def test_service_stats_json_round_trip():
    stats = ServiceStats(
        uptime_sec=1.5,
        events_ingested=100,
        events_per_sec=66.6,
        sync_broadcast=40,
        data_routed=60,
        batches_flushed=9,
        parse_errors=2,
        races_reported=3,
        n_shards=2,
        shards=[
            ShardStats(shard=0, events_processed=70, races=3,
                       detector={"sc_fresh": 5, "full_lockset_computations": 5}),
            ShardStats(shard=1, events_processed=70),
        ],
    )
    restored = ServiceStats.from_json(stats.to_json())
    assert restored == stats
    assert restored.short_circuit_rate == 0.5
