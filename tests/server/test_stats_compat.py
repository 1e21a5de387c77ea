"""Snapshot forward compatibility and summary-value coercion.

Satellites of the encode-once PR: (a) ``from_dict`` must tolerate stats
JSON from a *newer* server instead of crashing on unknown keys, and (b)
``parse_summary`` must coerce values without corrupting strings that merely
look numeric.
"""

import pytest

from repro.server.protocol import coerce_scalar, parse_summary
from repro.server.stats import ServiceStats, ShardStats


def test_shard_stats_drop_unknown_keys_with_a_counter():
    data = ShardStats(shard=2, races=3).as_dict()
    data["races_per_fortnight"] = 1
    data["quantum_flux"] = {"a": 1}
    snap = ShardStats.from_dict(data)
    assert (snap.shard, snap.races) == (2, 3)
    assert snap.unknown_fields == 2


def test_service_stats_drop_unknown_keys_at_both_levels():
    stats = ServiceStats(
        events_ingested=10, shards=[ShardStats(shard=0), ShardStats(shard=1)]
    )
    data = stats.as_dict()
    data["new_toplevel_gauge"] = 5
    data["shards"][1]["new_shard_gauge"] = 7
    snap = ServiceStats.from_dict(data)
    assert snap.events_ingested == 10
    assert snap.unknown_fields == 1
    assert [s.unknown_fields for s in snap.shards] == [0, 1]


def test_stats_json_round_trip_is_lossless_for_known_fields():
    stats = ServiceStats(
        events_ingested=4,
        queue_bytes=123,
        edge_allocs=2,
        shards=[ShardStats(shard=0, events_processed=9)],
    )
    back = ServiceStats.from_json(stats.to_json())
    assert back == stats


#: ``!stats`` of a 2-shard node from before the process workers and the
#: object transport were removed (racy 4-event trace, then ``!flush``).  It
#: still carries ``transport``, ``backpressure_stalls``, ``sync_decoded``
#: and the admission bitmask's ``admit_prefilter_hits`` and
#: ``admit_prefilter_misses`` at the top and ``sync_decoded`` and
#: ``queue_depth`` per shard.
PRE_CHANGE_STATS = (
    '{"admit": "off", "admit_prefilter_hits": 0, "admit_prefilter_misses": 0, '
    '"backpressure_stalls": 0, "batches_flushed": 2, "data_admitted": 2, '
    '"data_filtered": 0, "data_routed": 2, "edge_allocs": 4, '
    '"events_ingested": 4, "events_per_sec": 8.0, "flightrec_dumps": 0, '
    '"n_shards": 2, "parse_errors": 0, "provenance_attached": 0, '
    '"queue_bytes": 406, "races_reported": 1, "shards": ['
    '{"detector": {"accesses_checked": 0, "accesses_filtered": 0, '
    '"cells_collected": 0, "cells_traversed": 0, "frame_faults": 0, '
    '"full_lockset_computations": 0, "memo_shared_hits": 0, '
    '"partial_evaluations": 0, "races": 0, "rule_applications": 0, '
    '"sc_alock": 0, "sc_epoch": 0, "sc_fresh": 0, "sc_same_thread": 0, '
    '"sc_thread_restricted": 0, "sc_xact": 0, "sync_events": 2}, '
    '"detector_work": 2, "events_processed": 2, "queue_depth": 0, '
    '"races": 0, "shard": 0, "short_circuit_rate": 1.0, "sync_decoded": 0, '
    '"unknown_fields": 0}, '
    '{"detector": {"accesses_checked": 2, "accesses_filtered": 0, '
    '"cells_collected": 0, "cells_traversed": 1, "frame_faults": 0, '
    '"full_lockset_computations": 1, "memo_shared_hits": 0, '
    '"partial_evaluations": 0, "races": 1, "rule_applications": 0, '
    '"sc_alock": 0, "sc_epoch": 0, "sc_fresh": 1, "sc_same_thread": 0, '
    '"sc_thread_restricted": 0, "sc_xact": 0, "sync_events": 2}, '
    '"detector_work": 5, "events_processed": 4, "queue_depth": 0, '
    '"races": 1, "shard": 1, "short_circuit_rate": 0.5, "sync_decoded": 0, '
    '"unknown_fields": 0}], '
    '"short_circuit_rate": 0.5, "spans_sampled": 0, "sync_broadcast": 2, '
    '"sync_decoded": 0, "transport": "packed", "unknown_fields": 0, '
    '"uptime_sec": 0.5}'
)


def test_snapshot_from_a_node_that_was_not_upgraded_still_parses():
    from repro.obs.bridge import registry_from_stats
    from repro.obs.registry import parse_exposition

    snap = ServiceStats.from_json(PRE_CHANGE_STATS)
    # transport, backpressure_stalls, sync_decoded, admit_prefilter_hits,
    # admit_prefilter_misses
    assert snap.unknown_fields == 5
    # sync_decoded, queue_depth
    assert [s.unknown_fields for s in snap.shards] == [2, 2]
    assert (snap.events_ingested, snap.races_reported) == (4, 1)
    assert (snap.batches_flushed, snap.queue_bytes) == (2, 406)
    assert [s.events_processed for s in snap.shards] == [2, 4]
    assert snap.short_circuit_rate == 0.5
    samples = parse_exposition(registry_from_stats(snap).render())
    assert samples["repro_races_reported_total"] == [({}, 1.0)]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("42", 42),
        ("-5", -5),
        ("0", 0),
        ("09", "09"),  # leading zero: not an exact int round trip
        ("+5", "+5"),
        ("--5", "--5"),  # crashed the old isdigit heuristic's int() call
        ("1_0", "1_0"),
        ("", ""),
        ("4.5", "4.5"),
    ],
)
def test_coerce_scalar_cases(text, expected):
    assert coerce_scalar(text) == expected


def test_parse_summary_applies_the_coercion():
    command, info = parse_summary("eof events=09 races=3 note=--5")
    assert command == "eof"
    assert info == {"events": "09", "races": 3, "note": "--5"}
