"""The service-ingest benchmark artifact: schema, acceptance bar, parity."""

import json
import os

from repro.bench.__main__ import main as bench_main
from repro.bench.ingest import bench_ingest, render_ingest

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

REQUIRED_MODE_FIELDS = {
    "wire",
    "transport",
    "events",
    "races",
    "queue_bytes",
    "edge_allocs",
    "sync_decoded",
    "detector_work",
    "cost",
    "cost_per_event",
    "elapsed_sec",
    "events_per_sec",
}


def validate_payload(payload):
    assert payload["benchmark"] == "service_ingest"
    assert payload["trace"]["events"] > 0
    assert payload["n_shards"] == 4
    for name in ("text-object", "text-packed", "binary-packed"):
        assert REQUIRED_MODE_FIELDS <= set(payload["modes"][name]), name
    # The PR's acceptance bar, by deterministic counters: the packed path
    # is >= 2x cheaper end to end than the text/object baseline.
    assert payload["speedup_vs_text_object"]["binary-packed"] >= 2.0
    assert payload["speedup_vs_text_object"]["text-packed"] >= 2.0
    # The encode-once proof: packed modes materialize zero sync events
    # shard-side; the object baseline decodes every one of them.
    assert payload["modes"]["text-packed"]["sync_decoded"] == 0
    assert payload["modes"]["binary-packed"]["sync_decoded"] == 0
    assert payload["modes"]["text-object"]["sync_decoded"] > 0
    # Parity: every mode reported the identical race lines (seq included).
    assert payload["parity"]["identical_race_lines"] is True
    assert payload["parity"]["races"] > 0
    for row in payload["modes"].values():
        assert row["parse_errors"] == 0
        assert row["events"] == payload["trace"]["events"]


def test_bench_ingest_payload_shape_and_acceptance_bar():
    payload = bench_ingest()
    validate_payload(payload)
    # Counters are deterministic: a second run reproduces them exactly.
    again = bench_ingest()
    for name, row in payload["modes"].items():
        for key in ("events", "races", "queue_bytes", "edge_allocs",
                    "sync_decoded", "cost"):
            assert again["modes"][name][key] == row[key], (name, key)
    text = render_ingest(payload)
    for name in payload["modes"]:
        assert name in text


def test_wall_clock_speedup_on_multicore_hosts():
    """Wall-clock assertions only where they are physically meaningful."""
    if (os.cpu_count() or 1) < 4:
        import pytest

        pytest.skip("wall-clock comparison needs >= 4 cores")
    payload = bench_ingest(repeats=3)
    modes = payload["modes"]
    assert (
        modes["binary-packed"]["events_per_sec"]
        > modes["text-object"]["events_per_sec"]
    )


def test_cli_writes_the_json_artifact(tmp_path, capsys):
    path = tmp_path / "ingest.json"
    assert bench_main(["ingest", "--json", str(path)]) == 0
    captured = capsys.readouterr()
    assert str(path) in captured.out
    validate_payload(json.loads(path.read_text()))


def test_committed_artifact_matches_the_schema():
    """The repo-root artifact is regenerated each perf PR; keep it honest."""
    path = os.path.join(REPO_ROOT, "BENCH_service_ingest.json")
    with open(path, "r", encoding="utf-8") as fh:
        validate_payload(json.load(fh))
