"""The throughput benchmark's JSON artifact: schema, determinism, CLI."""

import json
import os

from repro.bench.__main__ import main as bench_main
from repro.bench.throughput import bench_throughput, render_throughput

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

REQUIRED_DETECTOR_FIELDS = {
    "elapsed_sec",
    "events_per_sec",
    "cells_traversed",
    "rule_applications",
    "detector_work",
    "races",
}


def validate_payload(payload):
    assert payload["benchmark"] == "detector_throughput"
    assert payload["trace"]["events"] > 0
    assert "goldilocks" in payload["detectors"]
    assert "goldilocks-seed" in payload["detectors"]
    for name, row in payload["detectors"].items():
        assert REQUIRED_DETECTOR_FIELDS <= set(row), name
    ratios = payload["kernel_vs_seed"]
    # The PR's acceptance bar, checked on the artifact itself.
    assert ratios["cells_traversed_ratio"] >= 1.5
    assert ratios["detector_work_ratio"] >= 1.5
    # The packed row consumes the same trace as pre-encoded frames.
    packed = payload["detectors"]["goldilocks-packed"]
    assert packed["races"] == payload["detectors"]["goldilocks"]["races"]


def test_bench_throughput_payload_shape_and_acceptance_bar():
    payload = bench_throughput()
    validate_payload(payload)
    # Counters are deterministic: a second run reproduces them exactly.
    again = bench_throughput()
    for name, row in payload["detectors"].items():
        for key in ("cells_traversed", "detector_work", "races"):
            assert again["detectors"][name][key] == row[key], (name, key)
    # And the renderer covers every detector.
    text = render_throughput(payload)
    for name in payload["detectors"]:
        assert name in text


def test_cli_writes_the_json_artifact(tmp_path, capsys):
    path = tmp_path / "bench.json"
    assert bench_main(["--json", str(path)]) == 0
    captured = capsys.readouterr()
    assert str(path) in captured.out
    payload = json.loads(path.read_text())
    validate_payload(payload)


def test_committed_artifact_matches_the_schema():
    """The repo-root artifact is regenerated each perf PR; keep it honest."""
    path = os.path.join(REPO_ROOT, "BENCH_detector_throughput.json")
    with open(path, "r", encoding="utf-8") as fh:
        validate_payload(json.load(fh))
