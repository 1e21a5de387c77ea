"""The span recorder: self time, sampling, restoration, missing callables."""

import time

from perf import layers
from perf.layers import SpanRecorder


def test_self_time_excludes_child_spans():
    recorder = SpanRecorder()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        recorder.call("core.kernel", child)

    recorder.root(lambda: recorder.call("server.service", parent))
    totals = recorder.layer_totals()
    calls, total, own = totals["server.service"]
    assert calls == 1
    assert total >= 0.03 and 0.01 <= own < 0.02
    assert totals["core.kernel"][2] >= 0.02
    assert recorder.coverage() > 0.95


def test_one_in_64_top_level_calls_keeps_its_records():
    recorder = SpanRecorder()

    def entry():
        for _ in range(128):
            recorder.call("server.engine", lambda: recorder.call("core.kernel", lambda: None))

    recorder.root(lambda: recorder.call("server.service", entry))
    names = [record["name"] for record in recorder.records]
    assert names.count("server.engine") == 2 and names.count("core.kernel") == 2
    assert names.count("server.service") == 1 and names.count(layers.ROOT) == 1
    by_id = {record["id"]: record for record in recorder.records}
    for record in recorder.records:
        assert record["parent"] is None or record["parent"] in by_id


def test_installed_wraps_and_restores_the_table():
    from repro.core.kernel import EncodedGoldilocks
    from repro.server import service

    original_format = service.format_race
    assert "process_all" not in EncodedGoldilocks.__dict__
    recorder = SpanRecorder()
    with recorder.installed():
        assert service.format_race is not original_format
        assert "process_all" in EncodedGoldilocks.__dict__
        EncodedGoldilocks().process_all([])
    assert service.format_race is original_format
    assert "process_all" not in EncodedGoldilocks.__dict__
    assert recorder.layer_totals()["core.kernel"][0] == 1
    assert recorder.missing == []


def test_a_renamed_callable_is_reported_missing(monkeypatch):
    table = layers.LAYER_TABLE + (
        ("core.kernel", "repro.core.kernel", "EncodedGoldilocks.no_such_method"),
        ("core.kernel", "repro.no_such_module", "f"),
    )
    monkeypatch.setattr(layers, "LAYER_TABLE", table)
    recorder = SpanRecorder()
    with recorder.installed():
        pass
    assert len(recorder.missing) == 2
