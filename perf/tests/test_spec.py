"""``BENCHMARK.json`` is well formed and names what the benchmark reports."""

import re

from perf import ROOT, spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_top_level_shape():
    catalogue = spec.load()
    assert set(catalogue) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert catalogue["paths"] == ["perf"]
    assert (ROOT / "perf" / "__main__.py").is_file()
    assert 1 <= catalogue["run_seconds"] <= 60
    assert 2 <= len(catalogue["workloads"]) <= 8
    for workload in catalogue["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.fullmatch(workload["name"])
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_metric_names_units_and_bounds():
    catalogue = spec.load()
    names = [m["name"] for m in catalogue["end_to_end"] + catalogue["per_layer"]]
    assert len(names) == len(set(names))
    for metric in catalogue["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in catalogue["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in catalogue["end_to_end"] + catalogue["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in catalogue["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in catalogue["end_to_end"])


def test_every_layer_of_the_trace_table_is_declared():
    from perf.layers import LAYERS

    declared = set(spec.units(spec.load()))
    for layer in LAYERS:
        assert f"{layer}.self_s" in declared and f"{layer}.calls" in declared
