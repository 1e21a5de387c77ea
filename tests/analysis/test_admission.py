"""Admission-control unit tests: decisions, serialization, offline parity."""

import json
import os
import zlib

import pytest

from repro.analysis.admission import (
    ADMISSION_FORMAT,
    ADMISSION_VERSION,
    AdmissionFilter,
    build_admission_filter,
    combine_race_free,
    load_admission_filter,
    record_workload,
)
from repro.analysis.facts import StaticRaceReport
from repro.core.actions import Read, Write
from repro.runtime.filters import field_key


def make_filter(**overrides):
    kwargs = dict(
        race_free={("Counter", "hits"), ("Counter", "total"), ("Log", "buf")},
        objmap={1: "Counter", 2: "Counter", 3: "Log", 9: "Racy"},
        policy="intersect",
        workload="unit",
    )
    kwargs.update(overrides)
    return AdmissionFilter(**kwargs)


class TestAdmissionDecision:
    def test_drops_only_proven_race_free_vars(self):
        filt = make_filter()
        assert not filt.admit(1, "hits")  # Counter.hits: droppable
        assert not filt.admit(3, "buf")
        assert filt.admit(9, "hits")  # Racy class: may race
        assert filt.admit(1, "other")  # field never proven
        assert filt.admit(77, "hits")  # object unknown to the objmap

    def test_array_indices_collapse_to_static_field(self):
        filt = make_filter(race_free={("Buf", "[]")}, objmap={5: "Buf"})
        assert not filt.admit(5, "[0]")
        assert not filt.admit(5, "[31]")
        assert filt.admit(5, "len")

    def test_filter_events_keeps_sync_and_racy_data(self):
        events, _ = record_workload("colt", scale="tiny")
        filt = build_admission_filter("colt", scale="tiny")
        kept = filt.filter_events(events)
        assert len(kept) < len(events)
        kept_ids = {id(event) for event in kept}
        assert filt.refused == {
            (e.action.var.obj.value, field_key(e.action.var.field))
            for e in events
            if id(e) not in kept_ids
        }
        for event in kept:
            if isinstance(event.action, (Read, Write)):
                var = event.action.var
                assert filt.clone().admit(var.obj.value, var.field)
        # every non-data event survives
        n_sync = sum(
            1 for e in events if not isinstance(e.action, (Read, Write))
        )
        n_sync_kept = sum(
            1 for e in kept if not isinstance(e.action, (Read, Write))
        )
        assert n_sync == n_sync_kept

    def test_note_filtered_summary(self):
        """``refused`` holds each refused variable once, array indices
        collapsed; an admitted access adds nothing."""
        filt = make_filter(
            race_free={("Counter", "hits"), ("Buf", "[]")},
            objmap={1: "Counter", 5: "Buf", 9: "Racy"},
        )
        for access in [(1, "hits"), (1, "hits"), (5, "[0]"), (5, "[7]"), (9, "hits")]:
            filt.admit(*access)
        assert filt.refused == {(1, "hits"), (5, "[]")}


class TestSerialization:
    def test_json_roundtrip_preserves_decision(self):
        filt = make_filter()
        back = AdmissionFilter.from_json(filt.to_json())
        assert back.race_free == filt.race_free
        assert back.objmap == filt.objmap
        assert back.policy == filt.policy
        assert back.workload == filt.workload
        assert back.to_json() == filt.to_json()
        payload = json.loads(filt.to_json())
        assert payload["version"] == ADMISSION_VERSION == 2
        assert "prefilter" not in payload

    def test_clone_zeroes_counters(self):
        filt = make_filter()
        filt.admit(1, "hits")
        clone = filt.clone()
        assert filt.refused == {(1, "hits")}
        assert clone.refused == set()
        assert not clone.admit(1, "hits")
        assert clone.to_json() == filt.to_json()

    def test_format_marker_and_version_checked(self):
        with pytest.raises(ValueError):
            AdmissionFilter.from_json("{not json")
        with pytest.raises(ValueError):
            AdmissionFilter.from_json(json.dumps({"format": "other"}))
        payload = json.loads(make_filter().to_json())
        for version in (0, ADMISSION_VERSION + 1, "2", None):
            payload["version"] = version
            with pytest.raises(ValueError, match=f"version {version!r}"):
                AdmissionFilter.from_json(json.dumps(payload))
        assert payload["format"] == ADMISSION_FORMAT

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "filter.json"
        path.write_text(make_filter().to_json(), encoding="utf-8")
        filt = load_admission_filter(str(path))
        assert not filt.admit(1, "hits")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_filter(policy="everything")


#: filters written by ``repro-admission`` before version 2, for the recorded
#: tiny-scale runs of each workload: they carry a ``prefilter`` bitmask
V1_DIR = os.path.join(os.path.dirname(__file__), "data", "admission_v1")


def v1_admit(payload, obj_value, field):
    """The decision a version-1 file made when it was written: admit on a
    bitmask miss, else the exact lookup."""
    static_field = field_key(field)
    bitmask = payload["prefilter"]
    key = zlib.crc32(f"{obj_value}.{static_field}".encode("utf-8"))
    if not (int(bitmask["bits"], 16) >> (key % bitmask["nbits"])) & 1:
        return True
    cls = payload["objmap"].get(str(obj_value))
    return cls is None or [cls, static_field] not in payload["race_free"]


class TestVersionOneFiles:
    @pytest.mark.parametrize("workload", ["colt", "tsp", "sor", "moldyn"])
    @pytest.mark.parametrize("policy", ["intersect", "union"])
    def test_every_access_keeps_its_decision(self, workload, policy):
        path = os.path.join(V1_DIR, f"{workload}-{policy}.json")
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["version"] == 1 and int(payload["prefilter"]["bits"], 16)
        filt = load_admission_filter(path)
        events, _ = record_workload(workload, scale="tiny")
        accesses = [
            (e.action.var.obj.value, e.action.var.field)
            for e in events
            if isinstance(e.action, (Read, Write))
        ]
        decisions = [filt.admit(*access) for access in accesses]
        assert decisions == [v1_admit(payload, *access) for access in accesses]
        assert not all(decisions)
        # written back, the file is version 2 and decides the same
        back = AdmissionFilter.from_json(filt.to_json())
        assert json.loads(back.to_json())["version"] == 2
        assert [back.admit(*access) for access in accesses] == decisions


class TestPolicies:
    def _report(self, tool, may_race, analyzed, all_fields):
        return StaticRaceReport(
            tool=tool,
            may_race_fields=set(may_race),
            pairs=[],
            analyzed_classes=set(analyzed),
            all_fields=set(all_fields),
        )

    def test_policy_lattice(self):
        universe = {("C", "a"), ("C", "b"), ("C", "c")}
        chord = self._report("chord", {("C", "a")}, {"C"}, universe)
        rcc = self._report("rccjava", {("C", "b")}, {"C"}, universe)
        # chord race-free: {b, c}; rccjava race-free: {a, c}
        assert combine_race_free(chord, rcc, "chord") == {("C", "b"), ("C", "c")}
        assert combine_race_free(chord, rcc, "rccjava") == {("C", "a"), ("C", "c")}
        assert combine_race_free(chord, rcc, "intersect") == universe
        assert combine_race_free(chord, rcc, "union") == {("C", "c")}
        with pytest.raises(ValueError):
            combine_race_free(chord, rcc, "nope")

    def test_guarantee_scoped_to_analyzed_classes(self):
        universe = {("C", "a"), ("D", "x")}
        chord = self._report("chord", set(), {"C"}, universe)
        rcc = self._report("rccjava", set(), {"C"}, universe)
        # D was never analyzed: its fields must not become droppable
        assert combine_race_free(chord, rcc, "union") == {("C", "a")}


class TestOfflineParity:
    """Dropping proven-race-free accesses must not change any verdict."""

    @pytest.mark.parametrize("workload", ["colt", "tsp", "sor", "moldyn"])
    @pytest.mark.parametrize("policy", ["intersect", "union"])
    def test_reports_identical_after_admission(self, workload, policy):
        from repro.core import EncodedGoldilocks

        events, objmap = record_workload(workload, scale="tiny")
        filt = build_admission_filter(workload, policy=policy, objmap=objmap)
        baseline = [str(r) for r in EncodedGoldilocks().process_all(events)]
        kept = filt.filter_events(events)
        admitted = [str(r) for r in EncodedGoldilocks().process_all(kept)]
        assert baseline == admitted

    def test_cli_builds_filter_and_trace(self, tmp_path, capsys):
        from repro.analysis.admission import main

        out = tmp_path / "colt.json"
        trace = tmp_path / "colt.trace"
        assert main(["colt", "-o", str(out), "--trace", str(trace)]) == 0
        filt = load_admission_filter(str(out))
        assert filt.workload == "colt"
        assert trace.read_text().strip()
        assert "admit[intersect] colt" in capsys.readouterr().out
