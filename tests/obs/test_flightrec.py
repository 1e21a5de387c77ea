"""The race flight recorder: dump on race, offline replay, bounds.

The headline test is the acceptance criterion: a race in the service
must leave behind a ``.flightrec`` file whose offline replay
reproduces the identical race line, **including the ingestion seq tag**.
"""

import glob
import io
import json
import os
import struct
from array import array

import pytest

from repro.core.actions import OP_COMMIT, OP_READ, OP_WRITE
from repro.core.encode import RECORD_WIDTH, decode_frame, encode_frame
from repro.core.lockset import Interner
from repro.obs.flightrec import (
    MAGIC,
    FlightRecorder,
    FlightRecording,
    load_flightrec,
    replay_flightrec,
)
from repro.obs.tracing import ObsConfig
from repro.server import RaceDetectionService, ServiceConfig
from repro.server.protocol import parse_response


RACY_TEXT = "1 0 write 1 data\n2 0 write 1 data\n"


def run_packed_service(tmp_path, text=RACY_TEXT, **obs_overrides):
    """One service pass; returns (race lines, dump paths)."""
    obs = ObsConfig(flightrec_dir=str(tmp_path), **obs_overrides)
    out = io.StringIO()
    with RaceDetectionService(
        ServiceConfig(
            n_shards=2,
            obs=obs,
        )
    ) as service:
        service.handle_stream(io.StringIO(text), out)
        stats = service.stats()
    races = [
        line
        for line in out.getvalue().splitlines()
        if parse_response(line)[0] == "race"
    ]
    dumps = sorted(glob.glob(os.path.join(str(tmp_path), "*.flightrec")))
    return races, dumps, stats


class TestAcceptance:
    def test_packed_race_dump_replays_to_the_identical_line(self, tmp_path):
        races, dumps, stats = run_packed_service(tmp_path)
        assert len(races) == 1 and "seq=" in races[0]
        assert len(dumps) == 1
        assert stats.flightrec_dumps == 1

        recording = load_flightrec(dumps[0])
        assert recording.header["races"] == races
        assert recording.header["reason"] == "race"

        result = replay_flightrec(recording)
        assert result.ok
        assert result.reproduced == races  # identical line, seq included
        assert races[0] in result.replayed

    def test_replay_flightrec_cli_round_trip(self, tmp_path, capsys):
        from repro.cli import main as race_main

        races, dumps, _stats = run_packed_service(tmp_path)
        assert race_main(["replay-flightrec", dumps[0]]) == 0
        captured = capsys.readouterr()
        assert races[0] + " (recorded)" in captured.out
        assert "replay ok" in captured.out

    def test_replay_reports_a_race_evicted_from_the_window(self, tmp_path):
        races, dumps, _stats = run_packed_service(tmp_path)
        recording = load_flightrec(dumps[0])
        base, elements, records, extras = decode_frame(recording.frame)
        # Drop the first record (the race's first access): the truncated
        # window can no longer reproduce the pair, and the replay must say
        # so instead of silently passing.
        truncated = FlightRecording(
            recording.header,
            encode_frame(base, elements, records[RECORD_WIDTH:], extras),
        )
        result = replay_flightrec(truncated)
        assert not result.ok
        assert result.missing == races


    def test_an_evicting_ring_keeps_every_groups_races_reproducible(self, tmp_path):
        """At four groups on the shared service trace, a ring of 256
        records per group evicts, and every dump still replays all its
        race lines (a ring of 256 for all four groups lost some)."""
        from repro.server.engine import EngineConfig, ShardedEngine
        from tests.helpers import service_trace_text

        obs = ObsConfig(
            flightrec_dir=str(tmp_path), flightrec_capacity=256, flightrec_max_dumps=1000
        )
        with ShardedEngine(EngineConfig(n_shards=4, obs=obs)) as engine:
            for line in service_trace_text().splitlines():
                engine.submit_line(line)
            races = len(engine.barrier())
        recordings = [load_flightrec(path) for path in glob.glob(str(tmp_path / "*.flightrec"))]
        assert max(rec.header["evicted_records"] for rec in recordings) > 0
        assert sum(len(rec.header["races"]) for rec in recordings) == races == 42
        for recording in recordings:
            assert replay_flightrec(recording).missing == []


class TestRecorderBounds:
    def _frame(self, seq, n=1):
        records = array("q")
        for i in range(n):
            records.extend((0, seq + i, 1, 0, 0, 0))
        return records, array("q")

    def _recorder(self, n_groups=1, **kwargs):
        recorder = FlightRecorder(n_groups, Interner(), **kwargs)
        recorder.host(0)
        return recorder

    def test_capacity_evicts_whole_oldest_frames(self):
        recorder = self._recorder(capacity=4)
        for seq in range(0, 12, 2):
            recorder.record(*self._frame(seq, n=2))
        assert recorder.records_held == 4
        assert recorder.evicted == 8
        assert recorder.records_seen == 12
        records, _extras = recorder.window(0)
        seqs = [records[i + 1] for i in range(0, len(records), RECORD_WIDTH)]
        assert seqs == [8, 9, 10, 11]  # only the newest survive

    def test_a_ring_of_large_frames_still_holds_capacity_records(self):
        """3-record frames at capacity 4: evicting the older of two frames
        would leave 3 records, below the bound, so it stays, and a third
        frame evicts it; the ring never holds fewer than 4 records once
        it has seen 4."""
        recorder = self._recorder(capacity=4)
        held = []
        for seq in range(0, 12, 3):
            recorder.record(*self._frame(seq, n=3))
            held.append(recorder.records_held)
        assert held == [3, 6, 6, 6]
        assert recorder.evicted == 6
        records, _extras = recorder.window(0)
        seqs = [records[i + 1] for i in range(0, len(records), RECORD_WIDTH)]
        assert seqs == list(range(6, 12))

    def test_the_ring_holds_capacity_records_per_hosted_group(self):
        """As many records as one ring per group held together, so a
        group's window reaches as far back as a ring of its own would."""
        recorder = FlightRecorder(4, Interner(), capacity=4)
        for group in range(4):
            recorder.host(group)
        for seq in range(0, 24, 2):
            recorder.record(*self._frame(seq, n=2))
        assert recorder.records_held == 16
        recorder.drop_group(3)
        recorder.drop_group(2)
        recorder.record(*self._frame(24, n=2))
        assert recorder.records_held == 8

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(1, Interner(), capacity=0)

    def test_window_rebases_commit_extras_offsets(self):
        recorder = self._recorder(capacity=100)
        first = array("q", [OP_COMMIT, 1, 1, 0, 0, 2])
        second = array("q", [OP_COMMIT, 2, 1, 0, 0, 2])
        recorder.record(first, array("q", [10, 11]))
        recorder.record(second, array("q", [20, 21]))
        records, extras = recorder.window(0)
        assert list(extras) == [10, 11, 20, 21]
        # frame-local offset 0 becomes 2 once the extras are concatenated
        assert records[4] == 0 and records[RECORD_WIDTH + 4] == 2

    def test_a_groups_window_holds_every_sync_record_and_only_its_accesses(self):
        """One ring for the process: a group's window is the sync records
        plus its own data accesses, from the moment it was hosted."""
        recorder = FlightRecorder(2, Interner(), var_group={7: 0, 8: 1})
        recorder.host(0)
        recorder.record(array("q", [OP_WRITE, 0, 1, 0, 7, 0, OP_WRITE, 1, 1, 1, 8, 0]), array("q"))
        recorder.host(1)
        recorder.record(array("q", [0, 2, 1, 2, 3, 1, OP_READ, 3, 1, 3, 8, 0]), array("q"))

        def seqs(group):
            records, _extras = recorder.window(group)
            return [records[i + 1] for i in range(0, len(records), RECORD_WIDTH)]

        assert seqs(0) == [0, 2]
        assert seqs(1) == [2, 3]  # hosted after the first frame
        recorder.drop_group(1)
        assert seqs(1) == []

    def test_dump_budget_is_enforced(self, tmp_path):
        recorder = self._recorder(directory=str(tmp_path), max_dumps=1)
        recorder.record(*self._frame(0))
        assert recorder.dump(0, ["race x"]) is not None
        assert recorder.dump(0, ["race y"]) is None
        assert recorder.dumps_written == 1
        assert recorder.dumps_suppressed == 1

    def test_dump_without_a_directory_records_but_never_writes(self):
        recorder = self._recorder()
        recorder.record(*self._frame(0))
        assert recorder.dump(0, ["race x"]) is None
        assert recorder.dumps_written == 0

    def test_dump_all_skips_empty_rings(self, tmp_path):
        recorder = FlightRecorder(3, Interner(), directory=str(tmp_path))
        recorder.host(1)
        recorder.record(*self._frame(0))
        recorder.host(2)  # hosted after the only frame: an empty window
        paths = recorder.dump_all("signal")
        assert len(paths) == 1 and "shard1" in paths[0]
        header = load_flightrec(paths[0]).header
        assert header["reason"] == "signal" and header["races"] == []

    def test_rebind_clears_every_ring(self, tmp_path):
        recorder = self._recorder(directory=str(tmp_path))
        recorder.record(*self._frame(0))
        recorder.rebind(Interner())
        assert recorder.dump_all("signal") == []


class TestFileFormat:
    def test_load_rejects_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.flightrec")
        with open(path, "wb") as fh:
            fh.write(b"NOTAMAGIC\n" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            load_flightrec(path)

    def test_load_rejects_truncated_recordings(self, tmp_path):
        races, dumps, _stats = run_packed_service(tmp_path)
        data = open(dumps[0], "rb").read()
        assert data.startswith(MAGIC)
        path = str(tmp_path / "torn.flightrec")
        with open(path, "wb") as fh:
            fh.write(data[:-10])
        with pytest.raises(ValueError):
            load_flightrec(path)

    def test_unreadable_file_exits_2_from_the_cli(self, tmp_path, capsys):
        from repro.cli import main as race_main

        path = str(tmp_path / "missing.flightrec")
        assert race_main(["replay-flightrec", path]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("opcode", [0, -1, 42])
    def test_a_frame_the_kernel_refuses_exits_2_from_the_cli(
        self, tmp_path, capsys, opcode
    ):
        """A recording whose frame holds a record the kernel refuses is an
        unreadable recording, not a race that failed to reproduce (exit 1)
        or a crash, to ``replay-flightrec`` and to ``explain --race``; the
        two racy writes ahead of it replayed fine."""
        from repro.cli import main as race_main

        _races, dumps, _stats = run_packed_service(tmp_path)
        recording = load_flightrec(dumps[0])
        base, delta, records, extras = decode_frame(recording.frame)
        tid = records[2]
        records.extend((opcode, 2, tid, 2, tid, tid))
        frame = encode_frame(base, delta, records, extras)
        header = json.dumps(recording.header).encode("utf-8")
        path = str(tmp_path / "refused.flightrec")
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<I", len(header)) + header)
            fh.write(struct.pack("<I", len(frame)) + frame)
        capsys.readouterr()
        for command in (["replay-flightrec", path], ["explain", "--race", "0", path]):
            assert race_main(command) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error:") and f"opcode {opcode}" in line
