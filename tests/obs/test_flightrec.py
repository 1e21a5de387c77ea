"""The race flight recorder: dump on race, offline replay, bounds.

The headline test is the acceptance criterion: a race in the service
must leave behind a ``.flightrec`` file whose offline replay
reproduces the identical race line, **including the ingestion seq tag**.
"""

import glob
import io
import os
from array import array

import pytest

from repro.core.actions import OP_COMMIT
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


class TestRecorderBounds:
    def _frame(self, seq, n=1):
        records = array("q")
        for i in range(n):
            records.extend((0, seq + i, 1, 0, 0, 0))
        return records, array("q")

    def test_capacity_evicts_whole_oldest_frames(self):
        recorder = FlightRecorder(1, Interner(), capacity=4)
        for seq in range(0, 12, 2):
            recorder.record(0, *self._frame(seq, n=2))
        ring = recorder._rings[0]
        assert ring.records_held == 4
        assert ring.evicted == 8
        assert ring.records_seen == 12
        records, _extras = recorder.window(0)
        seqs = [records[i + 1] for i in range(0, len(records), RECORD_WIDTH)]
        assert seqs == [8, 9, 10, 11]  # only the newest survive

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(1, Interner(), capacity=0)

    def test_window_rebases_commit_extras_offsets(self):
        recorder = FlightRecorder(1, Interner(), capacity=100)
        first = array("q", [OP_COMMIT, 1, 1, 0, 0, 2])
        second = array("q", [OP_COMMIT, 2, 1, 0, 0, 2])
        recorder.record(0, first, array("q", [10, 11]))
        recorder.record(0, second, array("q", [20, 21]))
        records, extras = recorder.window(0)
        assert list(extras) == [10, 11, 20, 21]
        # frame-local offset 0 becomes 2 once the extras are concatenated
        assert records[4] == 0 and records[RECORD_WIDTH + 4] == 2

    def test_dump_budget_is_enforced(self, tmp_path):
        recorder = FlightRecorder(
            1, Interner(), directory=str(tmp_path), max_dumps=1
        )
        recorder.record(0, *self._frame(0))
        assert recorder.dump(0, ["race x"]) is not None
        assert recorder.dump(0, ["race y"]) is None
        assert recorder.dumps_written == 1
        assert recorder.dumps_suppressed == 1

    def test_dump_without_a_directory_records_but_never_writes(self):
        recorder = FlightRecorder(1, Interner())
        recorder.record(0, *self._frame(0))
        assert recorder.dump(0, ["race x"]) is None
        assert recorder.dumps_written == 0

    def test_dump_all_skips_empty_rings(self, tmp_path):
        recorder = FlightRecorder(3, Interner(), directory=str(tmp_path))
        recorder.record(1, *self._frame(0))
        paths = recorder.dump_all("signal")
        assert len(paths) == 1 and "shard1" in paths[0]
        header = load_flightrec(paths[0]).header
        assert header["reason"] == "signal" and header["races"] == []

    def test_rebind_clears_every_ring(self, tmp_path):
        recorder = FlightRecorder(1, Interner(), directory=str(tmp_path))
        recorder.record(0, *self._frame(0))
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
