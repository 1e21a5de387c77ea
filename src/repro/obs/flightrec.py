"""The race flight recorder: bounded rings of packed records, dumpable.

Each detection shard gets a ring holding the last K **applied packed
records** -- exactly the records the engine pushed to it --
plus enough interner context to make the window self-contained.  The
moment a race is reported (and on SIGTERM / explicit request) the ring is
written to a ``.flightrec`` file; ``repro-race replay-flightrec`` re-runs
the window offline through a fresh encoded kernel and must reproduce the
identical race line, **including the ingestion sequence tag** (the seq
travels inside every packed record, so it survives the round trip).

Why replaying a suffix is sound: removing synchronization events that
happened *before* the window can only remove happens-before edges, never
add them, so a race that fired online still fires in the replay.  The one
hard requirement is that **both accesses of the pair are inside the
window** -- the recorder window is keyed in records, and the replay result
reports any recorded race line it failed to reproduce (first access
evicted from the ring) instead of silently passing.

File format (version 1)::

    b"REPROFLR1\\n"                  magic
    u32 header_len, UTF-8 JSON       {"version", "shard", "n_shards",
                                      "commit_sync", "reason",
                                      "races": [race lines...],
                                      "n_records", "seq_first", "seq_last"}
    u32 frame_len, frame bytes       a self-contained packed frame
                                     (base=1: full interner delta)

The frame is byte-compatible with :func:`repro.core.encode.decode_frame`,
so any packed-frame tooling can open a recording.
"""

from __future__ import annotations

import json
import struct
from array import array
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from ..core.actions import OP_COMMIT
from ..core.encode import RECORD_WIDTH, decode_frame, encode_frame
from ..core.kernel import EncodedGoldilocks
from ..core.lockset import Interner

MAGIC = b"REPROFLR1\n"
_U32 = struct.Struct("<I")

#: default packed records retained per shard
DEFAULT_CAPACITY = 4096


class _Ring:
    """One shard's window: whole frames, bounded by total record count."""

    __slots__ = ("frames", "records_held", "records_seen", "evicted")

    def __init__(self) -> None:
        self.frames: Deque[Tuple[array, array]] = deque()
        self.records_held = 0
        self.records_seen = 0
        self.evicted = 0


class FlightRecorder:
    """Bounded per-shard record rings over the engine's master interner.

    The recorder sits at the ingestion edge (it sees every frame as it is
    pushed) and borrows the engine's
    :class:`~repro.core.lockset.Interner` at dump time, so a dump is one
    ``elements_since(1)`` walk plus an array concatenation -- nothing is
    copied per event on the hot path beyond the frame's own arrays, which
    the engine hands over instead of discarding.
    """

    def __init__(
        self,
        n_shards: int,
        interner: Interner,
        capacity: int = DEFAULT_CAPACITY,
        directory: Optional[str] = None,
        max_dumps: int = 16,
        commit_sync: str = "footprint",
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.n_shards = n_shards
        self.interner = interner
        self.capacity = capacity
        self.directory = directory
        self.max_dumps = max_dumps
        self.commit_sync = commit_sync
        self.dumps_written = 0
        self.dumps_suppressed = 0
        self._rings = [_Ring() for _ in range(n_shards)]

    # -- recording (hot path: one deque append per pushed frame) ---------------

    def record(self, shard: int, records: array, extras: array) -> None:
        """Absorb one pushed frame's arrays (ownership transfers here)."""
        ring = self._rings[shard]
        n = len(records) // RECORD_WIDTH
        ring.frames.append((records, extras))
        ring.records_held += n
        ring.records_seen += n
        while ring.records_held > self.capacity and len(ring.frames) > 1:
            old_records, _ = ring.frames.popleft()
            dropped = len(old_records) // RECORD_WIDTH
            ring.records_held -= dropped
            ring.evicted += dropped

    def rebind(self, interner: Interner) -> None:
        """Point at a fresh interner and clear every ring (engine reset)."""
        self.interner = interner
        self._rings = [_Ring() for _ in range(self.n_shards)]

    def window(self, shard: int) -> Tuple[array, array]:
        """The shard's current window as one (records, extras) pair.

        Commit records store an offset into their frame's extras array;
        concatenation rebases those offsets so the merged window is
        internally consistent.
        """
        ring = self._rings[shard]
        records = array("q")
        extras = array("q")
        for frame_records, frame_extras in ring.frames:
            shift = len(extras)
            if shift == 0 or not frame_extras:
                records.extend(frame_records)
            else:
                rebased = array("q", frame_records)
                for i in range(0, len(rebased), RECORD_WIDTH):
                    if rebased[i] == OP_COMMIT:
                        rebased[i + 4] += shift
                records.extend(rebased)
            extras.extend(frame_extras)
        return records, extras

    # -- dumping ---------------------------------------------------------------

    def dump_bytes(
        self,
        shard: int,
        races: List[str],
        reason: str,
        stats: Optional[Dict[str, int]] = None,
        provenance: Optional[List[Optional[dict]]] = None,
    ) -> bytes:
        """Serialize one shard's window to ``.flightrec`` bytes.

        ``stats`` is the dumping shard's detector-counter snapshot; its
        ``frame_faults`` count lands in the header as ``kernel_stats`` so a
        reader can tell a window the kernel partly rejected.
        ``provenance`` is a list parallel to ``races`` holding each
        report's lockset-transfer chain (or None); it makes the recording
        self-explaining -- ``repro-race explain --race N`` renders it
        without needing the provenance-enabled replay to fire first.
        Both keys are optional and old readers ignore them (the loader
        validates only ``version``).
        """
        records, extras = self.window(shard)
        seqs = [records[i + 1] for i in range(0, len(records), RECORD_WIDTH)]
        header = {
            "version": 1,
            "shard": shard,
            "n_shards": self.n_shards,
            "commit_sync": self.commit_sync,
            "reason": reason,
            "races": list(races),
            "n_records": len(seqs),
            "evicted_records": self._rings[shard].evicted,
            "seq_first": min(seqs) if seqs else None,
            "seq_last": max(seqs) if seqs else None,
        }
        if stats:
            header["kernel_stats"] = {"frame_faults": int(stats.get("frame_faults", 0))}
        if provenance is not None:
            header["provenance"] = list(provenance)
        frame = encode_frame(1, self.interner.elements_since(1), records, extras)
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        return b"".join(
            (
                MAGIC,
                _U32.pack(len(header_bytes)),
                header_bytes,
                _U32.pack(len(frame)),
                frame,
            )
        )

    def dump(
        self,
        shard: int,
        races: List[str],
        reason: str = "race",
        stats: Optional[Dict[str, int]] = None,
        provenance: Optional[List[Optional[dict]]] = None,
    ) -> Optional[str]:
        """Write one shard's window to the configured directory.

        Returns the path, or None when no directory is configured or the
        per-process dump budget is spent (counted in ``dumps_suppressed``).
        """
        if self.directory is None:
            return None
        if self.dumps_written >= self.max_dumps:
            self.dumps_suppressed += 1
            return None
        import os

        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(
            self.directory,
            f"{reason}-{self.dumps_written:04d}-shard{shard}.flightrec",
        )
        data = self.dump_bytes(shard, races, reason, stats=stats, provenance=provenance)
        with open(path, "wb") as fh:
            fh.write(data)
        self.dumps_written += 1
        return path

    def dump_all(self, reason: str = "signal") -> List[str]:
        """Dump every non-empty shard ring (SIGTERM / shutdown path)."""
        paths = []
        for shard in range(self.n_shards):
            if self._rings[shard].frames and self._rings[shard].records_held:
                path = self.dump(shard, [], reason)
                if path is not None:
                    paths.append(path)
        return paths


# -- loading and offline replay -------------------------------------------------


class FlightRecording(NamedTuple):
    """A parsed ``.flightrec`` file."""

    header: Dict[str, object]
    frame: bytes


class ReplayResult(NamedTuple):
    """Outcome of an offline window replay."""

    header: Dict[str, object]
    replayed: List[str]  #: every race line the replay produced
    reproduced: List[str]  #: recorded lines found in the replay
    missing: List[str]  #: recorded lines the window could not reproduce
    counters: Optional[Dict[str, int]] = None  #: replay detector counters
    reports: Optional[list] = None  #: seq-tagged RaceReports from the replay

    @property
    def ok(self) -> bool:
        return not self.missing


def load_flightrec(path: str) -> FlightRecording:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        raise ValueError(f"{path}: not a flight recording (bad magic)")
    offset = len(MAGIC)
    (header_len,) = _U32.unpack_from(data, offset)
    offset += 4
    header = json.loads(data[offset : offset + header_len].decode("utf-8"))
    offset += header_len
    (frame_len,) = _U32.unpack_from(data, offset)
    offset += 4
    frame = data[offset : offset + frame_len]
    if len(frame) != frame_len:
        raise ValueError(f"{path}: truncated recording")
    if header.get("version") != 1:
        raise ValueError(f"{path}: unsupported flightrec version {header.get('version')}")
    decode_frame(frame)  # validate eagerly: a torn file fails here, not mid-replay
    return FlightRecording(header, frame)


def replay_flightrec(
    recording: FlightRecording, provenance: bool = False
) -> ReplayResult:
    """Re-run a recorded window through a fresh :class:`EncodedGoldilocks`.

    The replay applies the window's packed frame to an unsharded detector;
    because the window is exactly the record subsequence the shard saw
    (all sync, owned data accesses), the verdicts for the shard's
    variables match the online run, and every seq tag is carried inside
    the records themselves.  With ``provenance`` the replay kernel derives
    each race's lockset-transfer chain, available on ``result.reports``.
    A ``kernel`` key in recordings from older versions is ignored: every
    engine kernel gave the same verdicts.
    """
    # Imported here: repro.obs must stay importable without repro.server
    # (the engine imports obs; a module-level import would be circular).
    from ..server.protocol import format_race

    header = recording.header
    detector = EncodedGoldilocks(
        commit_sync=str(header.get("commit_sync", "footprint")),
        gc_threshold=None,
        provenance=provenance,
    )
    reports, _count = detector.apply_packed(recording.frame)
    replayed = [format_race(seq, report) for seq, report in reports]
    recorded = [str(line) for line in header.get("races", [])]
    replayed_set = set(replayed)
    reproduced = [line for line in recorded if line in replayed_set]
    missing = [line for line in recorded if line not in replayed_set]
    return ReplayResult(
        header,
        replayed,
        reproduced,
        missing,
        counters=detector.stats.as_dict(),
        reports=reports,
    )
