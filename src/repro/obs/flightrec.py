"""The race flight recorder: a bounded ring of packed records, dumpable.

The ring holds the last K **applied packed records** per hosted group --
exactly the records the engine pushed to its kernel -- plus enough
interner context to make a window self-contained.  A group's window is
the ring's sync, alloc and commit records plus the group's own accesses
since it was hosted, so a group adopted later starts from an empty window.  A dump's ``shard``
header field and file name give the group.  The moment a race is reported
(and on SIGTERM / explicit request) the group's window is written to a
``.flightrec`` file; ``repro-race replay-flightrec`` re-runs it offline
through a fresh encoded kernel and must reproduce the identical race
line, **including the ingestion sequence tag** (the seq travels inside
every packed record, so it survives the round trip).

Why replaying a suffix is sound: removing synchronization events that
happened *before* the window can only remove happens-before edges, never
add them, so a race that fired online still fires in the replay.  The one
hard requirement is that **both accesses of the pair are inside the
window** -- the ring is bounded in records, and the replay result reports
any recorded race line it failed to reproduce (first access evicted from
the ring) instead of silently passing.

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

from ..core.actions import OP_COMMIT, OP_READ, OP_WRITE
from ..core.encode import RECORD_WIDTH, decode_frame, encode_frame
from ..core.kernel import EncodedGoldilocks
from ..core.lockset import Interner

MAGIC = b"REPROFLR1\n"
_U32 = struct.Struct("<I")

#: default packed records retained by the ring
DEFAULT_CAPACITY = 4096


class FlightRecorder:
    """A bounded ring of pushed frames over the engine's master interner.

    The recorder sits at the ingestion edge (it sees every frame as it is
    pushed) and borrows the engine's
    :class:`~repro.core.lockset.Interner` at dump time, so a dump is one
    ``elements_since(1)`` walk plus an array concatenation -- nothing is
    copied per event on the hot path beyond the frame's own arrays, which
    the engine hands over instead of discarding.  ``var_group`` maps a
    data-variable id to its group (the encoder's ``var_shard``).
    """

    def __init__(
        self,
        n_shards: int,
        interner: Interner,
        capacity: int = DEFAULT_CAPACITY,
        directory: Optional[str] = None,
        max_dumps: int = 16,
        commit_sync: str = "footprint",
        var_group: Optional[Dict[int, int]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.n_shards = n_shards
        self.interner = interner
        self.var_group = var_group
        self.capacity = capacity
        self.directory = directory
        self.max_dumps = max_dumps
        self.commit_sync = commit_sync
        self.dumps_written = 0
        self.dumps_suppressed = 0
        #: whole frames, each with the ring position of its first record
        self._frames: Deque[Tuple[int, array, array]] = deque()
        self.records_held = 0
        self.records_seen = 0
        self.evicted = 0
        #: hosted group -> the ring position its window starts at
        self._since: Dict[int, int] = {}

    def host(self, group: int) -> None:
        """Start a group's window at the ring's current end."""
        self._since[group] = self.records_seen

    def drop_group(self, group: int) -> None:
        """Close a retired group's window."""
        self._since.pop(group, None)

    # -- recording (hot path: one deque append per pushed frame) ---------------

    def record(self, records: array, extras: array) -> None:
        """Absorb one pushed frame's arrays (ownership transfers here).

        The ring keeps ``capacity`` records per hosted group (at least one
        group's worth), as many as one ring per group kept together, so a
        group's window reaches as far back as a ring of its own would.
        """
        n = len(records) // RECORD_WIDTH
        self._frames.append((self.records_seen, records, extras))
        self.records_held += n
        self.records_seen += n
        bound = self.capacity * max(1, len(self._since))
        while self.records_held > bound and len(self._frames) > 1:
            _start, old_records, _ = self._frames.popleft()
            dropped = len(old_records) // RECORD_WIDTH
            self.records_held -= dropped
            self.evicted += dropped

    def rebind(
        self, interner: Interner, var_group: Optional[Dict[int, int]] = None
    ) -> None:
        """Point at a fresh interner and empty the ring (engine reset)."""
        self.interner = interner
        self.var_group = var_group
        self._frames.clear()
        self.records_held = 0
        self.evicted = 0
        self._since = dict.fromkeys(self._since, self.records_seen)

    def window(self, group: int) -> Tuple[array, array]:
        """The group's current window as one (records, extras) pair.

        Commit records store an offset into their frame's extras array;
        concatenation rebases those offsets so the merged window is
        internally consistent.
        """
        records = array("q")
        extras = array("q")
        since = self._since.get(group)
        var_group = self.var_group if self.n_shards > 1 else None
        for start, frame_records, frame_extras in self._frames:
            if since is None or start < since:
                continue
            for i in range(0, len(frame_records), RECORD_WIDTH):
                row = frame_records[i : i + RECORD_WIDTH]
                if row[0] == OP_COMMIT:
                    row[4] += len(extras)
                elif var_group and row[0] in (OP_READ, OP_WRITE) and var_group[row[4]] != group:
                    continue  # another group's access
                records.extend(row)
            extras.extend(frame_extras)
        return records, extras

    # -- dumping ---------------------------------------------------------------

    def dump_bytes(
        self,
        group: int,
        races: List[str],
        reason: str,
        stats: Optional[Dict[str, int]] = None,
        provenance: Optional[List[Optional[dict]]] = None,
    ) -> bytes:
        """Serialize one group's window to ``.flightrec`` bytes.

        ``stats`` is the kernel's counter snapshot; its
        ``frame_faults`` count lands in the header as ``kernel_stats`` so a
        reader can tell a window the kernel partly rejected.
        ``provenance`` is a list parallel to ``races`` holding each
        report's lockset-transfer chain (or None); it makes the recording
        self-explaining -- ``repro-race explain --race N`` renders it
        without needing the provenance-enabled replay to fire first.
        Both keys are optional and old readers ignore them (the loader
        validates only ``version``).
        """
        records, extras = self.window(group)
        seqs = [records[i + 1] for i in range(0, len(records), RECORD_WIDTH)]
        header = {
            "version": 1,
            "shard": group,
            "n_shards": self.n_shards,
            "commit_sync": self.commit_sync,
            "reason": reason,
            "races": list(races),
            "n_records": len(seqs),
            "evicted_records": self.evicted,
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
        group: int,
        races: List[str],
        reason: str = "race",
        stats: Optional[Dict[str, int]] = None,
        provenance: Optional[List[Optional[dict]]] = None,
    ) -> Optional[str]:
        """Write one group's window to the configured directory.

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
            f"{reason}-{self.dumps_written:04d}-shard{group}.flightrec",
        )
        data = self.dump_bytes(group, races, reason, stats=stats, provenance=provenance)
        with open(path, "wb") as fh:
            fh.write(data)
        self.dumps_written += 1
        return path

    def dump_all(self, reason: str = "signal") -> List[str]:
        """Dump every hosted group's non-empty window (SIGTERM / shutdown)."""
        paths = []
        for group in sorted(self._since):
            if self.window(group)[0]:
                path = self.dump(group, [], reason)
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

    The replay applies the window's packed frame to a fresh detector;
    because the window is exactly the record subsequence the group's
    variables were checked on (all sync, the group's data accesses), the
    verdicts for the group's variables match the online run, and every
    seq tag is carried inside the records themselves.  With ``provenance`` the replay kernel derives
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
