"""The sharded detection engine behind the streaming service.

The paper's own data layout makes Goldilocks shardable: all inter-thread
ordering flows through the single synchronization-event list, while each
data variable's race state (its last-write/last-read ``Info`` records and
their locksets) is private to that variable.  So the engine

* **broadcasts** synchronization events (acquire/release, volatile ops,
  fork/join, commits) and allocations to every shard -- each shard keeps an
  identical replica of the synchronization-event list;
* **hash-partitions** data reads/writes by variable across ``n_shards``
  shards, each owning the :class:`EncodedGoldilocks` state for its
  partition.

A shard's verdicts are then *identical* to an unsharded detector's: a data
access for variable ``v`` never mutates anything another variable's checks
read, so deleting the other partitions' accesses from a shard's input
changes nothing for ``v``.  Commits are the one action in both worlds --
they are broadcast (synchronization role), and every shard checks only the
footprint variables it owns (data role) via
:meth:`PartitionedGoldilocks._commit_vars`.

Every shard lives in the service process and applies a batch the moment it
is pushed, much as the paper's runtime checks each access in the thread
that makes it.  Events are translated once at the edge
(:class:`~repro.core.encode.EventEncoder`) into flat integer records; a
shard's batch is one immutable frame of ``bytes`` (sync records broadcast
as the same buffer content to every shard), which the shard appends
verbatim via :meth:`EncodedGoldilocks.apply_packed`.  More cores are served
by more ``repro-serve`` nodes behind ``repro-cluster``, not by more shards.

A shard is one *group* of the ``n_shards`` partitions, the unit of
checkpoint and migration.  A plain ``repro-serve`` hosts every group; a
cluster node is the same engine hosting the groups it was handed.

Variable-to-shard routing uses CRC32, not ``hash()``: Python string hashes
are salted per process, and a cluster's coordinator and nodes must agree.
The route is computed from the interned ints (cached per variable id),
never by re-deriving strings per event.
"""

from __future__ import annotations

import io
import pickle
import time
import zlib
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.actions import (
    OP_ACQUIRE,
    OP_ALLOC,
    OP_COMMIT,
    OP_FORK,
    OP_JOIN,
    OP_READ,
    OP_RELEASE,
    OP_VREAD,
    OP_VWRITE,
    OP_WRITE,
    DataVar,
    Event,
    Read,
    Write,
)
from ..core.encode import (
    FILTERED_VAR,
    RECORD_WIDTH,
    EventEncoder,
    FrameFormatError,
    decode_frame,
    encode_frame,
    format_trace_id,
    make_trace_id,
    split_trace,
)
from ..core.kernel import EncodedGoldilocks
from ..core.report import RaceReport
from ..core.stats import detector_work_of, short_circuit_rate_of
from ..obs.flightrec import FlightRecorder
from ..obs.tracing import LifecycleTracer, ObsConfig, fault_record
from .protocol import format_race
from .stats import ServiceStats, ShardStats

#: a race report tagged with the ingestion sequence number that completed it
SeqReport = Tuple[int, RaceReport]


def shard_of(var: DataVar, n_shards: int) -> int:
    """Stable variable-to-shard mapping (identical across processes)."""
    if n_shards <= 1:
        return 0
    key = f"{var.obj.value}.{var.field}".encode("utf-8")
    return zlib.crc32(key) % n_shards


class PartitionedGoldilocks(EncodedGoldilocks):
    """One hash partition of the variables, on the integer-encoded kernel.

    Synchronization events must be fed to every partition (they are cheap:
    one list append); data accesses only to the owning one.  Accesses that
    slip through for foreign variables are ignored rather than mis-checked.

    ``name`` stays "goldilocks" (inherited) so reports are byte-identical to
    the offline detector's; the partition is carried in ``label`` instead.
    """

    def __init__(self, shard_id: int = 0, n_shards: int = 1, **kwargs) -> None:
        super().__init__(**kwargs)
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.label = f"shard {shard_id}/{n_shards}"

    def owns(self, var: DataVar) -> bool:
        # Packed frames ask once per variable id (the kernel remembers the
        # answer), so the crc32 route is computed once per variable.
        return shard_of(var, self.n_shards) == self.shard_id

    def process(self, event: Event) -> List[RaceReport]:
        action = event.action
        if isinstance(action, (Read, Write)) and not self.owns(action.var):
            return []
        return super().process(event)

    def _commit_vars(self, footprint: List[DataVar]) -> List[DataVar]:
        return [var for var in footprint if self.owns(var)]

    # The base reset() re-invokes __init__ from the stored detector kwargs;
    # prepend our partition coordinates.
    def reset(self) -> None:
        self.__init__(self.shard_id, self.n_shards, **self._config)  # type: ignore[misc]

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["partition"] = (self.shard_id, self.n_shards)
        return state

    def __setstate__(self, state: dict) -> None:
        self.shard_id, self.n_shards = state.pop("partition")
        super().__setstate__(state)
        self.label = f"shard {self.shard_id}/{self.n_shards}"


#: every class a :class:`PartitionedGoldilocks` checkpoint pickles, as exact
#: ``(module, name)`` pairs.  A module prefix would not do: a dotted name can
#: reach any callable through module attributes (``pickle.loads`` included).
CHECKPOINT_CLASSES = frozenset(
    {
        ("repro.core.actions", "DataVar"),
        ("repro.core.actions", "LockVar"),
        ("repro.core.actions", "VolatileVar"),
        ("repro.core.actions", "Obj"),
        ("repro.core.actions", "Tid"),
        ("repro.core.actions", "_TransactionLock"),
        ("repro.core.lockset", "Interner"),
        ("repro.core.report", "AccessRef"),
        ("repro.core.stats", "DetectorStats"),
        ("repro.core.synclist", "EncodedSyncList"),
        ("repro.server.engine", "PartitionedGoldilocks"),
    }
)


class _CheckpointUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if (module, name) not in CHECKPOINT_CLASSES:
            raise pickle.UnpicklingError(
                f"{module}.{name} is not part of a shard checkpoint"
            )
        return super().find_class(module, name)


def load_shard_checkpoint(
    blob: bytes, group: int, partitions: int
) -> PartitionedGoldilocks:
    """Restore the shard for partition ``group`` of ``partitions`` from ``blob``.

    Blobs can come from a client (``!adopt``), so they are unpickled with
    :data:`CHECKPOINT_CLASSES` as the only names they may load, and the
    result must be the shard for exactly that partition: a shard restored
    into the wrong slot would silently miss its own variables' races.
    Anything else raises :class:`ValueError`.
    """
    try:
        detector = _CheckpointUnpickler(io.BytesIO(blob)).load()
    except Exception as exc:
        raise ValueError(f"unreadable checkpoint: {exc}") from exc
    if not isinstance(detector, PartitionedGoldilocks):
        raise ValueError(
            f"checkpoint holds a {type(detector).__name__}, "
            "not a PartitionedGoldilocks"
        )
    if (detector.shard_id, detector.n_shards) != (group, partitions):
        raise ValueError(
            f"checkpoint is of partition {detector.shard_id}/{detector.n_shards}, "
            f"not {group}/{partitions}"
        )
    return detector


@dataclass
class EngineConfig:
    """Tunables for :class:`ShardedEngine`."""

    #: the partition count: a data variable belongs to group
    #: ``crc32(var) % n_shards``, on one server or across a cluster
    n_shards: int = 1
    #: events buffered per shard before a batch is pushed
    batch_size: int = 64
    #: forwarded to each shard's detector
    commit_sync: str = "footprint"
    gc_threshold: Optional[int] = 50_000
    #: observability tunables; None means the :class:`ObsConfig` defaults
    #: (stage counters on, span sampling off, flight recorder rings kept
    #: but not written to files)
    obs: Optional[ObsConfig] = None
    #: the groups hosted from the start; None hosts every one of them (a
    #: plain ``repro-serve``), ``()`` none (a cluster node, handed groups
    #: through :meth:`ShardedEngine.adopt_group`)
    groups: Optional[Tuple[int, ...]] = None
    #: static admission filter (:class:`repro.analysis.admission.AdmissionFilter`)
    #: consulted at the ingestion edge: data accesses it proves race-free are
    #: dropped before they reach a shard or the kernel.  Sync events always
    #: pass.  ``None`` admits everything.
    admit: Optional[object] = None

    def detector_kwargs(self) -> dict:
        kwargs = {"commit_sync": self.commit_sync, "gc_threshold": self.gc_threshold}
        if self.obs is not None and self.obs.provenance:
            kwargs["provenance"] = True
        return kwargs


class _PackedBuffer:
    """One shard's pending records before they are framed and pushed."""

    __slots__ = ("records", "extras", "count")

    def __init__(self) -> None:
        self.records = array("q")
        self.extras = array("q")
        self.count = 0


class WireIngest:
    """Per-connection state for ingesting binary wire frames.

    A client's frames carry *its own* interner ids.  Each newly announced
    element is interned once into the engine's master interner and the id
    translation is remembered, so records are rewritten int-for-int -- no
    ``Event`` objects -- and the engine assigns every record's ``seq``.

    A coordinator's connection (``keep_ids``, set by ``!cluster``) shares
    the cluster's id space instead: its deltas must land on exactly the
    ids it assigned, and its records keep their ``seq``.  ``replay_group``,
    when set by the ``!replay`` verb, targets every record of subsequent
    frames at exactly one hosted group (the migration delta-replay path).
    """

    __slots__ = ("remap", "keep_ids", "replay_group")

    def __init__(self, keep_ids: bool = False) -> None:
        self.remap: List[int] = [0]  # client id 0 is TL on both sides
        self.keep_ids = keep_ids
        self.replay_group: Optional[int] = None


class ShardedEngine:
    """Routes an event stream across detection shards; collects reports.

    The engine is *not* thread-safe by itself -- the service serializes
    access with one ingestion lock.  Reports are tagged with ingestion
    sequence numbers; :meth:`poll_reports` drains those of every pushed
    batch, :meth:`barrier` pushes the partial batches first.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        checkpoints: Optional[Sequence[bytes]] = None,
        seq_start: int = 0,
        **kwargs,
    ) -> None:
        self.config = config or EngineConfig(**kwargs)
        n = self.config.n_shards
        if n < 1:
            raise ValueError("need at least one shard")
        groups = range(n) if self.config.groups is None else self.config.groups
        if checkpoints is not None and len(checkpoints) != len(groups):
            raise ValueError(
                f"{len(checkpoints)} checkpoint blobs for {len(groups)} groups"
            )
        self._seq = seq_start
        #: the seq of the first record of the last wire frame
        #: (:meth:`submit_wire_frame`)
        self.frame_start = seq_start
        self._started = time.monotonic()
        self._reports: List[SeqReport] = []
        self._encoder = EventEncoder(n, admit=self.config.admit)
        #: the global group hosted at each local slot; all per-shard state
        #: below is indexed by *slot* (slot == group until one is retired)
        self._slot_groups: List[int] = []
        self._slot_of: Dict[int, int] = {}
        self._detectors: List[PartitionedGoldilocks] = []
        self._pbuffers: List[_PackedBuffer] = []
        #: per slot: the detector's interner length after its last frame
        self._cursors: List[int] = []
        self._events_processed: List[int] = []
        self._shard_stats: List[Dict[str, int]] = []
        # hosted before the tracer opens its span log: a bad blob leaks nothing
        blobs = checkpoints if checkpoints is not None else [None] * len(groups)
        for group, blob in zip(groups, blobs):
            self.adopt_group(group, blob)
        # ingestion counters surfaced in ServiceStats
        self.events_ingested = 0
        self.sync_broadcast = 0
        self.data_routed = 0
        #: data accesses past the admission filter / dropped by it at the edge
        self.data_admitted = 0
        self.data_filtered = 0
        #: data records for groups hosted elsewhere (a cluster node)
        self.foreign_dropped = 0
        self.batches_flushed = 0
        #: frame bytes shipped to shards
        self.queue_bytes = 0
        #: faults of frames a shard rejected, as :func:`fault_record` dicts;
        #: drained by the service into its fault ring
        self.apply_errors: List[dict] = []
        #: reports that arrived carrying a provenance chain
        self.provenance_attached = 0
        #: trace context adopted from the most recent traced wire frame
        #: (a coordinator-minted id); None until one arrives, in which
        #: case locally pushed batches mint their own ids when tracing
        self._trace_ctx: Optional[int] = None
        # -- observability: lifecycle tracer plus the race flight recorder.
        # The tracer degrades to no-ops when fully disabled; the recorder
        # stores the pushed records verbatim, one ring per group, and
        # never writes files unless a dump directory is configured.
        self.obs_config = self.config.obs or ObsConfig()
        self.tracer = LifecycleTracer(self.obs_config)
        self.recorder = FlightRecorder(
            n,
            self._encoder.interner,
            capacity=self.obs_config.flightrec_capacity,
            directory=self.obs_config.flightrec_dir,
            max_dumps=self.obs_config.flightrec_max_dumps,
            commit_sync=self.config.commit_sync,
        )

    # -- ingestion -------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The sequence number the next engine-numbered event gets."""
        return self._seq

    def pending_floor(self) -> Optional[int]:
        """The smallest ``seq`` still buffered for a shard, None if none is.

        Every event numbered below it has been applied, so its races are
        among the reports :meth:`poll_reports` drains.  A buffer holds its
        records in ``seq`` order, so its first record is its smallest.
        """
        floor: Optional[int] = None
        for buffer in self._pbuffers:
            if buffer.count:
                seq = buffer.records[1]
                if floor is None or seq < floor:
                    floor = seq
        return floor

    @property
    def edge_allocs(self) -> int:
        """Per-event allocation proxy: one per newly seen element."""
        return self._encoder.cache_misses

    def submit(self, event: Event) -> int:
        """Route one event; returns its ingestion sequence number.

        Data accesses go to their owning shard's batch buffer; everything
        else (synchronization, commits, allocations) is appended to every
        shard's buffer.  A full buffer is pushed and applied at once.
        """
        op, tid_id, index, a, b, extras = self._encoder.encode_event(event)
        return self._ingest_record(op, tid_id, index, a, b, extras, None)

    def submit_line(self, line: str) -> int:
        """Ingest one trace text line.

        This is the encode-once fast path: the line becomes an integer
        record directly, constructing zero dataclasses in steady state.
        Raises on malformed input (before any caches are touched),
        mirroring :func:`repro.trace.io.parse_event`.
        """
        op, tid_id, index, a, b, extras = self._encoder.encode_line(line)
        return self._ingest_record(op, tid_id, index, a, b, extras, None)

    def _ingest_record(
        self,
        op: int,
        tid_id: int,
        index: int,
        a: int,
        b: int,
        extras: Optional[List[int]],
        seq: Optional[int],
        only_slot: Optional[int] = None,
    ) -> int:
        if seq is None:
            seq = self._seq
        self._seq = seq + 1
        self.events_ingested += 1
        if only_slot is not None:
            # Migration delta replay: every record of the frame -- data and
            # the window's sync tail alike -- is targeted at exactly the
            # adopted group's slot, never broadcast (the other slots already
            # saw those sync records through the normal stream).
            targets: Sequence[int] = (only_slot,)
            if op == OP_READ or op == OP_WRITE:
                if a < 0:
                    self.data_filtered += 1
                    return seq
                self.data_routed += 1
            else:
                self.sync_broadcast += 1
        elif op == OP_READ or op == OP_WRITE:
            if a < 0:
                # admission-filtered access: consumes its sequence number
                # (race-line parity with unfiltered runs) but ships nowhere
                self.data_filtered += 1
                return seq
            self.data_routed += 1
            self.data_admitted += 1
            slot = self._slot_of.get(self._encoder.shard_of_var(a))
            if slot is None:
                # the owning group is hosted on some other node
                self.foreign_dropped += 1
                return seq
            targets = (slot,)
        else:
            self.sync_broadcast += 1
            targets = range(len(self._slot_groups))
        for shard in targets:
            buffer = self._pbuffers[shard]
            if extras is None:
                local_a = a
            else:
                local_a = len(buffer.extras)
                buffer.extras.extend(extras)
            buffer.records.extend((op, seq, tid_id, index, local_a, b))
            buffer.count += 1
            if buffer.count >= self.config.batch_size:
                self._push(shard)
        return seq

    def submit_wire_frame(self, payload: bytes, state: WireIngest) -> int:
        """Ingest one client-encoded binary frame; returns events accepted.

        Client interner ids are rewritten to engine ids through the
        connection's :class:`WireIngest` remap (each element decoded and
        interned exactly once per connection); the client's local sequence
        numbers are discarded -- the engine assigns its own, so binary and
        text ingestion of the same stream produce identical ``seq`` tags.

        A coordinator's connection (``state.keep_ids``) inverts both
        choices: its id space and sequence numbers are *the* cluster truth,
        so ids are adopted verbatim (this engine's interner is a prefix
        replica of the coordinator's master) and each record keeps its wire
        ``seq`` -- race lines come out tagged exactly as a single-node run
        would tag them.

        Every record is checked before it is buffered: ids must be
        announced, its thread id must name a thread, read/write/footprint
        ids must name data variables (or be :data:`FILTERED_VAR`), a sync
        record must name its own thread in one slot and a lock (acq/rel),
        volatile (vread/vwrite) or thread (fork/join) in the other, an
        alloc must name an object's lock (its proxy), and a commit's
        footprint must lie inside the extras array.  A bad record
        raises :class:`FrameFormatError` with the records before it
        ingested (``applied``) and none after it.
        """
        # A trace envelope (frame version 2) is peeled off before any
        # decoding: downstream consumers -- decoders, shards, the flight
        # recorder -- always see plain v1 bytes, so traced and untraced
        # ingestion of the same stream stay byte-identical past this line.
        trace_id, payload = split_trace(payload)
        if trace_id is not None:
            self._trace_ctx = trace_id
        base, delta, records, extras = decode_frame(payload)
        encoder = self._encoder
        remap: Optional[List[int]] = None
        if state.keep_ids:
            encoder.extend(base, delta)
            n_ids = len(encoder.interner)
        else:
            remap = state.remap
            if len(remap) < base:
                raise ValueError(
                    f"frame assumes {base} announced elements, "
                    f"connection has {len(remap)}"
                )
            for element in delta[len(remap) - base :]:
                remap.append(encoder.intern_element(element))
            n_ids = len(remap)
        only_slot: Optional[int] = None
        if state.replay_group is not None:
            only_slot = self._slot_of.get(state.replay_group)
            if only_slot is None:
                raise ValueError(
                    f"replay target group {state.replay_group} is not hosted here"
                )
        # An id's class is a table lookup: an engine id names a thread iff it
        # is in ``thread_ids``, a data variable iff it is in ``var_shard``,
        # and so on.  A remapped id that was never announced becomes -1, in
        # none of them.
        thread_ids = encoder.thread_ids
        var_shard = encoder.var_shard
        # per sync opcode: the slot (0 = a, 1 = b) holding the record's own
        # thread, the ids the other slot may name, and their class
        sync_slots = {
            OP_ACQUIRE: (1, encoder.lock_ids, "a LockVar"),
            OP_RELEASE: (0, encoder.lock_ids, "a LockVar"),
            OP_VREAD: (1, encoder.volatile_ids, "a VolatileVar"),
            OP_VWRITE: (0, encoder.volatile_ids, "a VolatileVar"),
            OP_FORK: (0, thread_ids, "a Tid"),
            OP_JOIN: (1, thread_ids, "a Tid"),
        }
        count = 0

        def refuse(problem: str, op: int, i: int) -> FrameFormatError:
            record = i // RECORD_WIDTH
            return FrameFormatError(
                f"{problem} in wire frame at record {record}",
                kind=op,
                record=record,
                applied=count,
            )

        def bad_id(cid: int, belongs: str, op: int, i: int) -> FrameFormatError:
            """The error for a wire id that is unannounced or of another class."""
            if not 0 <= cid < n_ids:
                return refuse(f"unannounced client id {cid}", op, i)
            element = encoder.interner.resolve(cid if remap is None else remap[cid])
            return refuse(f"{element!r} where {belongs} belongs", op, i)

        def wire_id(cid: int, op: int, i: int) -> int:
            """One wire id of any class as an engine id."""
            if not 0 <= cid < n_ids:
                raise refuse(f"unannounced client id {cid}", op, i)
            return cid if remap is None else remap[cid]

        # the events this frame ingests are numbered [frame_start, next_seq)
        self.frame_start = records[1] if remap is None and records else self._seq
        for i in range(0, len(records), RECORD_WIDTH):
            op, seq, tid_id, index, a, b = records[i : i + RECORD_WIDTH]
            if remap is not None:
                seq = None  # the engine assigns it
                tid_id = remap[tid_id] if 0 <= tid_id < n_ids else -1
            if tid_id not in thread_ids:
                raise bad_id(records[i + 2], "a Tid", op, i)
            local_extras: Optional[List[int]] = None
            if op == OP_READ or op == OP_WRITE:
                # An already-filtered access stays filtered; only real ids
                # go through the remap.
                if a != FILTERED_VAR:
                    if remap is not None:
                        a = remap[a] if 0 <= a < n_ids else -1
                    if a not in var_shard:
                        raise bad_id(records[i + 4], "a DataVar", op, i)
                    if not encoder.admit_var_id(a):
                        a = FILTERED_VAR
            elif OP_ACQUIRE <= op <= OP_JOIN:
                own, other_ids, belongs = sync_slots[op]
                ids = (wire_id(a, op, i), wire_id(b, op, i))
                if ids[own] != tid_id:
                    raise bad_id(records[i + 4 + own], "the record's own Tid", op, i)
                if ids[1 - own] not in other_ids:
                    raise bad_id(records[i + 5 - own], belongs, op, i)
                a, b = ids
            elif op == OP_COMMIT:
                n_vars = extras[a] if 0 <= a < len(extras) else -1
                end = a + 1 + 2 * n_vars
                if n_vars < 0 or end > len(extras):
                    raise refuse(
                        f"commit footprint at extras offset {a} outside the "
                        f"{len(extras)}-int extras array",
                        op,
                        i,
                    )
                local_extras = [n_vars]
                for j in range(a + 1, end, 2):
                    cid = extras[j]
                    # A filtered footprint entry travels as FILTERED_VAR;
                    # remapping it would silently alias the *last* announced
                    # element (remap[-1]) -- preserve the sentinel instead.
                    if cid != FILTERED_VAR:
                        if remap is not None:
                            cid = remap[cid] if 0 <= cid < n_ids else -1
                        if cid not in var_shard:
                            raise bad_id(extras[j], "a DataVar", op, i)
                    local_extras.append(cid)
                    local_extras.append(extras[j + 1])
                a = b = 0
            elif op == OP_ALLOC:
                if a >= 0:
                    a = wire_id(a, op, i)
                    if a not in encoder.lock_ids:
                        raise bad_id(records[i + 4], "an object's LockVar", op, i)
            else:
                raise refuse(f"unknown opcode {op}", op, i)
            self._ingest_record(op, tid_id, index, a, b, local_extras, seq, only_slot)
            count += 1
        return count

    def flush(self) -> None:
        """Push every non-empty batch buffer to its shard."""
        for shard in range(len(self._slot_groups)):
            if self._pbuffers[shard].count:
                self._push(shard)

    def _make_span(
        self, ordinal: int, n_events: int, route_sec: float
    ) -> Optional[dict]:
        """A sampled batch's span seed, trace-tagged when tracing is on.

        The trace id is the adopted wire context when one exists (cluster
        node: every node stamps the coordinator's id, so the spans stitch),
        otherwise minted locally from (node label, batch ordinal).  The
        trace fields ride the span dict and are popped back out in
        :meth:`_finish_batch` before the rest becomes ``stage_sec``.
        """
        if not self.tracer.should_sample(ordinal):
            return None
        span = {"batch": ordinal, "events": n_events, "route": route_sec}
        if self.obs_config.trace:
            ctx = self._trace_ctx
            if ctx is None:
                ctx = make_trace_id(self.obs_config.node, ordinal)
            span["trace_id"] = format_trace_id(ctx)
            if self.obs_config.node:
                span["node"] = self.obs_config.node
        return span

    def _push(self, shard: int) -> None:
        """Frame one shard's buffer and apply it to the shard right away."""
        self.batches_flushed += 1
        tracer = self.tracer
        t_route = tracer.clock()
        buffer, self._pbuffers[shard] = self._pbuffers[shard], _PackedBuffer()
        n_events = buffer.count
        frame = encode_frame(
            self._cursors[shard],
            self._encoder.interner.elements_since(self._cursors[shard]),
            buffer.records,
            buffer.extras,
        )
        self._cursors[shard] = len(self._encoder.interner)
        self.queue_bytes += len(frame)
        # The buffer's arrays would be garbage after this point; the
        # flight recorder adopts them instead (no copy).
        self.recorder.record(self._slot_groups[shard], buffer.records, buffer.extras)
        route_sec = tracer.clock() - t_route
        tracer.observe_elapsed("route", route_sec)
        span = self._make_span(self.batches_flushed, n_events, route_sec)
        detector = self._detectors[shard]
        sent_at = tracer.clock()
        try:
            reports, n = detector.apply_packed(frame)
        except FrameFormatError as exc:
            reports, n = self._apply_past_faults(
                shard, exc, buffer.records, buffer.extras
            )
        apply_sec = tracer.clock() - sent_at
        self._events_processed[shard] += n
        self._shard_stats[shard] = detector.stats.as_dict()
        if reports:
            self._reports.extend(reports)
            self.provenance_attached += sum(
                1 for _seq, r in reports if r.provenance is not None
            )
            self._dump_on_race(shard, reports)
        self._finish_batch(shard, sent_at, apply_sec, span)

    def _apply_past_faults(
        self, shard: int, exc: FrameFormatError, records: array, extras: array
    ) -> Tuple[List[SeqReport], int]:
        """Finish a batch whose record a shard refused; ``(reports, applied)``.

        The races of the records before the refused one are kept, the
        refused record becomes one fault in :attr:`apply_errors`, and the
        records after it are applied as usual -- they may come from other
        frames or other clients sharing the buffer, and a race they
        complete must not be lost.
        """
        group = self._slot_groups[shard]
        detector = self._detectors[shard]
        total = len(records) // RECORD_WIDTH
        reports: List[SeqReport] = []
        applied = done = 0
        while True:
            reports.extend(exc.reports)
            applied += exc.applied or 0
            if exc.record is None:  # the frame did not decode: nothing applies
                self.apply_errors.append(
                    fault_record(
                        f"<batch of {total} records refused by shard {group}: {exc}>",
                        exc,
                        shard=group,
                    )
                )
                return reports, applied
            done += exc.record
            self.apply_errors.append(
                fault_record(
                    f"<record {done} of a {total}-record batch refused by "
                    f"shard {group}: {exc}>",
                    exc,
                    shard=group,
                )
            )
            done += 1
            if done == total:
                return reports, applied
            try:
                more, n = detector.apply_records(records[done * RECORD_WIDTH :], extras)
            except FrameFormatError as again:
                exc = again
                continue
            reports.extend(more)
            return reports, applied + n

    # -- results ---------------------------------------------------------------

    def _finish_batch(
        self, shard: int, sent_at: float, apply_sec: float, span: Optional[dict]
    ) -> None:
        """Close the queue (push to ack) and apply stages of one batch."""
        tracer = self.tracer
        queue_sec = tracer.clock() - sent_at
        tracer.observe_elapsed("queue", queue_sec)
        tracer.observe_elapsed("apply", apply_sec)
        if span is not None:
            trace_id = span.pop("trace_id", None)
            node = span.pop("node", None)
            span["queue"] = queue_sec
            span["apply"] = apply_sec
            tracer.emit_span(
                span.pop("batch"),
                self._slot_groups[shard],
                span.pop("events"),
                span,
                trace_id=trace_id,
                node=node,
            )

    def _dump_on_race(self, shard: int, reports: List[SeqReport]) -> None:
        """Snapshot the group's flight ring the moment it reports races."""
        recorder = self.recorder
        if recorder.directory is None:
            return
        lines = [format_race(seq, report) for seq, report in reports]
        provenance = [report.provenance for _seq, report in reports]
        if not any(p is not None for p in provenance):
            provenance = None
        recorder.dump(
            self._slot_groups[shard],
            lines,
            "race",
            stats=self._shard_stats[shard],
            provenance=provenance,
        )

    def poll_reports(self) -> List[SeqReport]:
        """The reports of every batch pushed so far (seq-tagged)."""
        out, self._reports = self._reports, []
        return out

    def barrier(self) -> List[SeqReport]:
        """Flush, then return every report since the last drain.

        Reports are sorted by the sequence number of the access that
        completed the race.
        """
        self.flush()
        out, self._reports = self._reports, []
        out.sort(key=lambda pair: pair[0])
        return out

    # -- control ---------------------------------------------------------------

    def reset(self) -> None:
        """Restart detection from an empty execution (counters survive)."""
        self.barrier()
        for detector in self._detectors:
            detector.reset()
        # Shard interner replicas restarted from scratch: the edge encoder
        # and its per-shard delta cursors must restart with them (sequence
        # numbers keep counting -- the execution restarts, the stream not).
        n = len(self._slot_groups)
        self._encoder = EventEncoder(self.config.n_shards, admit=self.config.admit)
        self._cursors = [1] * n
        self._pbuffers = [_PackedBuffer() for _ in range(n)]
        self._shard_stats = [{} for _ in range(n)]
        self.recorder.rebind(self._encoder.interner)

    def set_admission(self, admit) -> None:
        """Install (or clear, with ``None``) the admission filter mid-stream.

        Takes effect from the next submitted event; variables already
        interned stay interned, their accesses simply start or stop being
        dropped.  Installing a sound filter mid-stream is itself sound:
        it only removes accesses to variables that can never race.
        """
        self.config.admit = admit
        self._encoder.set_admission(admit)

    def checkpoint(self) -> List[bytes]:
        """Serialize every shard's detector state (drains first)."""
        self.barrier()
        return [detector.checkpoint() for detector in self._detectors]

    # -- group hosting: what a cluster adds and moves ------------------------

    def hosted_groups(self) -> List[int]:
        """The global partition ids this engine currently detects for."""
        return sorted(self._slot_groups)

    def interner_version(self) -> int:
        """This engine's replica version (master interner length)."""
        return len(self._encoder.interner)

    def export_group(self, group: int) -> bytes:
        """Checkpoint exactly one hosted group's detector (drains first)."""
        slot = self._slot_of.get(group)
        if slot is None:
            raise ValueError(f"group {group} is not hosted here")
        self.barrier()
        return self._detectors[slot].checkpoint()

    def adopt_group(self, group: int, blob: Optional[bytes] = None) -> None:
        """Start hosting a global partition, fresh or from a checkpoint.

        A restored detector's interner and the edge encoder's are both
        prefixes of one id space (the coordinator's master, or the engine
        the checkpoint came from), so the encoder is extended to the longer
        of the two -- a restored engine keeps the original id assignments
        -- and the new slot's delta cursor starts at the detector's length:
        its first frame carries only what the detector has not seen.
        """
        n = self.config.n_shards
        if not 0 <= group < n:
            raise ValueError(f"group {group} out of range [0, {n})")
        if group in self._slot_of:
            raise ValueError(f"group {group} is already hosted")
        if blob is None:
            detector = PartitionedGoldilocks(
                group, n, **self.config.detector_kwargs()
            )
        else:
            detector = load_shard_checkpoint(blob, group, n)
            # restored elements are not new edge allocations
            misses = self._encoder.cache_misses
            self._encoder.extend(1, detector.interner.elements_since(1))
            self._encoder.cache_misses = misses
        self._slot_of[group] = len(self._slot_groups)
        self._slot_groups.append(group)
        self._detectors.append(detector)
        self._pbuffers.append(_PackedBuffer())
        self._cursors.append(len(detector.interner))
        self._events_processed.append(0)
        self._shard_stats.append({})

    def retire_group(self, group: int) -> None:
        """Stop hosting a global partition (drains its pending batch first).

        The migration driver calls this on the source the moment the
        checkpoint is exported: commits are broadcast, so a lingering copy
        of the group would double-report every footprint race during the
        hand-off window.
        """
        slot = self._slot_of.get(group)
        if slot is None:
            raise ValueError(f"group {group} is not hosted here")
        self.barrier()
        for per_slot in (
            self._slot_groups,
            self._detectors,
            self._pbuffers,
            self._cursors,
            self._events_processed,
            self._shard_stats,
        ):
            del per_slot[slot]
        self._slot_of = {g: i for i, g in enumerate(self._slot_groups)}
        self.recorder.drop_group(group)

    def stats(self) -> ServiceStats:
        """A snapshot of the ingestion counters and every shard's detector."""
        shards = []
        for i, group in enumerate(self._slot_groups):
            det = self._shard_stats[i]
            shards.append(
                ShardStats(
                    shard=group,
                    events_processed=self._events_processed[i],
                    races=det.get("races", 0),
                    short_circuit_rate=short_circuit_rate_of(det),
                    detector_work=detector_work_of(det),
                    detector=det,
                )
            )
        admit = self.config.admit
        snapshot = ServiceStats(
            events_ingested=self.events_ingested,
            sync_broadcast=self.sync_broadcast,
            data_routed=self.data_routed,
            data_admitted=self.data_admitted,
            data_filtered=self.data_filtered,
            admit=admit.policy if admit is not None else "off",
            admit_prefilter_hits=admit.prefilter_hits if admit is not None else 0,
            admit_prefilter_misses=admit.prefilter_misses if admit is not None else 0,
            batches_flushed=self.batches_flushed,
            races_reported=sum(s.races for s in shards),
            n_shards=len(self._slot_groups),
            queue_bytes=self.queue_bytes,
            edge_allocs=self.edge_allocs,
            spans_sampled=self.tracer.spans_written,
            flightrec_dumps=self.recorder.dumps_written,
            provenance_attached=self.provenance_attached,
            shards=shards,
        )
        snapshot.derive_rates(time.monotonic() - self._started)
        return snapshot

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self.tracer.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
