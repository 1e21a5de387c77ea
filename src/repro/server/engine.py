"""The detection engine behind the streaming service.

The paper keeps one synchronization-event list beside per-variable race
state (Section 5, Figure 8): all inter-thread ordering flows through the
list, while each data variable's ``Info`` records and their locksets are
private to that variable.  A process keeps that layout -- **one**
:class:`EncodedGoldilocks` kernel -- and splits the *variables* into
``n_shards`` groups by ``crc32(var) % n_shards``.

A group is a set of variables, not a detector.  It decides which data
records the engine keeps (a cluster node drops the accesses of groups
hosted elsewhere), which commit-footprint variables the kernel checks
(:meth:`EncodedGoldilocks.set_owner`), what :meth:`ShardedEngine
.retire_group` forgets and what :meth:`ShardedEngine.export_group`
exports.  Every synchronization, allocation and commit record is applied
once per process, however many groups it hosts, and a group's verdicts do
not depend on where it is hosted: an access to ``v`` never mutates what
another variable's checks read.

Every ingestion call -- a run of text lines, a binary wire frame, one
``submit(event)`` -- ends by pushing its records to the kernel in one
array, which the kernel applies at once, much as the paper's runtime
checks each access in the thread that makes it.  Events are translated
once at the edge (:class:`~repro.core.encode.EventEncoder`) into flat
integer records; a push is one frame of ``bytes``, which the kernel appends
verbatim via :meth:`EncodedGoldilocks.apply_packed`.  A run of text is
encoded in one loop (:meth:`ShardedEngine.submit_lines`), with no call per
line.  More cores are served by more ``repro-serve`` nodes behind
``repro-cluster``.

A group is also the unit of checkpoint and migration: its checkpoint holds
no cell of the synchronization list, and the adopting process files the
group's infos at its own tail once it has checked that it stands at the
same point of the same stream.  A plain ``repro-serve`` hosts every group;
a cluster node is the same engine hosting the groups it was handed.

Variable-to-group routing uses CRC32, not ``hash()``: Python string hashes
are salted per process, and a cluster's coordinator and nodes must agree.
The route is computed from the interned ints (cached per variable id),
never by re-deriving strings per event.
"""

from __future__ import annotations

import time
import zlib
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from ..core.kernel import EncodedGoldilocks, load_vars_checkpoint
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


@dataclass
class EngineConfig:
    """Tunables for :class:`ShardedEngine`."""

    #: the partition count: a data variable belongs to group
    #: ``crc32(var) % n_shards``, on one server or across a cluster
    n_shards: int = 1
    #: forwarded to the kernel
    commit_sync: str = "footprint"
    gc_threshold: Optional[int] = 50_000
    #: observability tunables; None means the :class:`ObsConfig` defaults
    #: (stage counters on, span sampling off, the flight recorder ring kept
    #: but not written to files)
    obs: Optional[ObsConfig] = None
    #: the groups hosted from the start; None hosts every one of them (a
    #: plain ``repro-serve``), ``()`` none (a cluster node, handed groups
    #: through :meth:`ShardedEngine.adopt_group`)
    groups: Optional[Tuple[int, ...]] = None
    #: static admission filter (:class:`repro.analysis.admission.AdmissionFilter`)
    #: consulted at the ingestion edge: data accesses it proves race-free are
    #: dropped before they reach the kernel.  Sync events always
    #: pass.  ``None`` admits everything.
    admit: Optional[object] = None

    def detector_kwargs(self) -> dict:
        kwargs = {"commit_sync": self.commit_sync, "gc_threshold": self.gc_threshold}
        if self.obs is not None and self.obs.provenance:
            kwargs["provenance"] = True
        return kwargs


class WireIngest:
    """Per-connection state for ingesting binary wire frames.

    A client's frames carry *its own* interner ids.  Each newly announced
    element is interned once into the engine's master interner and the id
    translation is remembered, so records are rewritten int-for-int -- no
    ``Event`` objects -- and the engine assigns every record's ``seq``.

    A coordinator's connection (``keep_ids``, set by ``!cluster``) shares
    the cluster's id space instead: its deltas must land on exactly the
    ids it assigned, and its records keep their ``seq``.
    """

    __slots__ = ("remap", "keep_ids")

    def __init__(self, keep_ids: bool = False) -> None:
        self.remap: List[int] = [0]  # client id 0 is TL on both sides
        self.keep_ids = keep_ids


class ShardedEngine:
    """Routes an event stream into one kernel for the hosted groups.

    The engine is *not* thread-safe by itself -- the service serializes
    access with one ingestion lock.  Each ingestion call applies its
    records before it returns.  Reports are tagged with ingestion sequence
    numbers; :meth:`poll_reports` and :meth:`barrier` drain them.
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
        self._started = time.monotonic()
        self._reports: List[SeqReport] = []
        self._encoder = EventEncoder(n, admit=self.config.admit)
        #: the hosted groups, in the order they were adopted
        self._groups: Dict[int, None] = {}
        self._kernel = self._new_kernel()
        #: the records (and commit footprints) an ingestion call pushes at its end
        self._records = array("q")
        self._extras = array("q")
        # ingestion counters surfaced in ServiceStats
        self.events_ingested = 0
        self.sync_broadcast = 0
        self.data_routed = 0
        #: data accesses past the admission filter / dropped by it at the edge
        self.data_admitted = 0
        self.data_filtered = 0
        #: data records of groups hosted elsewhere (a cluster node)
        self.foreign_dropped = 0
        self.batches_flushed = 0
        #: frame bytes shipped to the kernel
        self.queue_bytes = 0
        #: records the kernel has applied
        self._applied = 0
        #: faults of records the kernel refused, as :func:`fault_record`
        #: dicts; drained by the service into its fault ring
        self.apply_errors: List[dict] = []
        #: reports that arrived carrying a provenance chain
        self.provenance_attached = 0
        #: trace context adopted from the most recent traced wire frame
        #: (a coordinator-minted id); None until one arrives, in which
        #: case locally pushed batches mint their own ids when tracing
        self._trace_ctx: Optional[int] = None
        # -- observability: the race flight recorder, then the lifecycle
        # tracer.  The recorder keeps the pushed records verbatim in one
        # ring and never writes files unless a dump directory is
        # configured; the tracer degrades to no-ops when fully disabled.
        self.obs_config = self.config.obs or ObsConfig()
        self.recorder = FlightRecorder(
            n,
            self._encoder.interner,
            capacity=self.obs_config.flightrec_capacity,
            directory=self.obs_config.flightrec_dir,
            max_dumps=self.obs_config.flightrec_max_dumps,
            commit_sync=self.config.commit_sync,
            var_group=self._encoder.var_shard,
        )
        # hosted before the tracer opens its span log: a bad blob leaks nothing
        blobs = checkpoints if checkpoints is not None else [None] * len(groups)
        for group, blob in zip(groups, blobs):
            self.adopt_group(group, blob)
        self.tracer = LifecycleTracer(self.obs_config)

    def _new_kernel(self) -> EncodedGoldilocks:
        kernel = EncodedGoldilocks(**self.config.detector_kwargs())
        # The edge interns every id a record names before the record is
        # buffered, so the kernel reads the encoder's table, not a replica.
        kernel.interner = self._encoder.interner
        kernel.set_owner(self._owner())
        return kernel

    # -- ingestion -------------------------------------------------------------

    @property
    def edge_allocs(self) -> int:
        """Per-event allocation proxy: one per newly seen element."""
        return self._encoder.cache_misses

    def submit(self, event: Event) -> int:
        """Ingest and apply one event; returns its ingestion sequence number.

        A data access is kept if its group is hosted here; everything else
        (synchronization, commits, allocations) always is.
        """
        op, tid_id, index, a, b, extras = self._encoder.encode_event(event)
        seq = self._ingest_record(op, tid_id, index, a, b, extras, None)
        self.flush()
        return seq

    def submit_lines(self, lines: Sequence[str]) -> Tuple[int, Optional[ValueError]]:
        """Ingest and apply a run of text lines, up to the first refused.

        The lines are encoded straight into one record array
        (:meth:`EventEncoder.encode_lines`), pushed once at the end.  A
        node hosting only some groups drops the accesses of the others
        inside the encoder's loop.  Returns ``(taken, error)``: ``error``
        is None when every line was taken, else the refusal, and
        ``lines[taken]`` is the refused line, which takes no ``seq``.
        """
        hosted = None if len(self._groups) == self.config.n_shards else self._groups
        taken, data, filtered, foreign, error = self._encoder.encode_lines(
            lines, self._records, self._extras, self._seq, hosted
        )
        self._seq += taken
        self.events_ingested += taken
        self.sync_broadcast += taken - data - filtered
        self.data_routed += data
        self.data_admitted += data
        self.data_filtered += filtered
        self.foreign_dropped += foreign
        self.flush()
        return taken, error

    def submit_line(self, line: str) -> int:
        """Ingest one trace text line (:meth:`submit_lines` on a run of
        one); returns its ``seq``.  A refused line raises, taking none."""
        seq = self._seq
        _taken, error = self.submit_lines((line,))
        if error is not None:
            raise error
        return seq

    def _ingest_record(
        self,
        op: int,
        tid_id: int,
        index: int,
        a: int,
        b: int,
        extras: Optional[List[int]],
        seq: Optional[int],
    ) -> int:
        if seq is None:
            seq = self._seq
        self._seq = seq + 1
        self.events_ingested += 1
        if op == OP_READ or op == OP_WRITE:
            if a < 0:
                # admission-filtered access: consumes its sequence number
                # (race-line parity with unfiltered runs) but ships nowhere
                self.data_filtered += 1
                return seq
            self.data_routed += 1
            self.data_admitted += 1
            if self._encoder.var_shard[a] not in self._groups:
                # the owning group is hosted on some other node
                self.foreign_dropped += 1
                return seq
        else:
            self.sync_broadcast += 1
        if extras is not None:
            a = len(self._extras)
            self._extras.extend(extras)
        self._records.extend((op, seq, tid_id, index, a, b))
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
        footprint must lie inside the extras array.  The frame's records
        are pushed in one array at the end; a bad record raises
        :class:`FrameFormatError` with the records before it ingested and
        applied (``applied``) and none after it.
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

        try:
            for i in range(0, len(records), RECORD_WIDTH):
                op, seq, tid_id, index, a, b = records[i : i + RECORD_WIDTH]
                if remap is not None:
                    seq = None  # the engine assigns it
                    tid_id = remap[tid_id] if 0 <= tid_id < n_ids else -1
                if tid_id not in thread_ids:
                    raise bad_id(records[i + 2], "a Tid", op, i)
                local_extras: Optional[List[int]] = None
                if op == OP_READ or op == OP_WRITE:
                    # a filtered access stays filtered; real ids are remapped
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
                        own_id = records[i + 4 + own]
                        raise bad_id(own_id, "the record's own Tid", op, i)
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
                        # A filtered footprint entry travels as
                        # FILTERED_VAR; remapping it would silently alias the
                        # *last* announced element (remap[-1]) -- preserve
                        # the sentinel instead.
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
                self._ingest_record(op, tid_id, index, a, b, local_extras, seq)
                count += 1
        finally:
            # the records ahead of a refused one are applied, too
            self.flush()
        return count

    def flush(self) -> None:
        """Push the buffered records, if any: every ingestion call ends here."""
        if self._records:
            self._push()

    def _make_span(
        self, ordinal: int, n_events: int, route_sec: float
    ) -> Optional[dict]:
        """A sampled batch's span seed, trace-tagged when tracing is on.

        The trace id is the adopted wire context when one exists (cluster
        node: every node stamps the coordinator's id, so the spans stitch),
        otherwise minted locally from (node label, batch ordinal).  The
        trace fields ride the span dict and are popped back out in
        :meth:`_push` before the rest becomes ``stage_sec``.
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

    def _push(self) -> None:
        """Frame the pending buffer and apply it to the kernel right away."""
        self.batches_flushed += 1
        tracer = self.tracer
        t_route = tracer.clock()
        records, extras = self._records, self._extras
        self._records, self._extras = array("q"), array("q")
        n_events = len(records) // RECORD_WIDTH
        # The kernel shares the encoder's interner: the frame announces no
        # element, it only carries the records across the kernel's edge.
        frame = encode_frame(len(self._encoder.interner), (), records, extras)
        self.queue_bytes += len(frame)
        # The arrays would be garbage after this point; the flight
        # recorder adopts them instead (no copy).
        self.recorder.record(records, extras)
        route_sec = tracer.clock() - t_route
        tracer.observe_elapsed("route", route_sec)
        span = self._make_span(self.batches_flushed, n_events, route_sec)
        sent_at = tracer.clock()
        try:
            reports, n = self._kernel.apply_packed(frame)
        except FrameFormatError as exc:
            reports, n = self._apply_past_faults(exc, records, extras)
        apply_sec = tracer.clock() - sent_at
        self._applied += n
        if reports:
            self._reports.extend(reports)
            self.provenance_attached += sum(
                1 for _seq, r in reports if r.provenance is not None
            )
            self._dump_on_race(reports)
        # close the queue (push to ack) and apply stages of the batch
        queue_sec = tracer.clock() - sent_at
        tracer.observe_elapsed("queue", queue_sec)
        tracer.observe_elapsed("apply", apply_sec)
        if span is not None:
            trace_id = span.pop("trace_id", None)
            node = span.pop("node", None)
            span["queue"] = queue_sec
            span["apply"] = apply_sec
            batch, events = span.pop("batch"), span.pop("events")
            tracer.emit_span(batch, 0, events, span, trace_id=trace_id, node=node)

    def _apply_past_faults(
        self, exc: FrameFormatError, records: array, extras: array
    ) -> Tuple[List[SeqReport], int]:
        """Finish a batch with a record the kernel refused; ``(reports, applied)``.

        The races of the records before the refused one are kept, the
        refused record becomes one fault in :attr:`apply_errors`, and the
        records after it are applied as usual -- they may come from other
        frames or other clients sharing the buffer, and a race they
        complete must not be lost.
        """
        total = len(records) // RECORD_WIDTH
        reports: List[SeqReport] = []
        applied = done = 0
        while True:
            reports.extend(exc.reports)
            applied += exc.applied or 0
            if exc.record is None:  # the frame did not decode: nothing applies
                self.apply_errors.append(
                    fault_record(
                        f"<batch of {total} records refused by the kernel: {exc}>",
                        exc,
                        shard=0,
                    )
                )
                return reports, applied
            done += exc.record
            self.apply_errors.append(
                fault_record(
                    f"<record {done} of a {total}-record batch refused by "
                    f"the kernel: {exc}>",
                    exc,
                    shard=0,
                )
            )
            done += 1
            if done == total:
                return reports, applied
            try:
                more, n = self._kernel.apply_records(
                    records[done * RECORD_WIDTH :], extras
                )
            except FrameFormatError as again:
                exc = again
                continue
            reports.extend(more)
            return reports, applied + n

    # -- results ---------------------------------------------------------------

    def _dump_on_race(self, reports: List[SeqReport]) -> None:
        """Dump the flight ring the moment a batch reports races: one dump
        per group that raced, holding that group's lines and window."""
        if self.recorder.directory is None:
            return
        n = self.config.n_shards
        stats = self._kernel.stats.as_dict()
        for group in sorted({shard_of(report.var, n) for _seq, report in reports}):
            raced = [(seq, r) for seq, r in reports if shard_of(r.var, n) == group]
            provenance = [report.provenance for _seq, report in raced]
            self.recorder.dump(
                group,
                [format_race(seq, report) for seq, report in raced],
                "race",
                stats=stats,
                provenance=provenance if any(p is not None for p in provenance) else None,
            )

    def poll_reports(self) -> List[SeqReport]:
        """The reports of every batch pushed so far (seq-tagged)."""
        out, self._reports = self._reports, []
        return out

    def barrier(self) -> List[SeqReport]:
        """Flush, then return every report since the last drain.

        Reports are sorted by the sequence number of the access that
        completed the race, and the reports of one access (a commit whose
        footprint races in several groups) by group, as a cluster orders
        them whichever node reported them.
        """
        self.flush()
        out, self._reports = self._reports, []
        n = self.config.n_shards
        out.sort(key=lambda pair: (pair[0], shard_of(pair[1].var, n)))
        return out

    # -- control ---------------------------------------------------------------

    def reset(self) -> None:
        """Restart detection from an empty execution (counters survive).

        Pending batches are pushed first; their reports wait for the next
        :meth:`poll_reports`.  The hosted groups stay hosted, and sequence
        numbers keep counting: the execution restarts, the stream does not.
        """
        self.flush()
        stats, misses = self._kernel.stats, self._encoder.cache_misses
        self._encoder = EventEncoder(self.config.n_shards, admit=self.config.admit)
        self._encoder.cache_misses = misses
        self._kernel = self._new_kernel()
        self._kernel.stats = stats
        self.recorder.rebind(self._encoder.interner, self._encoder.var_shard)

    def repartition(self, n_shards: int) -> None:
        """Restart detection over ``n_shards`` groups, hosting none of them.

        This is how a plain ``repro-serve`` is drafted as a cluster node
        (``!cluster``); its groups then arrive through :meth:`adopt_group`.
        As across :meth:`reset`, every counter survives -- the kernel's,
        the edge's, the tracer's, the flight recorder's dump count -- and
        so do the settings, a runtime-installed admission filter included.
        """
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.flush()
        for group in self._groups:
            self.recorder.drop_group(group)
        self._groups.clear()
        self.config = replace(self.config, n_shards=n_shards, groups=())
        self.recorder.n_shards = n_shards
        self._trace_ctx = None
        self.reset()

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
        """:meth:`export_group` of every hosted group, in the order they
        were adopted (flushes first; the reports wait for the next
        :meth:`poll_reports`)."""
        return [self.export_group(group) for group in self._groups]

    # -- group hosting: what a cluster adds and moves ------------------------

    def hosted_groups(self) -> List[int]:
        """The global group ids this engine currently detects for."""
        return sorted(self._groups)

    def interner_version(self) -> int:
        """This engine's replica version (master interner length)."""
        return len(self._encoder.interner)

    def _in_group(self, group: int) -> Callable[[DataVar], bool]:
        n = self.config.n_shards
        return lambda var: shard_of(var, n) == group

    def _owner(self) -> Optional[Callable[[DataVar], bool]]:
        """Which variables the kernel checks: None while it hosts them all."""
        n, groups = self.config.n_shards, self._groups
        if len(groups) == n:
            return None
        return lambda var: shard_of(var, n) in groups

    def export_group(self, group: int) -> bytes:
        """Checkpoint one hosted group's variables (flushes first; the
        reports wait for the next :meth:`poll_reports`)."""
        if group not in self._groups:
            raise ValueError(f"group {group} is not hosted here")
        self.flush()
        return self._kernel.export_vars(self._in_group(group), (group, self.config.n_shards))

    def adopt_group(self, group: int, blob: Optional[bytes] = None) -> None:
        """Start hosting a group, fresh or from an :meth:`export_group` blob.

        The blob must be of this group of as many groups: one of another
        group, or of another group count, holds other variables, and its
        own would go unchecked.  The blob's interner and the edge encoder's
        are prefixes of one id space (the coordinator's master, or the
        engine the blob came from), so the encoder is extended to the longer
        of the two.  The kernel then files the group's infos
        (:meth:`EncodedGoldilocks.adopt_vars`); a blob refused raises
        :class:`ValueError` and nothing is hosted.
        """
        n = self.config.n_shards
        if not 0 <= group < n:
            raise ValueError(f"group {group} out of range [0, {n})")
        if group in self._groups:
            raise ValueError(f"group {group} is already hosted")
        self.flush()
        if blob is not None:
            state = load_vars_checkpoint(blob)
            if state["partition"] != (group, n):
                blob_group, blob_n = state["partition"]
                raise ValueError(
                    f"checkpoint is of partition {blob_group}/{blob_n}, not {group}/{n}"
                )
            # restored elements are not new edge allocations
            misses = self._encoder.cache_misses
            self._encoder.extend(1, state["interner"].elements_since(1))
            self._encoder.cache_misses = misses
            self._kernel.adopt_vars(state, self._in_group(group))
        self._groups[group] = None
        self._kernel.set_owner(self._owner())
        self.recorder.host(group)

    def retire_group(self, group: int) -> None:
        """Stop hosting a group (flushes first; the reports wait for the
        next :meth:`poll_reports`).

        The migration driver calls this on the source the moment the
        checkpoint is exported: commits reach every node, so a lingering
        copy of the group would double-report every footprint race after
        the hand-off.
        """
        if group not in self._groups:
            raise ValueError(f"group {group} is not hosted here")
        self.flush()
        del self._groups[group]
        self._kernel.drop_vars(self._in_group(group))
        self._kernel.set_owner(self._owner())
        self.recorder.drop_group(group)

    def stats(self) -> ServiceStats:
        """A snapshot of the ingestion counters and the kernel's."""
        det = self._kernel.stats.as_dict()
        kernel = ShardStats(
            shard=0,
            events_processed=self._applied,
            races=det["races"],
            short_circuit_rate=short_circuit_rate_of(det),
            detector_work=detector_work_of(det),
            detector=det,
        )
        admit = self.config.admit
        snapshot = ServiceStats(
            events_ingested=self.events_ingested,
            sync_broadcast=self.sync_broadcast,
            data_routed=self.data_routed,
            data_admitted=self.data_admitted,
            data_filtered=self.data_filtered,
            admit=admit.policy if admit is not None else "off",
            batches_flushed=self.batches_flushed,
            races_reported=det["races"],
            n_shards=len(self._groups),
            queue_bytes=self.queue_bytes,
            edge_allocs=self.edge_allocs,
            spans_sampled=self.tracer.spans_written,
            flightrec_dumps=self.recorder.dumps_written,
            provenance_attached=self.provenance_attached,
            synclist_live=len(self._kernel.events),
            shards=[kernel],
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
