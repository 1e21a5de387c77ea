"""The cluster coordinator: one ingestion edge over many detection nodes.

The coordinator is to nodes exactly what :class:`~repro.server.engine.
ShardedEngine` is to local shards, one ring out: it keeps the single
master :class:`~repro.core.encode.EventEncoder` (the cluster's id space
and sequence numbers), routes packed records -- sync broadcast to every
node, data accesses to the node owning the variable's *group* -- and ships
them as ``!binary`` wire frames with per-node interner-delta cursors: each
frame's delta carries exactly the ids its node has not seen, so every
node's interner stays a prefix of the master and no other id sync exists.

Routing is two-layered: variable -> group via crc32 (identical to the
single-node shard mapping, so cluster verdicts are byte-compatible with a
``--shards n_groups`` run), then group -> node via the consistent-hash
:class:`~repro.cluster.ring.HashRing` with a :class:`~repro.cluster.ring.
Placement` override map on top.

**Live migration** moves a group from node A to node B without stopping
ingestion: drain A, ``!checkpoint`` the group, ``!retire`` it immediately
(commits are broadcast -- a lingering copy would double-report footprint
races), buffer the window's records in a log, then ``!adopt`` the blob on
B, ``!replay`` the log *targeted at exactly that group* (its sync tail
was already broadcast to B's other groups), and pin the placement.  Race
lines keep their coordinator-assigned ``seq``, so a migrated run's output
is line-identical to an unmigrated one.

The coordinator is single-threaded by design (one ingestion loop, like
the service's ingestion lock); heartbeats ride the same control channels
between batches.
"""

from __future__ import annotations

import base64
import socket
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.actions import (
    OP_READ,
    OP_WRITE,
    Event,
)
from ..core.encode import (
    EventEncoder,
    encode_frame,
    format_trace_id,
    make_trace_id,
    stamp_trace,
)
from ..obs.bridge import federate_expositions, registry_from_cluster
from ..obs.registry import parse_exposition
from ..obs.slo import SloWatchdog
from ..obs.tracing import LifecycleTracer, ObsConfig
from ..server.protocol import (
    FRAME_CONTROL,
    FRAME_EVENTS,
    pack_frame,
    parse_response,
    parse_summary,
)
from .membership import Membership
from .ring import DEFAULT_VNODES, HashRing, Placement


@dataclass
class ClusterConfig:
    """Tunables for :class:`ClusterCoordinator`."""

    #: node name -> (host, port) of a running ``repro-serve`` instance
    nodes: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: global shard-group count (the crc32 partition modulus; verdicts are
    #: byte-compatible with a single-node ``--shards n_groups`` run)
    n_groups: int = 4
    #: records buffered per node before a frame is shipped
    batch_size: int = 256
    #: virtual points per node on the consistent-hash ring
    vnodes: int = DEFAULT_VNODES
    #: heartbeat sweep interval (seconds) and tolerated consecutive misses
    heartbeat_interval: float = 2.0
    max_missed: int = 3
    #: socket timeout for node connections
    timeout: float = 30.0
    #: pin groups round-robin over the sorted node names instead of taking
    #: the raw ring placement.  The ring stays the source of truth for
    #: membership dynamics; balancing is an explicit operator choice (the
    #: scaling benchmark uses it so the critical path is the fair share)
    balanced: bool = False
    #: observability tunables (span log receives migration trace spans)
    obs: Optional[ObsConfig] = None
    #: static admission filter (:class:`repro.analysis.admission.
    #: AdmissionFilter`): data accesses it proves race-free are dropped at
    #: the coordinator (still consuming their cluster-wide seq) and the
    #: filter is forwarded to every node via ``!admit`` at connect time.
    admit: Optional[object] = None


class _NodeBuffer:
    """Pending records for one node (or one migration log)."""

    __slots__ = ("records", "extras", "count")

    def __init__(self) -> None:
        self.records = array("q")
        self.extras = array("q")
        self.count = 0

    def append(
        self, op: int, seq: int, tid_id: int, index: int, a: int, b: int,
        extras: Optional[List[int]],
    ) -> None:
        if extras is not None:
            a = len(self.extras)
            self.extras.extend(extras)
        self.records.extend((op, seq, tid_id, index, a, b))
        self.count += 1


class NodeHandle:
    """One coordinator-held connection to a node.

    Owns the node's wire state: the socket, the interner-delta ``cursor``
    into the coordinator's master (the node's replica version after its
    next frame), the pending record buffer, and the race lines the node
    has streamed back (kept as raw text -- the node already rendered them
    in the canonical ``format_race`` form with the final ``seq``).
    """

    def __init__(self, name: str, host: str, port: int, timeout: float = 30.0):
        self.name = name
        self.host = host
        self.port = port
        self.timeout = timeout
        self.cursor = 1  # node replicas start with just TL, like shards
        self.buffer = _NodeBuffer()
        self.races: List[Tuple[int, str]] = []  # (seq, raw race line)
        self.events_sent = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self._sock: Optional[socket.socket] = None
        self._reader = None

    # -- wire ------------------------------------------------------------------

    def connect(self, n_groups: int) -> None:
        """Dial the node, re-partition it (``!cluster``), go binary.

        ``!cluster`` also marks this connection as the coordinator's: the
        node keeps the ids and ``seq`` of every frame it sends.
        """
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._reader = self._sock.makefile("r", encoding="utf-8", newline="\n")
        self._text_command(f"!cluster {n_groups}")
        self._text_command("!binary")

    def _text_command(self, line: str) -> str:
        self._sock.sendall((line + "\n").encode("utf-8"))
        return self._read_reply("ok")

    def _read_reply(self, reply_kind: str) -> str:
        while True:
            line = self._reader.readline()
            if not line:
                raise ConnectionError(f"node {self.name} closed the connection")
            text = line.strip()
            kind, payload = parse_response(text)
            if kind == "race":
                seq = int(text.rpartition("seq=")[2])
                self.races.append((seq, text))
            elif kind == reply_kind:
                return payload
            elif kind == "error":
                raise RuntimeError(f"node {self.name}: {payload}")
            # anything else: skip forward-compatibly

    def command(self, line: str, reply_kind: str = "ok") -> str:
        """One control verb as a binary frame; returns the reply payload."""
        self._sock.sendall(pack_frame(FRAME_CONTROL, line.encode("utf-8")))
        return self._read_reply(reply_kind)

    def send_events(self, payload: bytes, count: int) -> None:
        frame = pack_frame(FRAME_EVENTS, payload)
        self._sock.sendall(frame)
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        self.events_sent += count

    def ping(self) -> bool:
        return self.command("!ping") == "pong"

    def metrics(self) -> str:
        """One ``!metrics`` round trip; returns the node's raw exposition.

        The ``ok metrics lines=<n>`` summary announces the block length,
        so the exposition is read without sniffing for a terminator.  Any
        race lines queued ahead of the summary are banked by
        :meth:`_read_reply` as usual; after the summary the ``n`` lines
        are contiguous (the node connection is single-threaded).
        """
        reply = self.command("!metrics")  # "metrics lines=<n>"
        n = int(reply.rpartition("lines=")[2])
        lines: List[str] = []
        while len(lines) < n:
            line = self._reader.readline()
            if not line:
                raise ConnectionError(
                    f"node {self.name} closed mid-metrics "
                    f"({len(lines)}/{n} lines)"
                )
            lines.append(line.rstrip("\n"))
        return "\n".join(lines) + "\n" if lines else ""

    def close(self) -> None:
        for closer in (self._reader, self._sock):
            if closer is None:
                continue
            try:
                closer.close()
            except OSError:
                pass
        self._reader = self._sock = None


@dataclass
class _Migration:
    """An in-flight group hand-off: src drained, window records logged."""

    group: int
    src: str
    dst: str
    blob_b64: str
    log: _NodeBuffer
    started: float
    checkpoint_sec: float


@dataclass
class ClusterStats:
    """One coordinator snapshot, JSON-able for the CLI and the obs bridge."""

    n_groups: int
    events_ingested: int
    sync_broadcast: int
    data_routed: int
    races_reported: int
    interner_version: int
    migrations_completed: int
    migrations_active: int
    assignment: Dict[str, List[int]]
    nodes: List[Dict[str, object]]
    membership: Dict[str, object]
    #: data accesses the coordinator dropped as statically race-free
    data_filtered: int = 0
    #: admission policy in force ("off" when no filter is installed)
    admit: str = "off"

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_groups": self.n_groups,
            "events_ingested": self.events_ingested,
            "sync_broadcast": self.sync_broadcast,
            "data_routed": self.data_routed,
            "data_filtered": self.data_filtered,
            "admit": self.admit,
            "races_reported": self.races_reported,
            "interner_version": self.interner_version,
            "migrations_completed": self.migrations_completed,
            "migrations_active": self.migrations_active,
            "assignment": self.assignment,
            "nodes": self.nodes,
            "membership": self.membership,
        }


class ClusterCoordinator:
    """Routes one event stream across ``repro-serve`` nodes; merges races."""

    def __init__(self, config: ClusterConfig) -> None:
        if not config.nodes:
            raise ValueError("a cluster needs at least one node")
        if config.n_groups < 1:
            raise ValueError("need at least one shard group")
        self.config = config
        self.ring = HashRing(sorted(config.nodes), vnodes=config.vnodes)
        self.placement = Placement(self.ring, config.n_groups)
        self.membership = Membership(
            interval=config.heartbeat_interval, max_missed=config.max_missed
        )
        self.encoder = EventEncoder(config.n_groups, admit=config.admit)
        self.tracer = LifecycleTracer(config.obs or ObsConfig())
        #: trace-context propagation: when on, every shipped frame is
        #: wrapped in a trace envelope.  Ids are minted per ingest
        #: *window* (one per batch_size events), so frames flushed to
        #: different nodes inside a window share an id and their spans
        #: stitch into one cross-node lifecycle.
        self._trace_on = self.tracer.config.trace
        self._trace_node = self.tracer.config.node or "coordinator"
        #: federation: the coordinator polls member ``!metrics`` from its
        #: single ingestion thread and caches the merged exposition; the
        #: HTTP endpoint (see :meth:`metrics_adapter`) serves the cache so
        #: scrapes never touch a node socket concurrently with ingestion.
        self.slo = SloWatchdog()
        self._federated_text = ""
        self._federated_health: Dict[str, object] = {"status": "ok"}
        self._handles: Dict[str, NodeHandle] = {}
        self._migrations: Dict[int, _Migration] = {}
        self._seq = 0
        self.events_ingested = 0
        self.sync_broadcast = 0
        self.data_routed = 0
        self.data_filtered = 0
        self.migrations_completed = 0
        #: every race line drained so far, sorted at each barrier
        self.race_lines: List[str] = []
        admit_line = None
        if config.admit is not None:
            blob = base64.b64encode(config.admit.to_json().encode("utf-8"))
            admit_line = "!admit " + blob.decode("ascii")
        for name in sorted(config.nodes):
            host, port = config.nodes[name]
            handle = NodeHandle(name, host, port, timeout=config.timeout)
            handle.connect(config.n_groups)
            if admit_line is not None:
                # forward the filter so nodes defend in depth and report
                # the policy in their own stats/metrics
                handle.command(admit_line)
            self._handles[name] = handle
            self.membership.record_success(name)
        if config.balanced:
            names = sorted(config.nodes)
            for group in range(config.n_groups):
                self.placement.pin(group, names[group % len(names)])
        # Initial placement: every group adopted fresh on its placed node.
        for group, node in sorted(self.placement.assignment_by_group().items()):
            self._handles[node].command(f"!adopt {group}")

    # -- ingestion -------------------------------------------------------------

    def submit_event(self, event: Event) -> int:
        op, tid_id, index, a, b, extras = self.encoder.encode_event(event)
        return self._ingest(op, tid_id, index, a, b, extras)

    def submit_line(self, line: str) -> int:
        op, tid_id, index, a, b, extras = self.encoder.encode_line(line)
        return self._ingest(op, tid_id, index, a, b, extras)

    def _ingest(
        self, op: int, tid_id: int, index: int, a: int, b: int,
        extras: Optional[List[int]],
    ) -> int:
        seq = self._seq
        self._seq = seq + 1
        self.events_ingested += 1
        if op == OP_READ or op == OP_WRITE:
            if a < 0:
                # admission-filtered access: consumes its cluster-wide seq
                # (race-line parity with single-node runs) but ships nowhere
                self.data_filtered += 1
                return seq
            self.data_routed += 1
            group = self.encoder.shard_of_var(a)
            migration = self._migrations.get(group)
            if migration is not None:
                # The group is between homes: hold its accesses in the
                # migration log instead of sending them anywhere.
                migration.log.append(op, seq, tid_id, index, a, b, extras)
                return seq
            handle = self._handles[self.placement.node_of(group)]
            handle.buffer.append(op, seq, tid_id, index, a, b, extras)
            if handle.buffer.count >= self.config.batch_size:
                self._flush_node(handle)
            return seq
        # sync/alloc/commit: broadcast to every node, and into every active
        # migration log (the adopted group must see the window's sync tail
        # in order, and commits carry its data-role checks).
        self.sync_broadcast += 1
        for handle in self._handles.values():
            handle.buffer.append(op, seq, tid_id, index, a, b, extras)
            if handle.buffer.count >= self.config.batch_size:
                self._flush_node(handle)
        for migration in self._migrations.values():
            migration.log.append(op, seq, tid_id, index, a, b, extras)
        return seq

    def _flush_node(
        self, handle: NodeHandle, trace_id: Optional[int] = None
    ) -> None:
        if not handle.buffer.count:
            return
        buffer, handle.buffer = handle.buffer, _NodeBuffer()
        payload = encode_frame(
            handle.cursor,
            self.encoder.interner.elements_since(handle.cursor),
            buffer.records,
            buffer.extras,
        )
        handle.cursor = len(self.encoder.interner)
        if self._trace_on:
            if trace_id is None:
                trace_id = self._window_trace_id()
            payload = stamp_trace(trace_id, payload)
        handle.send_events(payload, buffer.count)

    def _window_trace_id(self) -> int:
        """The current ingest window's trace id (deterministic, no RNG)."""
        window = max(0, self.events_ingested - 1) // self.config.batch_size
        return make_trace_id(self._trace_node, window)

    def flush(self) -> None:
        """Push every node's pending buffer (no drain)."""
        for handle in self._handles.values():
            self._flush_node(handle)

    def barrier(self) -> List[str]:
        """Flush and fully drain every node; returns the new race lines.

        Lines are merged across nodes and sorted by ``(seq, text)`` -- the
        deterministic order the parity gate compares against a single-node
        run (which sorts by seq; the textual tiebreak only disambiguates
        same-seq races that raced each other across shard acks).
        """
        self.flush()
        drained: List[Tuple[int, str]] = []
        for handle in self._handles.values():
            handle.command("!flush")
            drained.extend(handle.races)
            handle.races = []
        drained.sort()
        lines = [text for _seq, text in drained]
        self.race_lines.extend(lines)
        return lines

    # -- live migration ----------------------------------------------------------

    def begin_migration(self, group: int, dst: str) -> None:
        """Checkpoint ``group`` off its current node; start logging its window.

        After this returns the group is hosted *nowhere*: its data accesses
        (and every sync record) accumulate in the migration log until
        :meth:`complete_migration` replays them on ``dst``.  The source
        retires the group in the same breath as the checkpoint -- commits
        are broadcast, so a lingering copy would double-report every
        footprint race in the window.
        """
        if dst not in self._handles:
            raise ValueError(f"unknown migration target {dst!r}")
        if group in self._migrations:
            raise ValueError(f"group {group} is already migrating")
        src = self.placement.node_of(group)
        if src == dst:
            raise ValueError(f"group {group} already lives on {dst!r}")
        source = self._handles[src]
        t0 = time.monotonic()
        self._flush_node(source)
        source.command("!flush")
        blob_b64 = self._expect_checkpoint(source, group)
        source.command(f"!retire {group}")
        self._migrations[group] = _Migration(
            group=group,
            src=src,
            dst=dst,
            blob_b64=blob_b64,
            log=_NodeBuffer(),
            started=t0,
            checkpoint_sec=time.monotonic() - t0,
        )

    def _expect_checkpoint(self, handle: NodeHandle, group: int) -> str:
        payload = handle.command(f"!checkpoint {group}", reply_kind="checkpoint")
        word, _, blob_b64 = payload.partition(" ")
        if int(word) != group or not blob_b64:
            raise RuntimeError(f"malformed checkpoint reply: {payload!r}")
        return blob_b64

    def complete_migration(self, group: int) -> None:
        """Restore the group on its target and replay the buffered window."""
        migration = self._migrations.get(group)
        if migration is None:
            raise ValueError(f"group {group} is not migrating")
        target = self._handles[migration.dst]
        t0 = time.monotonic()
        # The whole hand-off -- pending flush, delta replay, and the
        # migration span below -- shares one minted trace id, so the
        # timeline view shows the replayed window under the migration.
        mig_trace: Optional[int] = None
        if self._trace_on:
            mig_trace = make_trace_id(
                self._trace_node + ":migration", self.migrations_completed + 1
            )
        # Ship the target's *pending* buffer first: any window sync queued
        # there must arrive while the group is still absent (broadcast skips
        # it), because the replay below delivers that same sync to the group
        # -- adopt-before-flush would double-apply it.
        self._flush_node(target, trace_id=mig_trace)
        target.command(f"!adopt {group} {migration.blob_b64}")
        target.command(f"!replay {group}")
        log = migration.log
        if log.count:
            payload = encode_frame(
                target.cursor,
                self.encoder.interner.elements_since(target.cursor),
                log.records,
                log.extras,
            )
            target.cursor = len(self.encoder.interner)
            if mig_trace is not None:
                payload = stamp_trace(mig_trace, payload)
            target.send_events(payload, log.count)
        target.command("!replay done")
        self.placement.pin(group, migration.dst)
        del self._migrations[group]
        self.migrations_completed += 1
        # Migration trace span: rides the same JSONL span log as batch
        # spans, keyed by the group in the shard column.
        self.tracer.emit_span(
            batch=self.migrations_completed,
            shard=group,
            events=log.count,
            stage_sec={
                "checkpoint": migration.checkpoint_sec,
                "window": t0 - migration.started - migration.checkpoint_sec,
                "replay": time.monotonic() - t0,
            },
            trace_id=(
                format_trace_id(mig_trace) if mig_trace is not None else None
            ),
            node=self._trace_node if self._trace_on else None,
        )

    def migrate(self, group: int, dst: str) -> None:
        """A zero-window migration (begin + complete back to back)."""
        self.begin_migration(group, dst)
        self.complete_migration(group)

    # -- membership / liveness ---------------------------------------------------

    def heartbeat(self, force: bool = False) -> Dict[str, bool]:
        """One ``!ping`` sweep over every node (when due); name -> alive."""
        if not force and not self.membership.due():
            return {}
        return self.membership.sweep(
            lambda name: self._handles[name].ping()
        )

    # -- stats -------------------------------------------------------------------

    def stats(self) -> ClusterStats:
        assignment = self.placement.assignment()
        races = len(self.race_lines) + sum(
            len(h.races) for h in self._handles.values()
        )
        nodes = []
        for name in sorted(self._handles):
            handle = self._handles[name]
            state = self.membership.node(name)
            nodes.append(
                {
                    "name": name,
                    "groups": assignment.get(name, []),
                    "events_sent": handle.events_sent,
                    "frames_sent": handle.frames_sent,
                    "bytes_sent": handle.bytes_sent,
                    "interner_cursor": handle.cursor,
                    "status": state.status,
                    "missed": state.missed,
                }
            )
        return ClusterStats(
            n_groups=self.config.n_groups,
            events_ingested=self.events_ingested,
            sync_broadcast=self.sync_broadcast,
            data_routed=self.data_routed,
            data_filtered=self.data_filtered,
            admit=(
                self.config.admit.policy
                if self.config.admit is not None
                else "off"
            ),
            races_reported=races,
            interner_version=len(self.encoder.interner),
            migrations_completed=self.migrations_completed,
            migrations_active=len(self._migrations),
            assignment=assignment,
            nodes=nodes,
            membership=self.membership.as_dict(),
        )

    # -- federated metrics plane -------------------------------------------------

    def refresh_federation(self) -> str:
        """Poll member ``!metrics``, merge, evaluate cluster SLOs, cache.

        Called from the (single-threaded) ingestion loop between batches;
        the HTTP endpoint and ``--metrics-out`` serve the cached text, so
        this is the only place node sockets are touched for metrics.  A
        node that fails the poll is skipped -- its absence is visible as a
        missing ``node`` label, and the heartbeat sweep handles liveness.
        Returns the merged exposition.
        """
        members: Dict[str, str] = {}
        for name in sorted(self._handles):
            try:
                members[name] = self._handles[name].metrics()
            except (OSError, RuntimeError, ConnectionError, ValueError):
                continue
        # The coordinator participates as a member too: its tracer carries
        # the migration spans and any coordinator-side stage counters.
        members[self._trace_node] = self.tracer.registry.render()
        verdict = self.slo.evaluate_samples(
            parse_exposition("".join(members.values()))
        )
        stats = self.stats()
        cluster_reg = registry_from_cluster(stats)
        self.slo.export(cluster_reg, verdict)
        text = federate_expositions(members, cluster_reg.render())
        self._federated_text = text
        self._federated_health = {
            "status": "degraded" if verdict.degraded else "ok",
            "events_ingested": stats.events_ingested,
            "races_reported": stats.races_reported,
            "migrations_completed": stats.migrations_completed,
            "migrations_active": stats.migrations_active,
            "nodes": {
                str(node["name"]): str(node["status"]) for node in stats.nodes
            },
            "members_polled": sorted(members),
            "slo": verdict.as_dict(),
        }
        return text

    def federation_text(self) -> str:
        """The cached federated exposition (refresh to update)."""
        return self._federated_text

    def federation_health(self) -> Dict[str, object]:
        """The cached federation health payload (refresh to update)."""
        return dict(self._federated_health)

    def metrics_adapter(self) -> "_FederationAdapter":
        """A service-shaped facade for :func:`repro.obs.httpd
        .start_metrics_server`: ``/metrics`` and ``/healthz`` serve the
        cached federation snapshots (atomic string/dict swaps, no node
        sockets touched from scrape threads)."""
        return _FederationAdapter(self)

    # -- lifecycle ---------------------------------------------------------------

    def shutdown_nodes(self) -> None:
        """Drain and stop every node service (the CLI teardown path)."""
        for handle in self._handles.values():
            try:
                handle.command("!shutdown")
            except (OSError, RuntimeError, ConnectionError):
                pass

    def close(self) -> None:
        self.tracer.close()
        for handle in self._handles.values():
            handle.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _FederationAdapter:
    """Duck-types the two methods :mod:`repro.obs.httpd` calls on a service.

    Scrape threads only read the coordinator's cached federation strings
    (replaced wholesale by :meth:`ClusterCoordinator.refresh_federation`),
    so no lock and no node I/O happen on the HTTP path.
    """

    def __init__(self, coordinator: ClusterCoordinator) -> None:
        self._coordinator = coordinator

    def render_metrics(self) -> str:
        return self._coordinator.federation_text()

    def health(self) -> Dict[str, object]:
        return self._coordinator.federation_health()
