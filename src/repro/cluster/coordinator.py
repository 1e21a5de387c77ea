"""The cluster coordinator: one ingestion edge over many detection nodes.

The coordinator is the ingestion edge of :class:`~repro.server.engine.
ShardedEngine`, one layer out, over several processes: it keeps the single
master :class:`~repro.core.encode.EventEncoder` (the cluster's id space
and sequence numbers), routes packed records -- sync broadcast to every
node, data accesses to the node owning the variable's *group* -- and ships
them as ``!binary`` wire frames with per-node interner-delta cursors: each
frame's delta carries exactly the ids its node has not seen, so every
node's interner stays a prefix of the master and no other id sync exists.

Routing is two-layered: variable -> group via crc32 (identical to the
single-node group mapping, so cluster verdicts are byte-compatible with a
``--shards n_groups`` run), then group -> node via the :class:`Placement`:
round-robin over the sorted node names, unless a migration pinned the
group elsewhere.

**Live migration** moves a group from node A to node B in one step:
flush A, ``!flush`` it (its race lines are read), ``!checkpoint`` the
group, ``!retire`` it (commits are broadcast -- a lingering copy would
double-report footprint races), push B's pending frame, ``!adopt`` the
blob on B and pin the placement.  The coordinator ingests nothing in
between, so the blob is the group's whole state and nothing is logged or
replayed; if B refuses or fails, the blob goes back to A.  Race lines
keep their coordinator-assigned ``seq``, so a migrated run's output is
line-identical to an unmigrated one.

The coordinator is single-threaded by design (one ingestion loop, like
the service's ingestion lock).  Each node is one :class:`~repro.server.
client.ServiceClient` connection.  A node is ``up`` while it answers the
``!metrics`` poll of :meth:`ClusterCoordinator.refresh_federation`; a send
or a control verb that fails on its connection raises :class:`NodeLost`,
which names the node and the groups it hosted, and from then on the
coordinator leaves that node out of every flush and barrier, so a
barrier still collects the race lines of the nodes that survive.
"""

from __future__ import annotations

import base64
import contextlib
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
from ..server.client import ServiceClient
from ..server.protocol import FRAME_EVENTS, format_race


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
    #: socket timeout for node connections
    timeout: float = 30.0
    #: observability tunables (span log receives migration trace spans)
    obs: Optional[ObsConfig] = None
    #: static admission filter (:class:`repro.analysis.admission.
    #: AdmissionFilter`): data accesses it proves race-free are dropped at
    #: the coordinator (still consuming their cluster-wide seq) and the
    #: filter is forwarded to every node via ``!admit`` at connect time.
    admit: Optional[object] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


class Placement:
    """Which node hosts each shard group.

    Group ``g`` lives on ``sorted(nodes)[g % len(nodes)]`` -- every node
    hosts a fair share, whatever order the nodes were given in -- unless
    :meth:`pin` moved it: the migration driver pins a group to its new
    home the moment the hand-off completes.
    """

    def __init__(self, nodes: Iterable[str], n_groups: int) -> None:
        self.nodes = sorted(nodes)
        if not self.nodes:
            raise ValueError("a cluster needs at least one node")
        if n_groups < 1:
            raise ValueError("need at least one shard group")
        self.n_groups = n_groups
        self._pins: Dict[int, str] = {}

    def _check(self, group: int) -> None:
        if not 0 <= group < self.n_groups:
            raise ValueError(f"group {group} out of range [0, {self.n_groups})")

    def node_of(self, group: int) -> str:
        self._check(group)
        pinned = self._pins.get(group)
        if pinned is not None:
            return pinned
        return self.nodes[group % len(self.nodes)]

    def pin(self, group: int, node: str) -> None:
        """Move ``group`` onto ``node`` (the migration flip)."""
        self._check(group)
        if node not in self.nodes:
            raise ValueError(f"cannot pin group {group} to unknown node {node!r}")
        self._pins[group] = node

    def assignment(self) -> Dict[str, List[int]]:
        """Every node's sorted group list (nodes with none included)."""
        out: Dict[str, List[int]] = {name: [] for name in self.nodes}
        for group in range(self.n_groups):
            out[self.node_of(group)].append(group)
        return out


class _Node:
    """The coordinator's side of one node: its connection, the records
    routed to it and not yet shipped, the interner-delta ``cursor`` into
    the coordinator's master (the node's replica version after its next
    frame), what was shipped so far, the ``!metrics`` polls it has missed
    in a row, and whether its connection failed (``lost``)."""

    __slots__ = (
        "name", "client", "records", "extras", "count", "cursor",
        "events_sent", "frames_sent", "bytes_sent", "missed", "lost",
    )

    def __init__(self, name: str, client: ServiceClient) -> None:
        self.name = name
        self.client = client
        self.records = array("q")
        self.extras = array("q")
        self.count = 0
        self.cursor = 1  # node replicas start with just TL
        self.events_sent = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.missed = 0
        self.lost = False

    def append(
        self, op: int, seq: int, tid_id: int, index: int, a: int, b: int,
        extras: Optional[List[int]],
    ) -> None:
        if extras is not None:
            a = len(self.extras)
            self.extras.extend(extras)
        self.records.extend((op, seq, tid_id, index, a, b))
        self.count += 1


class NodeLost(ConnectionError):
    """A node's connection failed: the verdicts of the groups it hosted
    end there.  The message names the node and those groups."""

    def __init__(self, node: str, groups: List[int], cause: OSError) -> None:
        hosted = f"groups {', '.join(map(str, groups))}" if groups else "no groups"
        super().__init__(f"node {node} ({hosted}): {cause}")


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
    assignment: Dict[str, List[int]]
    nodes: List[Dict[str, object]]
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
            "assignment": self.assignment,
            "nodes": self.nodes,
        }


class ClusterCoordinator:
    """Routes one event stream across ``repro-serve`` nodes; merges races."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        # validates the node list and the group count before any dialling
        self.placement = Placement(config.nodes, config.n_groups)
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
        self._nodes: Dict[str, _Node] = {}
        self._seq = 0
        self.events_ingested = 0
        self.sync_broadcast = 0
        self.data_routed = 0
        self.data_filtered = 0
        self.migrations_completed = 0
        #: every race line drained so far, sorted at each barrier
        self.race_lines: List[str] = []
        admit_command = None
        if config.admit is not None:
            blob = base64.b64encode(config.admit.to_json().encode("utf-8"))
            admit_command = "admit " + blob.decode("ascii")
        for name in sorted(config.nodes):
            host, port = config.nodes[name]
            try:
                client = ServiceClient.tcp(host, port, timeout=config.timeout)
            except OSError as exc:
                raise ConnectionError(f"node {name}: {exc}") from exc
            node = self._nodes[name] = _Node(name, client)
            # ``!cluster`` re-partitions the node and marks this connection
            # as the coordinator's: the node keeps the ids and ``seq`` of
            # every frame it sends
            self._command(node, f"cluster {config.n_groups}")
            with self._naming(node):
                if not client.enable_binary():
                    raise RuntimeError("refused !binary")
            if admit_command is not None:
                # forward the filter so nodes defend in depth and report
                # the policy in their own stats/metrics
                self._command(node, admit_command)
        # Initial placement: every group adopted fresh on its placed node.
        for group in range(config.n_groups):
            node = self._nodes[self.placement.node_of(group)]
            self._command(node, f"adopt {group}")

    @contextlib.contextmanager
    def _naming(self, node: _Node):
        """Re-raise an ``error`` reply naming ``node``, and a failure of its
        connection as :class:`NodeLost`, marking the node lost."""
        try:
            yield
        except RuntimeError as exc:
            raise RuntimeError(f"node {node.name}: {exc}") from exc
        except OSError as exc:
            node.lost = True
            groups = self.placement.assignment()[node.name]
            raise NodeLost(node.name, groups, exc) from exc

    def _live(self) -> List[_Node]:
        return [node for node in self._nodes.values() if not node.lost]

    def _command(self, node: _Node, command: str, reply_kind: str = "ok") -> str:
        """One control verb on ``node``'s connection; returns the reply
        payload.  Race lines read on the way are banked in its client."""
        with self._naming(node):
            return node.client._command(command, reply_kind)

    # -- ingestion -------------------------------------------------------------

    def submit_event(self, event: Event) -> int:
        op, tid_id, index, a, b, extras = self.encoder.encode_event(event)
        return self._ingest(op, tid_id, index, a, b, extras)

    def submit_line(self, line: str) -> int:
        """Ingest one trace text line; a line the encoder refuses raises
        ``ValueError`` before it takes a ``seq``."""
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
            group = self.encoder.var_shard[a]
            targets: Iterable[_Node] = (
                self._nodes[self.placement.node_of(group)],
            )
        else:
            # sync/alloc/commit: broadcast to every node
            self.sync_broadcast += 1
            targets = self._nodes.values()
        for node in targets:
            node.append(op, seq, tid_id, index, a, b, extras)
            if node.count >= self.config.batch_size:
                self._flush_node(node)
        return seq

    def _flush_node(self, node: _Node, trace_id: Optional[int] = None) -> None:
        if not node.count:
            return
        payload = encode_frame(
            node.cursor,
            self.encoder.interner.elements_since(node.cursor),
            node.records,
            node.extras,
        )
        count = node.count
        node.cursor = len(self.encoder.interner)
        node.records = array("q")
        node.extras = array("q")
        node.count = 0
        if self._trace_on:
            if trace_id is None:
                trace_id = self._window_trace_id()
            payload = stamp_trace(trace_id, payload)
        with self._naming(node):
            node.bytes_sent += node.client.send_frame(FRAME_EVENTS, payload)
        node.frames_sent += 1
        node.events_sent += count

    def _window_trace_id(self) -> int:
        """The current ingest window's trace id (deterministic, no RNG)."""
        window = max(0, self.events_ingested - 1) // self.config.batch_size
        return make_trace_id(self._trace_node, window)

    def flush(self) -> None:
        """Push every live node's pending buffer (no drain)."""
        for node in self._live():
            self._flush_node(node)

    def barrier(self) -> List[str]:
        """Flush and fully drain every live node; returns the new race lines.

        A node answers ``!flush`` after the race lines of every frame sent
        before it, so the lines it banked by then are complete.  They are
        merged across nodes and sorted by ``(seq, text)``: ``seq`` is the
        order a single-node run writes them in, and the text orders the
        lines of one ``seq`` -- a commit whose footprint races in several
        groups -- the same way whichever node reported them.

        A node lost on the way raises :class:`NodeLost` before any banked
        line is taken, so the next barrier, which leaves it out, returns
        every line the survivors reported.
        """
        self.flush()
        live = self._live()
        for node in live:
            self._command(node, "flush")
        drained: List[Tuple[int, str]] = []
        for node in live:
            # a banked RaceLine has the fields format_race reads off a report
            races = node.client.races
            drained.extend((race.seq, format_race(race.seq, race)) for race in races)
            races.clear()
        drained.sort()
        lines = [text for _seq, text in drained]
        self.race_lines.extend(lines)
        return lines

    # -- live migration ----------------------------------------------------------

    def migrate(self, group: int, dst: str) -> None:
        """Move ``group`` onto node ``dst`` in one step.

        The source is flushed and drained, checkpoints the group and
        retires it at once -- commits are broadcast, so a lingering copy
        would double-report footprint races.  The target's pending frame
        is pushed before the ``!adopt``: the sync records queued there are
        in the blob already, and the adopted group must not see them
        twice.  Nothing is ingested in between, so nothing is logged or
        replayed.  If the target refuses the blob or its connection fails,
        the blob is adopted back on the source -- it is still the group's
        whole state -- and the error re-raised: a group is never left
        hosted nowhere.
        """
        if dst not in self._nodes:
            raise ValueError(f"unknown migration target {dst!r}")
        src = self.placement.node_of(group)
        if src == dst:
            raise ValueError(f"group {group} already lives on {dst!r}")
        source, target = self._nodes[src], self._nodes[dst]
        t0 = time.monotonic()
        self._flush_node(source)
        self._command(source, "flush")
        payload = self._command(source, f"checkpoint {group}", "checkpoint")
        word, _, blob_b64 = payload.partition(" ")
        if word != str(group) or not blob_b64:
            raise RuntimeError(f"node {src}: malformed checkpoint reply {payload!r}")
        self._command(source, f"retire {group}")
        t1 = time.monotonic()
        # The target's pending frame and the migration span share one
        # minted trace id, so the timeline shows them under the migration.
        mig_trace: Optional[int] = None
        if self._trace_on:
            mig_trace = make_trace_id(
                self._trace_node + ":migration", self.migrations_completed + 1
            )
        try:
            self._flush_node(target, trace_id=mig_trace)
            self._command(target, f"adopt {group} {blob_b64}")
        except (OSError, RuntimeError):
            self._command(source, f"adopt {group} {blob_b64}")
            raise
        self.placement.pin(group, dst)
        self.migrations_completed += 1
        # Migration trace span: rides the same JSONL span log as batch
        # spans, keyed by the group in the shard column.
        self.tracer.emit_span(
            batch=self.migrations_completed,
            shard=group,
            events=0,
            stage_sec={"checkpoint": t1 - t0, "adopt": time.monotonic() - t1},
            trace_id=(
                format_trace_id(mig_trace) if mig_trace is not None else None
            ),
            node=self._trace_node if self._trace_on else None,
        )

    # -- stats -------------------------------------------------------------------

    def stats(self) -> ClusterStats:
        assignment = self.placement.assignment()
        races = len(self.race_lines) + sum(
            len(node.client.races) for node in self._nodes.values()
        )
        nodes = []
        for name in sorted(self._nodes):
            node = self._nodes[name]
            nodes.append(
                {
                    "name": name,
                    "groups": assignment.get(name, []),
                    "events_sent": node.events_sent,
                    "frames_sent": node.frames_sent,
                    "bytes_sent": node.bytes_sent,
                    "interner_cursor": node.cursor,
                    "status": "down" if node.missed else "up",
                    "missed": node.missed,
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
            assignment=assignment,
            nodes=nodes,
        )

    # -- federated metrics plane -------------------------------------------------

    def refresh_federation(self) -> str:
        """Poll member ``!metrics``, merge, evaluate cluster SLOs, cache.

        Called from the (single-threaded) ingestion loop between batches;
        the HTTP endpoint and ``--metrics-out`` serve the cached text, so
        this is the only place node sockets are touched for metrics.  The
        poll is also the nodes' liveness check: a node that answers has
        missed 0 polls and reads ``up``; one that fails is skipped -- its
        absence is visible as a missing ``node`` label -- and its count of
        missed polls goes up by one, so it reads ``down``.  The snapshot
        exported below is taken after the poll.  Returns the merged
        exposition.
        """
        members: Dict[str, str] = {}
        for name in sorted(self._nodes):
            node = self._nodes[name]
            try:
                members[name] = node.client.metrics()
            except (OSError, RuntimeError, ValueError):
                node.missed += 1
                continue
            node.missed = 0
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
        """Drain and stop every node service that is not lost (the CLI
        teardown path)."""
        for node in self._live():
            try:
                node.client.shutdown()
            except (OSError, RuntimeError):
                pass

    def close(self) -> None:
        self.tracer.close()
        for node in self._nodes.values():
            node.client.close()

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
