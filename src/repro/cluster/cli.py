"""``repro-cluster``: the multi-node coordinator, as a command.

Usage::

    # two already-running repro-serve nodes
    repro-cluster --node a=127.0.0.1:7914 --node b=127.0.0.1:7915 < run.trace

    # self-contained: spawn N in-process nodes, stream a trace file
    repro-cluster --local-nodes 2 --groups 4 run.trace

    # live migration mid-stream: move group 0 to node1 after 1200 events
    repro-cluster --local-nodes 2 --migrate 0:node1@1200 < run.trace

    # final coordinator snapshot / metrics exposition
    repro-cluster --local-nodes 2 --stats --metrics-out cluster.prom < run.trace

Race lines stream to stdout in the same canonical form a single-node
``repro-serve --shards <groups>`` run emits (the coordinator assigns the
``seq`` tags, so the two are line-identical -- the CI smoke job diffs
them).  A line that is not an event is answered as ``repro-serve``
answers it, with ``error unparseable event line: <line>`` on stdout, and
takes no ``seq``.  Each ``--migrate`` spec is checked before any node is
dialled, and the race lines completed before a move are written before
it runs, so a move that fails still leaves them on stdout.  Exit status
mirrors ``repro-serve``: 1 if any race was reported, 0 otherwise, 2 for
usage and operational errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.tracing import ObsConfig
from .coordinator import ClusterConfig, ClusterCoordinator


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="route one event stream across repro-serve nodes",
    )
    parser.add_argument(
        "trace",
        nargs="?",
        metavar="FILE",
        help="trace file of event lines (default: stdin)",
    )
    nodes = parser.add_mutually_exclusive_group()
    nodes.add_argument(
        "--node",
        action="append",
        default=[],
        metavar="NAME=HOST:PORT",
        help="a running repro-serve node (repeatable)",
    )
    nodes.add_argument(
        "--local-nodes",
        type=int,
        metavar="N",
        help="spawn N in-process nodes named node0..node{N-1} instead",
    )
    parser.add_argument(
        "--groups", type=int, default=4, help="global shard-group count"
    )
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument(
        "--migrate",
        action="append",
        default=[],
        metavar="GROUP:NODE[@COUNT]",
        help="migrate GROUP to NODE once COUNT events ingested (repeatable; "
        "COUNT defaults to 0 = before streaming)",
    )
    parser.add_argument(
        "--admit",
        metavar="FILTER.json",
        help="static admission-control filter; race-free data accesses are "
        "dropped at the coordinator and the filter is forwarded to nodes",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the final coordinator snapshot as JSON to stderr",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the federated metrics exposition periodically during "
        "the stream (atomic replace), on SIGTERM, and at exit "
        "('-' for stderr: final write only)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="serve the live federated exposition on "
        "http://METRICS_HOST:PORT/metrics (plus /healthz with the "
        "cluster SLO verdict); 0 picks a free port",
    )
    parser.add_argument(
        "--metrics-host", default="127.0.0.1", metavar="HOST",
        help="bind address for --metrics-port (default 127.0.0.1)",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=2.0,
        metavar="SEC",
        help="seconds between federation refreshes (node !metrics polls, "
        "SLO evaluation, --metrics-out rewrite; default 2.0)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="stamp shipped frames with per-window trace ids so node "
        "spans stitch into cross-node timelines (repro-obs trace)",
    )
    parser.add_argument(
        "--span-sample",
        type=int,
        default=0,
        metavar="N",
        help="sample 1-in-N batches into span logs (coordinator migration "
        "spans and, with --local-nodes, each node's batch spans)",
    )
    parser.add_argument(
        "--span-log",
        metavar="BASE",
        help="span JSONL base path: the coordinator writes BASE, local "
        "nodes write BASE.nodeN (separate files, no interleaving)",
    )
    parser.add_argument(
        "--keep-nodes",
        action="store_true",
        help="leave the nodes running on exit (default: !shutdown each)",
    )
    return parser


def _parse_node(spec: str) -> Tuple[str, str, int]:
    name, eq, addr = spec.partition("=")
    host, colon, port = addr.rpartition(":")
    if not (name and eq and colon and port.isdigit()):
        raise ValueError(f"--node expects NAME=HOST:PORT, got {spec!r}")
    return name, host or "127.0.0.1", int(port)


def _parse_migration(spec: str) -> Tuple[int, str, int]:
    """``GROUP:NODE[@COUNT]`` -> (group, node, at_count)."""
    head, at, count_text = spec.partition("@")
    group_text, colon, node = head.partition(":")
    if not (group_text.isdigit() and colon and node):
        raise ValueError(f"--migrate expects GROUP:NODE[@COUNT], got {spec!r}")
    count = int(count_text) if at else 0
    return int(group_text), node, count


def _start_local_nodes(
    count: int,
    obs_of: Optional[Callable[[int], Optional[ObsConfig]]] = None,
):
    """In-process nodes for the self-contained mode; returns (nodes, closers)."""
    import threading

    from ..server.service import RaceDetectionService, ServiceConfig, serve_tcp

    nodes: Dict[str, Tuple[str, int]] = {}
    closers = []
    for i in range(count):
        service = RaceDetectionService(
            ServiceConfig(obs=obs_of(i) if obs_of is not None else None)
        )
        server = serve_tcp(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        nodes[f"node{i}"] = ("127.0.0.1", server.server_address[1])
        closers.append((server, service))
    return nodes, closers


def _write_exposition(path: str, text: str) -> None:
    """Write a metrics exposition; regular-file targets get an atomic
    replace so a concurrent scraper never reads a torn half-write."""
    if path == "-":
        sys.stderr.write(text)
        return
    if os.path.exists(path) and not os.path.isfile(path):
        # a FIFO or device (/dev/null, /dev/stdout): replacing it with a
        # temp file would destroy the special file -- write through it
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.groups < 1:
        parser.error("--groups must be at least 1")
    try:
        migrations = sorted(
            (_parse_migration(spec) for spec in args.migrate),
            key=lambda item: item[2],
        )
        if args.local_nodes is not None:
            if args.local_nodes < 1:
                parser.error("--local-nodes must be at least 1")
            names = [f"node{i}" for i in range(args.local_nodes)]
        elif args.node:
            addresses: Dict[str, Tuple[str, int]] = {}
            for spec in args.node:
                name, host, port = _parse_node(spec)
                if name in addresses:
                    raise ValueError(f"duplicate node name {name!r}")
                addresses[name] = (host, port)
            names = list(addresses)
        else:
            parser.error("need --node NAME=HOST:PORT (repeatable) or --local-nodes N")
        # every move is checked before a node is dialled or started
        for group, node, _at in migrations:
            if not 0 <= group < args.groups:
                raise ValueError(
                    f"--migrate group {group} out of range [0, {args.groups})"
                )
            if node not in names:
                raise ValueError(
                    f"--migrate target {node!r} is not a node: {', '.join(names)}"
                )
        obs_wanted = args.trace or args.span_sample > 0 or args.span_log
        node_obs: Optional[Callable[[int], Optional[ObsConfig]]] = None
        if obs_wanted:

            def node_obs(i: int) -> ObsConfig:
                return ObsConfig(
                    trace=args.trace,
                    node=f"node{i}",
                    span_sample=args.span_sample,
                    span_log=(
                        f"{args.span_log}.node{i}" if args.span_log else None
                    ),
                )

        if args.local_nodes is not None:
            nodes, closers = _start_local_nodes(args.local_nodes, obs_of=node_obs)
        else:
            nodes, closers = addresses, []
    except ValueError as exc:
        parser.error(str(exc))

    admit_filter = None
    if args.admit:
        from ..analysis.admission import load_admission_filter

        try:
            admit_filter = load_admission_filter(args.admit)
        except (OSError, ValueError) as exc:
            parser.error(f"--admit: {exc}")
    coordinator_obs = None
    if obs_wanted:
        coordinator_obs = ObsConfig(
            trace=args.trace,
            node="coordinator",
            span_sample=args.span_sample,
            span_log=args.span_log,
        )
    config = ClusterConfig(
        nodes=nodes,
        n_groups=args.groups,
        batch_size=args.batch_size,
        admit=admit_filter,
        obs=coordinator_obs,
    )
    out = sys.stdout
    races = 0
    metrics_server = None
    stream = open(args.trace, "r", encoding="utf-8") if args.trace else sys.stdin
    try:
        with ClusterCoordinator(config) as coordinator:
            coordinator.refresh_federation()
            if args.metrics_port is not None:
                from ..obs.httpd import start_metrics_server

                metrics_server = start_metrics_server(
                    coordinator.metrics_adapter(),
                    args.metrics_port,
                    host=args.metrics_host,
                )
                host, port = metrics_server.address
                print(
                    f"repro-cluster: federated metrics on http://{host}:{port}/metrics",
                    file=sys.stderr,
                )

            def _drain_metrics(signum, _frame):
                # Signal-safe by construction: write only the *cached*
                # exposition -- refreshing here would interleave node
                # socket I/O with whatever send the signal interrupted.
                if args.metrics_out and args.metrics_out != "-":
                    _write_exposition(
                        args.metrics_out, coordinator.federation_text()
                    )
                raise SystemExit(128 + signum)

            import signal

            try:
                signal.signal(signal.SIGTERM, _drain_metrics)
            except ValueError:  # pragma: no cover - non-main thread
                pass

            def move(group: int, dst: str) -> None:
                # the races completed so far are final: write them before
                # a move that may fail and end the run
                for race in coordinator.barrier():
                    out.write(race + "\n")
                out.flush()
                coordinator.migrate(group, dst)

            # (group, dst, at), consumed front to back
            pending = list(migrations)
            count = 0
            last_refresh = time.monotonic()
            for line in stream:
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                while pending and pending[0][2] <= count:
                    group, dst, _at = pending.pop(0)
                    move(group, dst)
                try:
                    coordinator.submit_line(text)
                except (ValueError, IndexError):
                    out.write(f"error unparseable event line: {text}\n")
                    continue
                count += 1
                coordinator.heartbeat()
                now = time.monotonic()
                if now - last_refresh >= args.metrics_interval:
                    last_refresh = now
                    coordinator.refresh_federation()
                    if args.metrics_out and args.metrics_out != "-":
                        _write_exposition(
                            args.metrics_out, coordinator.federation_text()
                        )
            # Anything still pending fires at end-of-stream.
            for group, dst, _at in pending:
                move(group, dst)
            for line in coordinator.barrier():
                out.write(line + "\n")
            stats = coordinator.stats()
            races = stats.races_reported
            if args.stats:
                print(json.dumps(stats.as_dict(), sort_keys=True), file=sys.stderr)
            if args.metrics_out or args.metrics_port is not None:
                coordinator.refresh_federation()
            if args.metrics_out:
                _write_exposition(
                    args.metrics_out, coordinator.federation_text()
                )
            if not args.keep_nodes:
                coordinator.shutdown_nodes()
    except (OSError, RuntimeError, ValueError, ConnectionError) as exc:
        print(f"repro-cluster: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if metrics_server is not None:
            metrics_server.close()
        if stream is not sys.stdin:
            stream.close()
        for server, service in closers:
            server.shutdown()
            server.server_close()
            service.close()
    return 1 if races else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
