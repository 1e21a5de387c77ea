"""``repro-serve``: the streaming race-detection service, as a command.

Usage::

    repro-race fuzz --seed 7 | repro-serve --shards 4        # stdin mode
    repro-serve --tcp 127.0.0.1:7914 --shards 4              # TCP service
    repro-serve --unix /tmp/repro.sock                       # Unix socket
    repro-serve --tail run.trace --follow                    # tail a recorder
    repro-serve --stdin --stats                              # final snapshot
    repro-serve --tcp :7914 --metrics-port 9109              # + /metrics HTTP
    repro-serve --tcp :7914 --flightrec-dir ./flightrecs     # + race dumps

Exit status mirrors ``repro-race analyze``: 1 if any race was detected
(stdin/tail modes), 0 otherwise, 2 for a usage error -- an address that
cannot be bound among them.  Socket modes run until ``!shutdown``,
SIGTERM or Ctrl-C; a Unix server then removes its socket file.

Observability (see ``docs/OBSERVABILITY.md``): stage counters are on by
default (``--no-obs-counters`` turns them off); ``--span-sample N`` with
``--span-log FILE`` writes every Nth batch as a JSONL span;
``--flightrec-dir`` arms the race flight recorder, which also dumps every
group's window on SIGTERM before exiting.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
import time
from typing import List, Optional

from ..core.goldilocks import COMMIT_SYNC_POLICIES
from ..obs.tracing import ObsConfig
from .service import RaceDetectionService, ServiceConfig, serve_tcp, serve_unix


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="streaming, sharded Goldilocks race detection service",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--stdin", action="store_true", help="read event lines from stdin (default)"
    )
    mode.add_argument("--tcp", metavar="HOST:PORT", help="serve on a TCP socket")
    mode.add_argument("--unix", metavar="PATH", help="serve on a Unix-domain socket")
    mode.add_argument("--tail", metavar="FILE", help="ingest a trace file incrementally")
    parser.add_argument(
        "--follow", action="store_true", help="with --tail: keep polling for appends"
    )
    parser.add_argument("--shards", type=int, default=1, help="groups of variables")
    parser.add_argument(
        "--commit-sync",
        default="footprint",
        choices=COMMIT_SYNC_POLICIES,
        help="strong-atomicity interpretation for transactions",
    )
    parser.add_argument(
        "--gc-threshold",
        type=int,
        default=50_000,
        help="sync-event-list length that triggers collection (0 disables)",
    )
    parser.add_argument(
        "--admit",
        metavar="FILTER.json",
        help="static admission-control filter (python -m repro.analysis.admission); "
        "data accesses it proves race-free are dropped at the edge",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print a final stats snapshot to stderr"
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="serve GET /metrics and /healthz over HTTP on this port (0 picks one)",
    )
    obs.add_argument(
        "--metrics-host",
        default="127.0.0.1",
        metavar="HOST",
        help="bind address for --metrics-port (default 127.0.0.1)",
    )
    obs.add_argument(
        "--no-obs-counters",
        action="store_true",
        help="turn off the default-on stage counters and latency histograms",
    )
    obs.add_argument(
        "--span-sample",
        type=int,
        default=0,
        metavar="N",
        help="write every Nth batch to the span log (0 disables; default 0)",
    )
    obs.add_argument(
        "--span-log",
        metavar="FILE",
        help="JSONL file for sampled spans and parse errors ('-' for stderr)",
    )
    obs.add_argument(
        "--trace",
        action="store_true",
        help="stamp spans with trace ids (locally minted, or carried in "
        "from !binary frames a coordinator stamped)",
    )
    obs.add_argument(
        "--node-label",
        default="",
        metavar="NAME",
        help="node name recorded in spans and trace ids (default: empty)",
    )
    obs.add_argument(
        "--provenance",
        action="store_true",
        help="capture each race's lockset-transfer rule chain for flight "
        "recordings and repro-race explain",
    )
    obs.add_argument(
        "--flightrec-dir",
        metavar="DIR",
        help="write .flightrec dumps here when races are reported (and on SIGTERM)",
    )
    obs.add_argument(
        "--flightrec-capacity",
        type=int,
        default=4096,
        metavar="N",
        help="packed records the flight ring retains per hosted group (default 4096)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Config mistakes must not exit 1 -- that code means "races found".
    if args.shards < 1:
        parser.error("--shards must be at least 1")
    if args.gc_threshold < 0:
        parser.error("--gc-threshold must be at least 0 (0 disables collection)")
    if args.follow and not args.tail:
        parser.error("--follow only makes sense with --tail FILE")
    if args.follow and args.tail.endswith(".gz"):
        parser.error("--follow cannot follow a .gz trace; decompress it first")
    if args.tcp:
        port_text = args.tcp.rpartition(":")[2]
        if not port_text.isdigit():
            parser.error(f"--tcp expects HOST:PORT, got {args.tcp!r}")
    if args.span_sample < 0:
        parser.error("--span-sample must be >= 0")
    if args.flightrec_capacity < 1:
        parser.error("--flightrec-capacity must be at least 1")
    admit_filter = None
    if args.admit:
        from ..analysis.admission import load_admission_filter

        try:
            admit_filter = load_admission_filter(args.admit)
        except (OSError, ValueError) as exc:
            parser.error(f"--admit: {exc}")
    config = ServiceConfig(
        n_shards=args.shards,
        commit_sync=args.commit_sync,
        gc_threshold=args.gc_threshold or None,
        admit=admit_filter,
        obs=ObsConfig(
            counters=not args.no_obs_counters,
            span_sample=args.span_sample,
            span_log=args.span_log,
            trace=args.trace,
            node=args.node_label,
            provenance=args.provenance,
            flightrec_dir=args.flightrec_dir,
            flightrec_capacity=args.flightrec_capacity,
        ),
    )
    metrics_server = None
    with RaceDetectionService(config) as service, _install_sigterm(service):
        if args.metrics_port is not None:
            from ..obs.httpd import start_metrics_server

            metrics_server = start_metrics_server(
                service, args.metrics_port, args.metrics_host
            )
            mhost, mport = metrics_server.address
            print(
                f"# repro-serve metrics on http://{mhost}:{mport}/metrics",
                file=sys.stderr,
            )
        try:
            if args.tcp or args.unix:
                if args.tcp:
                    host, _, port = args.tcp.rpartition(":")
                    host = host or "127.0.0.1"
                    address = f"tcp://{host}:{port}"
                else:
                    address = f"unix://{args.unix}"
                try:
                    if args.tcp:
                        server = serve_tcp(service, host, int(port))
                    else:
                        server = serve_unix(service, args.unix)
                except OSError as exc:
                    # a taken or unusable address is a usage error:
                    # exit status 1 means races found
                    print(
                        f"repro-serve: error: cannot listen on {address}: {exc}",
                        file=sys.stderr,
                    )
                    return 2
                if args.tcp:  # the port bound, which port 0 leaves to the OS
                    address = f"tcp://{host}:{server.server_address[1]}"
                # The server loop runs in a thread of its own and this one
                # only sleeps, so the exception a signal handler raises
                # (SIGTERM's SystemExit, Ctrl-C's KeyboardInterrupt) lands
                # in a sleep.  Raised inside the loop's thread bookkeeping
                # (starting a connection's thread), it could leave a lock
                # released twice and be swallowed as a handler error.
                stopped: List[bool] = []

                def serve() -> None:
                    try:
                        server.serve_forever()
                    finally:
                        stopped.append(True)

                threading.Thread(target=serve, daemon=True).start()
                print(
                    f"# repro-serve listening on {address} ({args.shards} shard(s))",
                    file=sys.stderr,
                )
                try:
                    while not stopped:
                        time.sleep(0.05)
                finally:
                    # also on a signal: stop the loop, and a Unix server
                    # removes its socket file
                    server.shutdown()
                    server.server_close()
                races = service.stats().races_reported
            elif args.tail:
                try:
                    races = service.tail_file(
                        args.tail, sys.stdout, follow=args.follow
                    )
                except OSError as exc:
                    print(f"repro-serve: error: {exc}", file=sys.stderr)
                    return 2
            else:
                # the byte buffer, so the text edge reads in runs
                stdin = getattr(sys.stdin, "buffer", sys.stdin)
                races = service.handle_stream(stdin, sys.stdout)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            service.request_shutdown()
            races = service.stats().races_reported
        finally:
            if metrics_server is not None:
                metrics_server.close()
        if args.stats:
            print("stats " + service.stats().to_json(), file=sys.stderr)
    return 1 if races else 0


def _install_sigterm(service: RaceDetectionService) -> contextlib.ExitStack:
    """Drain gracefully on SIGTERM instead of dying mid-stream.

    The handler runs :meth:`RaceDetectionService.graceful_drain`: the
    races of accepted events no stream has written yet are reported, the
    flight recorders are flushed, and one terminal ``ok drain ...`` stats
    line goes to stderr.  Only then does the process exit (with the
    conventional ``128 + SIGTERM`` status).  Closing the returned stack
    puts the replaced handler back, so a process that ran :func:`main`
    in process still stops on SIGTERM.
    """

    def _handler(signum, frame):  # pragma: no cover - signal delivery timing
        try:
            line = service.graceful_drain(timeout=30.0)
            print(f"# repro-serve sigterm: {line}", file=sys.stderr)
        finally:
            raise SystemExit(128 + signum)

    restore = contextlib.ExitStack()
    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        return restore
    if previous is not None:  # None: a handler not set from Python
        restore.callback(signal.signal, signal.SIGTERM, previous)
    return restore


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
