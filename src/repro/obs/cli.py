"""``repro-obs``: terminal tooling over the service's observability surface.

Usage::

    repro-obs tail --tcp 127.0.0.1:7914              # live table, 1s refresh
    repro-obs tail --unix /tmp/repro.sock --once     # one snapshot and exit
    repro-obs tail --url http://127.0.0.1:9109       # via the HTTP endpoint
    repro-obs metrics --tcp 127.0.0.1:7914           # raw Prometheus text

``tail`` renders :class:`~repro.server.stats.ServiceStats` snapshots as a
terminal table (service totals plus the kernel's row) and refreshes in
place until interrupted.  Sources: the ``!stats`` control command over a
service socket, or the ``/healthz``-adjacent JSON at ``/metrics``'s
sibling -- when ``--url`` is given, ``tail`` polls ``<url>/healthz`` for
liveness and renders the stats embedded in it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from ..server.stats import ServiceStats


def render_stats_table(stats: ServiceStats) -> str:
    """One snapshot as a fixed-width terminal table."""
    head = (
        f"uptime {stats.uptime_sec:8.1f}s   events {stats.events_ingested:>10}   "
        f"{stats.events_per_sec:>10.0f} ev/s   races {stats.races_reported:>6}"
    )
    second = (
        f"routed {stats.data_routed:>10}   broadcast {stats.sync_broadcast:>8}   "
        f"batches {stats.batches_flushed:>8}   parse errors {stats.parse_errors}"
    )
    lines = [head, second, ""]
    lines.append(
        f"{'shard':>5} {'processed':>10} {'races':>6} "
        f"{'sc rate':>8} {'work':>12}"
    )
    for shard in stats.shards:
        lines.append(
            f"{shard.shard:>5} {shard.events_processed:>10} "
            f"{shard.races:>6} {shard.short_circuit_rate:>8.3f} "
            f"{shard.detector_work:>12}"
        )
    return "\n".join(lines)


def _client_from_args(args):
    from ..server.client import ServiceClient

    if args.unix:
        return ServiceClient.unix(args.unix)
    host, _, port = args.tcp.rpartition(":")
    return ServiceClient.tcp(host or "127.0.0.1", int(port))


def _stats_from_url(url: str) -> ServiceStats:
    from urllib.request import urlopen

    with urlopen(url.rstrip("/") + "/healthz", timeout=10.0) as resp:
        payload = json.loads(resp.read().decode("utf-8"))
    return ServiceStats.from_dict(payload["stats"])


def _fetch_stats(args) -> ServiceStats:
    if args.url:
        return _stats_from_url(args.url)
    with _client_from_args(args) as client:
        return client.stats()


def cmd_tail(args) -> int:
    try:
        while True:
            stats = _fetch_stats(args)
            table = render_stats_table(stats)
            if args.once:
                print(table)
                return 0
            # Clear-and-redraw keeps the table in place on ANSI terminals.
            sys.stdout.write("\x1b[2J\x1b[H" + table + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (ConnectionError, OSError) as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return 2


def cmd_metrics(args) -> int:
    if args.url:
        from urllib.request import urlopen

        with urlopen(args.url.rstrip("/") + "/metrics", timeout=10.0) as resp:
            sys.stdout.write(resp.read().decode("utf-8"))
        return 0
    with _client_from_args(args) as client:
        sys.stdout.write(client.metrics())
    return 0


def _health_from_args(args) -> dict:
    if args.url:
        from urllib.request import urlopen

        with urlopen(args.url.rstrip("/") + "/healthz", timeout=10.0) as resp:
            return json.loads(resp.read().decode("utf-8"))
    with _client_from_args(args) as client:
        return client.health()


def cmd_errors(args) -> int:
    """Print the service's parse-error ring, typed reasons included."""
    try:
        payload = _health_from_args(args)
    except (ConnectionError, OSError, ValueError) as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return 2
    total = payload.get("parse_errors", 0)
    detail = payload.get("parse_error_detail") or []
    print(f"parse errors: {total} total, last {len(detail)} with detail")
    for entry in detail:
        line = entry.get("line", "")
        message = entry.get("message") or "unparseable line"
        print(f"  line: {line!r}")
        print(f"    error: {message}")
        if entry.get("kind") is not None:
            print(
                f"    frame: kind={entry['kind']} record={entry.get('record')} "
                f"applied={entry.get('applied')}"
            )
    # Plain-ring fallback for older services that predate the detail ring.
    if not detail:
        for line in payload.get("last_parse_errors") or []:
            print(f"  line: {line!r}")
    return 0


def cmd_trace(args) -> int:
    """Stitch one trace id's spans from span-log files into a timeline."""
    spans = []
    for path in args.log:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for raw in fh:
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        record = json.loads(raw)
                    except ValueError:
                        continue
                    if record.get("trace_id") == args.id:
                        spans.append(record)
        except OSError as exc:
            print(f"repro-obs: {exc}", file=sys.stderr)
            return 2
    if not spans:
        print(f"trace {args.id}: no spans found in {len(args.log)} log(s)")
        return 1
    spans.sort(key=lambda record: record.get("ts_sec", 0.0))
    nodes = sorted({record.get("node", "?") for record in spans})
    print(
        f"trace {args.id}: {len(spans)} span(s) across "
        f"{len(nodes)} node(s): {', '.join(nodes)}"
    )
    base = spans[0].get("ts_sec", 0.0)
    for record in spans:
        offset = record.get("ts_sec", 0.0) - base
        stages = record.get("stage_sec") or {}
        stage_text = " ".join(
            f"{stage}={stages[stage] * 1e6:.0f}us" for stage in sorted(stages)
        )
        print(
            f"  +{offset:9.6f}s {record.get('node', '?'):<12} "
            f"shard {record.get('shard', '?')} batch {record.get('batch', '?')} "
            f"events {record.get('events', '?'):>4}  {stage_text}"
        )
    return 0


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--tcp", metavar="HOST:PORT", help="service TCP address")
    source.add_argument("--unix", metavar="PATH", help="service Unix socket")
    source.add_argument("--url", metavar="URL", help="metrics HTTP endpoint base URL")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-obs", description="observability tooling for repro-serve"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tail = sub.add_parser("tail", help="render live stats snapshots as a table")
    _add_source_args(tail)
    tail.add_argument("--interval", type=float, default=1.0, help="refresh seconds")
    tail.add_argument("--once", action="store_true", help="print one snapshot and exit")
    tail.set_defaults(func=cmd_tail)

    metrics = sub.add_parser("metrics", help="print the Prometheus exposition")
    _add_source_args(metrics)
    metrics.set_defaults(func=cmd_metrics)

    errors = sub.add_parser(
        "errors", help="print the parse-error ring with typed frame reasons"
    )
    _add_source_args(errors)
    errors.set_defaults(func=cmd_errors)

    trace = sub.add_parser(
        "trace", help="stitch one trace id's spans from span logs into a timeline"
    )
    trace.add_argument("id", help="16-hex trace id (see span JSONL trace_id)")
    trace.add_argument(
        "--log",
        action="append",
        required=True,
        metavar="FILE",
        help="span JSONL file (repeatable: one per node)",
    )
    trace.set_defaults(func=cmd_trace)

    args = parser.parse_args(argv)
    if getattr(args, "tcp", None):
        port_text = args.tcp.rpartition(":")[2]
        if not port_text.isdigit():
            parser.error(f"--tcp expects HOST:PORT, got {args.tcp!r}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
