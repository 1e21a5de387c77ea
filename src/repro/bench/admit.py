"""Admission-control benchmark: counted work with and without the filter.

For each workload the benchmark records the deterministic MiniLang trace,
builds the static admission filter (``intersect`` policy: drop what either
Chord or RccJava proved race-free), and pushes the identical event stream
through every ingestion mode twice -- baseline and ``--admit``:

* ``offline`` -- ``repro-race analyze`` semantics: the default detector
  over the (optionally pre-filtered) event list;
* ``service_text`` -- the streaming service, ``Event`` submission, 4
  shards;
* ``service_binary`` -- the packed wire path over loopback TCP: the
  client ships *everything*, the server drops by interned id;
* ``cluster_1node`` / ``cluster_2node`` -- the multi-node coordinator
  with in-process ``repro-serve`` nodes.

Cost is deterministic, never wall-clock:

* **records** = events the detection side actually touched (events
  processed by shards, records shipped to nodes, or events given to the
  offline detector);
* **cells** = Goldilocks kernel cells traversed (0 where the snapshot
  does not expose kernels, i.e. cluster nodes);
* counted work = records + cells; ``reduction`` = baseline work / admit
  work per mode.

Every mode must report byte-identical sorted race lines (``seq``
included) baseline vs admit -- that is the soundness claim, and the JSON
records it per mode.  The artifact is ``BENCH_admission.json``; the
``admission-smoke`` CI job regenerates and uploads it.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Tuple

#: workloads benchmarked: one lock-disciplined (drops ~98% of accesses)
#: and one mixed (drops ~68%), both racy so parity is a real check
WORKLOADS = ("colt", "tsp")

#: shard/group count shared by the service and cluster modes
N_SHARDS = 4

POLICY = "intersect"
SCALE = "small"


def _offline(events, admit) -> Tuple[Dict[str, int], List[str]]:
    from ..core import EncodedGoldilocks

    if admit is not None:
        events = admit.filter_events(events)
    detector = EncodedGoldilocks()
    reports = detector.process_all(events)
    stats = detector.stats.as_dict()
    return (
        {"records": len(events), "cells": stats.get("cells_traversed", 0)},
        sorted(str(r) for r in reports),
    )


def _service_totals(stats) -> Dict[str, int]:
    records = sum(shard.events_processed for shard in stats.shards)
    cells = sum(
        (shard.detector or {}).get("cells_traversed", 0)
        for shard in stats.shards
    )
    return {"records": records, "cells": cells}


def _service_text(events, admit) -> Tuple[Dict[str, int], List[str]]:
    from ..server.protocol import format_race
    from ..server.service import RaceDetectionService, ServiceConfig

    service = RaceDetectionService(
        ServiceConfig(n_shards=N_SHARDS, flush_interval=0, admit=admit)
    )
    try:
        for event in events:
            service.engine.submit(event)
        races = sorted(
            format_race(seq, report)
            for seq, report in service.engine.barrier()
        )
        return _service_totals(service.stats()), races
    finally:
        service.close()


def _service_binary(events, admit) -> Tuple[Dict[str, int], List[str]]:
    from ..server.client import ServiceClient
    from ..server.protocol import format_race
    from ..server.service import RaceDetectionService, ServiceConfig, serve_tcp

    service = RaceDetectionService(
        ServiceConfig(n_shards=N_SHARDS, flush_interval=0, admit=admit)
    )
    server = serve_tcp(service, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServiceClient.tcp("127.0.0.1", server.server_address[1])
    try:
        if not client.enable_binary():
            raise RuntimeError("!binary rejected")
        client.stream(events)
        client.flush()
        races = sorted(format_race(r.seq, r) for r in client.races)
        return _service_totals(service.stats()), races
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        service.close()


def _cluster(events, admit, n_nodes: int) -> Tuple[Dict[str, int], List[str]]:
    from ..cluster import ClusterConfig, ClusterCoordinator
    from ..server.service import RaceDetectionService, ServiceConfig, serve_tcp

    nodes: Dict[str, Tuple[str, int]] = {}
    closers = []
    for i in range(n_nodes):
        service = RaceDetectionService(ServiceConfig(flush_interval=0))
        server = serve_tcp(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        nodes[f"node{i}"] = ("127.0.0.1", server.server_address[1])
        closers.append((server, service))
    coordinator = ClusterCoordinator(
        ClusterConfig(nodes=nodes, n_groups=N_SHARDS, balanced=True,
                      admit=admit)
    )
    try:
        for event in events:
            coordinator.submit_event(event)
        races = sorted(coordinator.barrier())
        stats = coordinator.stats()
        records = sum(node["events_sent"] for node in stats.nodes)
        coordinator.shutdown_nodes()
        return {"records": records, "cells": 0}, races
    finally:
        coordinator.close()
        for server, service in closers:
            server.shutdown()
            server.server_close()
            service.close()


_MODES = (
    ("offline", lambda ev, adm: _offline(ev, adm)),
    ("service_text", lambda ev, adm: _service_text(ev, adm)),
    ("service_binary", lambda ev, adm: _service_binary(ev, adm)),
    ("cluster_1node", lambda ev, adm: _cluster(ev, adm, 1)),
    ("cluster_2node", lambda ev, adm: _cluster(ev, adm, 2)),
)


def bench_admit(
    workloads=WORKLOADS, policy: str = POLICY, scale: str = SCALE
) -> Dict[str, object]:
    """Run every mode baseline-vs-admit; returns the JSON payload."""
    from ..analysis.admission import build_admission_filter, record_workload

    rows: List[Dict[str, object]] = []
    for name in workloads:
        events, objmap = record_workload(name, scale=scale)
        filt = build_admission_filter(
            name, policy=policy, scale=scale, objmap=objmap
        )
        modes: Dict[str, object] = {}
        all_parity = True
        best: Optional[float] = None
        for mode, run in _MODES:
            base_cost, base_races = run(events, None)
            # clone() restarts the per-run counters on the shared filter
            admit = filt.clone()
            adm_cost, adm_races = run(events, admit)
            base_work = base_cost["records"] + base_cost["cells"]
            adm_work = adm_cost["records"] + adm_cost["cells"]
            parity = base_races == adm_races
            all_parity = all_parity and parity
            reduction = round(base_work / adm_work, 4) if adm_work else None
            if reduction is not None:
                best = reduction if best is None else max(best, reduction)
            modes[mode] = {
                "baseline": dict(base_cost, work=base_work),
                "admit": dict(adm_cost, work=adm_work),
                "work_reduction": reduction,
                "races": len(base_races),
                "identical_race_lines": parity,
                "prefilter": {
                    "hits": admit.prefilter_hits,
                    "misses": admit.prefilter_misses,
                },
            }
        rows.append({
            "workload": name,
            "events": len(events),
            "filter": filt.describe(),
            "droppable_vars": sum(1 for _ in filt.droppable_vars()),
            "modes": modes,
            "best_work_reduction": best,
            "identical_race_lines": all_parity,
        })
    return {
        "benchmark": "admission_control",
        "policy": policy,
        "scale": scale,
        "n_shards": N_SHARDS,
        "cost_model": (
            "records (events processed by shards / shipped to nodes / fed "
            "to the offline detector) + kernel cells traversed; "
            "reduction = baseline work / admit work per mode"
        ),
        "workloads": rows,
        "gate": {
            "min_reduction": 2.0,
            "passed": any(
                (row["best_work_reduction"] or 0) >= 2.0
                and row["identical_race_lines"]
                for row in rows
            ),
        },
    }


def render_admit(payload: Dict[str, object]) -> str:
    """Human-readable table for terminal output."""
    lines = [
        f"Admission control ({payload['policy']} policy, "
        f"{payload['scale']} scale, {payload['n_shards']} shards); "
        f"work = records + kernel cells:",
    ]
    for row in payload["workloads"]:
        lines.append(f"  {row['workload']}: {row['filter']}")
        lines.append(
            f"  {'mode':<15} {'base work':>10} {'admit work':>11} "
            f"{'reduction':>10} {'races':>6} {'parity':>7}"
        )
        for mode, data in row["modes"].items():
            red = data["work_reduction"]
            lines.append(
                f"  {mode:<15} {data['baseline']['work']:>10} "
                f"{data['admit']['work']:>11} "
                f"{(str(red) + 'x') if red else 'n/a':>10} "
                f"{data['races']:>6} {str(data['identical_race_lines']):>7}"
            )
        lines.append(
            f"  best reduction {row['best_work_reduction']}x, "
            f"race-line parity = {row['identical_race_lines']}"
        )
    gate = payload["gate"]
    lines.append(
        f"gate: >= {gate['min_reduction']}x on one workload with parity "
        f"everywhere = {gate['passed']}"
    )
    return "\n".join(lines)


def write_admit_json(path: str) -> Dict[str, object]:
    """Run the benchmark and write the JSON artifact; returns the payload."""
    payload = bench_admit()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
