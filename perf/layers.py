"""The traced pass: spans around the system's layers, recorded from outside.

:data:`LAYER_TABLE` names the public callables at each layer boundary and
the module attribute through which callers look them up.  While a
:class:`SpanRecorder` is installed, each is replaced by a wrapper that
records one span per call -- name, start, end, parent -- and the originals
are restored on exit.  Count, total and self time (duration minus the time
child spans cover) are aggregated for every call; full span records are
kept for 1 in 64 top-level calls and written as JSONL.  A callable that no
longer exists is reported as missing and the pass goes on without it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from . import WORK

R = TypeVar("R")

#: (layer, module, attribute path) -- the attribute is looked up in that
#: module at call time, so wrapping it there intercepts every caller.
#: Rows are keyed by the module the code lives in.
LAYER_TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("server.service", "repro.server.service", "RaceDetectionService.handle_stream"),
    ("server.service", "repro.server.service", "RaceDetectionService.submit_line"),
    ("server.service", "repro.server.service", "RaceDetectionService.poll_reports"),
    ("server.service", "repro.server.service", "RaceDetectionService.barrier"),
    ("core.encode", "repro.core.encode", "EventEncoder.encode_line"),
    ("core.encode", "repro.server.engine", "encode_frame"),
    ("core.encode", "repro.server.engine", "decode_frame"),
    # the kernel imports decode_frame inside apply_packed, at call time
    ("core.encode", "repro.core.encode", "decode_frame"),
    ("server.engine", "repro.server.engine", "ShardedEngine.submit_line"),
    ("server.engine", "repro.server.engine", "ShardedEngine.submit_wire_frame"),
    ("server.engine", "repro.server.engine", "ShardedEngine.flush"),
    ("server.engine", "repro.server.engine", "ShardedEngine.poll_reports"),
    ("server.engine", "repro.server.engine", "ShardedEngine.barrier"),
    ("core.kernel", "repro.core.kernel", "EncodedGoldilocks.apply_packed"),
    ("core.kernel", "repro.core.kernel", "EncodedGoldilocks.process"),
    ("core.kernel", "repro.core.kernel", "EncodedGoldilocks.process_all"),
    ("core.kernel.gc", "repro.core.kernel", "EncodedGoldilocks.collect"),
    ("server.protocol", "repro.server.service", "format_race"),
    ("server.protocol", "repro.server.service", "read_frame"),
    ("trace.io", "repro.trace.io", "load_trace"),
    ("lang.interp", "repro.lang.interp", "run_program"),
)

#: every layer, in pipeline order
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in LAYER_TABLE))

#: keep the full records of 1 in this many top-level calls
SAMPLE_EVERY = 64

#: name of the benchmark's own span around one traced pass
ROOT = "perf.pass"


class _Span:
    __slots__ = ("sid", "name", "parent", "depth", "child", "sampled")

    def __init__(self, sid: int, name: str, parent: Optional["_Span"], sampled: bool) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.child = 0.0
        self.sampled = sampled


_clock = time.perf_counter


class SpanRecorder:
    """Records spans at the layer boundaries of :data:`LAYER_TABLE`.

    Aggregates are kept per thread (the service's flusher thread calls
    into the engine too) and summed by :meth:`layer_totals`.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._per_thread: List[Dict[str, List[float]]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._top_calls = itertools.count()
        self.t0 = _clock()
        self.records: List[dict] = []
        #: (duration, self time) of every root span
        self.roots: List[Tuple[float, float]] = []
        self.missing: List[str] = []

    def _new_thread(self) -> Tuple[list, dict]:
        local = self._local
        local.stack, local.totals = [], {}
        with self._lock:
            self._per_thread.append(local.totals)
        return local.stack, local.totals

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one span named ``name`` under the current span.

        A *top-level* call is one made by the entry call of a pass (the
        first call under a root span), or the outermost call on another
        thread; 1 in :data:`SAMPLE_EVERY` of them keeps its full records,
        its descendants included.  Root and entry spans are always kept.
        """
        local = self._local
        try:
            stack, totals = local.stack, local.totals
        except AttributeError:
            stack, totals = self._new_thread()
        parent = stack[-1] if stack else None
        if parent is None:
            sampled = name == ROOT or next(self._top_calls) % SAMPLE_EVERY == 0
        elif parent.depth == 0 and parent.name == ROOT:
            sampled = True  # the entry call of a pass
        elif parent.depth == 1 and parent.parent.name == ROOT:
            sampled = next(self._top_calls) % SAMPLE_EVERY == 0
        else:
            sampled = parent.sampled
        span = _Span(next(self._ids) if sampled else 0, name, parent, sampled)
        stack.append(span)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent.child += duration
            agg = totals.get(name)
            if agg is None:
                agg = totals[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - span.child
            if name == ROOT:
                self.roots.append((duration, duration - span.child))
            if sampled:
                self.records.append(
                    {
                        "id": span.sid,
                        "parent": parent.sid if parent is not None else None,
                        "name": name,
                        "start": start - self.t0,
                        "end": end - self.t0,
                        "thread": threading.get_ident(),
                    }
                )

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` as one traced pass under a root span."""
        return self.call(ROOT, fn, *args, **kwargs)

    def layer_totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``layer -> (calls, total s, self s)`` summed over threads."""
        out: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            for name, (calls, total, own) in table.items():
                agg = out.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own
        return {name: (int(c), t, s) for name, (c, t, s) in out.items()}

    def coverage(self) -> float:
        """Worst share of a root span covered by the named layers' self time."""
        shares = [1.0 - own / duration for duration, own in self.roots if duration > 0]
        return min(shares) if shares else 0.0

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every :data:`LAYER_TABLE` callable; restore them on exit."""
        restore = []
        try:
            for layer, module_name, attr_path in LAYER_TABLE:
                try:
                    owner, attr = _resolve(module_name, attr_path)
                except (ImportError, AttributeError):
                    self.missing.append(f"{layer} {module_name}:{attr_path}")
                    continue
                raw = owner.__dict__.get(attr, _ABSENT)
                setattr(owner, attr, self._wrap(layer, getattr(owner, attr)))
                restore.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                if raw is _ABSENT:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, raw)

    def _wrap(self, layer: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(layer, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced


_ABSENT = object()


def _resolve(module_name: str, attr_path: str):
    """``(object holding the attribute, attribute name)``; raises if absent."""
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)
    return owner, attr


def kernel_counter_metrics(det: Dict[str, int]) -> Dict[str, float]:
    """The kernel's per-layer counters from a ``DetectorStats.as_dict()``."""
    from repro.core.stats import hb_queries_of, short_circuit_rate_of

    full = det.get("full_lockset_computations", 0)
    return {
        "core.kernel.hb_queries": hb_queries_of(det),
        "core.kernel.sc_rate": short_circuit_rate_of(det),
        "core.kernel.full_lockset_computations": full,
        "core.kernel.cells_traversed": det.get("cells_traversed", 0),
        "core.kernel.cells_per_full": det.get("cells_traversed", 0) / full if full else 0.0,
        "core.kernel.memo_hit_rate": det.get("memo_shared_hits", 0) / full if full else 0.0,
        "core.kernel.cells_collected": det.get("cells_collected", 0),
        "core.kernel.partial_evaluations": det.get("partial_evaluations", 0),
    }


def traced_pass(one_pass: Callable[[Optional[SpanRecorder]], Tuple[float, R]], tag: str):
    """Run ``one_pass`` untraced, then traced; ``(metrics, results, missing)``.

    ``one_pass(recorder)`` performs the workload in-process -- under
    ``recorder.root`` when a recorder is given -- and returns ``(seconds,
    result)``.  The metrics are every layer's self time and call count,
    plus ``trace.overhead`` (traced / untraced seconds), ``trace.coverage``
    and ``trace.missing``; the full span records of the sampled calls go to
    ``spans-<tag>.jsonl`` in the work directory.
    """
    plain_s, plain = one_pass(None)
    recorder = SpanRecorder()
    with recorder.installed():
        traced_s, traced = one_pass(recorder)
    recorder.write_jsonl(WORK / f"spans-{tag}.jsonl")
    totals = recorder.layer_totals()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        calls, _total, own = totals.get(layer, (0, 0.0, 0.0))
        metrics[f"{layer}.self_s"] = own
        metrics[f"{layer}.calls"] = calls
    metrics["trace.overhead"] = traced_s / plain_s
    metrics["trace.coverage"] = recorder.coverage()
    metrics["trace.missing"] = len(recorder.missing)
    return metrics, (plain, traced), recorder.missing
