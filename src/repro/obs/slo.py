"""SLO watchdog: service-level objective gauges derived from live metrics.

ROADMAP item 5 asks the observability layer to become *enforcement*: a
scrape should say not just what the counters are but whether the service
is inside its operating envelope.  The watchdog evaluates two
objectives -- p99 apply latency and the parse-error rate -- against
configurable thresholds and exports them as
``repro_slo_*`` gauges.  A breach flips the ``!health`` status (and the
``/healthz`` payload) to ``degraded``; nothing else changes, so the flip
is observable without being disruptive.

The same evaluator serves two scopes:

* a single service computes its ingredients from its own tracer histogram
  and stats snapshot (:func:`apply_buckets_from_tracer`);
* the cluster coordinator computes them from the *federated* expositions
  its member nodes return over ``!metrics``
  (:func:`apply_buckets_from_samples` over the parsed scrape, summing the
  cumulative buckets across nodes -- cumulative histograms add).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .registry import MetricsRegistry

#: the latency histogram family the p99 objective reads (full wire name)
APPLY_BUCKET_SAMPLE = "repro_stage_latency_seconds_bucket"
#: parse-error counter the rate objective reads from a member exposition
PARSE_ERRORS_SAMPLE = "repro_ingest_parse_errors_total"
#: uptime gauge used to average the parse-error rate
UPTIME_SAMPLE = "repro_uptime_seconds"


@dataclass(frozen=True)
class SloThresholds:
    """Operating envelope; defaults are generous enough for CI smoke runs."""

    #: p99 per-batch apply latency ceiling, seconds
    apply_p99_sec: float = 2.0
    #: parse errors per second, averaged over the whole uptime
    parse_error_rate: float = 5.0
    #: absolute error count below which the rate objective never fires --
    #: early in a service's life a single bad line yields a huge rate
    parse_error_min: int = 10


@dataclass
class SloVerdict:
    """One evaluation: the measured values plus the breached objectives."""

    apply_p99_sec: float = 0.0
    parse_error_rate: float = 0.0
    breaches: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.breaches)

    def as_dict(self) -> Dict[str, object]:
        return {
            "apply_p99_sec": self.apply_p99_sec,
            "parse_error_rate": self.parse_error_rate,
            "breaches": list(self.breaches),
            "degraded": self.degraded,
        }


def p99_from_buckets(pairs: Sequence[Tuple[float, float]]) -> float:
    """p99 estimate from cumulative ``(le_bound, count)`` pairs.

    Returns the smallest bucket bound covering 99% of observations (the
    standard conservative histogram-quantile estimate); 0.0 when empty.
    """
    if not pairs:
        return 0.0
    ordered = sorted(pairs)
    total = ordered[-1][1]
    if total <= 0:
        return 0.0
    target = 0.99 * total
    for bound, cumulative in ordered:
        if cumulative >= target and bound != math.inf:
            return bound
    # Only the +Inf bucket covers p99: report the largest finite bound.
    finite = [bound for bound, _ in ordered if bound != math.inf]
    return finite[-1] if finite else 0.0


def apply_buckets_from_tracer(tracer) -> List[Tuple[float, float]]:
    """Cumulative apply-latency buckets from a live LifecycleTracer."""
    try:
        family = tracer.registry.family("stage_latency_seconds")
    except KeyError:
        return []
    child = family.children.get(("apply",))
    if child is None:
        return []
    pairs: List[Tuple[float, float]] = []
    cumulative = 0
    for bound, count in zip(child.buckets, child.counts):
        cumulative += count
        pairs.append((float(bound), float(cumulative)))
    pairs.append((math.inf, float(child.count)))
    return pairs


def apply_buckets_from_samples(
    samples: Dict[str, List[Tuple[Dict[str, str], float]]],
) -> List[Tuple[float, float]]:
    """Cumulative apply-latency buckets summed across a parsed exposition.

    Cumulative bucket counts with the same ``le`` bound add across series
    (and across nodes), so the merged pairs stay a valid cumulative
    histogram for :func:`p99_from_buckets`.
    """
    merged: Dict[float, float] = {}
    for labels, value in samples.get(APPLY_BUCKET_SAMPLE, []):
        if labels.get("stage") != "apply":
            continue
        le = labels.get("le", "")
        bound = math.inf if le == "+Inf" else float(le)
        merged[bound] = merged.get(bound, 0.0) + value
    return sorted(merged.items())


class SloWatchdog:
    """Evaluates the objectives and exports them as ``repro_slo_*`` gauges."""

    def __init__(self, thresholds: Optional[SloThresholds] = None) -> None:
        self.thresholds = thresholds or SloThresholds()
        self.last: Optional[SloVerdict] = None

    def evaluate(
        self,
        apply_buckets: Sequence[Tuple[float, float]] = (),
        parse_errors: int = 0,
        uptime_sec: float = 0.0,
    ) -> SloVerdict:
        limits = self.thresholds
        verdict = SloVerdict(
            apply_p99_sec=p99_from_buckets(apply_buckets),
            parse_error_rate=(
                parse_errors / uptime_sec if uptime_sec > 0 else 0.0
            ),
        )
        if verdict.apply_p99_sec > limits.apply_p99_sec:
            verdict.breaches.append("apply_p99_sec")
        if (
            verdict.parse_error_rate > limits.parse_error_rate
            and parse_errors >= limits.parse_error_min
        ):
            verdict.breaches.append("parse_error_rate")
        self.last = verdict
        return verdict

    def evaluate_samples(
        self, samples: Dict[str, List[Tuple[Dict[str, str], float]]]
    ) -> SloVerdict:
        """Evaluate straight from a parsed exposition (federation scope)."""
        errors = sum(
            value for _labels, value in samples.get(PARSE_ERRORS_SAMPLE, [])
        )
        uptime = max(
            (value for _labels, value in samples.get(UPTIME_SAMPLE, [])),
            default=0.0,
        )
        return self.evaluate(
            apply_buckets=apply_buckets_from_samples(samples),
            parse_errors=int(errors),
            uptime_sec=uptime,
        )

    def export(
        self, registry: MetricsRegistry, verdict: Optional[SloVerdict] = None
    ) -> MetricsRegistry:
        """Register the ``slo_*`` gauge family from a verdict."""
        verdict = verdict or self.last or SloVerdict()
        registry.gauge(
            "slo_apply_latency_p99_seconds",
            "SLO: p99 per-batch apply latency (conservative bucket estimate)",
        ).set(verdict.apply_p99_sec)
        registry.gauge(
            "slo_parse_error_rate",
            "SLO: parse errors per second, averaged over uptime",
        ).set(verdict.parse_error_rate)
        registry.gauge(
            "slo_degraded",
            "1 while any SLO is breached (health reports degraded)",
        ).set(1 if verdict.degraded else 0)
        return registry
