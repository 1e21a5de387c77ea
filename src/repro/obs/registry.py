"""A dependency-free metrics registry with Prometheus text exposition.

Three metric types, mirroring the Prometheus data model closely enough
that the output of :meth:`MetricsRegistry.render` is valid `text
exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_:

* :class:`Counter` -- monotonically increasing; rendered with a
  ``_total`` suffix convention left to the caller (the bridge names every
  counter ``*_total``);
* :class:`Gauge` -- goes up and down (rates, uptime, hosted groups);
* :class:`Histogram` -- fixed cumulative buckets chosen at registration;
  rendered as the standard ``_bucket{le=...}`` / ``_sum`` / ``_count``
  triple.

Metrics may carry **labels**: a family is registered once with its label
names and each distinct label-value tuple becomes a child series
(``registry.gauge("shard_short_circuit_rate", ..., labels=("shard",)).labels("3")``).

Registration enforces the two invariants CI checks: family names are
**unique** and **snake_case** (``^[a-z][a-z0-9_]*$``).  The full name on
the wire is ``<prefix>_<name>`` (default prefix ``repro``).

:func:`parse_exposition` is the tiny inverse used by tests and the CI
smoke job to assert the exposition actually parses.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}

#: default latency buckets (seconds): 1us .. ~16s, powers of 4
LATENCY_BUCKETS = tuple(1e-6 * 4**i for i in range(13))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} is not snake_case ([a-z][a-z0-9_]*)"
        )
    return name


def _escape_label(value: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in value)


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _fmt_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class _Child:
    """One labeled series of a family (or the single unlabeled series)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value


class _CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    def set_total(self, total: Union[int, float]) -> None:
        """Jump to an externally accumulated total (snapshot bridging)."""
        if total < self._value:
            raise ValueError(
                f"counter total went backwards: {total} < {self._value}"
            )
        self._value = total


class _GaugeChild(_Child):
    __slots__ = ()

    def set(self, value: Union[int, float]) -> None:
        self._value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self._value -= amount


class _HistogramChild:
    """Fixed cumulative buckets plus sum and count."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # final slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, n: int = 1) -> None:
        self.counts[bisect_left(self.buckets, value)] += n
        self.sum += value * n
        self.count += n


class _Family:
    """One named metric family; children keyed by label-value tuples."""

    def __init__(
        self,
        name: str,
        help_text: str,
        mtype: str,
        labels: Tuple[str, ...],
        child_factory,
    ) -> None:
        self.name = name
        self.help = help_text
        self.type = mtype
        self.label_names = labels
        self._factory = child_factory
        self._children: Dict[Tuple[str, ...], object] = {}
        if not labels:  # unlabeled families expose the child API directly
            self._children[()] = child_factory()

    def labels(self, *values: object):
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._factory()
        return child

    @property
    def children(self) -> Dict[Tuple[str, ...], object]:
        return self._children

    # Unlabeled convenience: family *is* its single child.
    def _solo(self):
        if self.label_names:
            raise ValueError(f"{self.name} has labels {self.label_names}; use .labels()")
        return self._children[()]


class Counter(_Family):
    def inc(self, amount: Union[int, float] = 1) -> None:
        self._solo().inc(amount)

    def set_total(self, total: Union[int, float]) -> None:
        self._solo().set_total(total)

    @property
    def value(self) -> float:
        return self._solo().value


class Gauge(_Family):
    def set(self, value: Union[int, float]) -> None:
        self._solo().set(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        self._solo().inc(amount)

    def dec(self, amount: Union[int, float] = 1) -> None:
        self._solo().dec(amount)

    @property
    def value(self) -> float:
        return self._solo().value


class Histogram(_Family):
    def observe(self, value: float, n: int = 1) -> None:
        self._solo().observe(value, n)


class MetricsRegistry:
    """A set of metric families sharing one name space and prefix.

    Thread-safe for registration and rendering (one lock; instrument
    updates themselves are plain attribute arithmetic -- atomic enough
    under the GIL for monitoring purposes, and the hot paths never take
    the registry lock).
    """

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = _check_name(prefix)
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- registration ----------------------------------------------------------

    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if existing.type != family.type or existing.label_names != family.label_names:
                    raise ValueError(
                        f"metric {family.name!r} re-registered with a different shape"
                    )
                return existing
            self._families[family.name] = family
            return family

    def counter(
        self, name: str, help_text: str, labels: Tuple[str, ...] = ()
    ) -> Counter:
        return self._register(  # type: ignore[return-value]
            Counter(_check_name(name), help_text, "counter", labels, _CounterChild)
        )

    def gauge(
        self, name: str, help_text: str, labels: Tuple[str, ...] = ()
    ) -> Gauge:
        return self._register(  # type: ignore[return-value]
            Gauge(_check_name(name), help_text, "gauge", labels, _GaugeChild)
        )

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labels: Tuple[str, ...] = (),
    ) -> Histogram:
        bucket_tuple = tuple(sorted(float(b) for b in buckets))
        if not bucket_tuple:
            raise ValueError("a histogram needs at least one bucket bound")
        return self._register(  # type: ignore[return-value]
            Histogram(
                _check_name(name),
                help_text,
                "histogram",
                labels,
                lambda: _HistogramChild(bucket_tuple),
            )
        )

    # -- introspection ---------------------------------------------------------

    def names(self) -> List[str]:
        """Registered family names (without the prefix), sorted."""
        with self._lock:
            return sorted(self._families)

    def family(self, name: str) -> _Family:
        return self._families[name]

    # -- exposition ------------------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition format, families in sorted order."""
        lines: List[str] = []
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        for fam in families:
            full = f"{self.prefix}_{fam.name}"
            lines.append(f"# HELP {full} {fam.help}")
            lines.append(f"# TYPE {full} {fam.type}")
            for key in sorted(fam.children):
                child = fam.children[key]
                if fam.type == "histogram":
                    cumulative = 0
                    for bound, count in zip(child.buckets, child.counts):
                        cumulative += count
                        label_str = _fmt_labels(
                            fam.label_names + ("le",), key + (_fmt_value(bound),)
                        )
                        lines.append(f"{full}_bucket{label_str} {cumulative}")
                    label_str = _fmt_labels(fam.label_names + ("le",), key + ("+Inf",))
                    lines.append(f"{full}_bucket{label_str} {child.count}")
                    plain = _fmt_labels(fam.label_names, key)
                    lines.append(f"{full}_sum{plain} {_fmt_value(child.sum)}")
                    lines.append(f"{full}_count{plain} {child.count}")
                else:
                    label_str = _fmt_labels(fam.label_names, key)
                    lines.append(f"{full}{label_str} {_fmt_value(child.value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of every series."""
        out: Dict[str, object] = {}
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        for fam in families:
            series: List[Dict[str, object]] = []
            for key in sorted(fam.children):
                child = fam.children[key]
                labels = dict(zip(fam.label_names, key))
                if fam.type == "histogram":
                    series.append(
                        {
                            "labels": labels,
                            "buckets": list(child.buckets),
                            "counts": list(child.counts),
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[f"{self.prefix}_{fam.name}"] = {
                "type": fam.type,
                "help": fam.help,
                "series": series,
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)


# -- parsing (tests / CI smoke) -------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>(?:\\.|[^"\\])*)"')


def parse_exposition(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse Prometheus text exposition into ``name -> [(labels, value)]``.

    Strict enough to catch broken output (a malformed sample line raises
    ``ValueError``); used by the test suite and the CI smoke job.  Family
    names declared by ``# TYPE`` lines are always present as keys -- for a
    histogram the *family* name maps to ``[]`` while its samples live under
    ``<name>_bucket`` / ``<name>_sum`` / ``<name>_count``, so presence
    checks work uniformly across metric types.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "TYPE":
                samples.setdefault(parts[2], [])
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        labels: Dict[str, str] = {}
        if match.group("labels"):
            for pair in _LABEL_RE.finditer(match.group("labels")):
                # One left-to-right pass: sequential str.replace would
                # mis-handle adjacent escapes like a backslash before "n".
                labels[pair.group("k")] = re.sub(
                    r"\\(.)",
                    lambda m: {"n": "\n"}.get(m.group(1), m.group(1)),
                    pair.group("v"),
                )
        value_text = match.group("value")
        value = math.inf if value_text == "+Inf" else float(value_text)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples
