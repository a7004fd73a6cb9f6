"""Thread-safe in-process metrics: counters, gauges, histograms.

The registry follows the Prometheus data model (families, label sets,
cumulative buckets — see ``tiled/server/metrics.py`` for the convention
this mirrors) but is pure standard library: the catalog must stay
zero-dependency, and the numbers are consumed in-process (exported by
:mod:`repro.obs.export` as JSON or Prometheus text exposition).

Naming convention: ``<subsystem>_<noun>_<unit-or-total>`` —
``catalog_ingest_seconds``, ``shredder_clobs_total``,
``planner_stage_rows``.  Label names are static and low-cardinality
(``stage``, ``op``, ``kind``, ``user``); free-form values such as
object names never become labels.

There is one process-global default registry
(:func:`default_registry`); every instrumented component also accepts
an explicit :class:`MetricsRegistry` so catalogs can be observed in
isolation (per-catalog override).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "default_registry",
    "set_default_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds, tuned for the latencies this
#: catalog sees (sub-millisecond shreds up to multi-second bulk loads).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, float("inf"),
)

#: How many raw observations a histogram retains for percentile math.
SAMPLE_CAP = 1024


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> dict:
        return {"value": self._value}

    def merge_dict(self, data: dict) -> None:
        self.inc(float(data.get("value", 0.0)))


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> dict:
        return {"value": self._value}

    def merge_dict(self, data: dict) -> None:
        # A merged gauge takes the most recent snapshot's value.
        self.set(float(data.get("value", 0.0)))


class Histogram:
    """Observations bucketed against fixed bounds, plus a bounded
    reservoir of recent raw samples for percentile summaries.

    Bucket counts are *per-bucket* internally; the exporter renders
    them cumulatively (Prometheus ``le`` semantics).
    """

    kind = "histogram"
    __slots__ = ("bounds", "_bucket_counts", "_sum", "_count",
                 "_min", "_max", "_samples", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = sorted(set(float(b) for b in buckets))
        if not bounds or bounds[-1] != math.inf:
            bounds.append(math.inf)
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._bucket_counts = [0] * len(self.bounds)
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._samples: deque = deque(maxlen=SAMPLE_CAP)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            # NaN compares false against every bound, so it would land
            # in no bucket and break the bucket-total == count invariant
            # (and poison sum/min/max).  Refuse it at the door.
            raise ValueError("cannot observe NaN")
        # The first bound >= value; the last bound is +inf.
        bucket = bisect_left(self.bounds, value)
        with self._lock:
            self._bucket_counts[bucket] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._samples.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style."""
        out = []
        running = 0
        with self._lock:
            for bound, n in zip(self.bounds, self._bucket_counts):
                running += n
                out.append((bound, running))
        return out

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0–100) of the retained samples,
        by linear interpolation; ``nan`` when empty."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            data = sorted(self._samples)
        if not data:
            return math.nan
        if len(data) == 1:
            return data[0]
        rank = (q / 100.0) * (len(data) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return data[lo]
        frac = rank - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def summary(self) -> dict:
        """count/sum/min/max plus the p50/p95/p99 summary.

        count/sum/min/max are read under the lock so the snapshot is
        internally consistent even with concurrent ``observe()`` calls
        (percentiles take the lock separately — the reservoir may run
        slightly ahead, but each number is coherent).
        """
        with self._lock:
            head = {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else math.nan,
                "max": self._max if self._count else math.nan,
            }
        head["p50"] = self.percentile(50)
        head["p95"] = self.percentile(95)
        head["p99"] = self.percentile(99)
        return head

    def as_dict(self) -> dict:
        with self._lock:
            data = {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "buckets": {
                    _bound_key(b): n
                    for b, n in zip(self.bounds, self._bucket_counts)
                },
                "samples": list(self._samples)[-256:],
            }
        data["p50"] = self.percentile(50)
        data["p95"] = self.percentile(95)
        data["p99"] = self.percentile(99)
        return _sanitize(data)

    def merge_dict(self, data: dict) -> None:
        """Fold a snapshot produced by :meth:`as_dict` into this
        histogram (used to accumulate across CLI invocations)."""
        buckets = data.get("buckets", {})
        with self._lock:
            matched = False
            if set(buckets) == {_bound_key(b) for b in self.bounds}:
                for i, bound in enumerate(self.bounds):
                    self._bucket_counts[i] += int(buckets[_bound_key(bound)])
                matched = True
            self._count += int(data.get("count", 0))
            self._sum += float(data.get("sum", 0.0))
            if data.get("min") is not None:
                self._min = min(self._min, float(data["min"]))
            if data.get("max") is not None:
                self._max = max(self._max, float(data["max"]))
            rebucketed = 0
            for sample in data.get("samples", ()):
                value = float(sample)
                self._samples.append(value)
                if not matched:
                    for i, bound in enumerate(self.bounds):
                        if value <= bound:
                            self._bucket_counts[i] += 1
                            rebucketed += 1
                            break
            if not matched:
                # Observations beyond the retained samples can't be
                # re-bucketed; park them in +Inf so the cumulative
                # bucket total still equals the count.
                remainder = int(data.get("count", 0)) - rebucketed
                if remainder > 0:
                    self._bucket_counts[-1] += remainder


def _bound_key(bound: float) -> str:
    return "+Inf" if bound == math.inf else repr(bound)


def _sanitize(value):
    """Replace non-JSON floats (nan/inf) with None, recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_sanitize(v) for v in value]
    return value


_METRIC_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric plus its labeled children.

    With no label names the family proxies straight to a single
    anonymous child, so ``registry.counter("x").inc()`` works.
    """

    __slots__ = ("name", "help", "kind", "label_names", "_children",
                 "_lock", "_kwargs")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        **kwargs,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        self._kwargs = kwargs

    def labels(self, **labels: str):
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        try:
            return self._children[key]
        except KeyError:
            pass
        with self._lock:
            if key not in self._children:
                self._children[key] = _METRIC_CLASSES[self.kind](**self._kwargs)
            return self._children[key]

    def series(self) -> List[Tuple[Dict[str, str], object]]:
        """``(labels-dict, metric)`` pairs, sorted by label values."""
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.label_names, key)), metric)
            for key, metric in items
        ]

    # -- anonymous-child proxies ---------------------------------------
    def _solo(self):
        # The anonymous child, once made, skips ``labels``' checks; a
        # labelled family never holds the key ``()``, so it still
        # raises there.
        child = self._children.get(())
        return child if child is not None else self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> float:
        return self._solo().value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "series": [
                {"labels": labels, **metric.as_dict()}
                for labels, metric in self.series()
            ],
        }


class MetricsRegistry:
    """A named collection of metric families with get-or-create
    accessors (repeat calls with the same name return the same family;
    a type conflict raises)."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # -- accessors ------------------------------------------------------
    def _family(self, name: str, kind: str, help: str,
                labels: Sequence[str], **kwargs) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(name, kind, help, labels, **kwargs)
                    self._families[name] = family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        return self._family(name, "histogram", help, labels, buckets=buckets)

    # -- introspection --------------------------------------------------
    def collect(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def reset(self) -> None:
        with self._lock:
            self._families.clear()

    # -- snapshot / restore ---------------------------------------------
    def as_dict(self) -> dict:
        return {
            "schema": "repro.obs/v1",
            "metrics": [family.as_dict() for family in self.collect()],
        }

    def load(self, snapshot: dict) -> None:
        """Fold a snapshot produced by :meth:`as_dict` into this
        registry: counters and histograms accumulate, gauges take the
        snapshot value.  Unknown families are created."""
        for entry in snapshot.get("metrics", ()):
            kind = entry.get("type")
            if kind not in _METRIC_CLASSES:
                continue
            family = self._family(
                entry["name"], kind, entry.get("help", ""),
                entry.get("label_names", ()),
            )
            for series in entry.get("series", ()):
                labels = series.get("labels", {})
                metric = family.labels(**labels)
                metric.merge_dict(series)


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-global registry instrumented code falls back to."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
