"""``repro.obs`` — zero-dependency observability for the hybrid catalog.

Five pieces, threaded through every pipeline layer:

* :mod:`.metrics` — thread-safe counters, gauges, and histograms in a
  :class:`MetricsRegistry` (process-global default, per-catalog
  override); each catalog operation times itself into its declared
  ``catalog_*_seconds`` histogram;
* :mod:`.profile` — per-stage query execution profiles (``repro
  explain --analyze``), collected identically by both backends;
* :mod:`.events` — the versioned JSON-lines event log (query audit,
  slow queries with embedded profiles, rollbacks, fault injections);
* :mod:`.series` — windowed ring-buffer time series (QPS, error rate,
  p95, lock/pool waits) differenced from the registry for ``repro top``;
* :mod:`.export` — JSON snapshots and Prometheus text exposition.

See the "Observability" sections of README.md and DESIGN.md for metric
names and label conventions, and :mod:`.names` for the declared
metric/event/series registries OBS01 lints against.
"""

from .events import EventLog, read_events, tail_events
from .export import (
    load_snapshot,
    registry_snapshot,
    render_json,
    render_prometheus,
    render_table,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from .profile import QueryProfile, StageProfile, collecting, current_profile
from .series import RingSeries, SeriesCollector

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "QueryProfile",
    "RingSeries",
    "SeriesCollector",
    "StageProfile",
    "collecting",
    "current_profile",
    "default_registry",
    "load_snapshot",
    "read_events",
    "registry_snapshot",
    "render_json",
    "render_prometheus",
    "render_table",
    "set_default_registry",
    "tail_events",
]
