"""Windowed-series tests: ring capacity, rate/gauge/p95 math from
controlled samples, and the bucket-delta percentile edge cases."""

import math

import pytest

from repro.obs import MetricsRegistry, RingSeries, SeriesCollector
from repro.obs.names import SERIES, SeriesSpec, _declare_series
from repro.obs.series import _bucket_delta_percentile


class TestRingSeries:
    def test_capacity_bounds_points(self):
        ring = RingSeries("qps", "rate", capacity=3)
        for i in range(5):
            ring.append(float(i), float(i * 10))
        assert ring.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        assert ring.values() == [20.0, 30.0, 40.0]
        assert ring.last() == 40.0
        assert len(ring) == 3

    def test_empty_ring(self):
        ring = RingSeries("qps", "rate")
        assert ring.last() is None
        assert ring.points() == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingSeries("qps", "rate", capacity=0)


class TestDeclarations:
    def test_undeclared_source_refused(self):
        for source in ("no_such_total", "no_such_seconds"):
            with pytest.raises(ValueError, match=source):
                _declare_series(
                    SeriesSpec("probe", "rate", "probe", (source,))
                )


class TestCollector:
    def test_one_ring_per_declared_series(self):
        collector = SeriesCollector(MetricsRegistry())
        assert set(collector.series) == set(SERIES)
        for name, ring in collector.series.items():
            assert ring.mode == SERIES[name].mode

    def test_baseline_sample_produces_only_gauges(self):
        collector = SeriesCollector(MetricsRegistry())
        produced = collector.sample(now=100.0)
        assert set(produced) == {
            name for name, spec in SERIES.items() if spec.mode == "gauge"
        }

    def test_rate_from_counter_delta(self):
        registry = MetricsRegistry()
        queries = registry.counter("catalog_queries_total", "queries")
        collector = SeriesCollector(registry)
        collector.sample(now=100.0)
        queries.inc(30)
        produced = collector.sample(now=103.0)
        assert produced["qps"] == pytest.approx(10.0)
        # No further activity: the next interval's rate is zero.
        assert collector.sample(now=104.0)["qps"] == 0.0

    def test_rate_sums_label_sets(self):
        registry = MetricsRegistry()
        rollbacks = registry.counter(
            "txn_rollbacks_total", "rollbacks", labels=("site",)
        )
        collector = SeriesCollector(registry)
        collector.sample(now=10.0)
        rollbacks.labels(site="a").inc(2)
        rollbacks.labels(site="b").inc(2)
        assert collector.sample(now=12.0)["error_rate"] == pytest.approx(2.0)

    def test_p95_from_bucket_deltas(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "catalog_query_seconds", "query latency",
            buckets=(0.1, 0.2, 0.4),
        )
        collector = SeriesCollector(registry)
        collector.sample(now=1.0)
        for _ in range(95):
            hist.observe(0.15)
        for _ in range(5):
            hist.observe(0.3)
        produced = collector.sample(now=2.0)
        # p95 lands exactly on the 0.1–0.2 bucket's upper edge.
        assert produced["query_p95"] == pytest.approx(0.2)

    def test_p95_nan_without_observations(self):
        registry = MetricsRegistry()
        registry.histogram("catalog_query_seconds", "query latency")
        collector = SeriesCollector(registry)
        collector.sample(now=1.0)
        produced = collector.sample(now=2.0)
        assert math.isnan(produced["query_p95"])

    def test_p95_merges_reader_and_writer_waits(self):
        registry = MetricsRegistry()
        readers = registry.histogram(
            "rwlock_reader_wait_seconds", "r", buckets=(0.1, 1.0)
        )
        writers = registry.histogram(
            "rwlock_writer_wait_seconds", "w", buckets=(0.1, 1.0)
        )
        collector = SeriesCollector(registry)
        collector.sample(now=1.0)
        for _ in range(10):
            readers.observe(0.05)
        for _ in range(10):
            writers.observe(0.5)
        value = collector.sample(now=2.0)["lock_wait_p95"]
        assert 0.1 < value <= 1.0

    def test_gauge_reads_instantaneous_value(self):
        registry = MetricsRegistry()
        depth = registry.gauge("pool_queue_depth", "queued readers")
        collector = SeriesCollector(registry)
        depth.set(3)
        assert collector.sample(now=1.0)["pool_queue_depth"] == 3.0
        depth.set(0)
        assert collector.sample(now=2.0)["pool_queue_depth"] == 0.0

    def test_latest_tracks_newest_point(self):
        registry = MetricsRegistry()
        registry.counter("catalog_queries_total", "queries").inc()
        collector = SeriesCollector(registry)
        assert collector.latest()["qps"] is None
        collector.sample(now=1.0)
        collector.sample(now=2.0)
        assert collector.latest()["qps"] == 0.0


class TestBucketDeltaPercentile:
    def test_interpolates_within_bucket(self):
        previous = {0.1: 0, 0.2: 0, math.inf: 0}
        current = {0.1: 0, 0.2: 100, math.inf: 100}
        # Every observation is in (0.1, 0.2]; p50 interpolates halfway.
        value = _bucket_delta_percentile(previous, current, 50)
        assert value == pytest.approx(0.15)

    def test_no_new_observations_is_nan(self):
        snap = {0.1: 5, math.inf: 7}
        assert math.isnan(_bucket_delta_percentile(snap, snap, 95))

    def test_overflow_bucket_reports_highest_finite_bound(self):
        previous = {0.1: 0, math.inf: 0}
        current = {0.1: 0, math.inf: 10}  # all beyond the last bound
        assert _bucket_delta_percentile(previous, current, 95) == 0.1

    def test_empty_snapshots_are_nan(self):
        assert math.isnan(_bucket_delta_percentile({}, {}, 95))
