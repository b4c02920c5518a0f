"""Metrics registry: counters, gauges, histograms, snapshot/reset."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_key,
    series_name,
)


class TestSeriesNaming:
    def test_unlabeled_series_is_bare_name(self):
        assert series_name("migrations_total", label_key({})) == (
            "migrations_total"
        )

    def test_labels_sorted_and_stringified(self):
        key = label_key({"scheme": "aqua", "reason": 7})
        assert series_name("migrations_total", key) == (
            "migrations_total{reason=7,scheme=aqua}"
        )

    def test_label_order_is_canonical(self):
        assert label_key({"a": 1, "b": 2}) == label_key({"b": 2, "a": 1})


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        counter = Counter("migrations_total")
        counter.inc(scheme="aqua")
        counter.inc(2.0, scheme="aqua")
        counter.inc(scheme="rrs")
        assert counter.value(scheme="aqua") == 3.0
        assert counter.value(scheme="rrs") == 1.0
        assert counter.value(scheme="unseen") == 0.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1.0)

    def test_set_total_overwrites_for_collectors(self):
        counter = Counter("scheme_accesses_total")
        counter.set_total(10.0, scheme="aqua")
        counter.set_total(25.0, scheme="aqua")
        assert counter.value(scheme="aqua") == 25.0


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("rqa_occupancy")
        gauge.set(100.0)
        gauge.add(-25.0)
        assert gauge.value() == 75.0


class TestHistogram:
    def test_count_sum_mean(self):
        hist = Histogram("fpt_lookup_ns")
        for value in (1.0, 2.0, 300.0):
            hist.observe(value, scheme="aqua")
        assert hist.count(scheme="aqua") == 3
        assert hist.sum(scheme="aqua") == 303.0
        assert hist.mean(scheme="aqua") == pytest.approx(101.0)
        assert math.isnan(hist.mean(scheme="other"))

    def test_series_emits_cumulative_buckets(self):
        hist = Histogram("lat", buckets=(10.0, 100.0))
        hist.observe(5.0)
        hist.observe(50.0)
        hist.observe(5_000.0)  # beyond the last bound -> +Inf
        series = hist.series()
        assert series["lat_bucket{le=10}"] == 1.0
        assert series["lat_bucket{le=100}"] == 2.0
        assert series["lat_bucket{le=+Inf}"] == 3.0
        assert series["lat_count"] == 3.0
        assert series["lat_sum"] == 5_055.0

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ValueError):
            Histogram("empty", buckets=())


def _one_by_one(values, start=()):
    hist = Histogram("lat")
    for value in list(start) + list(values):
        hist.observe(value, scheme="aqua")
    return hist


def _bulk(values, start=()):
    hist = Histogram("lat")
    for value in start:
        hist.observe(value, scheme="aqua")
    hist.observe_many(values, scheme="aqua")
    return hist


class TestObserveMany:
    """Bulk observe is bit-identical to repeated ``observe``."""

    def _assert_same(self, values, start=()):
        one, bulk = _one_by_one(values, start), _bulk(values, start)
        assert list(bulk.series().items()) == list(one.series().items())
        assert bulk.sum(scheme="aqua").hex() == one.sum(scheme="aqua").hex()
        assert bulk.count(scheme="aqua") == one.count(scheme="aqua")

    def test_sum_is_sequential_not_compensated(self):
        # Compensated (Python >= 3.12 ``sum``, ``math.fsum``) or pairwise
        # (``np.sum``) summation gives a different total for this order.
        values = [1e16, 1.0, -1e16, 0.1] * 7
        sequential = 0.0
        for value in values:
            sequential += value
        assert math.fsum(values) != sequential
        self._assert_same(values)
        assert _bulk(values).sum(scheme="aqua") == sequential

    def test_continues_an_existing_series(self):
        self._assert_same([0.1, 0.2, 0.3] * 5, start=[1e16, 2.5, 0.7])

    def test_bucket_edges_and_non_finite_values(self):
        self._assert_same(
            [1.0, 2.5, 2.5000001, 10_000.0, 10_001.0, math.inf, -3.0, 0.0]
        )
        nan = _bulk([math.nan, 1.0])
        assert nan.series()["lat_bucket{le=+Inf,scheme=aqua}"] == 2.0
        assert nan.series()["lat_bucket{le=1,scheme=aqua}"] == 1.0

    def test_empty_bulk_registers_nothing(self):
        hist = Histogram("lat")
        hist.observe_many([], scheme="aqua")
        assert hist.series() == {}

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, min_value=-1e18, max_value=1e18),
            max_size=60,
        ),
        st.lists(st.floats(0.0, 1e4), max_size=5),
    )
    def test_matches_repeated_observe(self, values, start):
        self._assert_same(values, start)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_snapshot_flattens_every_series(self):
        registry = MetricsRegistry()
        registry.counter("migrations_total").inc(scheme="aqua")
        registry.gauge("occupancy").set(42.0)
        snapshot = registry.snapshot()
        assert snapshot["migrations_total{scheme=aqua}"] == 1.0
        assert snapshot["occupancy"] == 42.0

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("migrations_total").inc()
        registry.reset()
        assert registry.snapshot() == {}
        assert registry.counter("migrations_total").value() == 0.0

    def test_render_table_hides_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(5.0)
        table = registry.render_table()
        assert "_bucket{" not in table
        assert "lat_count" in table

    def test_render_table_empty(self):
        assert "no metrics" in MetricsRegistry().render_table()
