"""Typed instruments and the metrics registry."""

from __future__ import annotations

import threading

import pytest

from repro.observe.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricFamily,
    MetricsRegistry,
    Sample,
    default_registry,
    log2_ms_buckets,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("t_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_negative_inc_rejected(self):
        c = Counter("t_total")
        with pytest.raises(MetricError, match="decrease"):
            c.inc(-1)

    def test_labeled_children_are_independent(self):
        c = Counter("t_total", labelnames=("event",))
        c.labels(event="ok").inc(3)
        c.labels(event="error").inc()
        assert c.value(event="ok") == 3
        assert c.value(event="error") == 1

    def test_labeled_counter_rejects_bare_inc(self):
        c = Counter("t_total", labelnames=("event",))
        with pytest.raises(MetricError, match="labels"):
            c.inc()

    def test_wrong_label_set_rejected(self):
        c = Counter("t_total", labelnames=("event",))
        with pytest.raises(MetricError, match="expects labels"):
            c.labels(nope="x")

    def test_unlabeled_collects_zero_sample(self):
        fam = Counter("t_total").collect()
        assert fam.kind == "counter"
        assert [(s.labels, s.value) for s in fam.samples] == [({}, 0.0)]

    def test_labeled_collect_is_sorted(self):
        c = Counter("t_total", labelnames=("event",))
        c.labels(event="zz").inc()
        c.labels(event="aa").inc()
        assert [s.labels["event"] for s in c.collect().samples] == \
            ["aa", "zz"]

    def test_concurrent_inc_is_lossless(self):
        c = Counter("t_total")

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("t_depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6

    def test_callback_gauge_reads_at_collect(self):
        box = {"v": 1.0}
        g = Gauge("t_depth")
        g.set_function(lambda: box["v"])
        box["v"] = 42.0
        (s,) = g.collect().samples
        assert s.value == 42.0

    def test_broken_callback_skipped_not_raised(self):
        g = Gauge("t_depth")
        g.set_function(lambda: 1 / 0)
        assert g.collect().samples == []


class TestHistogram:
    def test_bucket_counts_are_cumulative(self):
        h = Histogram("t_seconds", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 1.7, 5.0):
            h.observe(v)
        samples = {(s.suffix, s.labels.get("le")): s.value
                   for s in h.collect().samples}
        assert samples[("_bucket", "1")] == 1
        assert samples[("_bucket", "2")] == 3
        assert samples[("_bucket", "+Inf")] == 4
        assert samples[("_count", None)] == 4
        assert samples[("_sum", None)] == pytest.approx(8.7)

    def test_boundary_value_lands_in_its_le_bucket(self):
        # Prometheus buckets are inclusive upper bounds.
        h = Histogram("t_seconds", buckets=(1.0,))
        h.observe(1.0)
        samples = {s.labels.get("le"): s.value
                   for s in h.collect().samples if s.suffix == "_bucket"}
        assert samples["1"] == 1

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricError, match="ascending"):
            Histogram("t_seconds", buckets=(2.0, 1.0))

    def test_labeled_histogram(self):
        h = Histogram("t_seconds", labelnames=("graph",), buckets=(1.0,))
        h.labels(graph="g").observe(0.5)
        inf = [s for s in h.collect().samples
               if s.labels.get("le") == "+Inf"]
        assert inf[0].labels["graph"] == "g"
        assert inf[0].value == 1

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestLog2Buckets:
    def test_matches_latency_histogram_ladder(self):
        # bucket i of the serve run-latency histogram: <= 2**i ms
        assert log2_ms_buckets(4) == (0.001, 0.002, 0.004, 0.008)


class TestRegistry:
    def test_get_or_create_shares_instrument(self):
        r = MetricsRegistry()
        a = r.counter("x_total", "help", ("event",))
        b = r.counter("x_total", "ignored", ("event",))
        assert a is b

    def test_kind_clash_rejected(self):
        r = MetricsRegistry()
        r.counter("x_total")
        with pytest.raises(MetricError, match="already registered as"):
            r.gauge("x_total")

    def test_label_clash_rejected(self):
        r = MetricsRegistry()
        r.counter("x_total", labelnames=("a",))
        with pytest.raises(MetricError, match="labels"):
            r.counter("x_total", labelnames=("b",))

    def test_invalid_names_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(MetricError, match="invalid metric name"):
            r.counter("1bad")
        with pytest.raises(MetricError, match="invalid label name"):
            r.counter("ok_total", labelnames=("le",))
        with pytest.raises(MetricError, match="invalid label name"):
            r.counter("ok_total", labelnames=("__reserved",))

    def test_collect_sorted_by_name(self):
        r = MetricsRegistry()
        r.counter("z_total")
        r.counter("a_total")
        assert [f.name for f in r.collect()] == ["a_total", "z_total"]

    def test_collector_callback(self):
        r = MetricsRegistry()
        r.register_collector(lambda: [
            MetricFamily("ext_info", "gauge", "external",
                         [Sample("", {"k": "v"}, 1.0)]),
        ])
        (fam,) = r.collect()
        assert fam.name == "ext_info"
        assert fam.samples[0].labels == {"k": "v"}

    def test_raising_collector_is_skipped(self):
        r = MetricsRegistry()
        r.counter("ok_total").inc()
        r.register_collector(lambda: 1 / 0)
        assert [f.name for f in r.collect()] == ["ok_total"]

    def test_duplicate_family_names_merge(self):
        r = MetricsRegistry()
        r.register_collector(lambda: [
            MetricFamily("d_total", "counter", "", [Sample("", {}, 1.0)]),
        ])
        r.register_collector(lambda: [
            MetricFamily("d_total", "counter", "", [Sample("", {}, 2.0)]),
        ])
        (fam,) = r.collect()
        assert [s.value for s in fam.samples] == [1.0, 2.0]

    def test_default_registry_is_process_global(self):
        assert default_registry() is default_registry()
