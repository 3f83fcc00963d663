"""Run registry lifecycle, retention, and service metrics internals."""

from __future__ import annotations

import pytest

from repro.serve import RunRegistry, TERMINAL_STATES
from repro.serve.metrics import LATENCY_BUCKETS, ServiceMetrics


class _FakeClock:
    def __init__(self):
        self.t = 1000.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestRunRegistry:
    def _reg(self, **kw):
        return RunRegistry(clock=_FakeClock(), **kw)

    def test_lifecycle(self):
        reg = self._reg()
        rec = reg.create(tenant="a", graph_name="g", backend="cgsim")
        assert rec.state == "queued"
        assert rec.run_id.startswith("r")
        reg.mark_running(rec.run_id)
        assert reg.get(rec.run_id).state == "running"
        reg.finish(rec.run_id, "ok", result_wire={"status": "ok"})
        got = reg.get(rec.run_id)
        assert got.state == "ok"
        assert got.latency_s == pytest.approx(2.0)
        assert got.to_wire()["result"] == {"status": "ok"}

    def test_non_terminal_finish_rejected(self):
        reg = self._reg()
        rec = reg.create(tenant="a", graph_name="g", backend="cgsim")
        with pytest.raises(ValueError):
            reg.finish(rec.run_id, "running")

    def test_eviction_spares_live_runs(self):
        reg = self._reg(max_records=3)
        live = reg.create(tenant="a", graph_name="g", backend="cgsim")
        done = [reg.create(tenant="a", graph_name="g", backend="cgsim")
                for _ in range(3)]
        for rec in done:
            reg.finish(rec.run_id, "ok")
        # One more insertion pushes over the cap: the oldest *terminal*
        # records go until we're back at the cap; the still-queued one
        # survives even though it is the oldest of all.
        extra = reg.create(tenant="a", graph_name="g", backend="cgsim")
        assert reg.get(live.run_id) is not None
        assert reg.get(extra.run_id) is not None
        assert reg.get(done[0].run_id) is None
        assert reg.get(done[1].run_id) is None
        assert len(reg) == 3
        assert reg.evicted == 2
        assert reg.counts()["evicted"] == 2

    def test_drop_rollback(self):
        reg = self._reg()
        rec = reg.create(tenant="a", graph_name="g", backend="cgsim")
        reg.drop(rec.run_id)
        assert reg.get(rec.run_id) is None
        assert len(reg) == 0
        reg.drop("r-missing")      # idempotent

    def test_list_newest_first_with_tenant_filter(self):
        reg = self._reg()
        reg.create(tenant="a", graph_name="g1", backend="cgsim")
        reg.create(tenant="b", graph_name="g2", backend="cgsim")
        reg.create(tenant="a", graph_name="g3", backend="cgsim")
        rows = reg.list()
        assert [r["graph"] for r in rows] == ["g3", "g2", "g1"]
        assert "result" not in rows[0]
        rows_a = reg.list(tenant="a")
        assert [r["graph"] for r in rows_a] == ["g3", "g1"]
        assert reg.list(limit=1)[0]["graph"] == "g3"

    def test_terminal_states_frozen(self):
        assert TERMINAL_STATES == {"ok", "failed", "stalled", "error"}


def _latencies(*seconds):
    """A ServiceMetrics whose latency histogram saw *seconds*."""
    m = ServiceMetrics()
    for s in seconds:
        m.run_finished("a", "g", "ok", s)
    return m


def _counts(m):
    ((_labels, state),) = m.latency.items()
    return state.counts


class TestLatencyHistogram:
    def test_percentiles_monotone(self):
        m = _latencies(*(ms / 1e3 for ms in (1, 2, 4, 8, 50, 120, 3000)))
        d = m.snapshot()["latency"]
        assert d["total"] == 7
        assert 0.0 < d["p50_s"] <= d["p90_s"] <= d["p99_s"]
        assert d["max_s"] == pytest.approx(3.0)

    def test_sub_millisecond_bucket(self):
        m = _latencies(0.0002)
        assert _counts(m)[0] == 1
        assert m.latency_percentile(50) <= 0.001

    def test_empty(self):
        assert ServiceMetrics().latency_percentile(99) == 0.0

    def test_power_of_two_counts_under_its_own_bound(self):
        # The registry's ``le`` rule: exactly 2 ms is in the <= 2 ms
        # bucket, and the JSON labels say so.
        m = _latencies(0.002)
        assert _counts(m)[1] == 1
        assert m.snapshot()["latency"]["buckets_ms"] == {"<=2": 1}

    def test_prometheus_family_is_the_histogram(self):
        m = _latencies(0.003)
        text = m.prometheus()
        assert 'repro_serve_run_latency_seconds_bucket{le="0.004"} 1' in text
        assert "repro_serve_run_latency_seconds_count 1" in text


class TestServiceMetrics:
    def test_counters_and_snapshot(self):
        m = ServiceMetrics()
        m.count("submitted", tenant="a", graph="g")
        m.run_admitted("a", "g")
        m.run_finished("a", "g", "ok", 0.01)
        m.count("submitted", tenant="a", graph="g")
        m.run_admitted("a", "g")
        m.run_finished("a", "g", "failed", 0.02)
        snap = m.snapshot(queue_depth=3, workers=2)
        assert snap["runs"]["submitted"] == 2
        assert snap["runs"]["completed"] == 1
        assert snap["runs"]["failed"] == 1
        assert snap["in_flight"] == 0
        assert snap["queue_depth"] == 3
        assert snap["workers"] == 2
        assert snap["tenants"]["a"]["completed"] == 1
        assert snap["graphs"]["g"]["failed"] == 1
        assert snap["latency"]["total"] == 2
        assert {"hits", "misses", "evictions", "hit_rate"} <= set(
            snap["plan_cache"])

    def test_error_state_maps_to_errors(self):
        m = ServiceMetrics()
        m.run_admitted("a", "g")
        m.run_finished("a", "g", "error", 0.0)
        assert m.snapshot()["runs"]["errors"] == 1


class TestLatencyHistogramEdges:
    """Percentile edge cases: empty, single bucket, p0/p100."""

    def test_empty_all_percentiles_zero(self):
        m = ServiceMetrics()
        for p in (0, 50, 100):
            assert m.latency_percentile(p) == 0.0

    def test_single_bucket_interpolates_within_bounds(self):
        m = _latencies(*[0.003] * 4)  # 2-4 ms bucket
        for p in (0, 25, 50, 100):
            assert 0.002 <= m.latency_percentile(p) <= 0.004

    def test_p0_clamps_to_first_occupied_bucket(self):
        m = _latencies(0.010, 0.100)  # 8-16 ms, 64-128 ms
        # target clamps to the 1st sample, never below
        assert 0.008 <= m.latency_percentile(0) <= 0.016

    def test_p100_reaches_last_occupied_bucket(self):
        m = _latencies(0.0015, 0.5)  # 1-2 ms, 256-512 ms
        assert 0.256 <= m.latency_percentile(100) <= 0.512

    def test_percentiles_monotone_in_p(self):
        m = _latencies(*(ms / 1e3 for ms in (1, 3, 9, 27, 81, 243)))
        values = [m.latency_percentile(p) for p in (0, 10, 50, 90, 99, 100)]
        assert values == sorted(values)

    def test_overflow_bucket_catches_huge_latency(self):
        m = _latencies(10_000.0)  # way past the 2**20 ms ladder
        assert _counts(m)[len(LATENCY_BUCKETS)] == 1
        assert 0.0 < m.latency_percentile(100) <= 10_000.0
