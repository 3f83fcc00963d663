"""Live service metrics: what ``GET /metrics`` reports.

One lock-guarded accumulator fed by the scheduler and the run executor:

* run counters (submitted / admitted / rejected-by-queue /
  rejected-by-quota / completed / failed / errored) plus the same split
  per tenant and per graph;
* an exact in-flight gauge (queued + running);
* a log2-millisecond **latency histogram** over submit→finish wall
  time (a registry :class:`~repro.observe.registry.Histogram`), with
  p50/p90/p99 estimates read from its buckets;
* the shared compiled-plan cache's hit/miss/eviction counters
  (:func:`repro.exec.plan_cache_stats`) and the derived hit rate —
  the cross-request artifact-sharing signal;
* an aggregate of every traced run's
  :class:`~repro.observe.TraceMetrics` (via
  :func:`repro.observe.merge_metrics`): total kernel busy/blocked
  seconds and queue transfer counts across the whole service lifetime.

Every counter is *backed* by a per-service
:class:`~repro.observe.registry.MetricsRegistry` (typed Counter/Gauge
instruments with tenant/graph/event labels), so the same state renders
two ways: the JSON snapshot above, and Prometheus text exposition via
:meth:`ServiceMetrics.prometheus` (``GET /metrics?format=prometheus``).
The latency histogram is a registry instrument and the plan cache
exports through a scrape-time collector callback — one source of
truth, no double bookkeeping.
Recent run ids surface as a bounded ``repro_serve_run_info`` gauge so a
run submitted over HTTP is findable by its correlation id in the scrape.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..observe.registry import (
    MetricFamily,
    MetricsRegistry,
    Sample,
    log2_ms_buckets,
)

__all__ = ["ServiceMetrics"]

#: Distinct run ids retained in the ``repro_serve_run_info`` gauge —
#: enough for dashboards to correlate recent runs without letting the
#: scrape grow with service lifetime.
RUN_INFO_LIMIT = 64


#: Upper bounds of the run-latency histogram: log2 milliseconds,
#: 1 ms .. 2**20 ms (about 17.5 min), then the registry's ``+Inf``.
LATENCY_BUCKETS = log2_ms_buckets(21)


_COUNTER_KEYS = ("submitted", "admitted", "rejected_queue",
                 "rejected_quota", "completed", "failed", "stalled",
                 "errors")


class ServiceMetrics:
    """Thread-safe counters + latency histogram + observe aggregation,
    backed by a per-service :class:`MetricsRegistry` for Prometheus
    exposition.  A private registry per service keeps concurrent test
    services (and their scrapes) fully isolated."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {k: 0 for k in _COUNTER_KEYS}
        self._per_tenant: Dict[str, Dict[str, int]] = {}
        self._per_graph: Dict[str, Dict[str, int]] = {}
        self._in_flight = 0
        self._latency_max = 0.0
        self._trace_metrics: List[Any] = []
        self._traced_runs = 0
        self._run_info: "OrderedDict[str, Tuple[str, str, str]]" = \
            OrderedDict()

        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._runs_total = self.registry.counter(
            "repro_serve_runs_total",
            "Run lifecycle events (submitted/admitted/completed/...).",
            ("event",))
        self._tenant_runs = self.registry.counter(
            "repro_serve_tenant_runs_total",
            "Run lifecycle events split by tenant.",
            ("tenant", "event"))
        self._graph_runs = self.registry.counter(
            "repro_serve_graph_runs_total",
            "Run lifecycle events split by graph.",
            ("graph", "event"))
        in_flight = self.registry.gauge(
            "repro_serve_in_flight", "Admitted-but-unfinished runs.")
        in_flight.set_function(lambda: self._in_flight)
        self.latency = self.registry.histogram(
            "repro_serve_run_latency_seconds",
            "Submit-to-finish run latency (log2 millisecond buckets).",
            buckets=LATENCY_BUCKETS)
        self.registry.register_collector(_collect_plan_cache)
        self.registry.register_collector(self._collect_run_info)

    # -- recording ---------------------------------------------------------

    def _bump(self, table: Dict[str, Dict[str, int]], key: str,
              counter: str) -> None:
        row = table.get(key)
        if row is None:
            row = table[key] = {}
        row[counter] = row.get(counter, 0) + 1

    def _export(self, counter: str, tenant: str, graph: str) -> None:
        # Instruments carry their own locks; called outside self._lock.
        self._runs_total.labels(event=counter).inc()
        if tenant:
            self._tenant_runs.labels(tenant=tenant, event=counter).inc()
        if graph:
            self._graph_runs.labels(graph=graph, event=counter).inc()

    def count(self, counter: str, *, tenant: str = "",
              graph: str = "") -> None:
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + 1
            if tenant:
                self._bump(self._per_tenant, tenant, counter)
            if graph:
                self._bump(self._per_graph, graph, counter)
        self._export(counter, tenant, graph)

    def run_admitted(self, tenant: str, graph: str,
                     run_id: str = "") -> None:
        with self._lock:
            self._counters["admitted"] += 1
            self._in_flight += 1
            self._bump(self._per_tenant, tenant, "admitted")
            self._bump(self._per_graph, graph, "admitted")
            if run_id:
                self._run_info_locked(run_id, tenant, graph, "running")
        self._export("admitted", tenant, graph)

    def run_finished(self, tenant: str, graph: str, state: str,
                     latency_s: float,
                     trace_metrics: Any = None,
                     run_id: str = "") -> None:
        counter = {"ok": "completed", "failed": "failed",
                   "stalled": "stalled"}.get(state, "errors")
        with self._lock:
            self._counters[counter] += 1
            self._in_flight = max(0, self._in_flight - 1)
            self._bump(self._per_tenant, tenant, counter)
            self._bump(self._per_graph, graph, counter)
            self.latency.observe(latency_s)
            self._latency_max = max(self._latency_max, latency_s)
            if run_id:
                self._run_info_locked(run_id, tenant, graph, state)
            if trace_metrics is not None:
                self._traced_runs += 1
                self._trace_metrics.append(trace_metrics)
                # Bound memory: collapse pairwise once the buffer grows.
                if len(self._trace_metrics) > 64:
                    from ..observe import merge_metrics

                    merged = merge_metrics(self._trace_metrics)
                    self._trace_metrics = [merged]
        self._export(counter, tenant, graph)

    def _run_info_locked(self, run_id: str, tenant: str, graph: str,
                         state: str) -> None:
        self._run_info[run_id] = (tenant, graph, state)
        self._run_info.move_to_end(run_id)
        while len(self._run_info) > RUN_INFO_LIMIT:
            self._run_info.popitem(last=False)

    # -- Prometheus exposition ---------------------------------------------

    def _collect_run_info(self) -> List[MetricFamily]:
        with self._lock:
            rows = list(self._run_info.items())
        fam = MetricFamily(
            "repro_serve_run_info", "gauge",
            f"Recent runs (last {RUN_INFO_LIMIT}): correlation id, "
            f"tenant, graph, terminal state.")
        for rid, (tenant, graph, state) in rows:
            fam.samples.append(Sample("", {
                "run_id": rid, "tenant": tenant,
                "graph": graph, "state": state,
            }, 1.0))
        return [fam]

    def prometheus(self) -> str:
        """The ``GET /metrics?format=prometheus`` text document."""
        from ..observe.prom import render_prometheus

        return render_prometheus(self.registry)

    # -- latency -----------------------------------------------------------

    def _latency_counts(self) -> Tuple[List[int], float]:
        """Per-bucket (non-cumulative) latency counts and their sum."""
        items = self.latency.items()
        if not items:
            return [0] * (len(LATENCY_BUCKETS) + 1), 0.0
        state = items[0][1]
        return list(state.counts), state.sum

    def latency_percentile(self, p: float) -> float:
        """Approximate p-quantile of the run latency in seconds (p in
        [0, 100]), interpolated within the bucket holding it; the
        ``+Inf`` bucket ends at the largest latency seen."""
        counts, _sum = self._latency_counts()
        total = sum(counts)
        if total == 0:
            return 0.0
        target = max(1, int(round(total * p / 100.0)))
        edges = (0.0,) + LATENCY_BUCKETS + (self._latency_max,)
        seen = 0
        for i, n in enumerate(counts):
            if seen + n >= target:
                lo, hi = edges[i], edges[i + 1]
                return lo + (hi - lo) * (target - seen) / n
            seen += n
        return self._latency_max

    def _latency_doc(self) -> Dict[str, Any]:
        counts, sum_s = self._latency_counts()
        total = sum(counts)
        labels = [f"<={round(b * 1e3)}" for b in LATENCY_BUCKETS] + ["+Inf"]
        return {
            "total": total,
            "mean_s": sum_s / total if total else 0.0,
            "max_s": self._latency_max,
            "p50_s": self.latency_percentile(50),
            "p90_s": self.latency_percentile(90),
            "p99_s": self.latency_percentile(99),
            "buckets_ms": {lb: n for lb, n in zip(labels, counts) if n},
        }

    # -- snapshot ----------------------------------------------------------

    def snapshot(self, *, quotas: Optional[Dict[str, Any]] = None,
                 registry_counts: Optional[Dict[str, int]] = None,
                 queue_depth: int = 0,
                 workers: int = 0) -> Dict[str, Any]:
        """The full ``/metrics`` JSON document."""
        from ..exec import plan_cache_stats
        from ..observe import merge_metrics

        cache = plan_cache_stats()
        lookups = cache["hits"] + cache["misses"]
        with self._lock:
            observe_agg = None
            if self._trace_metrics:
                merged = merge_metrics(self._trace_metrics)
                observe_agg = {
                    "traced_runs": self._traced_runs,
                    "n_events": merged.n_events,
                    "wall_s": merged.wall_s,
                    "busy_s": sum(k.busy_s for k in merged.kernels.values()),
                    "blocked_s": sum(
                        k.blocked_s for k in merged.kernels.values()
                    ),
                    "queue_puts": sum(
                        q.puts for q in merged.queues.values()
                    ),
                    "queue_gets": sum(
                        q.gets for q in merged.queues.values()
                    ),
                }
            doc: Dict[str, Any] = {
                "runs": dict(self._counters),
                "in_flight": self._in_flight,
                "queue_depth": queue_depth,
                "workers": workers,
                "latency": self._latency_doc(),
                "plan_cache": {
                    **cache,
                    "hit_rate": cache["hits"] / lookups if lookups else 0.0,
                },
                "tenants": {
                    name: dict(row)
                    for name, row in sorted(self._per_tenant.items())
                },
                "graphs": {
                    name: dict(row)
                    for name, row in sorted(self._per_graph.items())
                },
                "observe": observe_agg,
            }
        if quotas is not None:
            for name, row in quotas.items():
                doc["tenants"].setdefault(name, {}).update(row)
        if registry_counts is not None:
            doc["registry"] = registry_counts
        return doc


def _collect_plan_cache() -> List[MetricFamily]:
    """Scrape-time view of the process-wide compiled-plan cache."""
    from ..exec import plan_cache_stats

    cache = plan_cache_stats()

    def fam(name: str, kind: str, help: str, value: float) -> MetricFamily:
        return MetricFamily(name, kind, help,
                            [Sample("", {}, float(value))])

    return [
        fam("repro_serve_plan_cache_hits_total", "counter",
            "Compiled-plan cache hits.", cache["hits"]),
        fam("repro_serve_plan_cache_misses_total", "counter",
            "Compiled-plan cache misses.", cache["misses"]),
        fam("repro_serve_plan_cache_evictions_total", "counter",
            "Compiled-plan cache evictions.", cache["evictions"]),
        fam("repro_serve_plan_cache_entries", "gauge",
            "Compiled plans currently cached.", cache["entries"]),
        fam("repro_serve_plan_cache_graphs", "gauge",
            "Distinct graphs with cached plans.", cache["graphs"]),
        fam("repro_serve_plan_cache_limit", "gauge",
            "Plan-cache entry capacity.", cache["limit"]),
    ]
