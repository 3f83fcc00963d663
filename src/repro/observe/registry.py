"""Typed metrics instruments and the process-global registry.

The standing half of the observability plane: where :mod:`.events`
records *what happened* in one run, the registry holds *live counters*
that outlast any single run — run totals per tenant, queue depth,
plan-cache effectiveness, service latency — and hands them to the
Prometheus text encoder (:mod:`.prom`) on every scrape.

Three instrument kinds, matching the Prometheus data model:

``Counter``
    Monotonically increasing float (``inc``).
``Gauge``
    Arbitrary float (``set``/``inc``/``dec``), or a callback gauge via
    ``set_function`` for values read at collect time.
``Histogram``
    Explicit upper-bound buckets (``observe``); collects the cumulative
    ``_bucket``/``_sum``/``_count`` triple Prometheus expects.

Every instrument optionally declares ``labelnames``; ``labels(...)``
returns a per-label-set child (created on first use).  Instruments are
registered get-or-create by name, so two subsystems asking for
``repro_serve_runs_total`` share one time series family.  All state
changes take the instrument lock — increments are safe from the serve
worker pool and from forked-worker merge threads alike.

Registries also accept *collector callbacks*: zero-argument functions
returning :class:`MetricFamily` lists, evaluated at scrape time.  This
is how snapshot-style sources (``plan_cache_stats``, the serve latency
histogram) are exported without double bookkeeping.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import GraphRuntimeError

__all__ = [
    "MetricError",
    "Sample",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "log2_ms_buckets",
    "DEFAULT_BUCKETS",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

#: Default histogram upper bounds (seconds), the conventional
#: Prometheus latency ladder.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def log2_ms_buckets(n: int) -> Tuple[float, ...]:
    """Upper bounds in *seconds* for a log2 millisecond ladder:
    ``<=1ms, <=2ms, <=4ms, ... <=2**(n-1) ms`` — the boundaries of the
    serve layer's run-latency histogram."""
    return tuple(0.001 * (1 << i) for i in range(n))


class MetricError(GraphRuntimeError):
    """Invalid metric/label name, kind clash, or label misuse."""


@dataclass
class Sample:
    """One exposition line: ``name+suffix{labels} value``."""

    suffix: str
    labels: Dict[str, str]
    value: float


@dataclass
class MetricFamily:
    """One named time-series family, as rendered under a single
    ``# TYPE`` header."""

    name: str
    kind: str
    help: str
    samples: List[Sample] = field(default_factory=list)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for ln in names:
        if not _LABEL_RE.match(ln or "") or ln.startswith("__") or ln == "le":
            raise MetricError(f"invalid label name {ln!r}")
    if len(set(names)) != len(names):
        raise MetricError(f"duplicate label names in {names!r}")
    return names


class _Instrument:
    """Shared labeled-children machinery for all three kinds."""

    kind = ""

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}

    # -- label plumbing ------------------------------------------------------

    def _key(self, labelvalues: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        return tuple(str(labelvalues[ln]) for ln in self.labelnames)

    def _unlabeled(self) -> Tuple[str, ...]:
        if self.labelnames:
            raise MetricError(
                f"{self.name} is labeled {self.labelnames}; "
                f"use .labels(...) first"
            )
        return ()

    def _fresh(self):  # per-kind child state
        raise NotImplementedError

    def _child(self, key: Tuple[str, ...]):
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._fresh()
            return child

    def items(self) -> List[Tuple[Dict[str, str], Any]]:
        """Snapshot of ``(labels-dict, child-state)`` pairs."""
        with self._lock:
            keys = list(self._children.items())
        return [(dict(zip(self.labelnames, k)), v) for k, v in keys]

    def clear(self) -> None:
        with self._lock:
            self._children.clear()

    def collect(self) -> MetricFamily:
        raise NotImplementedError

    def __repr__(self):
        return (f"<{type(self).__name__} {self.name} "
                f"labels={list(self.labelnames)}>")


class _CounterChild:
    __slots__ = ("_parent", "_key")

    def __init__(self, parent: "Counter", key: Tuple[str, ...]):
        self._parent = parent
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._parent._inc(self._key, amount)

    @property
    def value(self) -> float:
        return self._parent._get(self._key)


class Counter(_Instrument):
    """Monotonic counter; ``inc(n)`` with n >= 0."""

    kind = "counter"

    def _fresh(self) -> float:
        return 0.0

    def _inc(self, key: Tuple[str, ...], amount: float) -> None:
        if amount < 0:
            raise MetricError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def _get(self, key: Tuple[str, ...]) -> float:
        with self._lock:
            return self._children.get(key, 0.0)

    def labels(self, **labelvalues: Any) -> _CounterChild:
        key = self._key(labelvalues)
        self._child(key)
        return _CounterChild(self, key)

    def inc(self, amount: float = 1.0) -> None:
        self._inc(self._unlabeled(), amount)

    def value(self, **labelvalues: Any) -> float:
        key = self._key(labelvalues) if labelvalues else self._unlabeled()
        return self._get(key)

    def collect(self) -> MetricFamily:
        fam = MetricFamily(self.name, self.kind, self.help)
        for labels, v in sorted(self.items(), key=lambda kv: sorted(
                kv[0].items())):
            fam.samples.append(Sample("", labels, v))
        if not self.labelnames and not fam.samples:
            fam.samples.append(Sample("", {}, 0.0))
        return fam


class _GaugeChild:
    __slots__ = ("_parent", "_key")

    def __init__(self, parent: "Gauge", key: Tuple[str, ...]):
        self._parent = parent
        self._key = key

    def set(self, value: float) -> None:
        self._parent._set(self._key, value)

    def inc(self, amount: float = 1.0) -> None:
        self._parent._add(self._key, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._parent._add(self._key, -amount)

    @property
    def value(self) -> float:
        return self._parent._get(self._key)


class Gauge(_Instrument):
    """Point-in-time value; settable, or computed at scrape time via
    ``set_function``."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._fn: Optional[Callable[[], float]] = None

    def _fresh(self) -> float:
        return 0.0

    def _set(self, key: Tuple[str, ...], value: float) -> None:
        with self._lock:
            self._children[key] = float(value)

    def _add(self, key: Tuple[str, ...], amount: float) -> None:
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def _get(self, key: Tuple[str, ...]) -> float:
        with self._lock:
            return self._children.get(key, 0.0)

    def labels(self, **labelvalues: Any) -> _GaugeChild:
        key = self._key(labelvalues)
        self._child(key)
        return _GaugeChild(self, key)

    def set(self, value: float) -> None:
        self._set(self._unlabeled(), value)

    def inc(self, amount: float = 1.0) -> None:
        self._add(self._unlabeled(), amount)

    def dec(self, amount: float = 1.0) -> None:
        self._add(self._unlabeled(), -amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the gauge from *fn* at collect time (unlabeled only)."""
        self._unlabeled()
        self._fn = fn

    def value(self, **labelvalues: Any) -> float:
        if self._fn is not None:
            return float(self._fn())
        key = self._key(labelvalues) if labelvalues else self._unlabeled()
        return self._get(key)

    def collect(self) -> MetricFamily:
        fam = MetricFamily(self.name, self.kind, self.help)
        if self._fn is not None:
            try:
                fam.samples.append(Sample("", {}, float(self._fn())))
            except Exception:  # a broken callback must not kill the scrape
                pass
            return fam
        for labels, v in sorted(self.items(), key=lambda kv: sorted(
                kv[0].items())):
            fam.samples.append(Sample("", labels, v))
        if not self.labelnames and not fam.samples:
            fam.samples.append(Sample("", {}, 0.0))
        return fam


class _HistogramState:
    __slots__ = ("counts", "sum")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets  # per-bucket, non-cumulative
        self.sum = 0.0


class _HistogramChild:
    __slots__ = ("_parent", "_key")

    def __init__(self, parent: "Histogram", key: Tuple[str, ...]):
        self._parent = parent
        self._key = key

    def observe(self, value: float) -> None:
        self._parent._observe(self._key, value)


class Histogram(_Instrument):
    """Explicit-boundary histogram.  ``buckets`` are sorted upper
    bounds; an implicit ``+Inf`` bucket is always appended."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"histogram {name} buckets must be distinct and "
                f"ascending, got {bounds!r}"
            )
        self.buckets = bounds

    def _fresh(self) -> _HistogramState:
        return _HistogramState(len(self.buckets) + 1)

    def _observe(self, key: Tuple[str, ...], value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            st = self._children.get(key)
            if st is None:
                st = self._children[key] = self._fresh()
            st.counts[idx] += 1
            st.sum += value

    def labels(self, **labelvalues: Any) -> _HistogramChild:
        key = self._key(labelvalues)
        self._child(key)
        return _HistogramChild(self, key)

    def observe(self, value: float) -> None:
        self._observe(self._unlabeled(), value)

    def collect(self) -> MetricFamily:
        fam = MetricFamily(self.name, self.kind, self.help)
        items = self.items()
        if not self.labelnames and not items:
            items = [({}, self._fresh())]
        for labels, st in sorted(items, key=lambda kv: sorted(
                kv[0].items())):
            cum = 0
            for bound, c in zip(self.buckets, st.counts):
                cum += c
                fam.samples.append(Sample(
                    "_bucket", dict(labels, le=_bound_label(bound)), cum))
            total = cum + st.counts[-1]
            fam.samples.append(Sample(
                "_bucket", dict(labels, le="+Inf"), total))
            fam.samples.append(Sample("_sum", dict(labels), st.sum))
            fam.samples.append(Sample("_count", dict(labels), total))
        return fam


def _bound_label(bound: float) -> str:
    """Canonical ``le`` label value: integral bounds render without a
    trailing ``.0`` so ``le="1"`` round-trips bit-exact."""
    if bound == int(bound) and abs(bound) < 1e15:
        return str(int(bound))
    return repr(bound)


class MetricsRegistry:
    """Named instrument store with get-or-create semantics plus
    scrape-time collector callbacks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Instrument]" = {}
        self._collectors: List[Callable[[], Iterable[MetricFamily]]] = []

    # -- get-or-create constructors ------------------------------------------

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs):
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise MetricError(
                        f"{name} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                if existing.labelnames != labelnames:
                    raise MetricError(
                        f"{name} already registered with labels "
                        f"{existing.labelnames}, not {labelnames}"
                    )
                return existing
            inst = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = inst
            return inst

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    # -- registration surface ------------------------------------------------

    def register(self, instrument: _Instrument) -> _Instrument:
        with self._lock:
            existing = self._metrics.get(instrument.name)
            if existing is not None and existing is not instrument:
                raise MetricError(
                    f"{instrument.name} already registered"
                )
            self._metrics[instrument.name] = instrument
        return instrument

    def unregister(self, name: str) -> None:
        with self._lock:
            self._metrics.pop(name, None)

    def register_collector(
            self, fn: Callable[[], Iterable[MetricFamily]]) -> None:
        """Evaluate *fn* on every :meth:`collect`; it returns zero or
        more :class:`MetricFamily` built from external state."""
        with self._lock:
            self._collectors.append(fn)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._metrics.get(name)

    # -- scrape --------------------------------------------------------------

    def collect(self) -> List[MetricFamily]:
        """All families, instruments first then collectors, sorted by
        family name.  A collector that raises is skipped (a broken
        panel must not take the scrape endpoint down)."""
        with self._lock:
            instruments = list(self._metrics.values())
            collectors = list(self._collectors)
        families = [inst.collect() for inst in instruments]
        for fn in collectors:
            try:
                families.extend(fn())
            except Exception:
                continue
        seen: Dict[str, MetricFamily] = {}
        for fam in families:
            if fam.name in seen:  # merge duplicate families by name
                seen[fam.name].samples.extend(fam.samples)
            else:
                seen[fam.name] = fam
        return [seen[name] for name in sorted(seen)]

    def clear(self) -> None:
        """Drop every instrument and collector (testing hook)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry.  Library code that wants standing
    metrics without plumbing a registry through every layer registers
    here; :class:`~repro.serve.service.GraphService` uses a private
    registry per service instance so tests stay isolated."""
    return _DEFAULT_REGISTRY
