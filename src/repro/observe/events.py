"""Structured execution events and the :class:`Tracer` front door.

One event schema for every execution engine (cgsim, pysim, x86sim): the
scheduler, the queues, and the thread runner all report what happened
through a single :class:`Tracer`, which timestamps each occurrence,
feeds the streaming metrics aggregator, and forwards the event to the
configured sink (ring buffer, JSONL file, Chrome-trace file — see
:mod:`repro.observe.sinks`).

Event schema (version 2)
------------------------

Every event carries ``(ts, kind, task, queue, op, n, fill, meta)``;
unused fields stay at their defaults and are omitted from serialized
forms.  ``ts`` is a :func:`time.perf_counter` timestamp in seconds,
assigned under the tracer lock so the event stream is totally ordered
even when emitted from multiple threads (x86sim).

Schema 2 adds four correlation fields, all default-omitted so v1
consumers keep working unchanged: ``run`` (the ``run_id`` minted by
:meth:`repro.exec.ExecutionBackend.run` or accepted from an inbound
``X-Run-Id``/``traceparent`` header), ``labels`` (tenant/graph context
stamped by the serve layer), and ``worker``/``seq`` (originating
cgsim-mp worker id and per-worker sequence number, stamped at merge
time so equal-timestamp events from different forked processes keep a
deterministic total order — see :meth:`Tracer.ingest_all`).

=================  ==========================================================
kind               meaning / populated fields
=================  ==========================================================
``run.begin``      execution started; ``meta`` = graph, backend, schema
``run.end``        execution finished; ``meta`` = graph, backend
``task.start``     first resume of a task; ``meta["role"]`` is
                   kernel/source/sink
``task.resume``    a parked or ready task starts running again
``task.suspend``   task stopped running; ``op`` = read/write/yield,
                   ``queue`` names the stream it parked on, ``n`` is the
                   batched-I/O partial progress carried into the park
``task.unpark``    a queue operation moved the task from a waiter list
                   back to ready; ``meta["by"]`` names the unblocking
                   task where known (cgsim)
``task.finish``    the task's coroutine/thread completed
``task.fail``      the task raised; ``meta["error"]`` summarises it
``queue.put``      ``n`` element(s) appended; ``fill`` = occupancy after
``queue.get``      ``n`` element(s) popped; ``fill`` = remaining for the
                   reading consumer
``health.stall``   the progress watchdog saw no forward progress for its
                   window; ``meta`` = window_s + a ``describe_blockage``
                   snapshot (see :mod:`repro.observe.health`)
=================  ==========================================================

The no-op path is the design constraint: when tracing is off no Tracer
exists, every engine's queues run their plain transfer methods (queue
events come from the one :func:`repro.core.transport.traced` proxy,
installed at queue construction only when a tracer records queue
events), and the remaining hook sites — once per scheduler context
switch — are single ``is not None`` checks (see
``benchmarks/bench_observe_overhead.py``).
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "RUN_BEGIN", "RUN_END",
    "TASK_START", "TASK_RESUME", "TASK_SUSPEND", "TASK_UNPARK",
    "TASK_FINISH", "TASK_FAIL",
    "QUEUE_PUT", "QUEUE_GET",
    "FAULT_INJECT", "HEALTH_STALL",
    "EVENT_KINDS",
    "Event",
    "Tracer",
]

#: Version stamp carried in the ``run.begin`` event's metadata.
#: Version 2 adds the ``run``/``labels``/``worker``/``seq`` correlation
#: fields and the ``health.stall`` kind; all additions are
#: default-omitted, so v1 readers parse v2 streams unchanged.
SCHEMA_VERSION = 2

RUN_BEGIN = "run.begin"
RUN_END = "run.end"
TASK_START = "task.start"
TASK_RESUME = "task.resume"
TASK_SUSPEND = "task.suspend"
TASK_UNPARK = "task.unpark"
TASK_FINISH = "task.finish"
TASK_FAIL = "task.fail"
QUEUE_PUT = "queue.put"
QUEUE_GET = "queue.get"
FAULT_INJECT = "fault.inject"
HEALTH_STALL = "health.stall"
CHECKPOINT_CAPTURE = "checkpoint.capture"

#: Every kind a schema-2 trace may contain.  Consumers ignore unknown
#: kinds, so additions here are always backwards-compatible.
EVENT_KINDS = frozenset({
    RUN_BEGIN, RUN_END,
    TASK_START, TASK_RESUME, TASK_SUSPEND, TASK_UNPARK,
    TASK_FINISH, TASK_FAIL,
    QUEUE_PUT, QUEUE_GET,
    FAULT_INJECT,
    HEALTH_STALL,
    CHECKPOINT_CAPTURE,
})


class Event:
    """One structured execution event (see the module schema table)."""

    __slots__ = ("ts", "kind", "task", "queue", "op", "n", "fill", "meta",
                 "run", "labels", "worker", "seq")

    def __init__(self, ts: float, kind: str, task: str = "",
                 queue: str = "", op: str = "", n: int = 0,
                 fill: int = -1, meta: Optional[Dict[str, Any]] = None,
                 run: str = "", labels: Optional[Dict[str, str]] = None,
                 worker: int = -1, seq: int = -1):
        self.ts = ts
        self.kind = kind
        self.task = task
        self.queue = queue
        self.op = op
        self.n = n
        self.fill = fill
        self.meta = meta
        self.run = run
        # Shared reference (never copied per event): one labels dict is
        # stamped across a whole run's stream at pointer cost.
        self.labels = labels
        self.worker = worker
        self.seq = seq

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form with default-valued fields omitted."""
        d: Dict[str, Any] = {"ts": self.ts, "kind": self.kind}
        if self.task:
            d["task"] = self.task
        if self.queue:
            d["queue"] = self.queue
        if self.op:
            d["op"] = self.op
        if self.n:
            d["n"] = self.n
        if self.fill >= 0:
            d["fill"] = self.fill
        if self.meta:
            d["meta"] = self.meta
        if self.run:
            d["run"] = self.run
        if self.labels:
            d["labels"] = self.labels
        if self.worker >= 0:
            d["worker"] = self.worker
        if self.seq >= 0:
            d["seq"] = self.seq
        return d

    @staticmethod
    def from_dict(d: Dict[str, Any]) -> "Event":
        return Event(
            ts=float(d["ts"]),
            kind=str(d["kind"]),
            task=str(d.get("task", "")),
            queue=str(d.get("queue", "")),
            op=str(d.get("op", "")),
            n=int(d.get("n", 0)),
            fill=int(d.get("fill", -1)),
            meta=d.get("meta"),
            run=str(d.get("run", "")),
            labels=d.get("labels"),
            worker=int(d.get("worker", -1)),
            seq=int(d.get("seq", -1)),
        )

    def __eq__(self, other):
        return isinstance(other, Event) and self.to_dict() == other.to_dict()

    def __repr__(self):
        parts = [f"{self.ts:.6f}", self.kind]
        if self.task:
            parts.append(self.task)
        if self.queue:
            parts.append(f"q={self.queue}")
        if self.op:
            parts.append(self.op)
        if self.n:
            parts.append(f"n={self.n}")
        return f"<Event {' '.join(parts)}>"


class Tracer:
    """Front door of the observability layer.

    Engines call the typed ``emit_*`` helpers at their hook points; the
    tracer stamps a timestamp, feeds the streaming
    :class:`~repro.observe.metrics.MetricsAggregator`, and forwards the
    event to the sink.  A single lock makes emission safe from the
    x86sim thread pool and guarantees the event stream is ordered by
    timestamp.

    Parameters
    ----------
    sink:
        Any :class:`~repro.observe.sinks.TraceSink`; defaults to a
        bounded in-memory :class:`~repro.observe.sinks.RingSink`.
    queue_events:
        When False, engines skip attaching the tracer to queues, so no
        per-element ``queue.put``/``queue.get`` events are emitted
        (task-level slices and stall attribution still work, at a
        fraction of the event volume).
    metrics:
        When False, skip the streaming aggregator (export-only runs).
    run_id:
        Correlation id stamped on every emitted event (schema-2 ``run``
        field).  Usually set after construction by
        :meth:`repro.exec.ExecutionBackend.run` via :meth:`set_context`.
    labels:
        Context labels (tenant/graph) stamped on every emitted event as
        a shared dict reference.
    """

    def __init__(self, sink=None, *, queue_events: bool = True,
                 metrics: bool = True,
                 clock: Callable[[], float] = perf_counter,
                 run_id: str = "",
                 labels: Optional[Dict[str, str]] = None):
        from .metrics import MetricsAggregator
        from .sinks import RingSink

        self.sink = sink if sink is not None else RingSink()
        self.queue_events = queue_events
        self.aggregator = MetricsAggregator() if metrics else None
        self._clock = clock
        self._lock = threading.Lock()
        self.closed = False
        self.run_id = run_id
        self.labels = dict(labels) if labels else None

    def set_context(self, run_id: str = "",
                    labels: Optional[Dict[str, str]] = None) -> None:
        """Fill in correlation context without clobbering values the
        caller already pinned (an externally supplied ``X-Run-Id`` on a
        caller-owned tracer wins over the minted default)."""
        with self._lock:
            if run_id and not self.run_id:
                self.run_id = run_id
            if labels:
                merged = dict(labels)
                if self.labels:
                    merged.update(self.labels)
                self.labels = merged

    # -- core emission -------------------------------------------------------

    def emit(self, kind: str, task: str = "", queue: str = "", op: str = "",
             n: int = 0, fill: int = -1,
             meta: Optional[Dict[str, Any]] = None) -> None:
        with self._lock:
            ev = Event(self._clock(), kind, task, queue, op, n, fill, meta,
                       run=self.run_id, labels=self.labels)
            if self.aggregator is not None:
                self.aggregator.observe(ev)
            self.sink.write(ev)

    def ingest(self, event: Event) -> None:
        """Feed an already-stamped :class:`Event` through the aggregator
        and sink without re-stamping its timestamp.

        The merge path of multi-process runs (``cgsim-mp``): workers
        collect events with their own per-process tracers, ship them to
        the run manager, and the manager ingests them — sorted by ``ts``
        — into the caller-facing tracer.  ``perf_counter`` is
        ``CLOCK_MONOTONIC`` on Linux, so timestamps from forked workers
        share one timebase and the merged stream stays totally ordered.
        """
        with self._lock:
            if self.run_id and not event.run:
                event.run = self.run_id
            if self.labels and not event.labels:
                event.labels = self.labels
            if self.aggregator is not None:
                self.aggregator.observe(event)
            self.sink.write(event)

    def ingest_all(self, events: List[Event]) -> None:
        """Ingest a merged multi-worker batch in deterministic order.

        ``perf_counter`` timestamps from forked workers share one
        timebase but have finite resolution, so distinct workers *can*
        emit colliding timestamps.  Sorting by ``ts`` alone would then
        leave the relative order to the incoming list layout —
        stable-sorting by ``(ts, worker, seq)`` pins equal-timestamp
        events to (worker id, per-worker emission sequence) so merged
        Chrome exports are reproducible run to run.
        """
        for ev in sorted(events, key=lambda e: (e.ts, e.worker, e.seq)):
            self.ingest(ev)

    # -- typed helpers (the engine-facing surface) ---------------------------

    def run_begin(self, graph: str, backend: str) -> None:
        meta: Dict[str, Any] = {
            "graph": graph, "backend": backend, "schema": SCHEMA_VERSION,
        }
        if self.run_id:
            meta["run_id"] = self.run_id
        if self.labels:
            meta.update(self.labels)
        self.emit(RUN_BEGIN, meta=meta)

    def run_end(self, graph: str, backend: str) -> None:
        self.emit(RUN_END, meta={"graph": graph, "backend": backend})

    def task_start(self, task: str, role: str = "kernel") -> None:
        self.emit(TASK_START, task=task, meta={"role": role})

    def task_resume(self, task: str) -> None:
        self.emit(TASK_RESUME, task=task)

    def task_suspend(self, task: str, queue: str = "", op: str = "yield",
                     n: int = 0) -> None:
        self.emit(TASK_SUSPEND, task=task, queue=queue, op=op, n=n)

    def task_unpark(self, task: str, queue: str = "",
                    by: str = "") -> None:
        self.emit(TASK_UNPARK, task=task, queue=queue,
                  meta={"by": by} if by else None)

    def task_finish(self, task: str) -> None:
        self.emit(TASK_FINISH, task=task)

    def task_fail(self, task: str, error: BaseException) -> None:
        self.emit(TASK_FAIL, task=task, meta={
            "error": f"{type(error).__name__}: {error}",
        })

    def fault_inject(self, fault: str, task: str = "", queue: str = "",
                     **detail: Any) -> None:
        """One triggered fault-plan injection (repro.faults)."""
        meta: Dict[str, Any] = {"fault": fault}
        if detail:
            meta.update(detail)
        self.emit(FAULT_INJECT, task=task, queue=queue, meta=meta)

    def health_stall(self, task: str = "", window_s: float = 0.0,
                     snapshot: str = "") -> None:
        """The progress watchdog fired: no forward progress for
        *window_s* seconds; *snapshot* is a ``describe_blockage``-style
        wait-state dump taken at detection time."""
        meta: Dict[str, Any] = {"window_s": window_s}
        if snapshot:
            meta["snapshot"] = snapshot
        self.emit(HEALTH_STALL, task=task, meta=meta)

    def checkpoint_capture(self, path: str = "", reason: str = "",
                           step: int = -1) -> None:
        """A run checkpoint was written (repro.checkpoint): *path* is
        the file, *reason* the trigger (interval/explicit/on_fault/
        final), *step* the scheduler context-switch count at the
        quiescent capture point (-1 on cgsim-mp, which has no global
        step)."""
        self.emit(CHECKPOINT_CAPTURE, meta={
            "path": path, "reason": reason, "step": step,
        })

    def queue_put(self, queue: str, n: int, fill: int) -> None:
        self.emit(QUEUE_PUT, queue=queue, n=n, fill=fill)

    def queue_get(self, queue: str, n: int, fill: int) -> None:
        self.emit(QUEUE_GET, queue=queue, n=n, fill=fill)

    # -- harvest -------------------------------------------------------------

    def metrics(self):
        """Aggregated :class:`~repro.observe.metrics.TraceMetrics`, or
        ``None`` when the aggregator was disabled."""
        if self.aggregator is None:
            return None
        with self._lock:
            return self.aggregator.result()

    @property
    def events(self) -> Optional[List[Event]]:
        """The collected events when the sink retains them (ring and
        Chrome sinks do; a JSONL sink streams to disk and returns
        ``None`` — reload with :func:`repro.observe.sinks.read_jsonl`)."""
        return self.sink.events

    def close(self) -> None:
        """Flush and close the sink (idempotent)."""
        with self._lock:
            if not self.closed:
                self.closed = True
                self.sink.close()

    def __repr__(self):
        return (f"<Tracer sink={type(self.sink).__name__} "
                f"queue_events={self.queue_events}>")
