"""The graph-as-a-service core, independent of HTTP plumbing.

:class:`GraphService` ties the pieces together: wire parsing →
per-tenant quota check → bounded-scheduler admission → concurrent
``run_graph`` execution on the worker pool → run registry + metrics.
The HTTP layer (:mod:`repro.serve.server`) is a thin JSON shim over
this object, so tests and benchmarks can also drive the service
in-process without sockets.

Failure isolation is structural: every run executes under
``on_error="isolate"`` by default (a tenant's crashing kernel produces a
contained :class:`~repro.faults.FailureReport`, not a worker death), a
raise that escapes ``run_graph`` is caught per job and recorded as a
structured ``error`` on the run record, and the compiled-plan cache is
shared across all submissions — repeat structures skip recompilation
process-wide (see ``plan_cache`` in the ``/metrics`` document).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..exec.spec import OPTIONS
from .metrics import ServiceMetrics
from .quotas import QuotaManager
from .registry import RunRecord, RunRegistry
from .scheduler import AdmissionError, DrainingError, RunScheduler
from .wire import Submission, WireError, encode_value, parse_submission

__all__ = ["ServeConfig", "GraphService", "default_apps"]

#: Backends the service exposes by default.  ``cgsim-mp`` is excluded:
#: forking worker processes from a multi-threaded server is unsafe.
DEFAULT_BACKENDS = ("cgsim", "pysim", "x86sim")


def default_apps() -> Dict[str, Any]:
    """The four paper apps as served named graphs."""
    from ..apps import bilinear, bitonic, farrow, iir

    return {
        "bitonic": bitonic.BITONIC_GRAPH,
        "farrow": farrow.FARROW_GRAPH,
        "iir": iir.IIR_GRAPH,
        "bilinear": bilinear.BILINEAR_GRAPH,
    }


@dataclass
class ServeConfig:
    """Tunables of one service instance (CLI flags mirror these)."""

    workers: int = 4
    queue_depth: int = 64
    #: Per-tenant cap on admitted-but-unfinished runs (0 = off).
    tenant_in_flight: int = 16
    #: Per-tenant sustained submissions/second (0 = off) and burst.
    tenant_rate: float = 0.0
    tenant_burst: float = 32.0
    allowed_backends: Tuple[str, ...] = DEFAULT_BACKENDS
    default_on_error: str = "isolate"
    #: Reject request bodies larger than this many bytes.
    max_body_bytes: int = 64 * 1024 * 1024
    #: Terminal run records retained before oldest-first eviction.
    max_records: int = 10_000
    #: Default no-progress watchdog window in seconds applied to every
    #: run (0 = off); submissions may set their own ``watchdog`` option.
    watchdog_s: float = 0.0
    #: Directory collapsed-stack flamegraphs of profiled runs are
    #: written to (``<graph>_<run_id>.collapsed``); ``None`` keeps
    #: profiles in-memory only (still returned in the run result).
    profile_dir: Optional[str] = None
    #: Named graphs served under submission field "app"; ``None`` means
    #: :func:`default_apps`.
    apps: Optional[Dict[str, Any]] = None
    #: Extra modules imported at startup so submitted serialized graphs
    #: can resolve their kernel registry keys.
    imports: Tuple[str, ...] = ()
    #: Directory per-run checkpoints are written under
    #: (``<dir>/<run_id>/``); enables ``POST /runs/<id>/checkpoint``,
    #: on-fault capture for every cooperative-backend run, and
    #: checkpoint-on-drain during graceful shutdown.  ``None`` disables
    #: server-side checkpointing.
    checkpoint_dir: Optional[str] = None
    #: Directory of the crash-safe run-registry journal
    #: (``<dir>/runs.journal.jsonl``).  A restarted server replays it:
    #: finished runs keep their state, in-flight runs come back as
    #: ``error``/``ServerRestart`` with their last checkpoint path.
    persist_dir: Optional[str] = None
    #: Seconds the graceful drain waits for in-flight runs before the
    #: process gives up and stops anyway.
    drain_deadline_s: float = 10.0
    extra: Dict[str, Any] = field(default_factory=dict)


class GraphService:
    """One multi-tenant run service (no sockets; see ``server.py``)."""

    #: Backends that honour the ``checkpoint=`` run option (the
    #: run-option table, :mod:`repro.exec.spec`).
    CHECKPOINTABLE_BACKENDS = tuple(sorted(
        b for b, c in OPTIONS["checkpoint"].cells.items()
        if c.action == "honoured"))

    def __init__(self, config: Optional[ServeConfig] = None):
        import os
        import threading

        self.config = config or ServeConfig()
        for mod in self.config.imports:
            __import__(mod)
        self.apps = (default_apps() if self.config.apps is None
                     else dict(self.config.apps))
        journal = None
        if self.config.persist_dir:
            journal = os.path.join(self.config.persist_dir,
                                   "runs.journal.jsonl")
        self.registry = RunRegistry(max_records=self.config.max_records,
                                    journal_path=journal)
        self.quotas = QuotaManager(
            max_in_flight=self.config.tenant_in_flight,
            rate=self.config.tenant_rate,
            burst=self.config.tenant_burst,
        )
        self.scheduler = RunScheduler(
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
        )
        self.metrics = ServiceMetrics()
        #: run_id -> CheckpointTrigger for currently-executing runs.
        self._triggers: Dict[str, Any] = {}
        self._triggers_lock = threading.Lock()
        self.draining = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.scheduler.start()

    def stop(self) -> None:
        self.scheduler.stop()
        self.registry.close()

    def drain(self, deadline_s: Optional[float] = None) -> bool:
        """Graceful shutdown: stop admitting, checkpoint what's running,
        wait for in-flight runs, then stop the pool.

        New submissions are refused with HTTP 503 + Retry-After the
        moment draining starts.  Every currently-executing run with a
        registered checkpoint trigger is asked to capture at its next
        quiescent point, so even if the deadline expires and the process
        exits with runs unfinished, a restart recovers their records
        (via the journal) *with* a resumable checkpoint path.  Returns
        True when the pool went idle before the deadline.
        """
        import os

        deadline = (self.config.drain_deadline_s
                    if deadline_s is None else float(deadline_s))
        self.draining = True
        with self._triggers_lock:
            triggers = list(self._triggers.values())
        for trig in triggers:
            trig.request()
        idle = self.scheduler.wait_idle(timeout=deadline)
        # Runs that did not finish before the deadline: journal their
        # newest on-disk checkpoint so the post-restart record carries a
        # resumable path.
        if self.config.checkpoint_dir:
            from ..checkpoint import latest_checkpoint

            with self._triggers_lock:
                still_running = list(self._triggers.keys())
            for rid in still_running:
                path = latest_checkpoint(
                    os.path.join(self.config.checkpoint_dir, rid), rid)
                if path:
                    self.registry.annotate(rid, checkpoint_path=path)
        self.stop()
        return idle

    # -- submission --------------------------------------------------------

    def submit(self, tenant: str, body: bytes,
               run_id: Optional[str] = None) -> RunRecord:
        """Parse, admit, and enqueue one run.

        *run_id* is an optional caller-supplied correlation id (the
        HTTP layer validates ``X-Run-Id`` / W3C ``traceparent`` into
        it); omitted, the registry mints one.  The id is the record key
        AND the trace-context ``run_id`` the execution stamps on every
        observe event, so one identifier follows the run from the HTTP
        response through the Prometheus scrape to the Chrome trace.

        Raises :class:`~repro.serve.wire.WireError` on malformed
        payloads (HTTP 400-family, 409 on a run-id collision) and
        :class:`~repro.serve.scheduler.AdmissionError` when quotas or
        the queue bound reject the run (HTTP 429).
        """
        if self.draining:
            self.metrics.count("rejected_draining", tenant=tenant)
            raise DrainingError()
        self.metrics.count("submitted", tenant=tenant)
        sub = parse_submission(
            body,
            apps=self.apps,
            allowed_backends=self.config.allowed_backends,
            default_on_error=self.config.default_on_error,
            max_body=self.config.max_body_bytes,
        )
        if getattr(sub.retry, "resume", False) and (
                not self.config.checkpoint_dir
                or sub.backend not in self.CHECKPOINTABLE_BACKENDS):
            raise WireError(
                "retry.resume needs server-side checkpointing: the "
                "server must run with --checkpoint-dir and the backend "
                "must support in-run capture "
                f"({', '.join(self.CHECKPOINTABLE_BACKENDS)})",
                status=409,
            )
        decision = self.quotas.admit(tenant)
        if not decision:
            self.metrics.count("rejected_quota", tenant=tenant,
                               graph=sub.graph_name)
            raise AdmissionError(decision.reason,
                                 retry_after_s=decision.retry_after_s)
        try:
            record = self.registry.create(
                tenant=tenant, graph_name=sub.graph_name,
                backend=sub.backend, label=sub.label,
                options=sub.raw_options, run_id=run_id,
            )
        except KeyError:
            self.quotas.release(tenant)
            raise WireError(
                f"run id {run_id!r} already exists", status=409,
            )
        try:
            self.scheduler.submit(lambda: self._execute(record, sub))
        except AdmissionError:
            self.quotas.release(tenant)
            self.registry.drop(record.run_id)
            self.metrics.count("rejected_queue", tenant=tenant,
                               graph=sub.graph_name)
            raise
        self.metrics.run_admitted(tenant, sub.graph_name,
                                  run_id=record.run_id)
        return record

    def submit_json(self, tenant: str, doc: Dict[str, Any]) -> RunRecord:
        """In-process convenience: submit an already-built JSON object."""
        import json

        return self.submit(tenant, json.dumps(doc).encode("utf-8"))

    # -- execution (worker threads) ---------------------------------------

    def _execute(self, record: RunRecord, sub: Submission) -> None:
        from ..exec import run_graph

        self.registry.mark_running(record.run_id)
        sinks: List[Any] = [[] for _ in range(sub.n_outputs)]
        state = "error"
        trace_metrics = None
        options = dict(sub.options)
        profile = self._profile_spec(options.pop("profile", False))
        watchdog = self._build_watchdog(
            record, options.pop("watchdog", None))
        ckpt_policy = self._build_checkpoint(record, sub)
        if ckpt_policy is not None:
            options["checkpoint"] = ckpt_policy
            with self._triggers_lock:
                self._triggers[record.run_id] = ckpt_policy.trigger
        try:
            result = run_graph(
                sub.graph, *sub.inputs, *sinks,
                backend=sub.backend,
                retry=sub.retry,
                observe=True if sub.trace else None,
                run_id=record.run_id,
                labels={"tenant": record.tenant,
                        "graph": record.graph_name},
                profile=profile,
                watchdog=watchdog,
                **options,
            )
            state = result.status
            ckpt_path = ""
            if result.checkpoint is not None:
                ckpt_path = str(getattr(result.checkpoint, "last", "") or "")
            if not ckpt_path and result.failure is not None:
                ckpt_path = str(
                    getattr(result.failure, "checkpoint_path", "") or "")
            if ckpt_path:
                self.registry.annotate(record.run_id,
                                       checkpoint_path=ckpt_path)
            outputs_wire = None
            if sub.return_outputs:
                outputs_wire = [encode_value(s) for s in sinks]
            trace_events = None
            if sub.trace and result.trace is not None:
                trace_events = result.trace.events
                trace_metrics = result.metrics
            self.registry.finish(
                record.run_id, state,
                result_wire=result.to_json(),
                outputs_wire=outputs_wire,
                trace_events=trace_events,
                trace_metrics=trace_metrics,
            )
        except BaseException as exc:
            # Uncontained raise (bad option combo, strict deadlock,
            # service bug): isolate it to this run record.
            state = "error"
            ckpt_path = str(getattr(exc, "checkpoint_path", "") or "")
            if ckpt_path:
                self.registry.annotate(record.run_id,
                                       checkpoint_path=ckpt_path)
            self.registry.finish(
                record.run_id, "error",
                error={
                    "error_type": type(exc).__name__,
                    "error": str(exc),
                },
            )
        finally:
            if ckpt_policy is not None:
                with self._triggers_lock:
                    self._triggers.pop(record.run_id, None)
            self.quotas.release(record.tenant)
            finished = self.registry.get(record.run_id)
            latency = (finished.latency_s
                       if finished is not None and
                       finished.latency_s is not None else 0.0)
            self.metrics.run_finished(
                record.tenant, record.graph_name, state, latency,
                trace_metrics=trace_metrics, run_id=record.run_id,
            )

    def _build_checkpoint(self, record: RunRecord, sub: Submission):
        """Per-run :class:`~repro.checkpoint.CheckpointPolicy` when the
        server has a ``checkpoint_dir`` and the backend's scheduler can
        capture one (x86sim cannot).  Each run gets its own
        subdirectory and an explicit trigger, registered in
        ``self._triggers`` so ``POST /runs/<id>/checkpoint`` and the
        graceful drain can request a capture at the next quiescent
        point."""
        import os

        ckpt_dir = self.config.checkpoint_dir
        if not ckpt_dir or sub.backend not in self.CHECKPOINTABLE_BACKENDS:
            return None
        from ..checkpoint import CheckpointPolicy, CheckpointTrigger

        return CheckpointPolicy(
            dir=os.path.join(ckpt_dir, record.run_id),
            on_fault=True,
            run_id=record.run_id,
            trigger=CheckpointTrigger(),
        )

    def request_checkpoint(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Ask a running run to checkpoint at its next quiescent point
        (``POST /runs/<id>/checkpoint``).

        Returns ``None`` for an unknown run (HTTP 404).  Raises
        :class:`WireError` 409 when the run is not currently executing
        or was started without server-side checkpointing (no
        ``checkpoint_dir`` configured, or an x86sim run)."""
        rec = self.registry.get(run_id)
        if rec is None:
            return None
        with self._triggers_lock:
            trigger = self._triggers.get(run_id)
        if trigger is None:
            if rec.state in ("queued", "running"):
                raise WireError(
                    f"run {run_id} has no checkpoint trigger (server "
                    f"started without --checkpoint-dir, or backend "
                    f"{rec.backend!r} does not support in-run capture)",
                    status=409,
                )
            raise WireError(
                f"run {run_id} is {rec.state}; checkpoints can only be "
                f"requested while it is running", status=409,
            )
        trigger.request()
        self.metrics.count("checkpoint_requested", tenant=rec.tenant,
                           graph=rec.graph_name)
        return {"run_id": run_id, "requested": True,
                "state": rec.state}

    def _profile_spec(self, profile: Any) -> Any:
        """Attach the server's flamegraph directory to a tenant's
        sampling request (the output location is server policy)."""
        if not profile or profile is True:
            return profile
        out = self.config.profile_dir
        if out is None:
            return profile
        if isinstance(profile, dict):
            spec = dict(profile)
            spec["out"] = out
            return spec
        return {"mode": "sample", "out": out}

    def _build_watchdog(self, record: RunRecord, window_s: Any):
        """Per-run :class:`~repro.observe.health.ProgressWatchdog`
        whose ``on_stall`` flips the record's ``stalled_suspect``
        annotation — visible in ``GET /runs/<id>`` while the run is
        still (not) making progress."""
        window = float(window_s) if window_s else self.config.watchdog_s
        if not window or window <= 0:
            return None
        from ..observe.health import ProgressWatchdog

        run_id = record.run_id

        def _on_stall(_report) -> None:
            self.registry.annotate(run_id, stalled_suspect=True)
            self.metrics.count("stall_suspect", tenant=record.tenant,
                               graph=record.graph_name)

        return ProgressWatchdog(window, on_stall=_on_stall)

    # -- read side ---------------------------------------------------------

    def run_wire(self, run_id: str) -> Optional[Dict[str, Any]]:
        rec = self.registry.get(run_id)
        return None if rec is None else rec.to_wire()

    def trace_document(self, run_id: str) -> Optional[Dict[str, Any]]:
        """Chrome-trace JSON for a traced, finished run (``None`` when
        the run is unknown; :class:`WireError` when untraced/unfinished)."""
        rec = self.registry.get(run_id)
        if rec is None:
            return None
        if rec.state in ("queued", "running"):
            raise WireError(
                f"run {run_id} is still {rec.state}; trace is available "
                f"once it finishes", status=409,
            )
        if rec.trace_events is None:
            raise WireError(
                f"run {run_id} was not submitted with trace=true",
                status=404,
            )
        from ..observe import chrome_trace

        return chrome_trace(
            rec.trace_events,
            process_name=f"{rec.graph_name} ({run_id})",
            metadata={"run_id": rec.run_id, "tenant": rec.tenant,
                      "graph": rec.graph_name},
        )

    def metrics_document(self) -> Dict[str, Any]:
        return self.metrics.snapshot(
            quotas=self.quotas.snapshot(),
            registry_counts=self.registry.counts(),
            queue_depth=self.scheduler.pending,
            workers=self.scheduler.workers,
        )

    def prometheus_document(self) -> str:
        """Prometheus text exposition of the service registry
        (``GET /metrics?format=prometheus``)."""
        return self.metrics.prometheus()
