"""``cgsim-mp``: the sharded multi-process execution backend.

One cooperative cgsim scheduler per OS process, the graph cut into
per-worker shards by :mod:`repro.mp.placement`, inter-worker nets
carried over shared-memory rings (:mod:`repro.mp.shm_ring`), and the
run manager (:mod:`repro.mp.manager`) merging sinks, statistics, and
observe traces back into one :class:`~repro.exec.api.RunResult`.

This is the paper's runfarm step taken literally: the same serialized
graph the extractor ships to per-realm backends is here *executed*
across a process farm, with the placement respecting realm boundaries.
"""

from __future__ import annotations

from typing import Any, Tuple

from ..errors import GraphRuntimeError
from ..exec.api import (
    ExecutionBackend,
    ExecutionPlan,
    RunResult,
    register_backend,
    resolve_graph,
)
from .manager import DEFAULT_RING_CAPACITY, run_sharded
from .shm_ring import DEFAULT_RING_BYTES

__all__ = ["CgsimMpBackend"]


@register_backend
class CgsimMpBackend(ExecutionBackend):
    """Sharded multi-process cooperative runtime.

    Options: ``workers`` (process count, default 2; the placement may
    return fewer shards than requested), ``capacity`` (local queue
    depth), ``validate`` (per-element stream type checks), ``batch_io``
    (bulk ring I/O for sources/sinks inside each worker), ``observe``
    (structured event tracing; per-worker streams are merged into one
    trace), ``on_error`` (``"fail"`` raises on worker loss; ``"isolate"``
    returns a contained :class:`~repro.faults.FailureReport` naming the
    lost shard's cancelled cone), ``stall_timeout`` (cross-worker stall
    backstop, seconds), ``ring_capacity`` / ``ring_bytes`` (inter-worker
    shared-memory ring sizing), ``run_id`` (cross-process trace
    correlation id stamped on every worker's events), ``watchdog``
    (no-progress window in seconds; the manager polls ring-header
    counters for farm liveness), ``profiler`` (a
    :class:`~repro.observe.profile.SamplingProfiler`, normally injected
    by ``run_graph(profile="sample")`` — its interval is forwarded so
    each worker samples its own scheduler and the reports merge).
    ``optimize`` is accepted and ignored
    (plan fusion is a single-scheduler concept); ``faults`` injection
    plans are not supported — containment semantics still apply to real
    worker failures.  ``checkpoint`` enables manager-side state capture
    on worker death / contained failure / stall (and ``at_end``); the
    interval and explicit triggers of the policy are ignored here —
    see :func:`repro.mp.manager.run_sharded`.
    """

    name = "cgsim-mp"
    supports_optimize = False

    def prepare(self, graph: Any, io: Tuple[Any, ...],
                **options: Any) -> ExecutionPlan:
        from ..core.queues import DEFAULT_QUEUE_CAPACITY
        from ..core.sources_sinks import check_io

        g = resolve_graph(graph)
        # Sinks are filled only after the farm ran; vet them now.
        check_io(g, io)
        opts = {
            "workers": options.pop("workers", 2),
            "capacity": options.pop("capacity", DEFAULT_QUEUE_CAPACITY),
            "validate": options.pop("validate", False),
            "batch": options.pop("batch_io", None),
            "observe": options.pop("observe", None),
            "on_error": options.pop("on_error", "fail"),
            "stall_timeout": options.pop("stall_timeout", 30.0),
            "ring_capacity": options.pop("ring_capacity",
                                         DEFAULT_RING_CAPACITY),
            "ring_bytes": options.pop("ring_bytes", DEFAULT_RING_BYTES),
            "run_id": options.pop("run_id", ""),
            "watchdog": options.pop("watchdog", None),
            "checkpoint": options.pop("checkpoint", None),
        }
        if opts["checkpoint"] is not None:
            from ..checkpoint import coerce_checkpoint

            opts["checkpoint"] = coerce_checkpoint(opts["checkpoint"])
        # run_graph ships a ready SamplingProfiler; a manager-side
        # sampler would only see the manager's poll loop, so forward the
        # interval and let every forked worker sample its own scheduler.
        profiler = options.pop("profiler", None)
        opts["profile_sample"] = float(getattr(profiler, "interval", 0.0)) \
            if profiler is not None else 0.0
        options.pop("optimize", None)
        if options.pop("faults", None) is not None:
            raise GraphRuntimeError(
                "cgsim-mp does not support fault-injection plans "
                "(containment of real worker failures still applies); "
                "run the fault plan on cgsim or x86sim"
            )
        if options:
            raise GraphRuntimeError(
                f"cgsim-mp backend got unknown options: {sorted(options)}"
            )
        return ExecutionPlan(backend=self.name, graph=g, io=io, state=opts)

    def run(self, plan: ExecutionPlan, *, profile: bool = False) -> RunResult:
        self._claim(plan)
        opts = dict(plan.state)
        report = run_sharded(
            plan.graph, plan.io,
            workers=opts["workers"],
            capacity=opts["capacity"],
            validate=opts["validate"],
            batch=opts["batch"],
            observe=opts["observe"],
            profile=profile,
            stall_timeout=opts["stall_timeout"],
            ring_capacity=opts["ring_capacity"],
            ring_bytes=opts["ring_bytes"],
            on_error=opts["on_error"],
            backend_label=self.name,
            run_id=opts["run_id"],
            watchdog=opts["watchdog"],
            profile_sample=opts["profile_sample"],
            checkpoint=opts["checkpoint"],
        )
        n_in = len(plan.graph.inputs)
        return RunResult(
            backend=self.name,
            graph_name=report.graph_name,
            outputs=list(plan.io[n_in:]),
            wall_time=report.wall_time,
            items_in=report.items_in,
            items_out=report.items_out,
            completed=report.completed,
            context_switches=report.context_switches,
            n_threads=report.n_workers,
            task_states=dict(report.task_states),
            per_kernel_resumes=dict(report.task_resumes),
            per_kernel_time=dict(report.task_cpu),
            per_kernel_blocked=dict(report.task_blocked),
            stall_diagnosis=report.stall_diagnosis,
            failure=report.failure,
            run_id=report.run_id,
            profile=report.profile,
            checkpoint=report.checkpoint,
            raw=report,
        )
