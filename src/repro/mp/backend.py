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

from ..exec.api import (
    ExecutionBackend,
    ExecutionPlan,
    RunResult,
    register_backend,
    resolve_graph,
)
from ..exec.spec import RunSpec
from .manager import run_sharded

__all__ = ["CgsimMpBackend"]

#: Spec fields handed to :func:`run_sharded` under their own names.
_FORWARDED = ("workers", "capacity", "validate", "observe", "stall_timeout",
              "ring_capacity", "ring_bytes", "on_error", "run_id",
              "watchdog", "checkpoint")


@register_backend
class CgsimMpBackend(ExecutionBackend):
    """Sharded multi-process cooperative runtime.

    Its run options are the ``cgsim-mp`` column of
    :mod:`repro.exec.spec`; ``checkpoint`` capture is manager-side (see
    :func:`repro.mp.manager.run_sharded`).
    """

    name = "cgsim-mp"

    def prepare_spec(self, graph: Any, io: Tuple[Any, ...],
                     spec: RunSpec) -> ExecutionPlan:
        from ..core.sources_sinks import check_io

        g = resolve_graph(graph)
        # Sinks are filled only after the farm ran; vet them now.
        check_io(g, io)
        return ExecutionPlan(backend=self.name, graph=g, io=io, spec=spec)

    def run(self, plan: ExecutionPlan, *, profile: bool = False) -> RunResult:
        self._claim(plan)
        spec = plan.spec
        sampler = spec.profiler
        try:
            report = run_sharded(
                plan.graph, plan.io, batch=spec.batch_io,
                profile=profile or bool(spec.profile),
                profile_sample=0.0 if sampler is None else sampler.interval,
                backend_label=self.name,
                **{k: getattr(spec, k) for k in _FORWARDED})
        finally:
            if spec.owns_tracer:
                spec.observe.close()
        return RunResult(
            backend=self.name,
            graph_name=report.graph_name,
            outputs=list(plan.io[len(plan.graph.inputs):]),
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
