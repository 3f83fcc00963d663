"""The three built-in execution backends behind :func:`repro.exec.run_graph`.

Each adapter owns *all* engine wiring for its target — callers never
touch :class:`RuntimeContext`, :func:`run_threaded`, or the generated
module's serialization glue directly.  The adapters normalise every
engine-native report into :class:`~repro.exec.api.RunResult`.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from .api import (
    ExecutionBackend,
    ExecutionPlan,
    RunResult,
    register_backend,
    resolve_graph,
)
from .spec import RunSpec

__all__ = ["CgsimBackend", "X86simBackend", "PysimBackend", "call_graph"]


def _split_io(graph, io: Tuple[Any, ...]):
    """Sink containers are the positional tail after all sources."""
    return list(io[len(graph.inputs):])


def call_graph(graph: Any, io: Tuple[Any, ...],
               options: Dict[str, Any]):
    """The graph call operators (§3.6): one cgsim run of *graph*, its
    options bound exactly as :meth:`CgsimBackend.prepare` binds them.
    Returns the engine's :class:`~repro.core.runtime.RunReport`."""
    backend = CgsimBackend()
    return backend.run(backend.prepare(graph, io, **options)).raw


@register_backend
class CgsimBackend(ExecutionBackend):
    """Cooperative single-thread runtime (§3.6–3.8); its run options are
    the ``cgsim`` column of :mod:`repro.exec.spec`."""

    name = "cgsim"

    def _instantiate(self, graph):
        """Graph carrier → deserialized IR; pysim overrides this to
        force the generated-module serialization round trip."""
        return resolve_graph(graph)

    def prepare_spec(self, graph: Any, io: Tuple[Any, ...],
                     spec: RunSpec) -> ExecutionPlan:
        from ..core.runtime import RuntimeContext
        from .plan_cache import get_plan

        g = self._instantiate(graph)
        level = spec.optimize or "none"   # None where optimize is ignored
        rt = RuntimeContext(
            g, capacity=spec.capacity, validate=spec.validate,
            batch_io=spec.batch_io, observe=spec.observe,
            optimize_plan=get_plan(graph, g, level)
            if level != "none" else None,
            faults=spec.faults, on_error=spec.on_error,
            transport=spec.transport, watchdog=spec.watchdog,
            checkpoint=spec.checkpoint)
        rt.owns_tracer = spec.owns_tracer
        rt.backend_label = self.name
        if io or g.inputs or g.outputs:
            rt.bind_io(*io)
        return ExecutionPlan(backend=self.name, graph=g, io=io,
                             state=rt, spec=spec)

    def run(self, plan: ExecutionPlan, *, profile: bool = False) -> RunResult:
        self._claim(plan)
        spec = plan.spec
        report = plan.state.run(
            profile=profile or bool(spec.profile),
            max_steps=spec.max_steps, strict=spec.strict,
            profiler=spec.profiler)
        stats = report.stats
        return RunResult(
            backend=self.name,
            graph_name=report.graph_name,
            outputs=_split_io(plan.graph, plan.io),
            wall_time=report.wall_time,
            items_in=report.items_in,
            items_out=report.items_out,
            completed=report.completed,
            context_switches=report.context_switches,
            n_threads=1,
            kernel_fraction=report.kernel_fraction,
            task_states=dict(report.task_states),
            per_kernel_resumes=dict(stats.task_resumes),
            per_kernel_time=dict(stats.task_cpu_time),
            per_kernel_blocked=dict(stats.task_blocked_time),
            stall_diagnosis=report.stall_diagnosis,
            failure=report.failure,
            deadlock=report.deadlock,
            checkpoint=report.checkpoint,
            raw=report,
        )


@register_backend
class PysimBackend(CgsimBackend):
    """The extractor's executable backend as a first-class engine.

    Runs the graph exactly the way a generated ``graph_<name>.py``
    module does: flatten → JSON → format-checked load → deserialize →
    cgsim runtime.  Functionally identical to ``cgsim``; the round trip
    is the point — it proves the serialized form the extractor embeds is
    complete and executable (§3.5, §4.4).
    """

    name = "pysim"

    def _instantiate(self, graph):
        from ..core.builder import CompiledGraph
        from ..core.serialize import SerializedGraph, flatten_graph

        if isinstance(graph, CompiledGraph):
            ser = graph.serialized
        elif isinstance(graph, SerializedGraph):
            ser = graph
        else:
            ser = flatten_graph(resolve_graph(graph))
        return SerializedGraph.from_json(ser.to_json()).deserialize()


@register_backend
class X86simBackend(ExecutionBackend):
    """Thread-per-kernel functional simulator (§5.2); its run options are
    the ``x86sim`` column of :mod:`repro.exec.spec`."""

    name = "x86sim"

    def prepare_spec(self, graph: Any, io: Tuple[Any, ...],
                     spec: RunSpec) -> ExecutionPlan:
        from ..x86sim.runner import prepare_threads

        g = resolve_graph(graph)
        state = prepare_threads(g, io, capacity=spec.capacity,
                                timeout=spec.timeout, observe=spec.observe,
                                faults=spec.faults, on_error=spec.on_error,
                                strict=spec.strict)
        state.owns_tracer = spec.owns_tracer
        return ExecutionPlan(backend=self.name, graph=g, io=io, state=state,
                             spec=spec)

    def run(self, plan: ExecutionPlan, *, profile: bool = False) -> RunResult:
        from ..x86sim.runner import execute_plan

        self._claim(plan)
        report = execute_plan(plan.state)
        return RunResult(
            backend=self.name,
            graph_name=report.graph_name,
            outputs=_split_io(plan.graph, plan.io),
            wall_time=report.wall_time,
            items_in=report.items_in,
            items_out=report.items_out,
            completed=report.completed,
            context_switches=0,
            n_threads=report.n_threads,
            task_states=dict(report.task_states),
            stall_diagnosis=report.stall_diagnosis,
            failure=report.failure,
            deadlock=report.deadlock,
            raw=report,
        )
