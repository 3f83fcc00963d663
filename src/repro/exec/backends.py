"""The three built-in execution backends behind :func:`repro.exec.run_graph`.

Each adapter owns *all* engine wiring for its target — callers never
touch :class:`RuntimeContext`, :func:`prepare_threads`, or the generated
module's serialization glue directly.  Every engine takes the bound
:class:`~repro.exec.spec.RunSpec` and returns the
:class:`~repro.core.result.RunResult` itself.
"""

from __future__ import annotations

from typing import Any, Tuple

from .api import (
    ExecutionBackend,
    ExecutionPlan,
    RunLifecycle,
    RunResult,
    register_backend,
    resolve_graph,
)
from .spec import RunSpec

__all__ = ["CgsimBackend", "X86simBackend", "PysimBackend"]


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
        rt = RuntimeContext(g, spec, optimize_plan=get_plan(graph, g, level)
                            if level != "none" else None)
        if io or g.inputs or g.outputs:
            try:
                rt.bind_io(*io)
            except BaseException:
                rt.discard()
                raise
        return ExecutionPlan(backend=self.name, graph=g, io=io,
                             state=rt, spec=spec)

    def execute(self, plan: ExecutionPlan,
                watch: RunLifecycle) -> RunResult:
        plan.state.spec = plan.spec   # run(profile=True) may replace it
        return plan.state.run(watch)


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
        return ExecutionPlan(backend=self.name, graph=g, io=io,
                             state=prepare_threads(g, io, spec), spec=spec)

    def execute(self, plan: ExecutionPlan,
                watch: RunLifecycle) -> RunResult:
        from ..x86sim.runner import execute_plan

        return execute_plan(plan.state)
