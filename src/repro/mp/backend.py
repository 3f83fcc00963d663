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
    RunLifecycle,
    RunResult,
    register_backend,
    resolve_graph,
)
from ..exec.spec import RunSpec
from .manager import run_sharded

__all__ = ["CgsimMpBackend"]


@register_backend
class CgsimMpBackend(ExecutionBackend):
    """Sharded multi-process cooperative runtime.

    Its run options are the ``cgsim-mp`` column of
    :mod:`repro.exec.spec`; :func:`repro.mp.manager.run_sharded` runs
    the farm and returns the result.
    """

    name = "cgsim-mp"

    def prepare_spec(self, graph: Any, io: Tuple[Any, ...],
                     spec: RunSpec) -> ExecutionPlan:
        from ..core.sources_sinks import check_io

        g = resolve_graph(graph)
        # Sinks are filled only after the farm ran; vet them now.
        check_io(g, io)
        return ExecutionPlan(backend=self.name, graph=g, io=io, spec=spec)

    def execute(self, plan: ExecutionPlan,
                watch: RunLifecycle) -> RunResult:
        return run_sharded(plan.graph, plan.io, plan.spec, watch)
