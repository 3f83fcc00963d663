"""repro.exec — unified pluggable execution-backend layer.

One graph IR, many interchangeable execution targets.  Every engine in
the repo (the cooperative cgsim runtime, the thread-per-kernel x86sim
runner, the extractor's executable pysim path) registers here as an
:class:`ExecutionBackend`, and every call site selects engines by name
through one entry point::

    from repro.exec import run_graph, available_backends

    out: list = []
    result = run_graph(graph, data, out, backend="cgsim")
    assert result.completed and available_backends() == [
        "cgsim", "cgsim-mp", "pysim", "x86sim",
    ]

Which run options each backend honours, ignores or rejects is one
table, :mod:`repro.exec.spec` (``python -m repro.exec list-backends``).

See ``docs/EXEC_BACKENDS.md`` for the protocol contract and how to plug
in new engines.
"""

from .api import (
    ExecutionBackend,
    ExecutionPlan,
    RunResult,
    available_backends,
    clear_resolve_cache,
    get_backend,
    register_backend,
    resolve_graph,
    run_graph,
    summarize_sink,
)
from .backends import CgsimBackend, PysimBackend, X86simBackend
from ..mp.backend import CgsimMpBackend  # registers "cgsim-mp"
from .optimize import (
    OPTIMIZE_LEVELS,
    analyze_graph,
    clear_fused_equivalents,
    fusion_registry_epoch,
    register_fused_equivalent,
)
from .plan_cache import (
    clear_plan_cache,
    get_plan,
    get_plan_cache_limit,
    plan_cache_stats,
    set_plan_cache_limit,
)
from ..core.fused import OptimizedPlan

__all__ = [
    "ExecutionBackend",
    "ExecutionPlan",
    "RunResult",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_graph",
    "clear_resolve_cache",
    "run_graph",
    "summarize_sink",
    "CgsimBackend",
    "CgsimMpBackend",
    "PysimBackend",
    "X86simBackend",
    "OPTIMIZE_LEVELS",
    "OptimizedPlan",
    "analyze_graph",
    "register_fused_equivalent",
    "clear_fused_equivalents",
    "fusion_registry_epoch",
    "get_plan",
    "clear_plan_cache",
    "plan_cache_stats",
    "set_plan_cache_limit",
    "get_plan_cache_limit",
]
